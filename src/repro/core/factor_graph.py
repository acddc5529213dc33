"""Chain decoders and semiring ops for the per-entity factor graph.

The paper's preemption model (referencing Cao et al., "On preempting
advanced persistent threats using probabilistic graphical models") is a
factor graph over a chain of hidden per-event attack states, with
factors connecting each observed alert to its hidden state, consecutive
hidden states to each other, and known attack patterns to groups of
states.  Pattern factors are folded into the per-step unary potentials
(:mod:`repro.core.streaming`), so every decode is over a chain with one
``(T, K)`` unary table and one shared ``(K, K)`` transition table.  This
module holds the arithmetic every detector decision goes through:

* :func:`chain_map_decode` (Viterbi) and :func:`chain_marginals`
  (forward-backward) -- the exact sequential decoders;
* the semiring matrix ops -- scalar ``(K, K)`` / ``(K,)`` products and
  their entity-minor stacked forms -- that the sliding-window aggregates
  (:mod:`repro.core.sliding_window`) and the stacked decode kernel
  (:mod:`repro.core.batch_kernel`) are built from.

All arithmetic is carried out in log-space with NumPy operations so long
chains (hundreds of alerts) remain numerically stable and vectorised.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

#: Log potentials, messages and scores: every float array below.
FloatArray = npt.NDArray[np.float64]
#: State indices (a MAP path).
IntArray = npt.NDArray[np.int64]
#: What ``_logsumexp`` may reduce over: one axis, several, or all.
Axis = Optional[Union[int, Tuple[int, ...]]]


def _logsumexp(array: FloatArray, axis: Axis = None, keepdims: bool = False) -> FloatArray:
    """Numerically stable log-sum-exp over any (stacked) axis.

    Slices whose maximum is ``-inf`` (all mass zero) reduce to ``-inf``
    rather than a garbage value anchored at 0; ``+inf`` propagates.
    Finite inputs follow the usual max-shifted computation bit-for-bit.

    ``axis`` may be an integer or a tuple of axes, so a stacked batch of
    vectors reduces in one vectorised call; each slice of the result is
    bit-identical to reducing that slice on its own (the shift, the
    exponentials, and the K-term sums are the same scalar operations
    either way -- pinned by the unit tests).  ``keepdims=True`` keeps
    the reduced axes as size-1 dimensions for broadcasting (the batched
    decode kernel's normalisation path).
    """
    # ufunc.reduce directly: np.max / np.sum run the same loops behind a
    # Python wrapper that costs a third of this call on length-K input.
    maximum = np.maximum.reduce(array, axis=axis, keepdims=True)
    finite = np.isfinite(maximum)
    if finite.all():
        # The common case, with the same float ops: every slice holds a
        # finite maximum, whose own term makes the sum at least 1.
        result = maximum + np.log(np.add.reduce(np.exp(array - maximum), axis=axis, keepdims=True))
    else:
        safe_max = np.where(finite, maximum, 0.0)
        with np.errstate(divide="ignore"):
            summed = np.log(np.add.reduce(np.exp(array - safe_max), axis=axis, keepdims=True))
        result = np.where(finite, safe_max + summed, maximum)
    if keepdims:
        return result
    if axis is not None:
        result = np.squeeze(result, axis=axis)
    else:
        result = result.reshape(())
    return result


def _normalize_log(message: FloatArray) -> FloatArray:
    """Normalise a log-space message so its exponentials sum to 1."""
    return message - _logsumexp(message)


def chain_map_decode(unary_log: FloatArray, pairwise_log: FloatArray) -> IntArray:
    """Viterbi decoding of a chain model, fully vectorised.

    Parameters
    ----------
    unary_log:
        Array of shape ``(T, K)`` of per-step log potentials.
    pairwise_log:
        Array of shape ``(K, K)`` of transition log potentials shared
        across steps (``pairwise_log[i, j]`` scores ``state_t=i,
        state_{t+1}=j``).

    Returns
    -------
    numpy.ndarray
        Integer array of length ``T`` with the MAP state sequence.

    The returned path maximises the chain's joint log score (verified
    against exhaustive enumeration by the test suite).
    """
    unary_log = np.asarray(unary_log, dtype=np.float64)
    pairwise_log = np.asarray(pairwise_log, dtype=np.float64)
    if unary_log.ndim != 2:
        raise ValueError("unary_log must have shape (T, K)")
    steps, states = unary_log.shape
    if pairwise_log.shape != (states, states):
        raise ValueError("pairwise_log must have shape (K, K)")
    if steps == 0:
        return np.zeros(0, dtype=np.int64)
    score = unary_log[0].copy()
    backpointers = np.zeros((steps, states), dtype=np.int64)
    for t in range(1, steps):
        candidate = score[:, None] + pairwise_log
        backpointers[t] = np.argmax(candidate, axis=0)
        score = candidate[backpointers[t], np.arange(states)] + unary_log[t]
    path = np.zeros(steps, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for t in range(steps - 1, 0, -1):
        path[t - 1] = backpointers[t, path[t]]
    return path


def chain_marginals(unary_log: FloatArray, pairwise_log: FloatArray) -> FloatArray:
    """Forward-backward marginals of a chain model, vectorised.

    Same conventions as :func:`chain_map_decode`; returns an array of
    shape ``(T, K)`` whose rows sum to one.
    """
    unary_log = np.asarray(unary_log, dtype=np.float64)
    pairwise_log = np.asarray(pairwise_log, dtype=np.float64)
    steps, states = unary_log.shape
    if steps == 0:
        return np.zeros((0, states), dtype=np.float64)
    forward = np.zeros((steps, states))
    backward = np.zeros((steps, states))
    forward[0] = _normalize_log(unary_log[0])
    for t in range(1, steps):
        prev = forward[t - 1][:, None] + pairwise_log
        forward[t] = _normalize_log(_logsumexp(prev, axis=0) + unary_log[t])
    backward[-1] = 0.0
    for t in range(steps - 2, -1, -1):
        nxt = pairwise_log + (unary_log[t + 1] + backward[t + 1])[None, :]
        backward[t] = _normalize_log(_logsumexp(nxt, axis=1))
    posterior = forward + backward
    posterior = posterior - _logsumexp(posterior, axis=1)[:, None]
    return np.exp(posterior)


# ---------------------------------------------------------------------------
# Semiring step-matrix helpers
# ---------------------------------------------------------------------------
#
# A chain decode is a product of per-step "transition ⊗ unary" matrices
# under a semiring: ``(max, +)`` for Viterbi scores, ``(logsumexp, +)``
# for forward (sum-product) messages.  The amortised sliding-window
# decoder (:mod:`repro.core.sliding_window`) aggregates the ``(max, +)``
# product with a two-stack queue so evicting the oldest step is O(K^3)
# amortised instead of an O(W * K^2) sequential rebuild; the
# ``(logsumexp, +)`` product of a window is folded on demand, as a tree,
# for the rare window whose score cannot rule it out.  K is tiny (the
# number of hidden states), so every product below is a single
# broadcast + reduce.


def maxplus_matmul(a: FloatArray, b: FloatArray) -> FloatArray:
    """(max, +) matrix product: ``C[i, j] = max_k A[i, k] + B[k, j]``."""
    return np.maximum.reduce(a[:, :, None] + b[None, :, :], axis=1)


def logsumexp_matmul(a: FloatArray, b: FloatArray) -> FloatArray:
    """(logsumexp, +) matrix product: ``C[i, j] = lse_k A[i, k] + B[k, j]``.

    Step matrices are built from floored log probabilities, so every
    entry is normally finite and the plain max-shifted computation
    (which :func:`_logsumexp` reduces to on finite input) suffices --
    without the all-``-inf``-slice handling that dominates the cost at
    K = 3.  Hard zeros (``-inf``) in user-supplied tables propagate as
    NaN, which downstream guard-banded decisions treat as "consult the
    exact decode".
    """
    stacked = a[:, :, None] + b[None, :, :]
    shift = np.maximum.reduce(stacked, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return shift + np.log(np.add.reduce(np.exp(stacked - shift[:, None, :]), axis=1))


def maxplus_vecmat(v: FloatArray, m: FloatArray) -> FloatArray:
    """(max, +) vector-matrix product: ``r[b] = max_a v[a] + M[a, b]``."""
    return np.maximum.reduce(v[:, None] + m, axis=0)


def logsumexp_vecmat(v: FloatArray, m: FloatArray) -> FloatArray:
    """(logsumexp, +) vector-matrix product: ``r[b] = lse_a v[a] + M[a, b]``.

    Same finite-input fast path (and NaN propagation on hard zeros) as
    :func:`logsumexp_matmul`.
    """
    stacked = v[:, None] + m
    shift = np.maximum.reduce(stacked, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return shift + np.log(np.add.reduce(np.exp(stacked - shift[None, :]), axis=0))


# ---------------------------------------------------------------------------
# Stacked (cross-entity) semiring products
# ---------------------------------------------------------------------------
#
# The stacked decode kernel (:mod:`repro.core.batch_kernel`), the
# window flip and the forward tree (:mod:`repro.core.sliding_window`)
# advance N independent products at once.  Stacks are *entity-minor*:
# N matrices are one ``(K, K, N)`` array, N vectors one ``(K, N)``
# array, entity ``n`` in ``[..., n]`` (the matmuls also take further
# trailing batch axes, ``(K, K, P, N)``).  A product is one broadcast add into ``(K, K, K, N)``
# and one ``ufunc.reduce`` over a leading axis, so every inner loop
# numpy runs is contiguous over N instead of a length-K = 3 loop per
# entity.  Slice ``[..., n]`` of every result is bit-identical to the
# scalar op on that slice alone: the adds, exps, logs and
# (order-independent) max reductions are the same scalar operations,
# and a reduce over a leading axis accumulates its K = 3 terms left to
# right exactly as the scalar op's does.


def maxplus_matmul_batch(a: FloatArray, b: FloatArray) -> FloatArray:
    """Stacked (max, +) products: ``C[..., n] = maxplus_matmul(A[..., n], B[..., n])``."""
    return np.maximum.reduce(a[:, :, None, :] + b[None, :, :, :], axis=1)


def logsumexp_matmul_batch(a: FloatArray, b: FloatArray) -> FloatArray:
    """Stacked (logsumexp, +) products: ``C[..., n] = logsumexp_matmul(A[..., n], B[..., n])``.

    Same finite-input fast path (and NaN propagation on hard zeros) as
    the scalar op; the shift/exp/sum/log sequence is replayed verbatim
    over the stacked axis.
    """
    stacked = a[:, :, None, :] + b[None, :, :, :]
    shift = np.maximum.reduce(stacked, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(stacked, shift[:, None, :, :], out=stacked)
        np.exp(stacked, out=stacked)
        summed = np.add.reduce(stacked, axis=1)
        np.log(summed, out=summed)
        np.add(shift, summed, out=summed)
    return summed


def maxplus_vecmat_batch(v: FloatArray, m: FloatArray) -> FloatArray:
    """Stacked (max, +) vec-mat products: ``R[:, n] = maxplus_vecmat(V[:, n], M[..., n])``."""
    return np.maximum.reduce(v[:, None, :] + m, axis=0)


def logsumexp_vecmat_batch(v: FloatArray, m: FloatArray) -> FloatArray:
    """Stacked (logsumexp, +) vec-mat products: ``R[:, n] = logsumexp_vecmat(V[:, n], M[..., n])``."""
    stacked = v[:, None, :] + m
    shift = np.maximum.reduce(stacked, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(stacked, shift, out=stacked)
        np.exp(stacked, out=stacked)
        summed = np.add.reduce(stacked, axis=0)
        np.log(summed, out=summed)
        np.add(shift, summed, out=summed)
    return summed


__all__ = [
    "chain_map_decode",
    "chain_marginals",
    "maxplus_matmul",
    "logsumexp_matmul",
    "maxplus_vecmat",
    "logsumexp_vecmat",
    "maxplus_matmul_batch",
    "logsumexp_matmul_batch",
    "maxplus_vecmat_batch",
    "logsumexp_vecmat_batch",
]
