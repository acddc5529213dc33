"""A discrete factor graph with sum-product and max-product inference.

The paper's preemption model (referencing Cao et al., "On preempting
advanced persistent threats using probabilistic graphical models") is a
factor graph over a chain of hidden per-event attack states, with
factors connecting each observed alert to its hidden state, consecutive
hidden states to each other, and known attack patterns to groups of
states.  This module implements the general machinery:

* :class:`Variable` -- a discrete random variable with a finite domain,
* :class:`Factor` -- a non-negative potential table over a tuple of
  variables,
* :class:`FactorGraph` -- the bipartite graph plus belief-propagation
  inference (sum-product for marginals, max-product for MAP
  assignments).  Exact on trees/chains; loopy BP with damping otherwise.

All message arithmetic is carried out in log-space with NumPy
operations so long chains (hundreds of alerts) remain numerically
stable and vectorised.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

_NEG_INF = -1e30


@dataclasses.dataclass(frozen=True)
class Variable:
    """A discrete random variable.

    Parameters
    ----------
    name:
        Unique identifier within a graph.
    cardinality:
        Number of values the variable can take; values are the
        integers ``0 .. cardinality - 1``.
    """

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise ValueError(f"variable {self.name!r} must have cardinality >= 1")


class Factor:
    """A potential table over one or more variables.

    The table is stored in log-space internally.  Potentials must be
    non-negative; zero entries are mapped to a large negative log value
    rather than ``-inf`` to keep loopy BP well-behaved.
    """

    def __init__(self, name: str, variables: Sequence[Variable], table: np.ndarray) -> None:
        table = np.asarray(table, dtype=np.float64)
        expected_shape = tuple(v.cardinality for v in variables)
        if table.shape != expected_shape:
            raise ValueError(
                f"factor {name!r}: table shape {table.shape} does not match "
                f"variable cardinalities {expected_shape}"
            )
        if np.any(table < 0):
            raise ValueError(f"factor {name!r}: potentials must be non-negative")
        if not np.any(table > 0):
            raise ValueError(f"factor {name!r}: potential table is identically zero")
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        with np.errstate(divide="ignore"):
            log_table = np.log(table)
        self.log_table = np.where(np.isfinite(log_table), log_table, _NEG_INF)

    @classmethod
    def from_log(cls, name: str, variables: Sequence[Variable], log_table: np.ndarray) -> "Factor":
        """Build a factor directly from a log-potential table."""
        factor = cls.__new__(cls)
        log_table = np.asarray(log_table, dtype=np.float64)
        expected_shape = tuple(v.cardinality for v in variables)
        if log_table.shape != expected_shape:
            raise ValueError(
                f"factor {name!r}: log table shape {log_table.shape} does not match "
                f"variable cardinalities {expected_shape}"
            )
        factor.name = name
        factor.variables = tuple(variables)
        factor.log_table = np.where(np.isfinite(log_table), log_table, _NEG_INF)
        return factor

    @property
    def arity(self) -> int:
        """Number of variables this factor touches."""
        return len(self.variables)

    def variable_index(self, variable: Variable) -> int:
        """Position of ``variable`` in this factor's scope."""
        for i, v in enumerate(self.variables):
            if v.name == variable.name:
                return i
        raise KeyError(f"variable {variable.name!r} not in factor {self.name!r}")

    def potential(self, assignment: Mapping[str, int]) -> float:
        """Evaluate the (linear-space) potential at a full assignment."""
        index = tuple(assignment[v.name] for v in self.variables)
        return float(np.exp(self.log_table[index]))

    def log_potential(self, assignment: Mapping[str, int]) -> float:
        """Evaluate the log potential at a full assignment."""
        index = tuple(assignment[v.name] for v in self.variables)
        return float(self.log_table[index])


def _logsumexp(
    array: np.ndarray,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> np.ndarray:
    """Numerically stable log-sum-exp over any (stacked) axis.

    Slices whose maximum is ``-inf`` (all mass zero) reduce to ``-inf``
    rather than a garbage value anchored at 0; ``+inf`` propagates.
    Finite inputs -- including the ``_NEG_INF`` sentinel -- follow the
    usual max-shifted computation bit-for-bit.

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


def _normalize_log(message: np.ndarray) -> np.ndarray:
    """Normalise a log-space message so its exponentials sum to 1."""
    return message - _logsumexp(message)


class FactorGraph:
    """Bipartite graph of variables and factors with BP inference."""

    def __init__(self) -> None:
        self._variables: Dict[str, Variable] = {}
        self._factors: Dict[str, Factor] = {}
        self._var_to_factors: Dict[str, List[str]] = {}
        self._variables_view: Optional[tuple[Variable, ...]] = None
        self._factors_view: Optional[tuple[Factor, ...]] = None

    # -- construction -----------------------------------------------------
    def add_variable(self, variable: Variable) -> Variable:
        """Add a variable; re-adding an identical variable is a no-op."""
        existing = self._variables.get(variable.name)
        if existing is not None:
            if existing.cardinality != variable.cardinality:
                raise ValueError(
                    f"variable {variable.name!r} re-added with different cardinality"
                )
            return existing
        self._variables[variable.name] = variable
        self._var_to_factors[variable.name] = []
        self._variables_view = None
        return variable

    def add_factor(self, factor: Factor) -> Factor:
        """Add a factor; all its variables must already be present."""
        if factor.name in self._factors:
            raise ValueError(f"duplicate factor name: {factor.name!r}")
        for variable in factor.variables:
            if variable.name not in self._variables:
                raise KeyError(
                    f"factor {factor.name!r} references unknown variable {variable.name!r}"
                )
        self._factors[factor.name] = factor
        for variable in factor.variables:
            self._var_to_factors[variable.name].append(factor.name)
        self._factors_view = None
        return factor

    # -- introspection ------------------------------------------------------
    @property
    def variables(self) -> tuple[Variable, ...]:
        """All variables, in insertion order (cached between mutations)."""
        if self._variables_view is None:
            self._variables_view = tuple(self._variables.values())
        return self._variables_view

    @property
    def factors(self) -> tuple[Factor, ...]:
        """All factors, in insertion order (cached between mutations)."""
        if self._factors_view is None:
            self._factors_view = tuple(self._factors.values())
        return self._factors_view

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        return self._variables[name]

    def factors_of(self, variable_name: str) -> List[Factor]:
        """Factors adjacent to a variable."""
        return [self._factors[f] for f in self._var_to_factors[variable_name]]

    def is_chain(self) -> bool:
        """Whether the graph is a tree/chain (no cycles), so BP is exact."""
        # A bipartite factor graph is acyclic iff #edges == #nodes - #components.
        edges = sum(f.arity for f in self._factors.values())
        nodes = len(self._variables) + len(self._factors)
        components = self._count_components()
        return edges == nodes - components

    def _count_components(self) -> int:
        seen: set[str] = set()
        components = 0
        adjacency: Dict[str, set[str]] = {f"v:{v}": set() for v in self._variables}
        for fname, factor in self._factors.items():
            adjacency[f"f:{fname}"] = set()
            for variable in factor.variables:
                adjacency[f"f:{fname}"].add(f"v:{variable.name}")
                adjacency[f"v:{variable.name}"].add(f"f:{fname}")
        for node in adjacency:
            if node in seen:
                continue
            components += 1
            stack = [node]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(adjacency[current] - seen)
        return components

    # -- inference ------------------------------------------------------------
    def _run_bp(
        self,
        *,
        max_product: bool,
        max_iterations: int = 50,
        damping: float = 0.0,
        tolerance: float = 1e-6,
    ) -> tuple[Dict[tuple[str, str], np.ndarray], Dict[tuple[str, str], np.ndarray]]:
        """Run (loopy) belief propagation; returns the two message maps.

        Messages are keyed ``(factor_name, variable_name)`` for
        factor-to-variable and ``(variable_name, factor_name)`` for
        variable-to-factor, all in normalised log space.
        """
        var_to_factor: Dict[tuple[str, str], np.ndarray] = {}
        factor_to_var: Dict[tuple[str, str], np.ndarray] = {}
        for fname, factor in self._factors.items():
            for variable in factor.variables:
                var_to_factor[(variable.name, fname)] = np.zeros(variable.cardinality)
                factor_to_var[(fname, variable.name)] = np.zeros(variable.cardinality)

        for _ in range(max_iterations):
            delta = 0.0
            # Factor -> variable messages.
            for fname, factor in self._factors.items():
                for target_index, target in enumerate(factor.variables):
                    incoming = factor.log_table.copy()
                    for other_index, other in enumerate(factor.variables):
                        if other_index == target_index:
                            continue
                        message = var_to_factor[(other.name, fname)]
                        shape = [1] * factor.arity
                        shape[other_index] = other.cardinality
                        incoming = incoming + message.reshape(shape)
                    axes = tuple(i for i in range(factor.arity) if i != target_index)
                    if axes:
                        if max_product:
                            reduced = np.max(incoming, axis=axes)
                        else:
                            reduced = incoming
                            for axis in sorted(axes, reverse=True):
                                reduced = _logsumexp(reduced, axis=axis)
                    else:
                        reduced = incoming
                    new_message = _normalize_log(reduced)
                    if damping > 0.0:
                        old = factor_to_var[(fname, target.name)]
                        new_message = _normalize_log(
                            damping * old + (1.0 - damping) * new_message
                        )
                    delta = max(
                        delta,
                        float(np.max(np.abs(new_message - factor_to_var[(fname, target.name)]))),
                    )
                    factor_to_var[(fname, target.name)] = new_message
            # Variable -> factor messages.
            for vname, variable in self._variables.items():
                adjacent = self._var_to_factors[vname]
                for fname in adjacent:
                    total = np.zeros(variable.cardinality)
                    for other_fname in adjacent:
                        if other_fname == fname:
                            continue
                        total = total + factor_to_var[(other_fname, vname)]
                    new_message = _normalize_log(total)
                    delta = max(
                        delta,
                        float(np.max(np.abs(new_message - var_to_factor[(vname, fname)]))),
                    )
                    var_to_factor[(vname, fname)] = new_message
            if delta < tolerance:
                break
        return var_to_factor, factor_to_var

    def marginals(
        self,
        *,
        max_iterations: int = 50,
        damping: float = 0.0,
    ) -> Dict[str, np.ndarray]:
        """Per-variable marginal distributions (sum-product BP).

        Returns a mapping ``variable name -> probability vector``.
        Exact on acyclic graphs; approximate (loopy BP) otherwise.
        """
        _, factor_to_var = self._run_bp(
            max_product=False, max_iterations=max_iterations, damping=damping
        )
        marginals: Dict[str, np.ndarray] = {}
        for vname, variable in self._variables.items():
            belief = np.zeros(variable.cardinality)
            for fname in self._var_to_factors[vname]:
                belief = belief + factor_to_var[(fname, vname)]
            belief = _normalize_log(belief)
            marginals[vname] = np.exp(belief)
        return marginals

    def map_assignment(
        self,
        *,
        max_iterations: int = 50,
        damping: float = 0.0,
    ) -> Dict[str, int]:
        """Most likely joint assignment (max-product BP / Viterbi on chains)."""
        _, factor_to_var = self._run_bp(
            max_product=True, max_iterations=max_iterations, damping=damping
        )
        assignment: Dict[str, int] = {}
        for vname, variable in self._variables.items():
            belief = np.zeros(variable.cardinality)
            for fname in self._var_to_factors[vname]:
                belief = belief + factor_to_var[(fname, vname)]
            assignment[vname] = int(np.argmax(belief))
        return assignment

    def log_score(self, assignment: Mapping[str, int]) -> float:
        """Unnormalised log score of a full assignment."""
        return float(sum(f.log_potential(assignment) for f in self._factors.values()))

    # -- exhaustive fallbacks (used in tests on tiny graphs) -------------------
    def brute_force_marginals(self) -> Dict[str, np.ndarray]:
        """Exact marginals by enumerating all joint assignments.

        Exponential in the number of variables; only usable on the very
        small graphs that unit tests construct to validate BP.
        """
        names = list(self._variables)
        cards = [self._variables[n].cardinality for n in names]
        total_states = int(np.prod(cards)) if cards else 0
        if total_states > 200_000:
            raise ValueError("graph too large for brute-force enumeration")
        marginals = {n: np.zeros(c) for n, c in zip(names, cards)}
        partition = 0.0
        weights = np.zeros(total_states)
        assignments = []
        for flat in range(total_states):
            assignment = {}
            rem = flat
            for n, c in zip(names, cards):
                assignment[n] = rem % c
                rem //= c
            assignments.append(assignment)
            weights[flat] = math.exp(self.log_score(assignment))
        partition = float(weights.sum())
        if partition <= 0.0:
            raise ValueError("all assignments have zero probability")
        for weight, assignment in zip(weights, assignments):
            for n in names:
                marginals[n][assignment[n]] += weight
        for n in names:
            marginals[n] /= partition
        return marginals

    def brute_force_map(self) -> Dict[str, int]:
        """Exact MAP assignment by enumeration (tiny graphs only)."""
        names = list(self._variables)
        cards = [self._variables[n].cardinality for n in names]
        total_states = int(np.prod(cards)) if cards else 0
        if total_states > 200_000:
            raise ValueError("graph too large for brute-force enumeration")
        best_assignment: Dict[str, int] = {}
        best_score = -np.inf
        for flat in range(total_states):
            assignment = {}
            rem = flat
            for n, c in zip(names, cards):
                assignment[n] = rem % c
                rem //= c
            score = self.log_score(assignment)
            if score > best_score:
                best_score = score
                best_assignment = assignment
        return best_assignment


def chain_map_decode(
    unary_log: np.ndarray,
    pairwise_log: np.ndarray,
) -> np.ndarray:
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

    This specialisation exists because the streaming detector re-decodes
    a chain after every alert; building a full :class:`FactorGraph` per
    decode would dominate runtime.  Results agree with
    :meth:`FactorGraph.map_assignment` on chain graphs (verified by the
    test suite).
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


def chain_marginals(
    unary_log: np.ndarray,
    pairwise_log: np.ndarray,
) -> np.ndarray:
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
# decoder (:mod:`repro.core.sliding_window`) aggregates these matrices
# with a two-stack queue so evicting the oldest step is O(K^3) amortised
# instead of an O(W * K^2) sequential rebuild.  K is tiny (the number of
# hidden states), so every product below is a single broadcast + reduce.


def chain_step_matrix(pairwise_log: np.ndarray, unary_row: np.ndarray) -> np.ndarray:
    """One step's combined transition⊗unary matrix.

    ``M[a, b] = pairwise_log[a, b] + unary_row[b]`` -- the log weight of
    moving from state ``a`` to state ``b`` while emitting this step's
    evidence.  The same matrix serves both semirings; only the reduction
    used to chain matrices differs.
    """
    return pairwise_log + unary_row[None, :]


def maxplus_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(max, +) matrix product: ``C[i, j] = max_k A[i, k] + B[k, j]``."""
    return np.maximum.reduce(a[:, :, None] + b[None, :, :], axis=1)


def logsumexp_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def maxplus_vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(max, +) vector-matrix product: ``r[b] = max_a v[a] + M[a, b]``."""
    return np.maximum.reduce(v[:, None] + m, axis=0)


def logsumexp_vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
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
# The stacked decode kernel (:mod:`repro.core.batch_kernel`) and the
# window flip (:mod:`repro.core.sliding_window`) advance N independent
# products at once.  Stacks are *entity-minor*: N matrices are one
# ``(K, K, N)`` array, N vectors one ``(K, N)`` array, entity ``n`` in
# ``[..., n]``.  A product is one broadcast add into ``(K, K, K, N)``
# and one ``ufunc.reduce`` over a leading axis, so every inner loop
# numpy runs is contiguous over N instead of a length-K = 3 loop per
# entity.  Slice ``[..., n]`` of every result is bit-identical to the
# scalar op on that slice alone: the adds, exps, logs and
# (order-independent) max reductions are the same scalar operations,
# and a reduce over a leading axis accumulates its K = 3 terms left to
# right exactly as the scalar op's does.  The optional
# ``stacked_out``/``out`` buffers (any strides: the kernel passes
# slices of grow-only arena buffers) let a caller reuse scratch instead
# of allocating a fresh ``(K, K, K, N)`` temporary per product.
#
# CAUTION: ``stacked_out`` is clobbered; ``out`` must not alias an input.


def maxplus_matmul_batch(
    a: np.ndarray,
    b: np.ndarray,
    *,
    stacked_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked (max, +) products: ``C[..., n] = maxplus_matmul(A[..., n], B[..., n])``."""
    stacked = np.add(a[:, :, None, :], b[None, :, :, :], out=stacked_out)
    return np.maximum.reduce(stacked, axis=1, out=out)


def logsumexp_matmul_batch(
    a: np.ndarray,
    b: np.ndarray,
    *,
    stacked_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked (logsumexp, +) products: ``C[..., n] = logsumexp_matmul(A[..., n], B[..., n])``.

    Same finite-input fast path (and NaN propagation on hard zeros) as
    the scalar op; the shift/exp/sum/log sequence is replayed verbatim
    over the stacked axis.
    """
    stacked = np.add(a[:, :, None, :], b[None, :, :, :], out=stacked_out)
    shift = np.maximum.reduce(stacked, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(stacked, shift[:, None, :, :], out=stacked)
        np.exp(stacked, out=stacked)
        summed = np.add.reduce(stacked, axis=1, out=out)
        np.log(summed, out=summed)
        np.add(shift, summed, out=summed)
    return summed


def maxplus_vecmat_batch(
    v: np.ndarray,
    m: np.ndarray,
    *,
    stacked_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked (max, +) vec-mat products: ``R[:, n] = maxplus_vecmat(V[:, n], M[..., n])``."""
    stacked = np.add(v[:, None, :], m, out=stacked_out)
    return np.maximum.reduce(stacked, axis=0, out=out)


def logsumexp_vecmat_batch(
    v: np.ndarray,
    m: np.ndarray,
    *,
    stacked_out: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stacked (logsumexp, +) vec-mat products: ``R[:, n] = logsumexp_vecmat(V[:, n], M[..., n])``."""
    stacked = np.add(v[:, None, :], m, out=stacked_out)
    shift = np.maximum.reduce(stacked, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.subtract(stacked, shift, out=stacked)
        np.exp(stacked, out=stacked)
        summed = np.add.reduce(stacked, axis=0, out=out)
        np.log(summed, out=summed)
        np.add(shift, summed, out=summed)
    return summed


__all__ = [
    "Variable",
    "Factor",
    "FactorGraph",
    "chain_map_decode",
    "chain_marginals",
    "chain_step_matrix",
    "maxplus_matmul",
    "logsumexp_matmul",
    "maxplus_vecmat",
    "logsumexp_vecmat",
    "maxplus_matmul_batch",
    "logsumexp_matmul_batch",
    "maxplus_vecmat_batch",
    "logsumexp_vecmat_batch",
]
