"""Amortised sliding-window aggregation of chain step matrices.

The windowed chain decode over steps ``s .. t`` is a semiring product

.. math::

    h_s \\otimes M_{s+1} \\otimes M_{s+2} \\otimes \\cdots \\otimes M_t

where ``h_s`` is the head vector (the window's first effective unary
row, including the initial-state prior) and ``M_j`` is the step matrix
``transition + unary_j`` (:func:`repro.core.factor_graph
.chain_step_matrix`).  Under the ``(max, +)`` semiring the product is
the final Viterbi score vector; under ``(logsumexp, +)`` it is the
unnormalised forward message.  Appending a step extends the product on
the right; *evicting* the oldest step removes a factor from the left --
the operation that previously forced an O(W * K^2) sequential rebuild
of the whole window.

:class:`SlidingProductWindow` maintains the product of the queued step
matrices with the classic two-stack (SWAG / DABA-style) sliding
aggregation:

* the **back stack** holds recently pushed step matrices together with
  their running left-to-right *prefix* products,
* the **front stack** holds the older steps with right-to-left *suffix*
  products, arranged so the top entry is always the product of *all*
  remaining front elements.

``push`` folds one matrix into the back prefixes (two K^3 semiring
products, one per semiring); ``pop_front`` pops the front stack,
*flipping* the back stack into suffix products when the front runs dry.
Each element is flipped at most once, so eviction is O(K^3) amortised.
Querying the window product applies the head vector to (at most) the
front-top suffix and the last back prefix -- O(K^2).

Pattern-bonus relocation edits the unary row of a step already inside
the queue.  Because both stacks keep the raw step matrices next to
their aggregates, :meth:`replace` patches *partially*: a back-region
edit refolds the prefixes from the edited position to the newest
element, a front-region edit recomputes the suffixes from the edited
position to the oldest.  Greedy-leftmost pattern matches cluster their
bonus steps near the window boundaries, so the typical patch is O(K^3)
with an O(W * K^3) worst case -- the exact re-aggregation
(:meth:`rebuild`) remains the fallback for indices the structure does
not hold.

Refolds of ``_MIN_SCAN`` or more elements (a flip of a full back stack,
a patch far from the stack top) run as a Hillis-Steele doubling scan:
``ceil(log2 n)`` *stacked* semiring products per semiring instead of
``n`` sequential small ones.  Shorter refolds keep the sequential fold,
whose per-call overhead is lower.  The scan is one function over ``m``
windows (an entity-minor ``(K, K, n, m)`` block): :func:`flip_together`
flips every window of a decode round whose back stacks have the same
length in a single scan, and :meth:`SlidingProductWindow.pop_front`
flips its own window through the same code with ``m = 1`` -- the same
tree order, so a window's aggregates and its pickle do not depend on
who flipped it.  A scan hands each window its aggregates as views of
one private ``(n, K, K)`` block per semiring (at most ``W * K * K``
floats, released with its last view); everything else a window stores
is one ``(K, K)`` array per entry, and no window keeps a view into a
block that spans windows.

The aggregate is mathematically exact but floating-point *reassociated*
relative to the sequential recursion (by the two-stack split, and again
by the scan's tree order), so its values can differ from a sequential
decode in the last few ulps.  Callers that need bit-identical
results (the detector's emitted detections must match the seed path
bit-for-bit) use the aggregate only for guard-banded *decisions* and
fall back to the exact sequential decode when a decision is within the
guard band -- see ``StreamingDecoder.may_fire``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .factor_graph import (
    logsumexp_matmul,
    logsumexp_matmul_batch,
    maxplus_matmul,
    maxplus_matmul_batch,
)

# Refolds shorter than this use the sequential fold: the doubling scan's
# per-level dispatch overhead only pays off past it.
_MIN_SCAN = 8


def _scan_refold(
    windows: Sequence["SlidingProductWindow"], position: int, *, suffix: bool
) -> None:
    """Refold one stack of ``m`` windows from ``position`` up, in one doubling scan.

    ``suffix=True`` rewrites front-stack suffixes ``M[q] ⊗ ... ⊗ M[p] ⊗
    carry`` (older factors compose on the left), ``suffix=False``
    back-stack prefixes ``carry ⊗ M[p] ⊗ ... ⊗ M[q]`` (newer factors
    compose on the right), for ``p = position``; the aggregate below
    ``position`` (none at the stack bottom) is the carry.  Every window
    holds the same number ``n`` of matrices above ``position``: the
    scan runs on one ``(K, K, n, m)`` block, flattened to ``(K, K, n *
    m)`` so that a shift by ``span`` elements is a contiguous slice.
    The tree order reassociates the float products relative to the
    sequential fold; the guard band of ``StreamingDecoder.may_fire``
    (64 * eps * length * magnitude) dominates the scan's *shallower*
    rounding depth.  Each window gets its aggregates as views of a
    private ``(n, K, K)`` copy, which pins ``n * K * K`` floats until
    its last view is evicted; a view of the scan's own block would pin
    every window of the group until the slowest one slid past.
    """
    m = len(windows)
    segments = [
        (window._front_matrices if suffix else window._back_matrices)[position:]
        for window in windows
    ]
    n = len(segments[0])
    k = segments[0][0].shape[0]
    # block[:, :, q * m + j] is matrix ``position + q`` of window ``j``.
    block = np.array(list(chain.from_iterable(zip(*segments)))).transpose(1, 2, 0)
    for matmul, name in (
        (maxplus_matmul_batch, "_front_max" if suffix else "_back_max"),
        (logsumexp_matmul_batch, "_front_lse" if suffix else "_back_lse"),
    ):
        stack = np.ascontiguousarray(block)
        width = m
        while width < n * m:
            # Both operands are read in full before the assignment lands.
            older, newer = stack[:, :, :-width], stack[:, :, width:]
            stack[:, :, width:] = matmul(newer, older) if suffix else matmul(older, newer)
            width *= 2
        if position:
            carry = np.stack(
                [getattr(window, name)[position - 1] for window in windows], axis=-1
            )
            carry = np.tile(carry, n)
            stack = matmul(stack, carry) if suffix else matmul(carry, stack)
        per_window = stack.reshape(k, k, n, m).transpose(3, 2, 0, 1)
        for window, aggregates in zip(windows, per_window):
            getattr(window, name)[position:] = np.ascontiguousarray(aggregates)


def flip_together(windows: Iterable["SlidingProductWindow"]) -> None:
    """Move each window's back stack into its (empty) front as suffix products.

    Windows whose back stacks have the same length share one scan, so a
    round of the stacked decode kernel pays one flip per length instead
    of one per entity; :meth:`SlidingProductWindow.pop_front` flips its
    own window through the same code, so a window's aggregates do not
    depend on which driver advanced it.
    """
    by_length: Dict[int, List["SlidingProductWindow"]] = {}
    for window in windows:
        window._back_indices.reverse()
        window._back_matrices.reverse()
        window._front_indices, window._back_indices = window._back_indices, []
        window._front_matrices, window._back_matrices = window._back_matrices, []
        window._back_max.clear()
        window._back_lse.clear()
        by_length.setdefault(len(window._front_indices), []).append(window)
    for length, group in by_length.items():
        if length >= _MIN_SCAN:
            _scan_refold(group, 0, suffix=True)
        else:
            for window in group:
                window._recompute_front(0)


class SlidingProductWindow:
    """Two-stack sliding product of step matrices under both semirings.

    Elements are pushed with strictly increasing, contiguous integer
    indices (the decoder's absolute step indices) and evicted from the
    front in the same order.
    """

    __slots__ = (
        "_front_indices",
        "_front_matrices",
        "_front_max",
        "_front_lse",
        "_back_indices",
        "_back_matrices",
        "_back_max",
        "_back_lse",
        "_scratch",
    )

    def __init__(self) -> None:
        # Front stack: list end = stack top = the *oldest* remaining
        # element; _front_max/_front_lse[q] aggregate every front
        # element from position q's step to the newest front step.
        self._front_indices: List[int] = []
        self._front_matrices: List[np.ndarray] = []
        self._front_max: List[np.ndarray] = []
        self._front_lse: List[np.ndarray] = []
        # Back stack: list end = the newest element; _back_max/
        # _back_lse[q] aggregate the back elements up to position q, so
        # the last entry is the whole back product.
        self._back_indices: List[int] = []
        self._back_matrices: List[np.ndarray] = []
        self._back_max: List[np.ndarray] = []
        self._back_lse: List[np.ndarray] = []
        # Reusable (K, K) fold buffer for apply(); lazily sized, never
        # escapes (the returned vectors are fresh reductions of it).
        self._scratch: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._front_indices) + len(self._back_indices)

    def __getstate__(self) -> Dict[str, object]:
        # Slotted class: build the state dict by hand, dropping the
        # scratch buffer so pickled windows stay canonical (checkpoint
        # bytes must not depend on whether apply() ever ran).
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_scratch"
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._scratch = None

    # -- mutation ----------------------------------------------------------
    def push(self, index: int, matrix: np.ndarray) -> None:
        """Append one step matrix on the right: O(K^3)."""
        self._back_indices.append(index)
        self._back_matrices.append(matrix)
        if self._back_max:
            self._back_max.append(maxplus_matmul(self._back_max[-1], matrix))
            self._back_lse.append(logsumexp_matmul(self._back_lse[-1], matrix))
        else:
            self._back_max.append(matrix)
            self._back_lse.append(matrix)

    def push_aggregated(
        self,
        index: int,
        matrix: np.ndarray,
        aggregate_max: np.ndarray,
        aggregate_lse: np.ndarray,
    ) -> None:
        """Append a step whose prefix products were computed externally.

        The stacked decode kernel folds the back-prefix products for
        many windows in one stacked call and scatters the results here.
        The caller guarantees a non-empty back stack and aggregates
        bit-equal to what :meth:`push` would have produced.  The window
        keeps private copies, so the arguments may be views of blocks
        the caller reuses -- and no window pins a block another
        window's slower entity still reads.
        """
        self._back_indices.append(index)
        self._back_matrices.append(matrix.copy())
        self._back_max.append(aggregate_max.copy())
        self._back_lse.append(aggregate_lse.copy())

    def pop_front(self) -> int:
        """Evict the oldest step: O(K^3) amortised.  Returns its index."""
        if not self._front_indices:
            flip_together((self,))
        if not self._front_indices:
            raise IndexError("pop from an empty SlidingProductWindow")
        self._front_matrices.pop()
        self._front_max.pop()
        self._front_lse.pop()
        return self._front_indices.pop()

    def replace(self, index: int, matrix: np.ndarray) -> bool:
        """Swap the matrix of one queued step after its unary row changed.

        Only the aggregates that cover the edited step are recomputed:
        back-region prefixes from the edited position rightwards,
        front-region suffixes from the edited position towards the
        oldest element.  Returns ``False`` for an index the structure
        does not hold (the caller's cue to fall back to the exact
        :meth:`rebuild`).
        """
        back = self._back_indices
        if back and back[0] <= index <= back[-1]:
            position = index - back[0]
            self._back_matrices[position] = matrix
            self._refold_back(position)
            return True
        front = self._front_indices
        if front and front[-1] <= index <= front[0]:
            # Front positions run newest (0) to oldest (end); suffix at
            # position q folds the matrices at positions <= q, so the
            # edit invalidates suffixes from its position to the top.
            position = front[0] - index
            self._front_matrices[position] = matrix
            self._recompute_front(position)
            return True
        return False

    def rebuild(self, indices: Iterable[int], matrices: Iterable[np.ndarray]) -> None:
        """Re-aggregate from scratch: everything into front suffix products."""
        for stack in (
            self._front_indices,
            self._front_matrices,
            self._front_max,
            self._front_lse,
            self._back_indices,
            self._back_matrices,
            self._back_max,
            self._back_lse,
        ):
            stack.clear()
        pairs = list(zip(indices, matrices))
        for index, matrix in reversed(pairs):
            self._front_indices.append(index)
            self._front_matrices.append(matrix)
        self._recompute_front(0)

    def shift(self, delta: int) -> None:
        """Rebase all stored step indices by ``-delta`` (buffer compaction)."""
        self._front_indices = [i - delta for i in self._front_indices]
        self._back_indices = [i - delta for i in self._back_indices]

    # -- queries -----------------------------------------------------------
    def apply(self, head: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Window products ``head ⊗ M_(s+1) ⊗ ... ⊗ M_t``: O(K^2).

        Returns ``(viterbi_score, forward_log)`` -- the final Viterbi
        score vector and the unnormalised forward log message of the
        window.

        The (max, +)/(logsumexp, +) vec-mat folds reuse one per-window
        ``(K, K)`` scratch buffer instead of allocating temporaries on
        every alert; the arithmetic replays ``maxplus_vecmat``/
        ``logsumexp_vecmat`` bit-for-bit, and the returned vectors are
        fresh arrays that never alias the scratch.
        """
        score = head
        forward = head
        if self._front_indices:
            score, forward = self._fold(score, forward, -1, front=True)
        if self._back_indices:
            score, forward = self._fold(score, forward, -1, front=False)
        return score, forward

    def _fold(
        self, score: np.ndarray, forward: np.ndarray, position: int, *, front: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One scratch-buffered vec-mat fold through both semirings."""
        matrix_max = self._front_max[position] if front else self._back_max[position]
        matrix_lse = self._front_lse[position] if front else self._back_lse[position]
        buffer = self._scratch
        if buffer is None or buffer.shape != matrix_max.shape:
            buffer = self._scratch = np.empty_like(matrix_max)
        # (max, +): max_a score[a] + M[a, b], same ops as maxplus_vecmat.
        np.add(score[:, None], matrix_max, out=buffer)
        score = np.maximum.reduce(buffer, axis=0)
        # (logsumexp, +): shift/exp/sum/log, same ops as logsumexp_vecmat.
        np.add(forward[:, None], matrix_lse, out=buffer)
        shift = np.maximum.reduce(buffer, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.subtract(buffer, shift[None, :], out=buffer)
            np.exp(buffer, out=buffer)
            summed = np.add.reduce(buffer, axis=0)
            np.log(summed, out=summed)
            np.add(shift, summed, out=summed)
        return score, summed

    # -- internals ---------------------------------------------------------
    def _recompute_front(self, position: int) -> None:
        """Recompute front suffixes from ``position`` to the stack top."""
        matrices = self._front_matrices
        if len(matrices) - position >= _MIN_SCAN:
            _scan_refold((self,), position, suffix=True)
            return
        suffix_max = self._front_max
        suffix_lse = self._front_lse
        del suffix_max[position:]
        del suffix_lse[position:]
        for q in range(position, len(matrices)):
            matrix = matrices[q]
            if q == 0:
                suffix_max.append(matrix)
                suffix_lse.append(matrix)
            else:
                suffix_max.append(maxplus_matmul(matrix, suffix_max[q - 1]))
                suffix_lse.append(logsumexp_matmul(matrix, suffix_lse[q - 1]))

    def _refold_back(self, position: int) -> None:
        """Recompute back prefixes from ``position`` to the newest element."""
        matrices = self._back_matrices
        if len(matrices) - position >= _MIN_SCAN:
            _scan_refold((self,), position, suffix=False)
            return
        prefix_max = self._back_max
        prefix_lse = self._back_lse
        del prefix_max[position:]
        del prefix_lse[position:]
        for q in range(position, len(matrices)):
            matrix = matrices[q]
            if q == 0:
                prefix_max.append(matrix)
                prefix_lse.append(matrix)
            else:
                prefix_max.append(maxplus_matmul(prefix_max[q - 1], matrix))
                prefix_lse.append(logsumexp_matmul(prefix_lse[q - 1], matrix))


__all__ = ["SlidingProductWindow"]
