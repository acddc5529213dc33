"""Amortised sliding-window aggregation of chain step matrices, in one arena.

The windowed chain decode over steps ``s .. t`` is a semiring product

.. math::

    h_s \\otimes M_{s+1} \\otimes M_{s+2} \\otimes \\cdots \\otimes M_t

where ``h_s`` is the head vector (the window's first effective unary
row, including the initial-state prior) and ``M_j`` is the step matrix
``transition + unary_j`` (:func:`repro.core.factor_graph
.chain_step_matrix`).  Under the ``(max, +)`` semiring the product is
the final Viterbi score vector; under ``(logsumexp, +)`` it is the
unnormalised forward message.  Appending a step extends the product on
the right; *evicting* the oldest step removes a factor from the left.
The classic two-stack (SWAG / DABA-style) aggregation makes both cheap:
recent steps keep running left-to-right *prefix* products (the back),
older steps right-to-left *suffix* products (the front), and when the
front runs dry the back is *flipped* into suffixes.  Each step is
flipped at most once, so eviction is O(K^3) amortised, and the window
product is the head applied to at most one suffix and one prefix.

**Arena layout.**  :class:`WindowArena` stores every windowed entity of
one tagger; an entity is a *row* index.  A row's window is the absolute
steps ``start .. end - 1``; step ``j`` lives in ring slot ``j mod
ring`` (``ring = max_window + 1``: the append lands before the
eviction), so sliding never moves or re-indexes anything.  Cell ``row *
ring + slot`` of the flat blocks holds

* ``base`` / ``unary`` ``(cells, K)`` -- the observation row and the
  effective unary row (base + prior on the head + pattern bonuses),
* ``symbols`` ``(cells,)`` -- the alert's interned symbol index,
* ``agg_max`` / ``agg_lse`` ``(K, K, cells)`` -- one aggregate per
  semiring: for a step in ``(start, boundary)`` the front suffix
  ``M_j ⊗ ... ⊗ M_(boundary-1)``, for a step in ``[boundary, end)`` the
  back prefix ``M_boundary ⊗ ... ⊗ M_j``.  The head has no matrix.

``start`` / ``boundary`` / ``end`` are flat integer arrays.  Step
matrices are never stored: they are ``pairwise + unary`` on demand.
Rows are allocated on the fill→windowed transition only (doubling
growth from ``_INITIAL_ROWS``, free-list reuse), so an entity that
never saturates its window costs the arena nothing.  The vectorised
methods take row-index arrays and drive whole decode rounds
(:mod:`repro.core.batch_kernel`); :class:`SlidingProductWindow` is a
one-row view whose scalar methods use basic slices of the same blocks,
so ``observe()`` and a stacked round read and write the same storage.

Refolds of ``_MIN_SCAN`` or more steps (a flip, a patch far from the
stack top) run as a Hillis-Steele doubling scan over an entity-minor
``(K, K, n * m)`` block gathered straight from the arena; shorter ones
fold sequentially.  Either way :meth:`WindowArena._refold` is the one
implementation for ``m`` rows, and a lone row goes through it with ``m
= 1`` -- the same tree order, so a row's aggregates (and its pickle) do
not depend on who flipped it, on its row index, or on its ring phase.

The aggregate is mathematically exact but floating-point *reassociated*
relative to the sequential recursion, so **no emitted number ever reads
an aggregate**: they feed the guard-banded ``may_fire`` pre-filter only,
and every detection is materialised by the exact sequential decode of
the row's ``unary`` ring (``StreamingDecoder._window_decode``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .factor_graph import (
    logsumexp_matmul,
    logsumexp_matmul_batch,
    logsumexp_vecmat,
    maxplus_matmul,
    maxplus_matmul_batch,
    maxplus_vecmat,
)
from .states import NUM_STATES

_K = NUM_STATES

# Refolds shorter than this use the sequential fold: the doubling scan's
# per-level dispatch overhead only pays off past it.
_MIN_SCAN = 8

# Rows a fresh arena allocates on its first windowed entity, and the
# factor it grows by when the free list runs dry.
_INITIAL_ROWS = 8
_GROWTH = 2


class WindowArena:
    """Struct-of-arrays storage of two-stack sliding windows, one per row."""

    __slots__ = (
        "ring", "capacity", "_free", "symbol_ids", "symbol_names",
        "base", "unary", "symbols", "agg_max", "agg_lse", "start", "boundary", "end",
    )  # fmt: skip

    def __init__(self, ring: int, rows: int = 0) -> None:
        self.ring = ring
        self.capacity = 0
        self._free: List[int] = []
        # Alert names interned in order of first sight.
        self.symbol_ids: Dict[str, int] = {}
        self.symbol_names: List[str] = []
        self._resize(rows)

    @property
    def live(self) -> int:
        """Number of rows currently allocated."""
        return self.capacity - len(self._free)

    def _resize(self, capacity: int) -> None:
        cells = capacity * self.ring
        for name, shape, dtype in (
            ("base", (cells, _K), np.float64),
            ("unary", (cells, _K), np.float64),
            ("symbols", (cells,), np.int64),
            ("agg_max", (_K, _K, cells), np.float64),
            ("agg_lse", (_K, _K, cells), np.float64),
            ("start", (capacity,), np.int64),
            ("boundary", (capacity,), np.int64),
            ("end", (capacity,), np.int64),
        ):
            fresh = np.zeros(shape, dtype=dtype)
            old = getattr(self, name, None)
            if old is not None and fresh.ndim == 3:
                fresh[:, :, : old.shape[2]] = old
            elif old is not None:
                fresh[: old.shape[0]] = old
            setattr(self, name, fresh)
        self._free.extend(range(capacity - 1, self.capacity - 1, -1))
        self.capacity = capacity

    def allocate(self) -> int:
        """A free row index (contents stale; the caller loads it)."""
        if not self._free:
            self._resize(max(_INITIAL_ROWS, self.capacity * _GROWTH))
        return self._free.pop()

    def release(self, row: int) -> None:
        self._free.append(row)

    def intern(self, name: str) -> int:
        """Symbol index of an alert name."""
        symbol = self.symbol_ids.get(name)
        if symbol is None:
            symbol = self.symbol_ids[name] = len(self.symbol_names)
            self.symbol_names.append(name)
        return symbol

    # -- whole-round operations on row-index arrays --------------------------
    def cells(self, rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Flat cell of ``steps[i]`` (or ``steps[q, i]``) of ``rows[i]``."""
        return rows * self.ring + steps % self.ring

    def push(self, rows: np.ndarray, pairwise: np.ndarray) -> None:
        """Fold each row's step ``end`` (unary row already stored) into its back."""
        end = self.end[rows]
        cells, previous = self.cells(rows, end), self.cells(rows, end - 1)
        matrices = pairwise[:, :, None] + self.unary[cells].T[None, :, :]
        # An empty back has no product to extend: its prefix is the matrix
        # (the product those rows compute from a stale cell is discarded).
        carried = end > self.boundary[rows]
        self.agg_max[:, :, cells] = np.where(
            carried, maxplus_matmul_batch(self.agg_max[:, :, previous], matrices), matrices
        )
        self.agg_lse[:, :, cells] = np.where(
            carried, logsumexp_matmul_batch(self.agg_lse[:, :, previous], matrices), matrices
        )
        self.end[rows] = end + 1

    def flip_together(self, rows: np.ndarray, pairwise: np.ndarray) -> None:
        """Turn each row's back prefixes into front suffixes (its front is empty).

        Rows whose backs have the same length share one scan, so a
        decode round pays one flip per length instead of one per
        entity; a lone ``pop_front`` flips through the same code.
        """
        end = self.end[rows]
        spans = end - self.boundary[rows]
        for count in np.unique(spans[spans > 0]).tolist():
            group = spans == count
            self._refold(rows[group], end[group] - 1, count, pairwise, suffix=True)
        self.boundary[rows] = end

    def evict(self, rows: np.ndarray, pairwise: np.ndarray) -> None:
        """Drop each (distinct) row's head: due flips together, then ``start += 1``."""
        due = rows[self.boundary[rows] == self.start[rows] + 1]
        if due.size:
            self.flip_together(due, pairwise)
        self.start[rows] += 1

    def fold(self, rows: np.ndarray, vectors: np.ndarray, vecmat, aggregates) -> np.ndarray:
        """``vectors[:, i] ⊗ front-top suffix ⊗ newest back prefix`` of ``rows[i]``.

        A row lacking one of the two keeps its vector through that fold.
        """
        start, boundary, end = self.start[rows], self.boundary[rows], self.end[rows]
        for held, steps in ((start + 1 < boundary, start + 1), (boundary < end, end - 1)):
            folded = vecmat(vectors, aggregates[:, :, self.cells(rows, steps)])
            vectors = np.where(held, folded, vectors)
        return vectors

    def _refold(
        self,
        rows: np.ndarray,
        origin: np.ndarray,
        count: int,
        pairwise: np.ndarray,
        *,
        suffix: bool,
        carry: bool = False,
    ) -> None:
        """Recompute ``count`` aggregates of each of ``m`` rows from step ``origin``.

        ``suffix=True`` rewrites front suffixes walking *down* from
        ``origin`` (older steps compose on the left), ``suffix=False``
        back prefixes walking *up* (newer steps compose on the right);
        with ``carry`` the aggregate of the step just before ``origin``
        in walk order seeds the fold.  The block is ``(K, K, count *
        m)`` with walk position ``q`` of row ``j`` at ``q * m + j``, so
        a shift by ``span`` positions is a contiguous slice.  At
        ``count >= _MIN_SCAN`` the fold is a doubling scan, whose tree
        order reassociates the float products; the guard band of
        ``StreamingDecoder.may_fire`` dominates its rounding depth.
        """
        m = rows.size
        direction = -1 if suffix else 1
        cells = self.cells(rows, origin + direction * np.arange(count)[:, None]).ravel()
        block = pairwise[:, :, None] + self.unary[cells].T[None, :, :]
        seed_cells = self.cells(rows, origin - direction)
        for matmul, aggregates in (
            (maxplus_matmul_batch, self.agg_max),
            (logsumexp_matmul_batch, self.agg_lse),
        ):
            stack = block.copy()
            seed = aggregates[:, :, seed_cells] if carry else None
            if count >= _MIN_SCAN:
                width = m
                while width < count * m:
                    # Both operands are read in full before the assignment lands.
                    earlier, later = stack[:, :, :-width], stack[:, :, width:]
                    stack[:, :, width:] = (
                        matmul(later, earlier) if suffix else matmul(earlier, later)
                    )
                    width *= 2
                if carry:
                    seed = np.tile(seed, count)
                    stack = matmul(stack, seed) if suffix else matmul(seed, stack)
            else:
                for low in range(0, count * m, m):
                    if seed is not None:
                        current = stack[:, :, low : low + m]
                        stack[:, :, low : low + m] = (
                            matmul(current, seed) if suffix else matmul(seed, current)
                        )
                    seed = stack[:, :, low : low + m]
            aggregates[:, :, cells] = stack


class SlidingProductWindow:
    """One arena row: a two-stack sliding product under both semirings.

    ``SlidingProductWindow(pairwise, ring)`` owns a private one-row
    arena; ``SlidingProductWindow(pairwise, arena=arena)`` takes a row
    of a shared one.  The row holds nothing until :meth:`load` gives it
    a head; later steps are staged and pushed with contiguous indices
    and evicted from the front in the same order, at most ``ring`` of
    them between ``start`` and ``end``.
    """

    __slots__ = ("pairwise", "arena", "row", "_ring", "_low")

    def __init__(
        self, pairwise: np.ndarray, ring: int = 0, *, arena: Optional[WindowArena] = None
    ) -> None:
        self.pairwise = pairwise
        self.arena = arena if arena is not None else WindowArena(ring, rows=1)
        self.row = self.arena.allocate()
        self._ring = self.arena.ring
        self._low = self.row * self._ring

    def release(self) -> None:
        """Hand the row back to the arena; the view is dead afterwards."""
        self.arena.release(self.row)

    # -- geometry ------------------------------------------------------------
    @property
    def start(self) -> int:
        return int(self.arena.start[self.row])

    @property
    def end(self) -> int:
        return int(self.arena.end[self.row])

    @property
    def span(self) -> Tuple[int, int, int]:
        arena, row = self.arena, self.row
        return int(arena.start[row]), int(arena.boundary[row]), int(arena.end[row])

    def __len__(self) -> int:
        return self.end - self.start - 1

    def cell(self, step: int) -> int:
        """Flat arena cell of one step of this row."""
        return self._low + step % self._ring

    def cells(self, first: int, last: int) -> np.ndarray:
        """Flat arena cells of steps ``first .. last - 1``, in step order."""
        return self.arena.cells(self.row, np.arange(first, last))

    # -- mutation ------------------------------------------------------------
    def load(
        self, start: int, base: np.ndarray, unary: np.ndarray, names: Sequence[str]
    ) -> None:
        """Become the window of steps ``start .. start + len(names) - 1``.

        Everything lands in the front; :meth:`rebuild` aggregates it.
        """
        arena, end = self.arena, start + len(names)
        if len(names) > arena.ring:
            raise IndexError("window ring is full")
        cells = self.cells(start, end)
        arena.base[cells] = base
        arena.unary[cells] = unary
        arena.symbols[cells] = [arena.intern(name) for name in names]
        arena.start[self.row] = start
        arena.boundary[self.row] = arena.end[self.row] = end

    def stage(self, base_row: np.ndarray, name: str) -> int:
        """Store the observation row and symbol of the step the next push folds."""
        arena = self.arena
        start, _, end = self.span
        if end - start >= self._ring:
            raise IndexError("window ring is full")
        cell = self._low + end % self._ring
        arena.base[cell] = base_row
        arena.symbols[cell] = arena.intern(name)
        return end

    def push(self, unary_row: np.ndarray) -> None:
        """Append the staged step on the right: O(K^3)."""
        arena = self.arena
        _, boundary, end = self.span
        cell = self._low + end % self._ring
        arena.unary[cell] = unary_row
        matrix = self.pairwise + unary_row[None, :]
        if end > boundary:
            previous = self._low + (end - 1) % self._ring
            arena.agg_max[:, :, cell] = maxplus_matmul(arena.agg_max[:, :, previous], matrix)
            arena.agg_lse[:, :, cell] = logsumexp_matmul(arena.agg_lse[:, :, previous], matrix)
        else:
            arena.agg_max[:, :, cell] = matrix
            arena.agg_lse[:, :, cell] = matrix
        arena.end[self.row] = end + 1

    def pop_front(self) -> int:
        """Evict the oldest step: O(K^3) amortised.  Returns its index."""
        start, boundary, end = self.span
        if end - start < 2:
            raise IndexError("pop from an empty SlidingProductWindow")
        if boundary == start + 1:
            self.arena.flip_together(np.array([self.row]), self.pairwise)
        self.arena.start[self.row] = start + 1
        return start + 1

    def replace(self, step: int, unary_row: np.ndarray) -> bool:
        """Swap the unary row of one queued step and patch its aggregates.

        Only the aggregates that cover the step are recomputed: back
        prefixes from it to the newest step, or front suffixes from it
        down to the oldest.  Returns ``False`` for a step the two
        stacks do not hold (evicted, not yet pushed, or the head).
        """
        start, boundary, end = self.span
        if not start < step < end:
            return False
        self.arena.unary[self.cell(step)] = unary_row
        rows, origin = np.array([self.row]), np.array([step])
        if step >= boundary:
            self.arena._refold(
                rows, origin, end - step, self.pairwise, suffix=False, carry=step > boundary
            )
        else:
            self.arena._refold(
                rows, origin, step - start, self.pairwise, suffix=True, carry=step + 1 < boundary
            )
        return True

    def rebuild(self) -> None:
        """Re-aggregate from scratch: everything into front suffix products."""
        start, _, end = self.span
        self.arena.boundary[self.row] = end
        if end - start > 1:
            self.arena._refold(
                np.array([self.row]), np.array([end - 1]), end - start - 1, self.pairwise,
                suffix=True,
            )  # fmt: skip

    # -- queries -------------------------------------------------------------
    def fold(self, vector: np.ndarray, vecmat, aggregates: np.ndarray) -> np.ndarray:
        """``vector ⊗ front-top suffix ⊗ newest back prefix`` in one semiring: O(K^2)."""
        start, boundary, end = self.span
        for held, step in ((start + 1 < boundary, start + 1), (boundary < end, end - 1)):
            if held:
                vector = vecmat(vector, aggregates[:, :, self._low + step % self._ring])
        return vector

    def apply(self, head: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Window products ``head ⊗ M_(start+1) ⊗ ... ⊗ M_(end-1)``.

        Returns ``(viterbi_score, forward_log)`` -- the final Viterbi
        score vector and the unnormalised forward log message.
        """
        return (
            self.fold(head, maxplus_vecmat, self.arena.agg_max),
            self.fold(head, logsumexp_vecmat, self.arena.agg_lse),
        )

    def unary_table(self) -> np.ndarray:
        """Effective unary rows of steps ``start .. end - 1``: a fresh ``(T, K)``."""
        start, _, end = self.span
        return self.arena.unary[self.cells(start, end)]

    def names(self) -> List[str]:
        """Alert names of steps ``start .. end - 1``."""
        start, _, end = self.span
        table = self.arena.symbol_names
        return [table[symbol] for symbol in self.arena.symbols[self.cells(start, end)].tolist()]

    # -- pickling: the row's contents, never the arena -------------------------
    def __getstate__(self) -> Dict[str, object]:
        # Canonical: dense, in step order, so the bytes do not depend on
        # the row index, the ring phase or the arena's capacity.
        arena = self.arena
        start, boundary, end = self.span
        cells, queued = self.cells(start, end), self.cells(start + 1, end)
        return {
            "pairwise": self.pairwise,
            "ring": arena.ring,
            "span": (start, boundary, end),
            "base": arena.base[cells],
            "unary": arena.unary[cells],
            "names": self.names(),
            "agg_max": arena.agg_max[:, :, queued],
            "agg_lse": arena.agg_lse[:, :, queued],
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["pairwise"], state["ring"])
        start, boundary, end = state["span"]
        self.load(start, state["base"], state["unary"], state["names"])
        self.arena.boundary[self.row] = boundary
        queued = self.cells(start + 1, end)
        self.arena.agg_max[:, :, queued] = state["agg_max"]
        self.arena.agg_lse[:, :, queued] = state["agg_lse"]


__all__ = ["SlidingProductWindow", "WindowArena"]
