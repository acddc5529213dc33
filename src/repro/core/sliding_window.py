"""Amortised sliding-window aggregation of chain step matrices, in one arena.

The windowed chain decode over steps ``s .. t`` is a semiring product

.. math::

    h_s \\otimes M_{s+1} \\otimes M_{s+2} \\otimes \\cdots \\otimes M_t

where ``h_s`` is the head vector (the window's first effective unary
row, including the initial-state prior) and ``M_j`` is the step matrix
``M_j[a, b] = transition[a, b] + unary_j[b]``: the log weight of moving
from state ``a`` to state ``b`` while emitting step ``j``'s evidence.
Under the ``(max, +)`` semiring the product is the final Viterbi score
vector; under ``(logsumexp, +)`` it is the unnormalised forward message.
The arena keeps the ``(max, +)`` product only.  Appending a step extends
it on the right; *evicting* the oldest step removes a factor from the
left.  The classic two-stack (SWAG / DABA-style) aggregation makes both
cheap: recent steps keep running left-to-right *prefix* products (the
back), older steps right-to-left *suffix* products (the front), and
when the front runs dry the back is *flipped* into suffixes.  Each step
is flipped at most once, so eviction is O(K^3) amortised, and the
window score is the head applied to at most one suffix and one prefix.

The forward message is needed only for a window whose score the
pre-filter cannot rule out, which is rare, so it is not maintained:
:meth:`WindowArena.forward` folds it on demand from the row's own unary
ring, as a tree of stacked ``(logsumexp, +)`` products (O(log W) numpy
calls for any number of rows of one window length).

**Arena layout.**  :class:`WindowArena` stores every windowed entity of
one tagger; an entity is a *row* index.  A row's window is the absolute
steps ``start .. end - 1``; step ``j`` lives in ring slot ``j mod
ring`` (``ring = max_window + 1``: the append lands before the
eviction), so sliding never moves or re-indexes anything.  Cell ``row *
ring + slot`` of the flat blocks holds

* ``unary`` ``(cells, K)`` -- the effective unary row (the observation
  row + prior on the head + pattern bonuses),
* ``symbols`` ``(cells,)`` -- the alert's interned symbol index, whose
  observation row is ``observations[symbol]``: the arena interns every
  alert name its tagger sees, filling phase included, and resolves the
  name's row under the tagger's parameters once, when it is interned,
* ``agg_max`` ``(K, K, cells)`` -- the ``(max, +)`` aggregate: for a
  step in ``(start, boundary)`` the front suffix ``M_j ⊗ ... ⊗
  M_(boundary-1)``, for a step in ``[boundary, end)`` the back prefix
  ``M_boundary ⊗ ... ⊗ M_j``.  The head has no matrix.

``start`` / ``boundary`` / ``end`` are flat integer arrays.  Step
matrices are never stored: they are ``pairwise + unary`` on demand.
Rows are allocated on the fill→windowed transition only (doubling
growth from ``_INITIAL_ROWS``, free-list reuse), so an entity that
never saturates its window costs the rows nothing.  Until then its
steps live in the arena's fill storage (:class:`FillPages`, ``arena.fill``):
pages of ``_PAGE`` steps from a free list, as many as the entity's
length needs, handed back when the row is loaded.

Every tracked entity is a *slot* of :class:`SlotTable` (``arena.slots``,
same growth): its row (or ``-1``), fill length and page list, its row
of :class:`MatchRows` (``arena.matches``, the pattern-match state, or
``-1``), and its detected and stale flags, one column each.  These
columns are the entity's decode state, and there is no other: the
stacked kernel (:mod:`repro.core.batch_kernel`) tests and advances the
slots, rows and fill cells of a whole pass by index arrays -- a pass of
chunks, or of filling steps, at a time -- and the per-alert functions
of :mod:`repro.core.streaming` advance one slot through the arena's
one-row operations (:meth:`WindowArena.stage`, :meth:`~WindowArena.push`,
:meth:`~WindowArena.pop_front`, :meth:`~WindowArena.fold`), so
``observe()`` and a stacked pass read and write the same storage.

Refolds of ``_MIN_SCAN`` or more steps (a flip, or the rebuild after a
pattern step) run as a Hillis-Steele doubling scan over an entity-minor
``(K, K, n * m)`` block gathered straight from the arena; shorter ones
fold sequentially.  Either way :meth:`WindowArena._refold` is the one
implementation for ``m`` rows, and a lone row goes through it with ``m
= 1`` -- the same tree order, so a row's aggregates do not depend on
who flipped it, on its row index, or on its ring phase.  The same holds
for :meth:`WindowArena.forward`.

The aggregate and the forward tree are mathematically exact but
floating-point *reassociated* relative to the sequential recursion, so
**no emitted number ever reads either**: they feed the guard-banded
``may_fire`` pre-filter only, and every detection is materialised by
the exact sequential decode of the row's ``unary`` ring
(``streaming.decode``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from .factor_graph import (
    logsumexp_matmul_batch,
    logsumexp_vecmat_batch,
    maxplus_matmul,
    maxplus_matmul_batch,
    maxplus_vecmat,
)
from .states import NUM_STATES

if TYPE_CHECKING:
    from .factors import FactorParameters

_K = NUM_STATES

# Refolds shorter than this use the sequential fold: the doubling scan's
# per-level dispatch overhead only pays off past it.
_MIN_SCAN = 8

# Rows a fresh arena allocates on its first windowed entity, and the
# factor it grows by when the free list runs dry.
_INITIAL_ROWS = 8
_GROWTH = 2
# Observation rows a fresh arena has room for before it grows the table.
_INITIAL_SYMBOLS = 64
# Steps in one page of fill storage, and the pages a fresh arena
# allocates on its first filling slot.
_PAGE = 4
_INITIAL_PAGES = 64
# Slots a fresh arena allocates on its first tracked entity.
_INITIAL_SLOTS = 64


def _take(owner, count: int, initial: int) -> List[int]:
    """``count`` indices off ``owner``'s free list, growing it (from
    ``initial``, then by ``_GROWTH``) while it runs short."""
    free = owner._free
    while len(free) < count:
        owner._resize(max(initial, owner.capacity * _GROWTH))
    taken = free[len(free) - count :][::-1]
    del free[len(free) - count :]
    return taken


def _resize_blocks(owner, capacity: int, blocks) -> None:
    """Grow ``owner``'s ``(name, shape, dtype)`` blocks (unit axis last if
    3-d, else first) and free list, keeping their contents."""
    for name, shape, dtype in blocks:
        fresh = np.zeros(shape, dtype=dtype)
        old = getattr(owner, name, None)
        if old is not None and fresh.ndim == 3:
            fresh[:, :, : old.shape[2]] = old
        elif old is not None:
            fresh[: old.shape[0]] = old
        setattr(owner, name, fresh)
    owner._free.extend(range(capacity - 1, owner.capacity - 1, -1))
    owner.capacity = capacity


def tree(stack: np.ndarray, matmul) -> np.ndarray:
    """The product ``stack[:, :, 0] ⊗ stack[:, :, 1] ⊗ ...`` of a ``(K, K,
    n, m)`` stack under ``matmul``'s semiring, ``(K, K, m)``: each level
    multiplies neighbours, earlier on the left, and carries an odd last
    one up as it is.  (An identity pad would not do under ``(logsumexp,
    +)``: there, identity ⊗ identity is NaN off its diagonal.)"""
    while stack.shape[2] > 1:
        paired = stack.shape[2] // 2 * 2
        product = matmul(stack[:, :, 0:paired:2], stack[:, :, 1:paired:2])
        stack = np.concatenate((product, stack[:, :, paired:]), axis=2)
    return stack[:, :, 0]


class FillPages:
    """Struct-of-arrays storage of every filling slot's steps, in pages.

    Step ``t`` of a slot holding ``pages`` is cell ``pages[t // _PAGE]
    * _PAGE + t % _PAGE`` of ``unary``, ``score`` and ``alpha`` (the
    effective unary row, the running Viterbi score and the normalised
    forward message, ``(cells, K)`` each) and ``symbols`` ``(cells,)``.
    A slot takes a page each ``_PAGE`` steps and gives them all back
    when its window opens or its decode state is dropped.
    """

    __slots__ = ("capacity", "_free", "unary", "score", "alpha", "symbols")

    def __init__(self) -> None:
        self.capacity = 0
        self._free: List[int] = []
        self._resize(0)

    @property
    def live(self) -> int:
        """Number of pages currently held."""
        return self.capacity - len(self._free)

    @property
    def page_bytes(self) -> int:
        """Bytes one page takes across the four blocks."""
        return _PAGE * (3 * _K * self.unary.itemsize + self.symbols.itemsize)

    def _resize(self, capacity: int) -> None:
        cells = capacity * _PAGE
        _resize_blocks(self, capacity, (
            ("unary", (cells, _K), np.float64),
            ("score", (cells, _K), np.float64),
            ("alpha", (cells, _K), np.float64),
            ("symbols", (cells,), np.int64),
        ))  # fmt: skip

    def allocate(self, count: int) -> List[int]:
        """``count`` free page indices (contents stale; the caller writes them)."""
        return _take(self, count, _INITIAL_PAGES)

    def release(self, pages: List[int]) -> None:
        self._free.extend(pages)


class SlotTable:
    """Struct-of-arrays decode state of every tracked entity, one *slot* each.

    Slot ``s`` holds ``row[s]``, its arena row once its window opened
    (else ``-1``); ``length[s]``, the filling steps it holds, step ``t``
    in cell ``pages[s, t // _PAGE] * _PAGE + t % _PAGE`` of the fill
    storage; ``match[s]``, its row of the arena's :class:`MatchRows`
    while a pattern is matched, else ``-1`` (the slot is *pristine*: it
    awaits only the patterns' first symbols and carries no bonus);
    ``detected[s]``; and ``stale[s]``, true while its decode state must
    be rebuilt from the names its track migrated with (restored or
    adopted, and not seen since).  A detected slot holds no decode
    state, save inside one ``AttackTagger.infer`` call.
    These arrays are the only copy of that state: the per-alert
    functions of :mod:`repro.core.streaming` advance one slot, and the
    stacked kernel tests and advances them by index arrays.
    """

    __slots__ = ("capacity", "_free", "width", "row", "length", "pages", "match", "detected", "stale")

    def __init__(self, width: int) -> None:
        self.capacity = 0
        self._free: List[int] = []
        # Pages a slot can hold: a filling entity holds up to ``ring`` steps.
        self.width = width
        self._resize(0)

    @property
    def live(self) -> int:
        """Number of slots currently held."""
        return self.capacity - len(self._free)

    @property
    def slot_bytes(self) -> int:
        """Bytes one slot takes across the six columns."""
        columns = self.row.itemsize + self.length.itemsize + self.match.itemsize
        return columns + self.width * self.pages.itemsize + 2

    def _resize(self, capacity: int) -> None:
        known = self.capacity
        _resize_blocks(self, capacity, (
            ("row", (capacity,), np.int64),
            ("length", (capacity,), np.int64),
            ("pages", (capacity, self.width), np.int32),
            ("match", (capacity,), np.int32),
            ("detected", (capacity,), np.bool_),
            ("stale", (capacity,), np.bool_),
        ))  # fmt: skip
        self.empty(slice(known, capacity))

    def empty(self, slots) -> None:
        """Reset ``slots`` to empty: no row, no steps, pristine, no flag.
        A free slot is always empty."""
        self.row[slots] = self.match[slots] = -1
        self.length[slots] = 0
        self.detected[slots] = self.stale[slots] = False

    def allocate(self, count: int) -> List[int]:
        """``count`` free (so empty) slots."""
        return _take(self, count, _INITIAL_SLOTS)

    def release(self, slot: int) -> None:
        """Free one slot (its row and pages handed back already)."""
        self.empty(slot)
        self._free.append(slot)

    def cells(self, slots, steps):
        """Fill-storage cell of step ``steps[i]`` of slot ``slots[i]`` (or of one step)."""
        return self.pages[slots, steps // _PAGE] * _PAGE + steps % _PAGE

    def previous(self, slots: np.ndarray, steps: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The cells of steps ``steps[i] - 1`` of ``slots[i]``, given the
        cells of ``steps``: the cell before, unless a step starts a page."""
        before = cells - 1
        turning = np.flatnonzero(steps % _PAGE == 0)
        if turning.size:
            before[turning] = self.cells(slots[turning], steps[turning] - 1)
        return before

    def pages_of(self, slot: int) -> np.ndarray:
        """The fill pages slot ``slot`` holds, in step order."""
        return self.pages[slot, : -(-int(self.length[slot]) // _PAGE)]

    def cells_of(self, slot: int) -> np.ndarray:
        """Fill-storage cells of slot ``slot``'s steps, in step order."""
        pages = self.pages_of(slot)
        return (pages[:, None] * _PAGE + np.arange(_PAGE)).ravel()[: self.length[slot]]


class MatchRows:
    """Greedy pattern-match state of the slots that left the seed, and the
    tables it advances by.

    Column ``p`` is the ``p``-th weighted pattern of :attr:`patterns`
    (catalogue order, the order bonuses sum in).  Row ``r`` holds
    ``matched[r, p]``, the longest prefix of pattern ``p`` the window
    contains as a subsequence (its greedy leftmost match), and the
    absolute steps ``first[r, p]`` and ``last[r, p]`` where that match
    starts and ends (stale while ``matched`` is 0).  No other matched
    position is ever read: a match changes only when the step it awaits
    arrives (it then ends there) or when its first step leaves the
    window (it is then matched again over the window).  A slot takes a
    row when a step first advances one of its patterns and gives it
    back once none is matched (``SlotTable.match``).

    Shared tables, built once: every pattern name is interned into the
    arena first, so the symbols patterns use are ``0 .. symbols - 1``;
    ``expect[p, m]`` is the symbol pattern ``p`` awaits with ``m``
    matched (``-1`` once complete), ``bonus[p, m]`` its pattern bonus
    then, ``length[p]`` its length and ``seeds[symbol]`` whether some
    pattern starts with the symbol (``seeds[-1]`` is false, for every
    other symbol).
    """

    __slots__ = (
        "capacity", "_free", "patterns", "codes", "columns", "symbols", "expect", "bonus",
        "length", "seeds", "matched", "first", "last",
    )  # fmt: skip

    def __init__(self, patterns: Sequence, intern, parameters: "FactorParameters") -> None:
        self.patterns = tuple(patterns)
        self.codes = codes = [[intern(name) for name in pattern.names] for pattern in self.patterns]
        self.columns = np.arange(len(codes))
        self.symbols = symbols = 1 + max((c for code in codes for c in code), default=-1)
        self.length = np.array([len(code) for code in codes], dtype=np.int64)
        longest = int(self.length.max(initial=0))
        self.expect = np.full((len(codes), longest + 1), -1, dtype=np.int64)
        self.bonus = np.zeros((len(codes), longest + 1))
        self.seeds = np.zeros(symbols + 1, dtype=np.bool_)
        for p, (pattern, code) in enumerate(zip(self.patterns, codes)):
            self.expect[p, : len(code)] = code
            self.seeds[code[:1]] = True
            for m in range(1, len(code) + 1):
                self.bonus[p, m] = parameters.pattern_bonus(m, len(code), pattern.weight)
        self.capacity = 0
        self._free: List[int] = []
        self._resize(0)

    @property
    def live(self) -> int:
        """Number of rows currently held."""
        return self.capacity - len(self._free)

    def _resize(self, capacity: int) -> None:
        width = len(self.patterns)
        _resize_blocks(self, capacity, (
            ("matched", (capacity, width), np.int64),
            ("first", (capacity, width), np.int64),
            ("last", (capacity, width), np.int64),
        ))  # fmt: skip

    def allocate(self, count: int) -> List[int]:
        """``count`` free rows, nothing matched."""
        rows = _take(self, count, _INITIAL_SLOTS)
        self.matched[rows] = 0
        return rows

    def release(self, rows: Sequence[int]) -> None:
        self._free.extend(rows)

    def seeding(self, symbols: np.ndarray) -> np.ndarray:
        """Whether some pattern starts with each of ``symbols`` (``-1`` pads)."""
        return self.seeds[np.minimum(symbols, self.symbols)]

    def awaited(self, rows: np.ndarray) -> np.ndarray:
        """``(n, P)``: the symbol each pattern of each of ``rows`` awaits."""
        return self.expect[self.columns, self.matched[rows]]


class WindowArena:
    """Struct-of-arrays storage of two-stack sliding windows, one per row,
    the filling slots' steps (:attr:`fill`), and the observation row
    of every alert name interned so far."""

    __slots__ = (
        "ring", "parameters", "capacity", "_free", "symbol_ids", "symbol_names", "observations",
        "fill", "slots", "matches", "unary", "symbols", "agg_max", "start", "boundary", "end",
    )  # fmt: skip

    def __init__(self, ring: int, parameters: "FactorParameters", patterns: Sequence = ()) -> None:
        self.ring = ring
        self.parameters = parameters
        self.capacity = 0
        self._free: List[int] = []
        # Alert names interned in order of first sight, and their
        # observation rows (``observations[:len(symbol_names)]``).
        self.symbol_ids: Dict[str, int] = {}
        self.symbol_names: List[str] = []
        self.observations = np.zeros((_INITIAL_SYMBOLS, _K))
        self.fill = FillPages()
        self.slots = SlotTable(-(-ring // _PAGE))
        # The weighted patterns (with ``names`` and ``weight``, catalogue
        # order), whose names are interned first.
        self.matches = MatchRows(patterns, self.intern, parameters)
        self._resize(0)

    @property
    def live(self) -> int:
        """Number of rows currently allocated."""
        return self.capacity - len(self._free)

    @property
    def row_bytes(self) -> int:
        """Bytes one row takes: its ring cells across the three blocks, and its span."""
        cell = _K * self.unary.itemsize + self.symbols.itemsize + _K * _K * self.agg_max.itemsize
        return self.ring * cell + 3 * self.start.itemsize

    def _resize(self, capacity: int) -> None:
        cells = capacity * self.ring
        _resize_blocks(self, capacity, (
            ("unary", (cells, _K), np.float64),
            ("symbols", (cells,), np.int64),
            ("agg_max", (_K, _K, cells), np.float64),
            ("start", (capacity,), np.int64),
            ("boundary", (capacity,), np.int64),
            ("end", (capacity,), np.int64),
        ))  # fmt: skip

    def allocate(self) -> int:
        """A free row index (contents stale; the caller loads it)."""
        return _take(self, 1, _INITIAL_ROWS)[0]

    def release(self, row: int) -> None:
        self._free.append(row)

    def push_fill(self, slot: int, symbol: int) -> int:
        """Store the next filling step's symbol for one slot (a page when
        the step starts one); returns the step."""
        slots = self.slots
        step = int(slots.length[slot])
        if step % _PAGE == 0:
            slots.pages[slot, step // _PAGE] = self.fill.allocate(1)[0]
        self.fill.symbols[slots.cells(slot, step)] = symbol
        slots.length[slot] = step + 1
        return step

    def store_fills(self, slots: np.ndarray, steps: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """:meth:`push_fill` for many steps at once, bar the length bump,
        which is the caller's: step ``steps[i]`` of ``slots[i]``, each
        slot's next steps.  Pages off the free list and the symbol store
        are one index array each; returns the steps' cells."""
        table = self.slots
        within = steps % _PAGE
        opening = np.flatnonzero(within == 0)
        if opening.size:
            table.pages[slots[opening], steps[opening] // _PAGE] = self.fill.allocate(opening.size)
        cells = table.pages[slots, steps // _PAGE] * _PAGE + within
        self.fill.symbols[cells] = symbols
        return cells

    def truncate(self, slot: int, length: int) -> None:
        """Keep one slot's first ``length`` filling steps; the pages past
        them go back."""
        slots = self.slots
        held, kept = -(-int(slots.length[slot]) // _PAGE), -(-length // _PAGE)
        if held > kept:
            self.fill.release(slots.pages[slot, kept:held].tolist())
        slots.length[slot] = length

    def drop(self, slot: int) -> None:
        """Hand one slot's decode storage back (its row, or its fill
        pages), and its pattern state."""
        slots = self.slots
        row, match = int(slots.row[slot]), int(slots.match[slot])
        if row >= 0:
            self.release(row)
            slots.row[slot] = -1
        if match >= 0:
            self.matches.release([match])
            slots.match[slot] = -1
        self.truncate(slot, 0)

    def clear(self) -> None:
        """Hand every row, fill page, match row and slot back at once (interned names stay)."""
        for owner in (self, self.fill, self.slots, self.matches):
            owner._free = list(range(owner.capacity - 1, -1, -1))
        self.slots.empty(slice(None))

    def intern(self, name: str) -> int:
        """Symbol index of an alert name; a new name's observation row is
        resolved here, once, and appended to :attr:`observations`."""
        symbol = self.symbol_ids.get(name)
        if symbol is None:
            symbol = self.symbol_ids[name] = len(self.symbol_names)
            self.symbol_names.append(name)
            if symbol == len(self.observations):
                self.observations = np.concatenate(
                    (self.observations, np.zeros_like(self.observations))
                )
            self.observations[symbol] = self.parameters.observation_row(name)
        return symbol

    # -- operations on row-index arrays -----------------------------------------
    def cells(self, rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Flat cell of ``steps[i]`` (or ``steps[q, i]``) of ``rows[i]``."""
        return rows * self.ring + steps % self.ring

    # -- one row's two stacks ---------------------------------------------------
    def window_cells(self, row: int) -> np.ndarray:
        """Flat cells of one row's steps ``start .. end - 1``, in step order."""
        return self.cells(row, np.arange(self.start[row], self.end[row]))

    def stage(self, row: int, symbol: int) -> int:
        """Store the symbol of the step the next :meth:`push` onto ``row``
        folds; returns the step.  At most ``ring`` steps are held."""
        end = int(self.end[row])
        if end - int(self.start[row]) >= self.ring:
            raise IndexError("window ring is full")
        self.symbols[row * self.ring + end % self.ring] = symbol
        return end

    def push(self, row: int, unary_row: np.ndarray, pairwise: np.ndarray) -> None:
        """Append the staged step to ``row``'s back: O(K^3)."""
        ring, boundary, end = self.ring, int(self.boundary[row]), int(self.end[row])
        cell = row * ring + end % ring
        self.unary[cell] = unary_row
        matrix = pairwise + unary_row[None, :]
        if end > boundary:
            matrix = maxplus_matmul(self.agg_max[:, :, row * ring + (end - 1) % ring], matrix)
        self.agg_max[:, :, cell] = matrix
        self.end[row] = end + 1

    def pop_front(self, row: int, pairwise: np.ndarray) -> int:
        """Evict ``row``'s oldest step, flipping the back when the front
        runs dry: O(K^3) amortised.  Returns the new head."""
        start, boundary, end = int(self.start[row]), int(self.boundary[row]), int(self.end[row])
        if end - start < 2:
            raise IndexError("pop from a window of fewer than 2 steps")
        if boundary == start + 1:
            self.flip_together(np.array([row]), pairwise)
        self.start[row] = start + 1
        return start + 1

    def fold(self, row: int, vector: np.ndarray) -> np.ndarray:
        """``vector ⊗ front-top suffix ⊗ newest back prefix`` of ``row``
        under ``(max, +)``: O(K^2).  From the head row, the window's
        Viterbi score vector."""
        ring, start, boundary, end = self.ring, int(self.start[row]), int(self.boundary[row]), int(self.end[row])
        for held, step in ((start + 1 < boundary, start + 1), (boundary < end, end - 1)):
            if held:
                vector = maxplus_vecmat(vector, self.agg_max[:, :, row * ring + step % ring])
        return vector

    def flip_together(self, rows: np.ndarray, pairwise: np.ndarray) -> None:
        """Turn each row's back prefixes into front suffixes (its front is empty).

        Rows whose backs have the same length share one scan, so a
        stacked pass pays one flip per length instead of one per
        entity; a lone :meth:`pop_front` flips through the same code.
        """
        end = self.end[rows]
        spans = end - self.boundary[rows]
        held = spans[spans > 0]
        for count in (np.unique(held) if held.size > 1 else held).tolist():
            group = spans == count
            self._refold(rows[group], end[group] - 1, count, pairwise)
        self.boundary[rows] = end

    def rebuild(self, rows: np.ndarray, pairwise: np.ndarray) -> None:
        """Re-aggregate each row from scratch: every queued step into front suffixes."""
        self.boundary[rows] = self.start[rows] + 1
        self.flip_together(rows, pairwise)

    def _refold(self, rows: np.ndarray, origin: np.ndarray, count: int, pairwise: np.ndarray) -> None:
        """Recompute ``count`` front suffixes of each of ``m`` rows, walking
        down from step ``origin`` (older steps compose on the left).

        The block is ``(K, K, count * m)`` with walk position ``q`` of row
        ``j`` at ``q * m + j``, so a shift by ``span`` positions is a
        contiguous slice.  At ``count >= _MIN_SCAN`` the fold is a
        doubling scan, whose tree order reassociates the float products;
        the guard band of ``streaming.may_fire`` dominates its rounding
        depth.
        """
        m = rows.size
        cells = self.cells(rows, origin - np.arange(count)[:, None]).ravel()
        stack = pairwise[:, :, None] + self.unary[cells].T[None, :, :]
        matmul = maxplus_matmul_batch
        if count >= _MIN_SCAN:
            width = m
            while width < count * m:
                # Both operands are read in full before the assignment lands.
                stack[:, :, width:] = matmul(stack[:, :, width:], stack[:, :, :-width])
                width *= 2
        else:
            for low in range(m, count * m, m):
                stack[:, :, low : low + m] = matmul(stack[:, :, low : low + m], stack[:, :, low - m : low])
        self.agg_max[:, :, cells] = stack

    def forward(self, rows: np.ndarray, pairwise: np.ndarray) -> np.ndarray:
        """Unnormalised forward log messages of ``rows``' windows, ``(K, m)``.

        Row ``j``'s column is ``head ⊗ M_(start+1) ⊗ ... ⊗ M_(end-1)``
        under ``(logsumexp, +)``, folded from its unary ring alone.  Rows
        whose windows have the same length share one :func:`tree` (as
        :meth:`flip_together` groups flips).  The tree reassociates the
        sequential recursion, so the result feeds the guard-banded
        pre-filter only;
        hard zeros (``-inf``) in the parameters can yield NaN, which the
        pre-filter defers to the exact decode.
        """
        start, end = self.start[rows], self.end[rows]
        spans = end - start
        forward = self.unary[self.cells(rows, start)].T
        lengths = np.unique(spans) if spans.size > 1 else spans
        for count in lengths[lengths > 1].tolist():
            group = np.flatnonzero(spans == count) if lengths.size > 1 else slice(None)
            cells = self.cells(rows[group], start[group] + np.arange(1, count)[:, None])
            # (K, K, count - 1, m): the matrix of step ``start + 1 + q`` of
            # the group's row ``j`` at ``[:, :, q, j]``.
            stack = pairwise[:, :, None, None] + self.unary[cells].transpose(2, 0, 1)[None]
            forward[:, group] = logsumexp_vecmat_batch(forward[:, group], tree(stack, logsumexp_matmul_batch))
        return forward


__all__ = ["FillPages", "MatchRows", "SlotTable", "WindowArena"]
