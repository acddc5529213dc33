"""Incremental streaming inference for the per-entity chain model.

The seed implementation of :class:`repro.core.attack_tagger.AttackTagger`
re-ran the *entire* chain decode -- Viterbi, forward-backward, and every
pattern-prefix rescan -- from scratch on every alert, so the cost of
consuming one alert grew linearly with the entity's history and the cost
of a whole stream grew quadratically.  This module holds the per-entity
state that makes each new alert cheap:

* :class:`PatternCursor` -- per-pattern greedy match state.  The greedy
  subsequence match of a pattern prefix is *incremental*: appending an
  alert can only advance the cursor by one symbol, never change earlier
  greedy choices, so ``matched`` and the matched step positions are
  maintained in O(1) per alert instead of O(T * L) rescans.
* :class:`StreamingDecoder` -- checkpointed forward recursions plus an
  amortised sliding-window mode.  While the entity's window is still
  filling, every step stores the running Viterbi score vector and the
  normalised forward log-alpha; appending an alert extends both by one
  O(K^2) step, exactly as in the seed recursion.

**Window eviction (the ``max_window`` slide).**  Once an entity
saturates its window, every new alert evicts the oldest step.
Re-anchoring the recursions with a full O(W * K^2) re-decode per alert
would be the seed constant all over again, and the production steady
state for long-lived entities.  :meth:`StreamingDecoder.evict_front`
instead switches the decoder into *windowed* mode: per-step
transition⊗unary matrices are aggregated by a two-stack
:class:`repro.core.sliding_window.SlidingProductWindow` under the
``(max, +)`` semiring, so appending costs O(K^3) (one small matrix
product), evicting the front costs O(K^3) *amortised*, and the firing
decision reads the window's Viterbi score vector in O(K^2).  Only a
window whose score cannot rule it out pays for its forward message,
folded from the row's unary ring by ``WindowArena.forward``.

**Where the window lives.**  Every entity a tagger tracks holds a
*slot* of its :class:`repro.core.sliding_window.WindowArena`
(:class:`~repro.core.sliding_window.SlotTable`): the slot's row, fill
length, fill pages and pristine flag are the entity's decode state,
and a decoder is a view of its slot plus the sparse pattern state --
it keeps no length, page list or row of its own.  The arena interns
each alert name once and holds its observation row, so no step copies
one.  While the window fills, steps ``0 .. length - 1`` (unary row,
Viterbi score, forward message, symbol) sit in the arena's *fill
storage* (:class:`~repro.core.sliding_window.FillPages`): pages of a
few steps, taken from a free list as the entity grows, so a new entity
allocates no array and a two-alert entity holds one page.  The first
eviction moves the steps into one *row* of the arena and frees the
pages.  From then on the decoder holds a :class:`SlidingProductWindow`
view of that row: the unary rows and alert symbols sit in the row's
ring slots (``step mod ring``), ``start``/``end`` in the arena's integer
arrays, and step indices are absolute and never rebased.  In either
phase the scalar methods here and the stacked kernel
(:mod:`repro.core.batch_kernel`) read and write the same cells, so an
entity's state does not depend on which of them advanced it.  The
kernel advances a slot without a decoder at all while its steps are
*plain*: a pristine slot (``_waiting`` still the table's seed) and
symbols no pattern starts with, or, with live cursors,
:meth:`plain_run`.  Whoever drops a decoder must :meth:`release` its
slot's row or pages.

The aggregate and the forward tree are floating-point *reassociated*
relative to the sequential recursion, so windowed mode never lets them
near an emitted number: :meth:`may_fire` uses them only as a
guard-banded pre-filter (reassociation error is bounded far below the
guard), and
any alert that might fire -- plus every explicit read-out
(:meth:`final_marginal`, :meth:`map_path`, ...) -- is materialised by
the exact sequential decode of the bounded window, i.e. by the very
same float operations as ``engine="naive"``.  Emitted detections
(state, confidence, trajectory) are therefore bit-identical to the seed
path, which the equivalence suite asserts with exact comparisons.

**Pattern-cursor state under eviction.**  Pattern evidence is folded
into the malicious-state unary potential of the step where the matched
prefix currently *ends*.  Cursors record the step positions of their
greedy match; evicting a step rescans only the patterns whose greedy
match touched it (the greedy leftmost match of every other pattern is
unchanged by dropping steps before its first matched position).  A
bonus relocation dirties a step already inside the two-stack structure;
the affected aggregates are patched partially in place (back prefixes
or front suffixes from the edited position, typically O(K^3) because
greedy matches cluster near the window boundaries); the equivalence
suite exercises patches on both sides of the two-stack boundary.

Per-alert complexity (T = history length, K = states, P = patterns,
L = pattern length, W = max window):

===============================  ===================  ================  ==================
quantity                         seed (re-decode)     streaming (PR 1)  amortised window
===============================  ===================  ================  ==================
pattern matching                 O(P * T * L)         O(advances)       O(advances) [2]_
Viterbi extension                O(T * K^2)           O(K^2)            O(K^3)
posterior of current state       O(T * K^2)           O(K^2)            O(W * K^3) [5]_
bonus relocation                 (included above)     O(d * K^2) [1]_   O(|back| * K^3)
window eviction                  O(W * K^2)           O(W * K^2)        O(K^3) amortised [4]_
full MAP trajectory              O(T * K^2)           O(T * K^2) [3]_   O(W * K^2) [3]_
===============================  ===================  ================  ==================

.. [1] ``d`` = distance from the earliest invalidated step to the end.
.. [2] plus an O(W * L) rescan per pattern whose match touched the
       evicted step.
.. [3] only paid when a detection actually fires (at most once per
       entity) or an explicit read-out is requested; cached per window
       span.
.. [4] the eviction itself is an index bump (``start += 1``); the
       amortised O(K^3) is the flip every ``W`` evictions.
.. [5] the pre-filter's forward stage, in O(log W) stacked numpy
       calls, and only for a window whose O(K^2) Viterbi score the
       guard band cannot rule out.

Every emitted number reproduces the exact arithmetic of
:func:`repro.core.factor_graph.chain_map_decode` and
:func:`repro.core.factor_graph.chain_marginals`, so decodes are
bit-identical to the seed path (asserted by the equivalence test
suites in ``tests/test_streaming.py`` and
``tests/test_sliding_window.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .factor_graph import _logsumexp, _normalize_log, chain_map_decode, chain_marginals
from .sliding_window import SlidingProductWindow, WindowArena
from .states import HiddenState, NUM_STATES

_MALICIOUS = int(HiddenState.MALICIOUS)
_ARANGE_K = np.arange(NUM_STATES)

#: Floor of the guard band (log-space score gap / probability margin)
#: inside which the reassociated window aggregate is not trusted to
#: decide anything and the exact sequential decode is consulted
#: instead.  The reassociated-vs-sequential error of a W-step semiring
#: product chain is bounded by ~W * K * eps * |accumulated log
#: magnitude| (the magnitude itself absorbs the second factor of W and
#: any outsized pattern weights), so :meth:`StreamingDecoder.may_fire`
#: widens the guard with the measured aggregate magnitude -- extreme
#: windows or weights merely degrade to "always consult the exact
#: decode", never to a silently dropped detection.
_DECISION_GUARD = 1e-6
_GUARD_SLACK = 64.0 * np.finfo(np.float64).eps


def _guard(lengths: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The guard band of windows of ``lengths`` steps whose reassociated
    ``(K, m)`` vectors are ``vectors``."""
    magnitude = np.maximum.reduce(np.abs(vectors), axis=0)
    return np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths.astype(np.float64)) * magnitude)


def forward_stage(arena: WindowArena, rows: np.ndarray, threshold: float) -> np.ndarray:
    """Second stage of the ``may_fire`` pre-filter, for arena ``rows``.

    For windows the ``(max, +)`` score test let through: folds each
    row's forward message (:meth:`WindowArena.forward`) and returns the
    mask of rows whose malicious posterior may reach ``threshold``,
    within the guard band of that message.  A NaN posterior (hard zeros
    in the parameters) cannot be ruled out.
    """
    forward = arena.forward(rows, arena.parameters.transition_log)
    guard = _guard(arena.end[rows] - arena.start[rows], forward)
    probability = np.exp(forward[_MALICIOUS] - _logsumexp(forward, axis=0))
    return np.isnan(probability) | (probability >= threshold - guard)


@dataclasses.dataclass(frozen=True)
class WeightedPattern:
    """A catalogue pattern with its resolved (positive) factor weight."""

    name: str
    names: tuple[str, ...]
    weight: float


class PatternCursor:
    """Greedy match state of one pattern against a (windowed) stream.

    ``matched`` is the length of the longest pattern prefix contained in
    the window (equal to
    :func:`repro.core.sequences.matched_prefix_length` over the window's
    names), ``positions`` the step indices of the greedy leftmost match,
    and ``end_index`` the step where that match ends
    (``positions[-1]``, or ``-1`` while unmatched).  The positions are
    what makes window eviction cheap: a cursor needs a rescan only when
    its *first* matched step is evicted.
    """

    __slots__ = ("matched", "end_index", "positions")

    def __init__(self) -> None:
        self.matched = 0
        self.end_index = -1
        self.positions: List[int] = []


class PatternTable:
    """Immutable pattern state shared by every decoder built from it.

    ``patterns`` are the active weighted patterns in catalogue order;
    ``seed`` maps a first symbol to the ascending indices of the
    patterns starting with it -- the waiting lists of a decoder that
    has matched nothing yet.
    """

    __slots__ = ("patterns", "seed")

    def __init__(self, patterns: Sequence[WeightedPattern] = ()) -> None:
        self.patterns: tuple[WeightedPattern, ...] = tuple(patterns)
        self.seed: Dict[str, Tuple[int, ...]] = {}
        for index, pattern in enumerate(self.patterns):
            if pattern.names:
                first = pattern.names[0]
                self.seed[first] = self.seed.get(first, ()) + (index,)


class StreamingDecoder:
    """Incremental chain decoder for one monitored entity.

    Parameters
    ----------
    table:
        Active patterns with their resolved positive weights, in
        catalogue order (the order bonuses are summed in, to keep
        floating-point results identical to the naive re-decode).
    arena:
        The owning tagger's :class:`~repro.core.sliding_window.WindowArena`
        (ring ``max_window + 1``).  Its parameters are the decoder's
        (observation rows, transition/initial tables, the pattern-bonus
        schedule); the decoder interns every alert name there and takes
        a row of it on its first eviction.
    slot:
        The entity's slot of ``arena.slots``
        (:class:`~repro.core.sliding_window.SlotTable`), whose row, fill
        length, pages and pristine flag are this decoder's; a fresh one
        when omitted.  A slot may hold filling steps already: the
        stacked kernel advances a pristine slot's plain steps without a
        decoder, so one opened over it starts where the slot stands.

    Opening a decoder is O(1) in the catalogue size and allocates no
    array: its steps go to pages of the arena's
    :class:`~repro.core.sliding_window.FillPages`, taken as it grows.
    The table's ``patterns`` and seed index are aliased, not copied:
    every decoder of a tagger shares them, so never mutate
    ``decoder.patterns`` or a waiting bucket in place.  ``_cursors``
    holds a cursor only while its pattern has a non-empty match, and
    ``_waiting`` *is* the seed index while the slot is pristine, until
    the first cursor advance (copy on write); its tuple buckets are
    replaced, never edited.
    """

    __slots__ = (
        "parameters", "patterns", "_seed", "_pairwise", "_cursors", "_own", "_complete",
        "_bonus_at", "_arena", "_fill", "_slots", "_slot", "_window", "_decode_cache",
    )  # fmt: skip

    def __init__(self, table: PatternTable, arena: WindowArena, slot: Optional[int] = None) -> None:
        self.parameters = parameters = arena.parameters
        self.patterns = table.patterns
        self._seed = table.seed
        self._pairwise = parameters.transition_log
        # pattern index -> cursor, only for patterns with matched > 0
        self._cursors: Dict[int, PatternCursor] = {}
        # The waiting lists once the slot is no longer pristine.
        self._own: Dict[str, Tuple[int, ...]] = table.seed
        self._complete: Set[int] = set()
        # step index -> {pattern index -> bonus} for bonuses landing
        # there, kept in ascending pattern-index order (the catalogue
        # summation order the naive rebuild uses).
        self._bonus_at: Dict[int, Dict[int, float]] = {}
        self._arena = arena
        self._fill = arena.fill
        self._slots = arena.slots
        self._slot = arena.slots.allocate(1)[0] if slot is None else slot
        # The view of the slot's arena row once windowed; its start/end are the window's.
        self._window: Optional[SlidingProductWindow] = None
        # (window span, map_path, final_marginal) of the last exact decode.
        self._decode_cache: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = None

    # -- bookkeeping -------------------------------------------------------
    @property
    def _waiting(self) -> Dict[str, Tuple[int, ...]]:
        """symbol -> indices of patterns whose next expected symbol is it."""
        return self._seed if self._slots.pristine[self._slot] else self._own

    def _filled(self) -> int:
        """Filling steps held (``0 .. _filled() - 1``)."""
        return int(self._slots.length[self._slot])

    def _cell(self, step: int) -> int:
        """Fill-storage cell of one step of a filling decoder."""
        return self._slots.cells(self._slot, step)

    def _cells(self) -> np.ndarray:
        """Fill-storage cells of the filling steps, in step order."""
        return self._slots.cells_of(self._slot)

    def _open_window(self) -> None:
        """Filling → windowed: move the steps into an arena row, free their pages."""
        fill, cells, arena = self._fill, self._cells(), self._arena
        self._window = SlidingProductWindow(self._pairwise, arena)
        self._window.load(0, fill.unary[cells], fill.symbols[cells])
        arena.truncate(self._slot, 0)
        self._slots.row[self._slot] = self._window.row

    def _rebuild_waiting(self) -> None:
        """Recompute the waiting lists from the cursors (after rescans):
        the seed index, with each live cursor's pattern moved from its
        first symbol's bucket to that of the symbol it expects next."""
        waiting = dict(self._seed)
        for index in sorted(self._cursors):
            names = self.patterns[index].names
            waiting[names[0]] = tuple(i for i in waiting[names[0]] if i != index)
            matched = self._cursors[index].matched
            if matched < len(names):
                symbol = names[matched]
                waiting[symbol] = waiting.get(symbol, ()) + (index,)
        self._own = waiting
        self._slots.pristine[self._slot] = False

    @property
    def length(self) -> int:
        """Number of alerts currently folded into the (windowed) chain."""
        window = self._window
        return self._filled() if window is None else window.end - window.start

    @property
    def names(self) -> tuple[str, ...]:
        """Alert names currently folded into the chain."""
        if self._window is not None:
            return tuple(self._window.names())
        symbols = self._fill.symbols[self._cells()].tolist()
        return tuple(map(self._arena.symbol_names.__getitem__, symbols))

    @property
    def windowed(self) -> bool:
        """Whether the decoder has evicted at least once (amortised mode)."""
        return self._window is not None

    def release(self) -> None:
        """Give the slot's arena storage back (a row, or fill pages)."""
        self._window = None
        self._arena.drop(self._slot)

    def reset(self) -> None:
        """Forget the whole stream."""
        self.release()
        self._decode_cache = None
        self._bonus_at.clear()
        self._complete.clear()
        self._cursors.clear()

    # -- incremental update -------------------------------------------------
    def append(self, name: str) -> None:
        """Fold one alert into the chain: O(K^2 + pattern advances)."""
        step, dirty, invalid_from = self.append_plan(name)
        self._complete_append(step, dirty, invalid_from)

    def append_plan(self, name: str) -> Tuple[int, Set[int], int]:
        """Bookkeeping half of :meth:`append`: everything except the numerics.

        Stores the symbol and advances pattern cursors (relocating
        bonuses) — but leaves the dirty unary rows and the
        forward/window aggregates stale.  Returns ``(step, dirty,
        invalid_from)`` for :meth:`_complete_append`, which the stacked
        decode kernel replaces with cross-entity numerics while the
        window fills; ``append`` is exactly ``append_plan`` +
        ``_complete_append``.
        """
        parameters = self.parameters
        arena = self._arena
        symbol = arena.intern(name)
        window = self._window
        if window is None:
            t = arena.push_fill(self._slot, symbol)
        else:
            t = window.stage(symbol)
        invalid_from = t
        dirty = {t}
        waiting = self._waiting
        if waiting.get(name):
            if waiting is self._seed:
                # Copy on the first advance: the slot is no longer pristine.
                waiting = self._own = dict(self._seed)
                self._slots.pristine[self._slot] = False
            advancing = waiting.pop(name)
            # Ascending pattern index keeps same-step bonus insertion in
            # catalogue order (see _refresh_unary).
            for index in sorted(advancing):
                cursor = self._cursors.get(index)
                pattern = self.patterns[index]
                if cursor is None:
                    cursor = self._cursors[index] = PatternCursor()
                else:
                    old = self._bonus_at.get(cursor.end_index)
                    if old is not None and index in old:
                        del old[index]
                        if not old:
                            del self._bonus_at[cursor.end_index]
                        dirty.add(cursor.end_index)
                        if cursor.end_index < invalid_from:
                            invalid_from = cursor.end_index
                cursor.matched += 1
                cursor.end_index = t
                cursor.positions.append(t)
                bonus = parameters.pattern_bonus(
                    cursor.matched, len(pattern.names), pattern.weight
                )
                if bonus > 0.0:
                    self._insert_bonus(t, index, bonus)
                if cursor.matched < len(pattern.names):
                    symbol = pattern.names[cursor.matched]
                    waiting[symbol] = waiting.get(symbol, ()) + (index,)
                else:
                    self._complete.add(index)
        return t, dirty, invalid_from

    def _complete_append(self, step: int, dirty: Set[int], invalid_from: int) -> None:
        """Numeric half of :meth:`append`: refresh unaries, extend aggregates."""
        if self._window is None:
            for touched in dirty:
                self._refresh_unary(touched)
            self._recompute_forward(invalid_from)
        else:
            self._sync_window(dirty, appended=step)

    def evict_front(self) -> None:
        """Slide the window start forward by one step: O(K^3) amortised.

        The first eviction moves the decoder into an arena row and
        builds the two-stack aggregate over the remaining window; every
        later eviction pops the front stack (an amortised ``(max, +)``
        product) and rescans only the patterns whose greedy match
        touched the evicted step.
        """
        opening = self._window is None
        if opening:
            if self._filled() < 2:
                raise ValueError("cannot evict from a window of fewer than 2 steps")
            self._open_window()
        head = self._window.pop_front()
        dirty = self._evict_cursor_state(head - 1)
        # The new head row gains the initial-state prior (a pure function
        # of the observation and bonus state, so safe after the rescan).
        dirty.add(head)
        self._sync_window(dirty)
        if opening:
            self._window.rebuild()

    def _evict_cursor_state(self, evicted: int) -> Set[int]:
        """Rescan patterns whose greedy match used the evicted step.

        Dropping steps *before* a pattern's first matched position
        cannot change its greedy leftmost match, so only cursors whose
        ``positions[0]`` is the evicted step are rescanned over the
        bounded window.  Returns the set of surviving steps whose unary
        row changed (bonus removed/relocated).
        """
        dirty: Set[int] = set()
        cursors = self._cursors
        # Ascending pattern index: the catalogue order bonus buckets sum in.
        rescan = [index for index in sorted(cursors) if cursors[index].positions[0] <= evicted]
        if not rescan:
            self._bonus_at.pop(evicted, None)
            return dirty
        for index in rescan:
            cursor = cursors[index]
            pattern = self.patterns[index]
            bucket = self._bonus_at.get(cursor.end_index)
            if bucket is not None and index in bucket:
                del bucket[index]
                if not bucket:
                    del self._bonus_at[cursor.end_index]
                if cursor.end_index > evicted:
                    dirty.add(cursor.end_index)
            self._complete.discard(index)
            matched, positions = self._greedy_match(pattern.names)
            if not matched:
                del cursors[index]
            else:
                cursor.matched = matched
                cursor.positions = positions
                cursor.end_index = positions[-1]
                bonus = self.parameters.pattern_bonus(
                    matched, len(pattern.names), pattern.weight
                )
                if bonus > 0.0:
                    self._insert_bonus(cursor.end_index, index, bonus)
                    dirty.add(cursor.end_index)
                if matched == len(pattern.names):
                    self._complete.add(index)
        self._rebuild_waiting()
        self._bonus_at.pop(evicted, None)
        return dirty

    def _greedy_match(self, symbols: Sequence[str]) -> Tuple[int, List[int]]:
        """Greedy leftmost subsequence match of ``symbols`` over the window.

        Reproduces :func:`repro.core.sequences.matched_prefix_length`
        (and the end index the naive rebuild derives from it) on the
        window's names.
        """
        window = self._window
        start, _, end = window.span
        queued = window.arena.symbols[window.cells(start, end)].tolist()
        symbol_ids = window.arena.symbol_ids
        positions: List[int] = []
        cursor = 0
        for symbol in symbols:
            try:
                cursor = queued.index(symbol_ids.get(symbol), cursor) + 1
            except ValueError:
                break
            positions.append(start + cursor - 1)
        return len(positions), positions

    def _insert_bonus(self, step: int, index: int, bonus: float) -> None:
        """Record a bonus, keeping the step's bucket in pattern-index order.

        The bucket's *insertion* order is its iteration order, which
        :meth:`_refresh_unary` relies on to sum bonuses in catalogue
        order without a per-call sort.  Appends are almost always
        already in order (``append`` processes advancing patterns in
        ascending index); the rare out-of-order insert (an eviction
        rescan relocating a bonus onto a step that already carries one)
        re-sorts the small bucket once.
        """
        bucket = self._bonus_at.setdefault(step, {})
        fresh = index not in bucket
        bucket[index] = bonus
        if fresh and len(bucket) > 1:
            keys = list(bucket)
            if keys[-2] > index:
                self._bonus_at[step] = dict(sorted(bucket.items()))

    def _effective_row(self, step: int, head: int = 0) -> np.ndarray:
        """One effective unary row: observation (+ prior on the ``head`` step) + ordered bonuses."""
        window, arena = self._window, self._arena
        if window is None:
            symbol = self._fill.symbols[self._cell(step)]
        else:
            symbol = arena.symbols[window.cell(step)]
        row = arena.observations[symbol].copy()
        if step == head:
            row += self.parameters.initial_log
        bonuses = self._bonus_at.get(step)
        if bonuses:
            for bonus in bonuses.values():
                row[_MALICIOUS] += bonus
        return row

    def _refresh_unary(self, step: int) -> None:
        """Rebuild one filling-phase unary row in place."""
        self._fill.unary[self._cell(step)] = self._effective_row(step)

    # -- windowed-mode aggregate maintenance ---------------------------------
    def _sync_window(self, dirty: Set[int], appended: Optional[int] = None) -> None:
        """Rewrite the dirty unary rows, patching the aggregates that cover them.

        A queued step is replaced in place on whichever side of the
        two-stack boundary holds it (partial prefix/suffix refold); the
        head is in no aggregate, so its row is just stored; the
        ``appended`` step is pushed last.
        """
        window = self._window
        head = window.start
        for step in dirty:
            if step == head:
                window.arena.unary[window.cell(step)] = self._effective_row(step, head)
            elif step != appended:
                window.replace(step, self._effective_row(step, head))
        if appended is not None:
            window.push(self._effective_row(appended, head))

    def plain_run(self, names: Sequence[str]) -> int:
        """How many of ``names``, each appended with one eviction, are plain steps.

        A step is plain when its symbol neither is awaited by a cursor
        nor seeds a pattern, and no cursor's match starts on the evicted
        step or on the next head (where a rescan would start or a bonus
        would meet the prior).  Such a step is pure arithmetic on the
        arena row, which the stacked kernel does a chunk at a time.
        Plain steps change neither the cursors nor the waiting lists,
        so the run is read off the state as it stands: step ``j``'s next
        head is ``start + j + 1``.
        """
        limit = len(names)
        if self._cursors:
            first = min(cursor.positions[0] for cursor in self._cursors.values())
            limit = min(limit, first - self._window.start - 1)
        waiting = self._waiting
        depth = 0
        while depth < limit and not waiting.get(names[depth]):
            depth += 1
        return depth

    def _recompute_forward(self, start: int) -> None:
        """Extend/repair the forward recursions from ``start`` to the end.

        Each step reproduces exactly one loop iteration of
        ``chain_map_decode`` (the Viterbi score) and
        ``chain_marginals`` (normalised forward message).  Only used
        while the window is still filling; windowed mode materialises
        read-outs via :meth:`_window_decode` instead.
        """
        fill = self._fill
        unary, score, alpha = fill.unary, fill.score, fill.alpha
        pairwise = self._pairwise
        cell = self._cell
        for t in range(start, self._filled()):
            now = cell(t)
            if t == 0:
                score[now] = unary[now]
                alpha[now] = _normalize_log(unary[now])
                continue
            before = cell(t - 1)
            candidate = score[before][:, None] + pairwise
            score[now] = candidate[np.argmax(candidate, axis=0), _ARANGE_K] + unary[now]
            prev = alpha[before][:, None] + pairwise
            alpha[now] = _normalize_log(_logsumexp(prev, axis=0) + unary[now])

    # -- decisions -----------------------------------------------------------
    def may_fire(self, threshold: float) -> bool:
        """Cheap pre-filter: could this window cross the detection bar?

        ``False`` is authoritative (the exact decode provably cannot
        fire: the aggregate is within reassociation error of the exact
        values, and both margins clear the guard band).  ``True`` means
        the caller must consult the exact read-outs, which then decide
        -- and materialise -- the detection bit-identically to the
        naive path.
        """
        window = self._window
        arena = window.arena
        start, _, end = window.span
        score = window.fold(arena.unary[window.cell(start)])
        magnitude = float(np.max(np.abs(score)))
        guard = max(_DECISION_GUARD, _GUARD_SLACK * (end - start) * magnitude)
        if score[_MALICIOUS] < np.max(score) - guard:
            return False
        # Only a window the score test lets through pays for the
        # forward message (as in the stacked kernel).
        return bool(forward_stage(arena, np.array([window.row]), threshold)[0])

    # -- read-out ------------------------------------------------------------
    def _window_decode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact sequential decode of the window, cached per window span.

        Returns ``(map_path, final_marginal)``.  The MAP path reproduces
        ``chain_map_decode`` on the window's unary table; the final
        marginal reproduces ``chain_marginals(...)[-1]`` via the
        forward recursion only (the backward message at the final step
        is identically zero, so the backward pass cannot change the
        final row -- same argument, and same float ops, as the stored
        forward-message read-out while the window is filling).
        """
        # Every change to a windowed row moves its start or its end.
        span = self._window.span
        cache = self._decode_cache
        if cache is not None and cache[0] == span:
            return cache[1], cache[2]
        unary = self._window.unary_table()
        pairwise = self._pairwise
        path = chain_map_decode(unary, pairwise)
        forward = _normalize_log(unary[0])
        for t in range(1, unary.shape[0]):
            prev = forward[:, None] + pairwise
            forward = _normalize_log(_logsumexp(prev, axis=0) + unary[t])
        final_marginal = np.exp(forward - _logsumexp(forward))
        self._decode_cache = (span, path, final_marginal)
        return path, final_marginal

    def final_marginal(self) -> np.ndarray:
        """Posterior over the current state.

        Matches ``chain_marginals(unary, pairwise)[-1]`` on the window's
        unary table bit-for-bit (directly materialised in windowed mode;
        via the incrementally maintained forward message before that).
        """
        if self.length == 0:
            raise ValueError("decoder is empty")
        if self._window is not None:
            # Copy: the cached array must survive caller mutation.
            return self._window_decode()[1].copy()
        last = self._fill.alpha[self._cell(self._filled() - 1)]
        return np.exp(last - _logsumexp(last))

    def final_state(self) -> int:
        """Final state of the MAP trajectory (``argmax`` of the Viterbi score)."""
        if self.length == 0:
            raise ValueError("decoder is empty")
        if self._window is not None:
            return int(self._window_decode()[0][-1])
        return int(np.argmax(self._fill.score[self._cell(self._filled() - 1)]))

    def map_path(self) -> np.ndarray:
        """Full MAP state trajectory of the window.

        ``chain_map_decode`` of the unary table while the window is
        filling (its scores are the same float ops as the stored Viterbi
        scores, so the path ends in :meth:`final_state`); the cached
        exact window decode afterwards.
        """
        if self._window is not None:
            return self._window_decode()[0].copy()
        return chain_map_decode(self._fill.unary[self._cells()], self._pairwise)

    def matched_pattern_names(self) -> list[str]:
        """Names of fully matched patterns, in catalogue order."""
        return [self.patterns[index].name for index in sorted(self._complete)]

    def matched_prefix_lengths(self) -> list[int]:
        """Current matched-prefix length of every tracked pattern."""
        lengths = [0] * len(self.patterns)
        for index, cursor in self._cursors.items():
            lengths[index] = cursor.matched
        return lengths

    def unary_table(self) -> np.ndarray:
        """Copy of the window's effective unary log potentials (T, K)."""
        if self._window is not None:
            return self._window.unary_table()
        return self._fill.unary[self._cells()]

    def marginals(self) -> np.ndarray:
        """Full per-step posteriors of the window (O(W * K^2) decode).

        The only read-out that needs the backward pass; computed on
        demand rather than cached (diagnostic use only).
        """
        if self.length == 0:
            return np.zeros((0, NUM_STATES))
        return chain_marginals(self.unary_table(), self._pairwise)


__all__ = ["PatternCursor", "PatternTable", "StreamingDecoder", "WeightedPattern"]
