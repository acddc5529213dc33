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
  filling, every step stores the running Viterbi score vector, the
  backpointer row, and the normalised forward log-alpha; appending an
  alert extends all three by one O(K^2) step, exactly as in the seed
  recursion.

**Window eviction (the ``max_window`` slide).**  Once an entity
saturates its window, every new alert evicts the oldest step.
Re-anchoring the recursions with a full O(W * K^2) re-decode per alert
would be the seed constant all over again, and the production steady
state for long-lived entities.  :meth:`StreamingDecoder.evict_front`
instead switches the decoder into *windowed* mode: per-step
transition⊗unary matrices are aggregated by a two-stack
:class:`repro.core.sliding_window.SlidingProductWindow` under the
``(max, +)`` and ``(logsumexp, +)`` semirings, so appending costs
O(K^3) (two small matrix products), evicting the front costs O(K^3)
*amortised*, and the firing decision reads the window's Viterbi score
vector and forward message in O(K^2).

**Where the window lives.**  The filling phase keeps per-decoder
buffers (base and unary rows, forward recursions, names), steps ``0 ..
length - 1``.  The first eviction moves the window into one *row* of a
:class:`repro.core.sliding_window.WindowArena` -- the owning tagger's,
shared by all its decoders -- and frees the buffers.  From then on the
decoder holds only a :class:`SlidingProductWindow` view of that row
plus its sparse pattern state: the base/unary rows and alert symbols
sit in the row's ring slots (``step mod ring``), ``start``/``end`` in
the arena's integer arrays, and step indices are absolute and never
rebased.  The scalar
methods here and the stacked kernel (:mod:`repro.core.batch_kernel`)
read and write the same row, so a row's state does not depend on which
of them advanced it.  The kernel advances a row without touching its
decoder at all when the step is *plain* (:meth:`plain_step`: no cursor
or bonus in reach); whoever drops a windowed decoder must
:meth:`release` its row.

The aggregate is floating-point *reassociated* relative to the
sequential recursion, so windowed mode never lets it near an emitted
number: :meth:`may_fire` uses the aggregate only as a guard-banded
pre-filter (reassociation error is bounded far below the guard), and
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
posterior of current state       O(T * K^2)           O(K^2)            O(K^2)
bonus relocation                 (included above)     O(d * K^2) [1]_   O(|back| * K^3)
window eviction                  O(W * K^2)           O(W * K^2)        O(K^3) amortised [4]_
full MAP trajectory              O(T * K^2)           O(T) backtrack    O(W * K^2) [3]_
===============================  ===================  ================  ==================

.. [1] ``d`` = distance from the earliest invalidated step to the end.
.. [2] plus an O(W * L) rescan per pattern whose match touched the
       evicted step.
.. [3] only paid when a detection actually fires (at most once per
       entity) or an explicit read-out is requested; cached per window
       span.
.. [4] the eviction itself is an index bump (``start += 1``); the
       amortised O(K^3) is the flip every ``W`` evictions.

Every emitted number reproduces the exact arithmetic of
:func:`repro.core.factor_graph.chain_map_decode` and
:func:`repro.core.factor_graph.chain_marginals`, so decodes are
bit-identical to the seed path (asserted by the equivalence test
suites in ``tests/test_streaming.py`` and
``tests/test_sliding_window.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .factor_graph import (
    _logsumexp,
    _normalize_log,
    chain_map_decode,
    chain_marginals,
    logsumexp_vecmat,
    maxplus_vecmat,
)
from .factors import FactorParameters
from .sliding_window import SlidingProductWindow, WindowArena
from .states import HiddenState, NUM_STATES

_MALICIOUS = int(HiddenState.MALICIOUS)
_INITIAL_CAPACITY = 16

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
    parameters:
        The factor parameters (observation/transition/initial tables and
        the pattern-bonus schedule).
    patterns:
        Active patterns with their resolved positive weights, in
        catalogue order (the order bonuses are summed in, to keep
        floating-point results identical to the naive re-decode), as a
        :class:`PatternTable` or a sequence to build a private one from.
    arena:
        The owning tagger's :class:`~repro.core.sliding_window.WindowArena`
        (ring ``max_window + 1``); the decoder takes a row of it on its
        first eviction.

    Opening a decoder is O(1) in the catalogue size.  The table's
    ``patterns`` and seed index are aliased, not copied: every decoder
    of a tagger shares them, so never mutate ``decoder.patterns`` or a
    waiting bucket in place.  ``_cursors`` holds a cursor only while
    its pattern has a non-empty match, and ``_waiting`` starts as a
    shallow copy of the seed index whose tuple buckets are replaced,
    never edited.  The tagger re-resolves the table for the next new
    entity once the pattern weights, the default weight or the
    catalogue change value; a live decoder keeps the one it opened with.
    """

    def __init__(
        self,
        parameters: FactorParameters,
        patterns: Union[PatternTable, Sequence[WeightedPattern]],
        arena: WindowArena,
    ) -> None:
        table = patterns if isinstance(patterns, PatternTable) else PatternTable(patterns)
        self.parameters = parameters
        self.patterns = table.patterns
        self._seed = table.seed
        self._pairwise = parameters.transition_log
        self._arange_k = np.arange(NUM_STATES)
        # pattern index -> cursor, only for patterns with matched > 0
        self._cursors: Dict[int, PatternCursor] = {}
        # symbol -> indices of patterns whose next expected symbol is it
        self._waiting: Dict[str, Tuple[int, ...]] = dict(table.seed)
        self._complete: Set[int] = set()
        # step index -> {pattern index -> bonus} for bonuses landing
        # there, kept in ascending pattern-index order (the catalogue
        # summation order the naive rebuild uses).
        self._bonus_at: Dict[int, Dict[int, float]] = {}
        self._arena = arena
        # The arena row once windowed; its start/end are the window's.
        self._window: Optional[SlidingProductWindow] = None
        # (window span, map_path, final_marginal) of the last exact decode.
        self._decode_cache: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = None
        self._open_fill()

    # -- bookkeeping -------------------------------------------------------
    def _open_fill(self) -> None:
        """Fresh filling-phase buffers: steps ``0 .. _length - 1``, head at 0."""
        capacity = _INITIAL_CAPACITY
        self._length = 0
        self._base = np.zeros((capacity, NUM_STATES))
        self._unary = np.zeros((capacity, NUM_STATES))
        self._score = np.zeros((capacity, NUM_STATES))
        self._alpha = np.zeros((capacity, NUM_STATES))
        self._backpointers = np.zeros((capacity, NUM_STATES), dtype=np.int64)
        self._names: List[str] = []

    def _open_window(self) -> None:
        """Filling → windowed: move the rows into an arena row, free the buffers."""
        n = self._length
        self._window = SlidingProductWindow(self._pairwise, self._arena)
        self._window.load(0, self._base[:n], self._unary[:n], self._names)
        self._base = self._unary = self._score = self._alpha = None
        self._backpointers = self._names = None

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
        self._waiting = waiting

    def _grow(self, needed: int) -> None:
        capacity = self._base.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for attr in ("_base", "_unary", "_score", "_alpha", "_backpointers"):
            old = getattr(self, attr)
            fresh = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            fresh[: old.shape[0]] = old
            setattr(self, attr, fresh)

    @property
    def length(self) -> int:
        """Number of alerts currently folded into the (windowed) chain."""
        window = self._window
        return self._length if window is None else window.end - window.start

    @property
    def names(self) -> tuple[str, ...]:
        """Alert names currently folded into the chain."""
        return tuple(self._names if self._window is None else self._window.names())

    @property
    def windowed(self) -> bool:
        """Whether the decoder has evicted at least once (amortised mode)."""
        return self._window is not None

    def release(self) -> None:
        """Give the arena row back; whoever drops a windowed decoder must."""
        if self._window is not None:
            self._window.release()
            self._window = None

    def reset(self) -> None:
        """Forget the whole stream."""
        self.release()
        self._open_fill()
        self._decode_cache = None
        self._bonus_at.clear()
        self._complete.clear()
        self._cursors.clear()
        self._waiting = dict(self._seed)

    # -- incremental update -------------------------------------------------
    def append(self, name: str) -> None:
        """Fold one alert into the chain: O(K^2 + pattern advances)."""
        step, dirty, invalid_from = self.append_plan(name)
        self._complete_append(step, dirty, invalid_from)

    def append_plan(self, name: str) -> Tuple[int, Set[int], int]:
        """Bookkeeping half of :meth:`append`: everything except the numerics.

        Stores the base observation row and the symbol, and advances
        pattern cursors (relocating bonuses) — but leaves the dirty
        unary rows and the forward/window aggregates stale.  Returns
        ``(step, dirty, invalid_from)`` for :meth:`_complete_append`,
        which the stacked decode kernel replaces with cross-entity
        numerics while the window fills; ``append`` is exactly
        ``append_plan`` + ``_complete_append``.
        """
        parameters = self.parameters
        window = self._window
        if window is None:
            t = self._length
            self._grow(t + 1)
            self._base[t] = parameters.observation_row(name)
            self._names.append(name)
            self._length = t + 1
        else:
            t = window.stage(parameters.observation_row(name), name)
        invalid_from = t
        dirty = {t}
        advancing = self._waiting.pop(name, None)
        if advancing:
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
                    self._waiting[symbol] = self._waiting.get(symbol, ()) + (index,)
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
        builds the two-stack aggregates over the remaining window; every
        later eviction pops the front stack (amortised two semiring
        products) and rescans only the patterns whose greedy match
        touched the evicted step.
        """
        opening = self._window is None
        if opening:
            if self._length < 2:
                raise ValueError("cannot evict from a window of fewer than 2 steps")
            self._open_window()
        head = self._window.pop_front()
        dirty = self._evict_cursor_state(head - 1)
        # The new head row gains the initial-state prior (a pure
        # function of the base/bonus state, so safe after the rescan).
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
        """One effective unary row: base (+ prior on the ``head`` step) + ordered bonuses."""
        window = self._window
        if window is None:
            row = self._base[step].copy()
        else:
            row = window.arena.base[window.cell(step)].copy()
        if step == head:
            row += self.parameters.initial_log
        bonuses = self._bonus_at.get(step)
        if bonuses:
            for bonus in bonuses.values():
                row[_MALICIOUS] += bonus
        return row

    def _refresh_unary(self, step: int) -> None:
        """Rebuild one filling-phase unary row in place."""
        self._unary[step] = self._effective_row(step)

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

    def plain_step(self, name: str) -> bool:
        """Whether appending ``name`` and evicting the head touch no pattern state.

        True when the symbol neither is awaited by a cursor nor seeds a
        pattern, and no cursor's match starts on the evicted step or on
        the next head (where a rescan would start or a bonus would meet
        the prior).  Such a step is pure arithmetic on the arena row,
        which the stacked kernel does for all plain rows of a round.
        """
        if self._waiting.get(name):
            return False
        if not self._cursors:
            return True
        horizon = self._window.start + 1
        return all(cursor.positions[0] > horizon for cursor in self._cursors.values())

    def _recompute_forward(self, start: int) -> None:
        """Extend/repair the forward recursions from ``start`` to the end.

        Each step reproduces exactly one loop iteration of
        ``chain_map_decode`` (Viterbi score + backpointers) and
        ``chain_marginals`` (normalised forward message).  Only used
        while the window is still filling; windowed mode materialises
        read-outs via :meth:`_window_decode` instead.
        """
        unary = self._unary
        score = self._score
        alpha = self._alpha
        backpointers = self._backpointers
        pairwise = self._pairwise
        arange_k = self._arange_k
        for t in range(start, self._length):
            if t == 0:
                score[0] = unary[0]
                backpointers[0] = 0
                alpha[0] = _normalize_log(unary[0])
                continue
            candidate = score[t - 1][:, None] + pairwise
            bp = np.argmax(candidate, axis=0)
            backpointers[t] = bp
            score[t] = candidate[bp, arange_k] + unary[t]
            prev = alpha[t - 1][:, None] + pairwise
            alpha[t] = _normalize_log(_logsumexp(prev, axis=0) + unary[t])

    # -- decisions -----------------------------------------------------------
    def window_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate ``(viterbi_score, forward_log)`` of the window: O(K^2).

        Only meaningful in windowed mode; values are mathematically
        exact but floating-point reassociated relative to the sequential
        decode, so they feed guard-banded decisions, never emitted
        numbers.
        """
        window = self._window
        if window is None:
            raise ValueError("window_scores requires windowed mode")
        return window.apply(window.arena.unary[window.cell(window.start)])

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
        head = arena.unary[window.cell(start)]
        score = window.fold(head, maxplus_vecmat, arena.agg_max)
        magnitude = float(np.max(np.abs(score)))
        guard = max(_DECISION_GUARD, _GUARD_SLACK * (end - start) * magnitude)
        if score[_MALICIOUS] < np.max(score) - guard:
            return False
        # Only a window the score test lets through pays for the
        # forward message (the stacked kernel's two stages).
        forward = window.fold(head, logsumexp_vecmat, arena.agg_lse)
        probability = float(np.exp(forward[_MALICIOUS] - _logsumexp(forward)))
        if np.isnan(probability):
            # Hard zeros (-inf log potentials) in user-supplied
            # parameters turn the finite-input aggregate into NaN; the
            # pre-filter cannot rule anything out then, so defer to the
            # exact decode (which handles -inf).
            return True
        return probability >= threshold - guard

    # -- read-out ------------------------------------------------------------
    def _window_decode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact sequential decode of the window, cached per window span.

        Returns ``(map_path, final_marginal)``.  The MAP path reproduces
        ``chain_map_decode`` on the window's unary table; the final
        marginal reproduces ``chain_marginals(...)[-1]`` via the
        forward recursion only (the backward message at the final step
        is identically zero, so the backward pass cannot change the
        final row -- same argument, and same float ops, as the
        incremental ``_alpha`` read-out while the window is filling).
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
        last = self._alpha[self._length - 1]
        return np.exp(last - _logsumexp(last))

    def final_state(self) -> int:
        """Final state of the MAP trajectory (``argmax`` of the Viterbi score)."""
        if self.length == 0:
            raise ValueError("decoder is empty")
        if self._window is not None:
            return int(self._window_decode()[0][-1])
        return int(np.argmax(self._score[self._length - 1]))

    def map_path(self) -> np.ndarray:
        """Full MAP state trajectory of the window.

        O(T) backpointer backtrack while the window is filling; the
        cached exact window decode afterwards.
        """
        if self._window is not None:
            return self._window_decode()[0].copy()
        steps = self._length
        path = np.zeros(steps, dtype=np.int64)
        if steps == 0:
            return path
        path[-1] = int(np.argmax(self._score[steps - 1]))
        backpointers = self._backpointers
        for t in range(steps - 1, 0, -1):
            path[t - 1] = backpointers[t, path[t]]
        return path

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
        return self._unary[: self._length].copy()

    def marginals(self) -> np.ndarray:
        """Full per-step posteriors of the window (O(W * K^2) decode).

        The only read-out that needs the backward pass; computed on
        demand rather than cached (diagnostic use only).
        """
        if self.length == 0:
            return np.zeros((0, NUM_STATES))
        return chain_marginals(self.unary_table(), self._pairwise)


__all__ = ["PatternCursor", "PatternTable", "StreamingDecoder", "WeightedPattern"]
