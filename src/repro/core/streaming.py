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
greedy matches cluster near the window boundaries).  The exact
O(W * K^3) re-aggregation remains as a defensive fallback (the
structure always holds every queued step, so it should be
unreachable); the equivalence suite exercises patches on both sides of
the two-stack boundary.

Per-alert complexity (T = history length, K = states, P = patterns,
L = pattern length, W = max window):

===============================  ===================  ================  ==================
quantity                         seed (re-decode)     streaming (PR 1)  amortised window
===============================  ===================  ================  ==================
pattern matching                 O(P * T * L)         O(advances)       O(advances) [2]_
Viterbi extension                O(T * K^2)           O(K^2)            O(K^3)
posterior of current state       O(T * K^2)           O(K^2)            O(K^2)
bonus relocation                 (included above)     O(d * K^2) [1]_   O(|back| * K^3)
window eviction                  O(W * K^2)           O(W * K^2)        O(K^3) amortised
full MAP trajectory              O(T * K^2)           O(T) backtrack    O(W * K^2) [3]_
===============================  ===================  ================  ==================

.. [1] ``d`` = distance from the earliest invalidated step to the end.
.. [2] plus an O(W * L) rescan per pattern whose match touched the
       evicted step.
.. [3] only paid when a detection actually fires (at most once per
       entity) or an explicit read-out is requested; cached per decoder
       version.

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
    chain_step_matrix,
)
from .factors import FactorParameters
from .sliding_window import SlidingProductWindow
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
        patterns: Union[PatternTable, Sequence[WeightedPattern]] = (),
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
        self._length = 0
        self._start = 0
        self._windowed = False
        self._window: Optional[SlidingProductWindow] = None
        self._version = 0
        self._decode_cache: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        capacity = _INITIAL_CAPACITY
        self._base = np.zeros((capacity, NUM_STATES))
        self._unary = np.zeros((capacity, NUM_STATES))
        self._score = np.zeros((capacity, NUM_STATES))
        self._alpha = np.zeros((capacity, NUM_STATES))
        self._backpointers = np.zeros((capacity, NUM_STATES), dtype=np.int64)
        self._names: List[str] = []

    # -- bookkeeping -------------------------------------------------------
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

    def _compact(self) -> None:
        """Rebase the buffers so the window starts at row 0 again.

        In windowed mode the start index only ever moves forward, so
        without compaction the buffers (and every stored step index)
        would grow with the *stream*, not the window.  Shifting the live
        rows down costs O(W) and runs at most once per ``capacity / 2``
        evictions, keeping memory O(W) and the shift O(1) amortised.
        """
        shift = self._start
        if shift == 0:
            return
        width = self._length - shift
        for attr in ("_base", "_unary"):
            array = getattr(self, attr)
            array[:width] = array[shift : self._length].copy()
        del self._names[:shift]
        self._bonus_at = {step - shift: bucket for step, bucket in self._bonus_at.items()}
        for cursor in self._cursors.values():
            cursor.positions = [p - shift for p in cursor.positions]
            cursor.end_index -= shift
        if self._window is not None:
            self._window.shift(shift)
        self._start = 0
        self._length = width

    @property
    def length(self) -> int:
        """Number of alerts currently folded into the (windowed) chain."""
        return self._length - self._start

    @property
    def names(self) -> tuple[str, ...]:
        """Alert names currently folded into the chain."""
        return tuple(self._names[self._start : self._length])

    @property
    def windowed(self) -> bool:
        """Whether the decoder has evicted at least once (amortised mode)."""
        return self._windowed

    def reset(self) -> None:
        """Forget the whole stream (capacity is retained)."""
        self._length = 0
        self._start = 0
        self._windowed = False
        self._window = None
        self._version += 1
        self._decode_cache = None
        self._names.clear()
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

        Grows/compacts the buffers, stores the base observation row,
        advances pattern cursors (relocating bonuses), and bumps the
        version — but leaves the dirty unary rows and the forward/window
        aggregates stale.  Returns ``(step, dirty, invalid_from)`` for
        :meth:`_complete_append`, which the stacked decode kernel
        replaces with cross-entity numerics; ``append`` is
        exactly ``append_plan`` + ``_complete_append``.
        """
        t = self._length
        if t == self._base.shape[0] and self._start >= max(1, t // 2):
            self._compact()
            t = self._length
        self._grow(t + 1)
        parameters = self.parameters
        self._base[t] = parameters.observation_row(name)
        self._names.append(name)
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
        self._length = t + 1
        self._version += 1
        self._decode_cache = None
        return t, dirty, invalid_from

    def _complete_append(self, step: int, dirty: Set[int], invalid_from: int) -> None:
        """Numeric half of :meth:`append`: refresh unaries, extend aggregates."""
        for touched in dirty:
            self._refresh_unary(touched)
        if not self._windowed:
            self._recompute_forward(invalid_from)
        else:
            self._apply_dirty_to_window(dirty, appended=step)

    def evict_front(self) -> None:
        """Slide the window start forward by one step: O(K^3) amortised.

        The first eviction switches the decoder into windowed mode and
        builds the two-stack aggregates over the remaining window; every
        later eviction pops the front stack (amortised two semiring
        products) and rescans only the patterns whose greedy match
        touched the evicted step.
        """
        if self.length < 2:
            raise ValueError("cannot evict from a window of fewer than 2 steps")
        evicted = self._start
        transition = not self._windowed
        self._windowed = True
        self._start = evicted + 1
        if transition:
            self._window = SlidingProductWindow()
        else:
            self._window.pop_front()
        dirty = self._evict_cursor_state(evicted)
        self._version += 1
        self._decode_cache = None
        # The new head row gains the initial-state prior.  Refreshing it
        # after the rescan is safe: _refresh_unary is a pure function of
        # the base/bonus state, and every head-bonus change the rescan
        # makes lands in ``dirty``.
        self._refresh_unary(self._start)
        for step in dirty:
            self._refresh_unary(step)
        if transition:
            self._rebuild_window_aggregates()
        else:
            self._apply_dirty_to_window(dirty)

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
        names = self._names
        matched = 0
        positions: List[int] = []
        cursor = self._start
        end = self._length
        for symbol in symbols:
            found = -1
            for idx in range(cursor, end):
                if names[idx] == symbol:
                    found = idx
                    break
            if found < 0:
                break
            positions.append(found)
            matched += 1
            cursor = found + 1
        return matched, positions

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

    def _refresh_unary(self, step: int) -> None:
        """Rebuild one effective unary row: base (+ prior) + ordered bonuses."""
        row = self._base[step].copy()
        if step == self._start:
            row += self.parameters.initial_log
        bonuses = self._bonus_at.get(step)
        if bonuses:
            for bonus in bonuses.values():
                row[_MALICIOUS] += bonus
        self._unary[step] = row

    # -- windowed-mode aggregate maintenance ---------------------------------
    def _step_matrix(self, step: int) -> np.ndarray:
        return chain_step_matrix(self._pairwise, self._unary[step])

    def _rebuild_window_aggregates(self) -> None:
        """Exact O(W * K^3) re-aggregation of the two-stack structure."""
        indices = range(self._start + 1, self._length)
        self._window.rebuild(indices, [self._step_matrix(j) for j in indices])

    def _apply_dirty_to_window(self, dirty: Set[int], appended: Optional[int] = None) -> None:
        """Patch the aggregates after unary rows changed (and/or an append).

        Dirty steps are replaced in place on whichever side of the
        two-stack boundary holds them (partial prefix/suffix
        recomputation); the structure holds every queued step, so the
        full re-aggregation below is a defensive fallback.  The head
        row is read fresh at query time and needs no patch.
        """
        if not self._patch_window(dirty, skip=appended):
            # Fallback: exact re-aggregation (already covers the
            # appended step, if any).
            self._rebuild_window_aggregates()
        elif appended is not None:
            self._window.push(appended, self._step_matrix(appended))

    def _patch_window(self, dirty: Set[int], skip: Optional[int] = None) -> bool:
        """Replace every queued dirty step's matrix (rows already fresh).

        ``skip`` is a just-appended step the caller pushes itself.
        Returns ``False`` as soon as the structure does not hold a step.
        """
        for step in dirty:
            if step <= self._start or step == skip:
                continue
            if not self._window.replace(step, self._step_matrix(step)):
                return False
        return True

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
        if not self._windowed:
            raise ValueError("window_scores requires windowed mode")
        return self._window.apply(self._unary[self._start])

    def may_fire(self, threshold: float) -> bool:
        """Cheap pre-filter: could this window cross the detection bar?

        ``False`` is authoritative (the exact decode provably cannot
        fire: the aggregate is within reassociation error of the exact
        values, and both margins clear the guard band).  ``True`` means
        the caller must consult the exact read-outs, which then decide
        -- and materialise -- the detection bit-identically to the
        naive path.
        """
        score, forward = self.window_scores()
        magnitude = float(np.max(np.abs(score)))
        guard = max(_DECISION_GUARD, _GUARD_SLACK * self.length * magnitude)
        if score[_MALICIOUS] < np.max(score) - guard:
            return False
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
        """Exact sequential decode of the window, cached per version.

        Returns ``(map_path, final_marginal)``.  The MAP path reproduces
        ``chain_map_decode`` on the window's unary table; the final
        marginal reproduces ``chain_marginals(...)[-1]`` via the
        forward recursion only (the backward message at the final step
        is identically zero, so the backward pass cannot change the
        final row -- same argument, and same float ops, as the
        incremental ``_alpha`` read-out while the window is filling).
        """
        cache = self._decode_cache
        if cache is not None and cache[0] == self._version:
            return cache[1], cache[2]
        unary = self._unary[self._start : self._length]
        pairwise = self._pairwise
        path = chain_map_decode(unary, pairwise)
        forward = _normalize_log(unary[0])
        for t in range(1, unary.shape[0]):
            prev = forward[:, None] + pairwise
            forward = _normalize_log(_logsumexp(prev, axis=0) + unary[t])
        final_marginal = np.exp(forward - _logsumexp(forward))
        self._decode_cache = (self._version, path, final_marginal)
        return path, final_marginal

    def final_marginal(self) -> np.ndarray:
        """Posterior over the current state.

        Matches ``chain_marginals(unary, pairwise)[-1]`` on the window's
        unary table bit-for-bit (directly materialised in windowed mode;
        via the incrementally maintained forward message before that).
        """
        if self.length == 0:
            raise ValueError("decoder is empty")
        if self._windowed:
            # Copy: the cached array must survive caller mutation.
            return self._window_decode()[1].copy()
        last = self._alpha[self._length - 1]
        return np.exp(last - _logsumexp(last))

    def final_malicious_probability(self) -> float:
        """Posterior probability that the entity is currently malicious."""
        return float(self.final_marginal()[_MALICIOUS])

    def final_state(self) -> int:
        """Final state of the MAP trajectory (``argmax`` of the Viterbi score)."""
        if self.length == 0:
            raise ValueError("decoder is empty")
        if self._windowed:
            return int(self._window_decode()[0][-1])
        return int(np.argmax(self._score[self._length - 1]))

    def map_path(self) -> np.ndarray:
        """Full MAP state trajectory of the window.

        O(T) backpointer backtrack while the window is filling; the
        cached exact window decode afterwards.
        """
        if self._windowed:
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
        return self._unary[self._start : self._length].copy()

    def marginals(self) -> np.ndarray:
        """Full per-step posteriors of the window (O(W * K^2) decode).

        The only read-out that needs the backward pass; computed on
        demand rather than cached (diagnostic use only).
        """
        if self.length == 0:
            return np.zeros((0, NUM_STATES))
        return chain_marginals(self._unary[self._start : self._length], self._pairwise)


__all__ = ["PatternCursor", "PatternTable", "StreamingDecoder", "WeightedPattern"]
