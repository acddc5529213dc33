"""Incremental streaming inference for the per-entity chain model.

The seed implementation of :class:`repro.core.attack_tagger.AttackTagger`
re-ran the *entire* chain decode -- Viterbi, forward-backward, and every
pattern-prefix rescan -- from scratch on every alert, so the cost of
consuming one alert grew linearly with the entity's history and the cost
of a whole stream grew quadratically.  This module holds the per-entity
arithmetic that makes each new alert cheap, as functions of an entity's
*slot* (its decode state) in the tagger's arena:

* **Pattern matches as slot arrays.**  The greedy subsequence match of
  a pattern prefix is *incremental*: appending an alert can only
  advance it by one symbol, never change earlier greedy choices, and
  dropping steps before its first matched step changes nothing.  So
  each slot that has left the seed holds a row of the arena's
  :class:`~repro.core.sliding_window.MatchRows` -- per pattern the
  matched length and the first and last matched steps, the only
  positions ever read.  The per-alert path keeps it a step at a time
  (one compare per pattern against the shared next-symbol table, and a
  rescan only for a match whose first step was evicted); since a match
  is also a function of its window alone, :func:`match_windows`
  computes it for many windows at once: the stacked kernel's pattern
  pass.
* **Checkpointed forward recursions** plus an amortised sliding-window
  mode.  While the entity's window is still filling, every step stores
  the running Viterbi score vector and the normalised forward
  log-alpha; appending an alert (:func:`append`) extends both by one
  O(K^2) step, exactly as in the seed recursion.

**Window eviction (the ``max_window`` slide).**  Once an entity
saturates its window, every new alert evicts the oldest step.
Re-anchoring the recursions with a full O(W * K^2) re-decode per alert
would be the seed constant all over again, and the production steady
state for long-lived entities.  :func:`open_window` instead switches
the slot into *windowed* mode: per-step transition⊗unary matrices are
aggregated by the two stacks of an arena row
(:class:`repro.core.sliding_window.WindowArena`) under the ``(max, +)``
semiring, so appending costs O(K^3) (one small matrix
product), evicting the front costs O(K^3) *amortised*, and the firing
decision reads the window's Viterbi score vector in O(K^2).  Only a
window whose score cannot rule it out pays for its forward message,
folded from the row's unary ring by ``WindowArena.forward``.

**Where the window lives.**  Every entity a tagger tracks holds a
*slot* of its :class:`repro.core.sliding_window.WindowArena`
(:class:`~repro.core.sliding_window.SlotTable`): the slot's row, fill
length, fill pages and match row are the entity's decode state, and
nothing else holds any: every function here takes ``(arena, slot)``.
The arena interns each alert name once (the
patterns' names first) and holds its observation row, so no step
copies one.  While the window fills, steps ``0 .. length - 1`` (unary
row, Viterbi score, forward message, symbol) sit in the arena's *fill
storage* (:class:`~repro.core.sliding_window.FillPages`): pages of a
few steps, taken from a free list as the entity grows, so a new entity
allocates no array and a two-alert entity holds one page.  The first
eviction moves the steps into one *row* of the arena and frees the
pages.  From then on the slot's steps live in that row: the unary rows
and alert symbols sit in the row's ring slots (``step mod ring``),
``start``/``end`` in the arena's integer arrays, and step indices are
absolute and never rebased.  In either phase the functions here and
the stacked kernel (:mod:`repro.core.batch_kernel`) read and write the
same cells, so an entity's state does not depend on which of them
advanced it.  Dropping an entity's decode state is
``WindowArena.drop(slot)``: its row, pages and match row go back.

The aggregate and the forward tree are floating-point *reassociated*
relative to the sequential recursion, so windowed mode never lets them
near an emitted number: :func:`may_fire` uses them only as a
guard-banded pre-filter (reassociation error is bounded far below the
guard), and any alert that might fire -- plus every explicit read-out
(:func:`decode`) -- is materialised by the exact sequential decode of
the bounded window, i.e. by the very
same float operations as ``engine="naive"``.  Emitted detections
(state, confidence, trajectory) are therefore bit-identical to the seed
path, which the equivalence suite asserts with exact comparisons.

**Pattern state under eviction.**  Pattern evidence is folded into the
malicious-state unary potential of the step where the matched prefix
currently *ends* (``last``), bonuses of one step summed in catalogue
order.  A windowed step is a plain half -- push, evict, and the new
head's effective row (the prior and any bonus ending there) -- and,
when it touches pattern state (an awaited symbol arrives, or a match's
first step is evicted and the match is rescanned over the window), a
pattern half (:func:`slide`): the steps whose bonuses
moved get their effective rows and the row is re-aggregated from
scratch.  After
such a step a row's aggregates are thus a function of its unary rows
alone, which lets the stacked kernel take many such steps of a row at
once and leave it exactly as the per-alert path does.

Per-alert complexity (T = history length, K = states, P = patterns,
L = pattern length, W = max window):

===============================  ===================  ================  ==================
quantity                         seed (re-decode)     streaming (PR 1)  amortised window
===============================  ===================  ================  ==================
pattern matching                 O(P * T * L)         O(P)              O(P) [2]_
Viterbi extension                O(T * K^2)           O(K^2)            O(K^3)
posterior of current state       O(T * K^2)           O(K^2)            O(W * K^3) [5]_
bonus relocation                 (included above)     O(d * K^2) [1]_   O(W * K^3) [6]_
window eviction                  O(W * K^2)           O(W * K^2)        O(K^3) amortised [4]_
full MAP trajectory              O(T * K^2)           O(T * K^2) [3]_   O(W * K^2) [3]_
===============================  ===================  ================  ==================

.. [1] ``d`` = distance from the earliest invalidated step to the end.
.. [2] one compare per pattern against the next-symbol table, plus an
       O(W * L) rescan per pattern whose first matched step is evicted.
.. [3] only paid when a detection actually fires (at most once per
       entity) or an explicit read-out is requested.
.. [4] the eviction itself is an index bump (``start += 1``); the
       amortised O(K^3) is the flip every ``W`` evictions.
.. [5] the pre-filter's forward stage, in O(log W) stacked numpy
       calls, and only for a window whose O(K^2) Viterbi score the
       guard band cannot rule out.
.. [6] the rebuild after a step that touches pattern state, in
       O(log W) stacked numpy calls.

Every emitted number reproduces the exact arithmetic of
:func:`repro.core.factor_graph.chain_map_decode` and
:func:`repro.core.factor_graph.chain_marginals`, so decodes are
bit-identical to the seed path (asserted by the equivalence test
suites in ``tests/test_streaming.py`` and
``tests/test_sliding_window.py``).  A filling slot's step is
:func:`append_plan` + :func:`complete_append` (the stacked kernel
replaces the second with cross-entity numerics), a windowed one
:func:`slide`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from .factor_graph import _logsumexp, _normalize_log, chain_map_decode
from .sliding_window import MatchRows, WindowArena
from .states import HiddenState, NUM_STATES

_MALICIOUS = int(HiddenState.MALICIOUS)
_ARANGE_K = np.arange(NUM_STATES)

#: Floor of the guard band (log-space score gap / probability margin)
#: inside which the reassociated window aggregate is not trusted to
#: decide anything and the exact sequential decode is consulted
#: instead.  The reassociated-vs-sequential error of a W-step semiring
#: product chain is bounded by ~W * K * eps * |accumulated log
#: magnitude| (the magnitude itself absorbs the second factor of W and
#: any outsized pattern weights), so :func:`may_fire`
#: widens the guard with the measured aggregate magnitude -- extreme
#: windows or weights merely degrade to "always consult the exact
#: decode", never to a silently dropped detection.
_DECISION_GUARD = 1e-6
_GUARD_SLACK = 64.0 * np.finfo(np.float64).eps
# Later than any step: the first matched step of a pattern not matched.
_NEVER = np.iinfo(np.int64).max
_HEAD = np.ones(1, dtype=np.bool_)


def _guard(lengths: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The guard band of windows of ``lengths`` steps whose reassociated
    ``(K, m)`` vectors are ``vectors``."""
    magnitude = np.maximum.reduce(np.abs(vectors), axis=0)
    return np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths.astype(np.float64)) * magnitude)


def forward_stage(arena: WindowArena, rows: np.ndarray, threshold: float) -> np.ndarray:
    """Second stage of the :func:`may_fire` pre-filter, for arena ``rows``.

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


# -- pattern state, for any number of slots at once -----------------------------
def effective_rows(
    arena: WindowArena, slots: np.ndarray, symbols: np.ndarray, steps: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """Effective unary rows ``(n, K)`` of step ``steps[i]`` of ``slots[i]``:
    the observation row of ``symbols[i]``, plus the prior where ``heads``,
    plus the bonus of every match ending there, summed in catalogue
    order as the naive rebuild sums them."""
    rows = arena.observations[symbols]
    if heads.all():
        rows += arena.parameters.initial_log
    elif heads.any():
        rows[heads] += arena.parameters.initial_log
    matches = arena.matches
    match = arena.slots.match[slots]
    live = np.flatnonzero(match >= 0)
    if live.size:
        matched = matches.matched[match[live]]
        ending = (matched > 0) & (matches.last[match[live]] == steps[live, None])
        # Row-major: each cell's bonuses in catalogue order.
        i, p = np.nonzero(ending)
        if i.size:
            bonus = matches.bonus[p, matched[i, p]]
            cells = live[i]
            rank = np.arange(i.size) - np.searchsorted(i, i)
            for k in range(int(rank.max()) + 1):
                pick = np.flatnonzero((rank == k) & (bonus > 0.0))
                rows[cells[pick], _MALICIOUS] += bonus[pick]
    return rows


def _write_rows(arena: WindowArena, slots: np.ndarray, rows: np.ndarray, steps: np.ndarray, heads: np.ndarray) -> None:
    """Store the effective unary rows of windowed steps ``steps[i]`` of arena rows ``rows[i]``."""
    cells = arena.cells(rows, steps)
    arena.unary[cells] = effective_rows(arena, slots, arena.symbols[cells], steps, heads)


def match_windows(
    matches: MatchRows, sequence: np.ndarray, lows: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy leftmost matches of every pattern over many windows at once.

    ``sequence`` is ``(R, L)`` symbols (``-1`` pads); window ``w`` of
    row ``r`` is ``sequence[r, lows[w] : lows[w] + width]``.  Returns
    ``(matched, first, last)``, each ``(R, windows, P)``, positions in
    ``sequence``: the state a :class:`~repro.core.sliding_window.MatchRows`
    row holds for that window, which depends on the window alone.  Each
    row gets a next-occurrence table of the pattern symbols, so the
    match is one stacked lookup per pattern symbol for every window.
    """
    count, length = sequence.shape
    symbols = matches.symbols
    codes = np.where((sequence >= 0) & (sequence < symbols), sequence, symbols)
    # after[r, x, q]: the first position >= q holding symbol x (length if
    # none); row ``symbols`` (what ``expect`` -1, a complete match, maps to) never does.
    after = np.where(codes[:, None, :] == np.arange(symbols)[None, :, None], np.arange(length), length)
    after = np.minimum.accumulate(after[:, :, ::-1], axis=2)[:, :, ::-1]
    after = np.concatenate((after, np.full((count, symbols, 1), length)), axis=2)
    after = np.concatenate((after, np.full((count, 1, length + 1), length)), axis=1)
    shape = (count, lows.size, len(matches.patterns))
    position = np.broadcast_to(lows[None, :, None], shape).copy()
    high = (lows + width)[None, :, None]
    matched = np.zeros(shape, dtype=np.int64)
    first, last = position.copy(), position.copy()
    alive = np.ones(shape, dtype=np.bool_)
    owner = np.arange(count)[:, None, None]
    for k in range(matches.expect.shape[1] - 1):
        found = after[owner, matches.expect[:, k][None, None, :], position]
        alive &= found < high
        if not alive.any():
            break
        if k == 0:
            first = np.where(alive, found, first)
        last = np.where(alive, found, last)
        position = np.where(alive, found + 1, position)
        matched += alive
    return matched, first, last


def plain_depth(
    arena: WindowArena, slots: np.ndarray, rows: np.ndarray, symbols: np.ndarray, ahead: np.ndarray
) -> np.ndarray:
    """How many of the steps ``symbols[i, :ahead[i]]``, each appended to
    window ``rows[i]`` with one eviction, are plain steps of ``slots[i]``.

    A step is plain when no pattern of the slot awaits its symbol (a
    pristine slot awaits the patterns' first symbols), and no match
    starts on the step it evicts (where a rescan would start).  Such a
    step is arithmetic on the arena row -- a push, an eviction and the
    new head's effective row -- which the stacked kernel does a chunk
    at a time.  Plain steps change no pattern state, so the run is read
    off the state as it stands: step ``j`` evicts ``start + j``.
    ``-1`` pads ``symbols`` past ``ahead``.
    """
    matches = arena.matches
    match = arena.slots.match[slots]
    limit = ahead.copy()
    stop = matches.seeding(symbols)
    live = np.flatnonzero(match >= 0)
    if live.size:
        held = match[live]
        stop[live] = (symbols[live][:, :, None] == matches.awaited(held)[:, None, :]).any(axis=2)
        first = np.where(matches.matched[held] > 0, matches.first[held], _NEVER).min(axis=1)
        limit[live] = np.minimum(limit[live], first - arena.start[rows[live]])
    width = symbols.shape[1]
    depth = np.where(stop, np.arange(width), width).min(axis=1)
    return np.maximum(np.minimum(depth, limit), 0)


# -- one slot, one step at a time: the per-alert path ----------------------------
def length(arena: WindowArena, slot: int) -> int:
    """Steps slot ``slot`` holds: its filling steps, or its window's."""
    row = int(arena.slots.row[slot])
    if row < 0:
        return int(arena.slots.length[slot])
    return int(arena.end[row] - arena.start[row])


def window_symbols(arena: WindowArena, slot: int) -> np.ndarray:
    """The symbols of slot ``slot``'s steps, oldest first: its fill cells,
    or its row's ring cells ``start .. end - 1``."""
    row = int(arena.slots.row[slot])
    if row < 0:
        return arena.fill.symbols[arena.slots.cells_of(slot)]
    return arena.symbols[arena.window_cells(row)]


def _touches(arena: WindowArena, slot: int, symbol: int, evicted: Optional[int] = None) -> bool:
    """Whether appending ``symbol`` to ``slot`` (and, windowed, evicting
    step ``evicted``) moves a match: the one-step :func:`plain_depth`."""
    matches = arena.matches
    match = int(arena.slots.match[slot])
    if match < 0:
        return bool(matches.seeds[min(symbol, matches.symbols)])
    matched = matches.matched[match]
    if symbol < matches.symbols and (matches.expect[matches.columns, matched] == symbol).any():
        return True
    return evicted is not None and bool((matches.first[match][matched > 0] <= evicted).any())


def _ends_at(arena: WindowArena, slot: int, step: int) -> bool:
    """Whether a match of ``slot`` ends on ``step`` (so its row carries a bonus)."""
    matches, match = arena.matches, int(arena.slots.match[slot])
    return match >= 0 and bool((matches.last[match][matches.matched[match] > 0] == step).any())


def _advance_matches(arena: WindowArena, slot: int, step: int, symbol: int) -> List[int]:
    """Advance every match of ``slot`` awaiting ``symbol`` to end on
    ``step`` (a pristine slot takes its match row first); returns the
    steps whose bonuses change: ``step``, then one entry per advancing
    match -- where it ended before (``step`` for a new one)."""
    matches, slots = arena.matches, arena.slots
    match = int(slots.match[slot])
    if match < 0:
        match = slots.match[slot] = matches.allocate(1)[0]
    matched, first, last = matches.matched[match], matches.first[match], matches.last[match]
    moved = [step]
    if symbol < matches.symbols:
        for p in np.flatnonzero(matches.expect[matches.columns, matched] == symbol).tolist():
            moved.append(int(last[p]) if matched[p] else step)
            if not matched[p]:
                first[p] = step
            last[p] = step
            matched[p] += 1
    return moved


def _rescan(arena: WindowArena, slot: int, row: int) -> List[int]:
    """Match again, over window ``row``, every match of ``slot`` whose
    first step the window's start has passed (dropping steps before a
    match's first cannot change a greedy leftmost match, so no other);
    returns the steps whose bonuses change.  A slot left with no match
    gives its match row back."""
    slots, matches = arena.slots, arena.matches
    match = int(slots.match[slot])
    if match < 0:
        return []
    matched, first, last = matches.matched[match], matches.first[match], matches.last[match]
    start = int(arena.start[row])
    evicted = np.flatnonzero((matched > 0) & (first < start)).tolist()
    if not evicted:
        return []
    queued = arena.symbols[arena.window_cells(row)].tolist()
    moved = []
    for p in evicted:
        moved.append(int(last[p]))
        count = cursor = 0
        # The greedy leftmost match, as matched_prefix_length finds it.
        for symbol in matches.codes[p]:
            try:
                cursor = queued.index(symbol, cursor) + 1
            except ValueError:
                break
            if not count:
                first[p] = start + cursor - 1
            count += 1
        matched[p] = count
        if count:
            last[p] = start + cursor - 1
            moved.append(int(last[p]))
    if not matched.any():
        matches.release([match])
        slots.match[slot] = -1
    return moved


def _write_window_rows(arena: WindowArena, slot: int, row: int, moved: List[int]) -> None:
    """Rewrite the effective rows of window ``row``'s head and of its
    queued steps among ``moved``, and re-aggregate the row from scratch."""
    start, end = int(arena.start[row]), int(arena.end[row])
    steps = np.array(sorted({step for step in moved if start < step < end} | {start}))
    count = steps.size
    _write_rows(arena, np.repeat(slot, count), np.repeat(row, count), steps, steps == start)
    arena.rebuild(np.array([row]), arena.parameters.transition_log)


def append(arena: WindowArena, slot: int, symbol: int) -> None:
    """Fold one alert into ``slot``'s filling chain: O(K^2 + pattern advances)."""
    step, dirty, invalid_from, _ = append_plan(arena, slot, symbol)
    complete_append(arena, slot, step, dirty, invalid_from)


def append_plan(arena: WindowArena, slot: int, symbol: int) -> Tuple[int, List[int], int, bool]:
    """Bookkeeping half of :func:`append`: everything except the numerics.

    Stores the symbol and advances the matches -- but leaves the dirty
    unary rows and the forward recursions stale.  Returns ``(step,
    dirty, invalid_from, bonus)`` -- the first three for
    :func:`complete_append`, and whether a match now ends on the step
    -- which the stacked decode kernel replaces with cross-entity
    numerics while the window fills; ``append`` is exactly
    ``append_plan`` + ``complete_append``.
    """
    step = arena.push_fill(slot, symbol)
    if not _touches(arena, slot, symbol):
        return step, [step], step, False
    moved = _advance_matches(arena, slot, step, symbol)
    dirty = sorted(set(moved))
    return step, dirty, dirty[0], len(moved) > 1


def complete_append(arena: WindowArena, slot: int, step: int, dirty: List[int], invalid_from: int) -> None:
    """Numeric half of :func:`append`: refresh unaries, extend the recursions."""
    unary, cells = arena.fill.unary, arena.slots.cells
    for touched in dirty:
        unary[cells(slot, touched)] = effective_row(arena, slot, touched)
    recompute_forward(arena, slot, invalid_from)


def effective_row(arena: WindowArena, slot: int, step: int) -> np.ndarray:
    """One filling step's effective unary row: observation (+ prior on
    step 0) + its bonuses in catalogue order (:func:`effective_rows`
    for one step)."""
    slots = arena.slots
    row = arena.observations[arena.fill.symbols[slots.cells(slot, step)]]
    row = row + arena.parameters.initial_log if step == 0 else row.copy()
    match = int(slots.match[slot])
    if match >= 0:
        matches = arena.matches
        matched = matches.matched[match]
        for p in np.flatnonzero((matched > 0) & (matches.last[match] == step)).tolist():
            bonus = matches.bonus[p, matched[p]]
            if bonus > 0.0:
                row[_MALICIOUS] += bonus
    return row


def recompute_forward(arena: WindowArena, slot: int, start: int) -> None:
    """Extend/repair ``slot``'s filling recursions from step ``start`` to the end.

    Each step reproduces exactly one loop iteration of
    ``chain_map_decode`` (the Viterbi score) and ``chain_marginals``
    (normalised forward message).  Only used while the window is still
    filling; a windowed slot's read-outs are the exact decode of its row
    (:func:`decode`) instead.
    """
    fill, slots = arena.fill, arena.slots
    unary, score, alpha = fill.unary, fill.score, fill.alpha
    pairwise = arena.parameters.transition_log
    for t in range(start, int(slots.length[slot])):
        now = slots.cells(slot, t)
        if t == 0:
            score[now] = unary[now]
            alpha[now] = _normalize_log(unary[now])
            continue
        before = slots.cells(slot, t - 1)
        candidate = score[before][:, None] + pairwise
        score[now] = candidate[np.argmax(candidate, axis=0), _ARANGE_K] + unary[now]
        prev = alpha[before][:, None] + pairwise
        alpha[now] = _normalize_log(_logsumexp(prev, axis=0) + unary[now])


def open_window(arena: WindowArena, slot: int) -> int:
    """Filling → windowed: move ``slot``'s steps into an arena row and
    evict the oldest; returns the row.

    The matches whose first step it was are matched again, and the
    window is aggregated from scratch into front suffixes.
    """
    slots, fill = arena.slots, arena.fill
    filled = int(slots.length[slot])
    if filled < 2:
        raise ValueError("cannot evict from a window of fewer than 2 steps")
    cells = slots.cells_of(slot)
    row = arena.allocate()
    window = arena.cells(row, np.arange(filled))
    arena.unary[window] = fill.unary[cells]
    arena.symbols[window] = fill.symbols[cells]
    arena.start[row] = 0
    arena.boundary[row] = arena.end[row] = filled
    arena.truncate(slot, 0)
    slots.row[slot] = row
    head = arena.pop_front(row, arena.parameters.transition_log)
    if slots.match[slot] >= 0:
        _write_window_rows(arena, slot, row, _rescan(arena, slot, row))
        return row
    cell = arena.cells(row, head)
    arena.unary[cell] = arena.observations[arena.symbols[cell]] + arena.parameters.initial_log
    arena.rebuild(np.array([row]), arena.parameters.transition_log)
    return row


def slide(arena: WindowArena, slot: int, symbol: int) -> None:
    """One windowed step of ``slot``: append ``symbol`` and evict the oldest step.

    The plain half is a push, an index bump and the new head's effective
    row -- O(K^3) amortised.  A step that touches pattern state (the
    one-step :func:`plain_depth`) then advances and rescans the matches,
    rewrites the rows whose bonuses moved and re-aggregates the row from
    scratch: its aggregates then depend on its unary rows alone, as the
    stacked kernel's pattern pass leaves them.
    """
    row = int(arena.slots.row[slot])
    pairwise = arena.parameters.transition_log
    touched = _touches(arena, slot, symbol, int(arena.start[row]))
    step = arena.stage(row, symbol)
    arena.push(row, arena.observations[symbol], pairwise)
    head = arena.pop_front(row, pairwise)
    if touched:
        moved = _advance_matches(arena, slot, step, symbol)
        _write_window_rows(arena, slot, row, moved + _rescan(arena, slot, row))
        return
    if _ends_at(arena, slot, head):
        # A bonus ends on the new head.
        _write_rows(arena, np.array([slot]), np.array([row]), np.array([head]), _HEAD)
        return
    cell = arena.cells(row, head)
    arena.unary[cell] = arena.observations[arena.symbols[cell]] + arena.parameters.initial_log


# -- decisions and read-outs ------------------------------------------------------
def may_fire(arena: WindowArena, row: int, threshold: float) -> bool:
    """Cheap pre-filter: could window ``row`` cross the detection bar?

    ``False`` is authoritative (the exact decode provably cannot fire:
    the aggregate is within reassociation error of the exact values, and
    both margins clear the guard band).  ``True`` means the caller must
    consult the exact read-out (:func:`decode`), which then decides --
    and materialises -- the detection bit-identically to the naive path.
    """
    start, end = int(arena.start[row]), int(arena.end[row])
    score = arena.fold(row, arena.unary[arena.cells(row, start)])
    magnitude = float(np.max(np.abs(score)))
    guard = max(_DECISION_GUARD, _GUARD_SLACK * (end - start) * magnitude)
    if score[_MALICIOUS] < np.max(score) - guard:
        return False
    # Only a window the score test lets through pays for the
    # forward message (as in the stacked kernel).
    return bool(forward_stage(arena, np.array([row]), threshold)[0])


def decode(arena: WindowArena, slot: int) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
    """Exact read-out of ``slot``: ``(final state, final marginal, MAP path)``.

    The final state is the MAP trajectory's last and the final marginal
    reproduces ``chain_marginals(unary, pairwise)[-1]`` bit-for-bit.
    While the window fills both come from the stored recursions (the
    argmax of the last Viterbi score, the last forward message) and the
    path is ``None``: :func:`fill_path` pays for it when it is wanted.
    Once windowed they come from the exact sequential decode of the
    row's unary ring: ``chain_map_decode``, whose path this returns,
    and the forward recursion alone (the backward message at the final
    step is identically zero, so the backward pass cannot change the
    final row -- same argument, and same float ops, as the stored
    forward message while the window fills).
    """
    slots = arena.slots
    row = int(slots.row[slot])
    if row < 0:
        filled = int(slots.length[slot])
        if not filled:
            raise ValueError("slot holds no steps")
        cell = slots.cells(slot, filled - 1)
        last = arena.fill.alpha[cell]
        return int(np.argmax(arena.fill.score[cell])), np.exp(last - _logsumexp(last)), None
    unary = arena.unary[arena.window_cells(row)]
    pairwise = arena.parameters.transition_log
    path = chain_map_decode(unary, pairwise)
    forward = _normalize_log(unary[0])
    for t in range(1, unary.shape[0]):
        prev = forward[:, None] + pairwise
        forward = _normalize_log(_logsumexp(prev, axis=0) + unary[t])
    return int(path[-1]), np.exp(forward - _logsumexp(forward)), path


def fill_path(arena: WindowArena, slot: int) -> np.ndarray:
    """MAP trajectory of a filling slot: ``chain_map_decode`` of its unary
    rows (the same float ops as its stored Viterbi scores, so the path
    ends in :func:`decode`'s final state)."""
    return chain_map_decode(arena.fill.unary[arena.slots.cells_of(slot)], arena.parameters.transition_log)


def matched_pattern_names(arena: WindowArena, slot: int) -> List[str]:
    """Names of ``slot``'s fully matched patterns, in catalogue order."""
    match = int(arena.slots.match[slot])
    if match < 0:
        return []
    matches = arena.matches
    matched = matches.matched[match]
    complete = np.flatnonzero((matched == matches.length) & (matched > 0))
    return [matches.patterns[index].name for index in complete.tolist()]


__all__ = ["WeightedPattern"]
