"""Vectorised cross-entity semiring decode kernel.

``AttackTagger(engine="streaming")`` runs every sub-batch
(``observe_batch_indexed``, and ``observe_batch`` over it) through
this kernel.  The per-alert path advances one entity at a
time: every K×K ``transition ⊗ unary`` step-matrix composition, every
Viterbi/(max, +) and forward/(logsumexp, +) head advance, and every
guard-banded ``may_fire`` pre-filter is its own small-matrix numpy
call, so a sub-batch touching N entities pays N× the
interpreter/dispatch overhead for arithmetic that is identical in shape
across entities.  :class:`BatchedDecodeKernel` executes that arithmetic
for all entities of a *round* as stacked tensor operations, on the same
state the per-alert path uses.  Ragged sub-batches — the same entity
appearing several times — are layered into sequential rounds:
occurrence r of every entity lands in round r, so within a round all
entities are distinct and independent.

**Windowed entities: index arrays in, index arrays out.**  Every
windowed entity is a row of the tagger's
:class:`~repro.core.sliding_window.WindowArena` (see that module for
the layout).  Per alert the round does a track lookup, the detected
check, a deque append and the *plain-row test*; everything else happens
once per round on the array of plain rows' indices:

* the new unary rows are a table lookup on the alerts' symbol indices,
  written to ring slot ``end mod ring`` of each row;
* the back-prefix push is one gather of the previous prefixes by cell
  index, the stacked ``(K, K, N)`` products of
  :mod:`~repro.core.factor_graph`, one scatter;
* the round's due two-stack flips run as one doubling scan per back
  length, reading their ``(K, K, n * m)`` block straight from the arena;
* eviction is ``start += 1``, and the new heads gain the initial-state
  prior in one add;
* the ``may_fire`` pre-filter runs in its own two stages over heads and
  aggregate tops gathered by index: the ``(max, +)`` score for every
  row, the ``(logsumexp, +)`` forward message only for the rows the
  score test lets through.

**The plain-row test.**  A row's step is *plain* when it touches no
pattern state: the alert's symbol neither seeds a pattern nor is awaited
by one of the row's cursors, and no cursor's match starts on the evicted
step or on the next head (``StreamingDecoder.plain_step``).  It is a
property of the input, observed per row per round — not a setting.  A
row that is not plain (a cursor advances, a bonus relocates, an
eviction forces a rescan, or its window is only now opening) takes the
per-entity path, ``AttackTagger._advance``, inside the same round and on
the same arena row; cursors, waiting lists and bonus buckets stay the
sparse per-entity dicts they are.

**Filling entities** (window not yet saturated) keep per-decoder
buffers: the round gathers their previous heads into entity-minor
``(K, N)`` stacks, advances Viterbi and forward recursions in one
stacked step, and scatters the results back.

Every stacked operation replays the scalar engine's float operations
bit-for-bit (elementwise adds/exp/log are elementwise; max/argmax are
order-independent; a K = 3 reduce over a leading axis sums left to
right, as the scalar ops do), so a sub-batch leaves every row exactly as
a per-alert ``observe`` loop over the same alerts would — unary rings,
aggregates, spans.  And no emitted number reads an aggregate: a row the
pre-filter cannot rule out is decided, and its detection materialised,
by the exact sequential decode of its unary ring, the very float
operations of ``engine="naive"``.  The differential oracle replays the
full engine × shards × backend × driver matrix against ``naive`` to
prove it.

The kernel object itself is pure scratch: it holds no decode state, is
dropped on pickling (as is the arena), and is recreated lazily.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .factor_graph import _logsumexp, logsumexp_vecmat_batch, maxplus_vecmat_batch
from .states import NUM_STATES
from .streaming import _DECISION_GUARD, _GUARD_SLACK, _MALICIOUS

_K = NUM_STATES

# Rounds smaller than this run through the tagger's per-alert path (the
# one-row view, on the same arena).  Measured, not inherited: a round of
# one costs about twice as much stacked as through the view, a round of
# two windowed rows still 5-20% more, and from three on the stacked
# round wins for plain rows (~0.6x), rows with live cursors and filling
# rows alike (table in CHANGES.md, PR 20).
_MIN_BATCH = 3


def _stack(arrays: List[np.ndarray]) -> np.ndarray:
    """Equal-shape per-entity vectors as one entity-minor ``(K, N)`` stack."""
    return np.array(arrays).T


class BatchedDecodeKernel:
    """Stacked sub-batch executor bound to one :class:`AttackTagger`."""

    __slots__ = ("_tagger", "_table", "rows_stacked", "rows_scalar")

    def __init__(self, tagger) -> None:
        self._tagger = tagger
        # (parameters, observation rows by symbol index) of the last round.
        self._table: Optional[Tuple[object, np.ndarray]] = None
        # Windowed rows advanced as arena arithmetic / by the per-entity path.
        self.rows_stacked = 0
        self.rows_scalar = 0

    # -- entry point --------------------------------------------------------
    def observe_rounds(self, alerts: Sequence) -> List[Tuple[int, object]]:
        """Advance the tagger through one sub-batch of alerts.

        Returns ``(position, detection)`` pairs sorted by sub-batch
        position.  Per-entity state afterwards is bit-identical to
        feeding the same alerts through ``observe`` one at a time.
        """
        tagger = self._tagger
        started = time.perf_counter()
        # Layer ragged sub-batches into rounds of distinct entities:
        # occurrence r of an entity goes to round r, preserving each
        # entity's own alert order across rounds.
        rounds: List[List[Tuple[int, object]]] = []
        occurrence: Dict[str, int] = {}
        for position, alert in enumerate(alerts):
            r = occurrence.get(alert.entity, 0)
            occurrence[alert.entity] = r + 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append((position, alert))
        hits: List[Tuple[int, object]] = []
        for round_items in rounds:
            hits.extend(self._observe_round(round_items))
        # Rounds emit per-entity in layer order; restore stream order.
        hits.sort(key=lambda item: item[0])
        tagger.kernel_seconds += time.perf_counter() - started
        return hits

    # -- one round of distinct entities -------------------------------------
    def _observe_round(self, items: List[Tuple[int, object]]) -> List[Tuple[int, object]]:
        tagger = self._tagger
        if len(items) < _MIN_BATCH:
            return [
                (position, detection)
                for position, alert in items
                if (detection := tagger._observe_impl(alert)) is not None
            ]
        max_window = tagger.max_window
        parameters = tagger.parameters
        pairwise = parameters.transition_log
        arena = tagger._window_arena()
        # Entries: (position, alert, track, decoder).
        fill_first: List[tuple] = []
        fill_simple: List[Tuple[tuple, int]] = []
        decide_fill: List[tuple] = []
        plain: List[tuple] = []
        plain_rows: List[int] = []
        plain_symbols: List[int] = []
        hits: List[Tuple[int, object]] = []
        for position, alert in items:
            track = tagger.track(alert.entity)
            if track.detected is not None:
                # Already-detected fast path: timeline only, no inference.
                track.alerts.append(alert)
                tagger._release(track)
                continue
            decoder = tagger._decoder_for(track)
            sliding = len(track.alerts) >= max_window
            track.alerts.append(alert)
            entry = (position, alert, track, decoder)
            window = decoder._window
            if window is not None or sliding:
                name = alert.name
                if (
                    sliding
                    and window is not None
                    and window.arena is arena
                    and decoder.parameters is parameters
                    and decoder.plain_step(name)
                ):
                    # No pattern state in reach: the step is arithmetic
                    # on the arena row, done for the whole round below.
                    plain_symbols.append(arena.intern(name))
                    plain_rows.append(window.row)
                    plain.append(entry)
                else:
                    # A cursor advances, a bonus moves, an eviction
                    # rescans, or the window is only now opening: the
                    # per-entity path, on the same arena row.
                    self.rows_scalar += 1
                    detection = tagger._advance(track, alert, decoder, sliding)
                    if detection is not None:
                        hits.append((position, detection))
                continue
            step, dirty, invalid_from = decoder.append_plan(alert.name)
            if invalid_from == step:
                if step:
                    fill_simple.append((entry, step))
                else:
                    fill_first.append(entry)
            else:
                # A bonus relocation invalidated history.
                decoder._complete_append(step, dirty, invalid_from)
            decide_fill.append(entry)
        if fill_first:
            self._start_fill(fill_first)
        if fill_simple:
            self._advance_fill(fill_simple, pairwise)
        if decide_fill:
            hits.extend(self._decide_fill(decide_fill))
        if plain:
            self.rows_stacked += len(plain)
            rows = np.array(plain_rows)
            self._advance_windowed(arena, rows, np.array(plain_symbols), parameters)
            hits.extend(self._decide_windowed(arena, rows, plain))
        return hits

    # -- filling phase: stacked forward/Viterbi extension --------------------
    def _start_fill(self, entries: List[tuple]) -> None:
        """Stacked ``t == 0`` branch of ``_recompute_forward`` for new
        entities' first alerts: ``score = unary``, ``backpointers = 0``,
        ``alpha = normalise(unary)`` in one normalisation for all."""
        for _, _, _, decoder in entries:
            decoder._refresh_unary(0)
        unary_0 = _stack([decoder._unary[0] for _, _, _, decoder in entries])
        alpha_0 = unary_0 - _logsumexp(unary_0, axis=0, keepdims=True)
        for i, (_, _, _, decoder) in enumerate(entries):
            decoder._score[0] = decoder._unary[0]
            decoder._backpointers[0] = 0
            decoder._alpha[0] = alpha_0[:, i]

    def _advance_fill(
        self, entries: List[Tuple[tuple, int]], pairwise: np.ndarray
    ) -> None:
        """One stacked Viterbi + forward step for window-filling entities.

        Replays one iteration of ``StreamingDecoder._recompute_forward``
        for all N entities at once (the entities here appended at
        ``step > 0`` with no history invalidation, so exactly one new
        step extends each recursion).
        """
        n = len(entries)
        for (_, _, _, decoder), step in entries:
            decoder._refresh_unary(step)
        unary_t = _stack([decoder._unary[step] for (_, _, _, decoder), step in entries])
        prev_score = _stack([decoder._score[step - 1] for (_, _, _, decoder), step in entries])
        prev_alpha = _stack([decoder._alpha[step - 1] for (_, _, _, decoder), step in entries])
        # Viterbi: candidate[a, b, n] = score[a, n] + pairwise[a, b].
        candidate = prev_score[:, None, :] + pairwise[:, :, None]
        backpointers = np.argmax(candidate, axis=0)
        cols = np.arange(_K)[:, None]
        rows = np.arange(n)[None, :]
        new_score = candidate[backpointers, cols, rows] + unary_t
        # Forward: alpha' = normalise(lse_a(alpha[a] + pairwise[a, :]) + unary).
        prev = prev_alpha[:, None, :] + pairwise[:, :, None]
        message = _logsumexp(prev, axis=0) + unary_t
        new_alpha = message - _logsumexp(message, axis=0, keepdims=True)
        for i, ((_, _, _, decoder), step) in enumerate(entries):
            decoder._score[step] = new_score[:, i]
            decoder._alpha[step] = new_alpha[:, i]
            decoder._backpointers[step] = backpointers[:, i]

    # -- windowed phase: the plain rows of a round, as arena arithmetic --------
    def _advance_windowed(
        self, arena, rows: np.ndarray, symbols: np.ndarray, parameters
    ) -> None:
        """Append one alert to, and evict the head of, every row in ``rows``.

        Index arrays in, index arrays out: the unary rows are a table
        lookup on the symbol indices, the back-prefix fold one gather →
        stacked product → scatter, the round's due flips one scan per
        back length, the eviction ``start += 1``, and the new heads gain
        the prior in one add.  The push precedes the eviction (the
        scalar order: ``append`` then ``evict_front``) because a flip
        folds the freshly pushed matrix into the suffix products.  Each
        write is the float op ``_effective_row`` performs for a row
        with no bonus in reach.
        """
        table = self._table
        if table is None or table[0] is not parameters or len(table[1]) < len(arena.symbol_names):
            table = self._table = (
                parameters,
                np.array([parameters.observation_row(name) for name in arena.symbol_names]),
            )
        pairwise = parameters.transition_log
        cells = arena.cells(rows, arena.end[rows])
        arena.symbols[cells] = symbols
        arena.base[cells] = arena.unary[cells] = table[1][symbols]
        arena.push(rows, pairwise)
        arena.evict(rows, pairwise)
        heads = arena.cells(rows, arena.start[rows])
        arena.unary[heads] = arena.base[heads] + parameters.initial_log

    # -- stacked decisions ---------------------------------------------------
    def _decide_fill(self, entries: List[tuple]) -> List[Tuple[int, object]]:
        """Stacked threshold decisions for window-filling entities.

        Replays the per-alert read-outs (``final_state`` argmax of the
        Viterbi score, ``final_marginal`` from the normalised forward
        message) across the stack; only firing entities pay for the
        exact per-entity materialisation.
        """
        tagger = self._tagger
        decoders = [decoder for _, _, _, decoder in entries]
        score = _stack([d._score[d._length - 1] for d in decoders])
        alpha = _stack([d._alpha[d._length - 1] for d in decoders])
        final_state = np.argmax(score, axis=0)
        marginal = np.exp(alpha[_MALICIOUS] - _logsumexp(alpha, axis=0))
        # ~(p < threshold), not (p >= threshold): a NaN posterior (hard
        # zeros in user parameters) fails the scalar path's `<` test and
        # therefore fires there — keep the stacked mask a faithful
        # replay, and let _finalize_decision re-decide exactly.
        fire = (final_state == _MALICIOUS) & ~(marginal < tagger.detection_threshold)
        return self._finalize(entries, np.flatnonzero(fire))

    def _decide_windowed(
        self, arena, rows: np.ndarray, entries: List[tuple]
    ) -> List[Tuple[int, object]]:
        """Stacked guard-banded ``may_fire`` pre-filter, then exact decide.

        Same two stages, in the same order, as
        ``StreamingDecoder.may_fire``: the ``(max, +)`` window score is
        folded for every row (head through the front-top suffix, then
        the newest back prefix, gathered by row index), and only rows
        whose malicious score is within the guard band of the best
        state fold the ``(logsumexp, +)`` forward message for the
        probability test.  ``False`` is authoritative exactly as in the
        scalar path; survivors consult the exact window decode.
        """
        threshold = self._tagger.detection_threshold
        start = arena.start[rows]
        heads = arena.unary[arena.cells(rows, start)].T
        lengths = (arena.end[rows] - start).astype(np.float64)
        score = arena.fold(rows, heads, maxplus_vecmat_batch, arena.agg_max)
        # Guard-banded pre-filter, elementwise identical to may_fire().
        magnitude = np.maximum.reduce(np.abs(score), axis=0)
        guard = np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths) * magnitude)
        cannot_fire = score[_MALICIOUS] < np.maximum.reduce(score, axis=0) - guard
        survivors = np.flatnonzero(~cannot_fire)
        if not survivors.size:
            return []
        forward = arena.fold(
            rows[survivors], heads[:, survivors], logsumexp_vecmat_batch, arena.agg_lse
        )
        probability = np.exp(forward[_MALICIOUS] - _logsumexp(forward, axis=0))
        candidates = np.isnan(probability) | (probability >= threshold - guard[survivors])
        return self._finalize(entries, survivors[candidates])

    def _finalize(self, entries: List[tuple], rows: np.ndarray) -> List[Tuple[int, object]]:
        """Exact per-entity decision for the rows a stacked filter let through."""
        tagger = self._tagger
        hits: List[Tuple[int, object]] = []
        for i in rows:
            position, alert, track, decoder = entries[i]
            detection = tagger._finalize_decision(track, alert, decoder)
            if detection is not None:
                hits.append((position, detection))
        return hits


__all__ = ["BatchedDecodeKernel"]
