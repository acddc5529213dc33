"""Vectorised cross-entity semiring decode kernel.

``AttackTagger(engine="streaming")`` runs every sub-batch
(``observe_batch_indexed`` / ``observe_batch`` / ``observe_many``)
through this kernel.  The per-alert path advances one entity at a
time: every K×K ``transition ⊗ unary`` step-matrix composition, every
Viterbi/(max, +)
and forward/(logsumexp, +) head advance, and every guard-banded
``may_fire`` pre-filter is its own small-matrix numpy call, so a
sub-batch touching N entities pays N× the interpreter/dispatch overhead
for arithmetic that is identical in shape across entities.

:class:`BatchedDecodeKernel` runs the same per-entity state machine —
the *identical* :class:`~repro.core.streaming.StreamingDecoder` and
:class:`~repro.core.sliding_window.SlidingProductWindow` objects, with
the identical amortised-O(K³) eviction, bonus-relocation patching, and
``may_fire`` pre-filter semantics — but executes the numerics for all
entities touched by a sub-batch as stacked tensor operations:

* **gather** — each entity's operands (previous head vectors, back-stack
  prefix aggregates, effective unary rows) are copied into contiguous
  ``(N, K)`` / ``(N, K, K)`` stacks;
* **stacked update** — one broadcast add builds all N step matrices
  (``transition[None] + unary[:, None, :]``), one ``(N, K, K, K)``
  reduce per semiring folds them into the back-prefix aggregates, and
  one ``(N, K, K) x (N, K)`` reduce per semiring advances the filling
  -phase Viterbi/forward heads — no Python loop over entities in the
  arithmetic;
* **scatter** — results are copied back into each decoder's buffers /
  window stacks (the structures keep private copies, so nothing aliases
  reusable scratch and no entity pins another's round), after which
  the ordinary per-entity structures carry on.

Entities with heterogeneous pattern bonuses need no branching in the
stacked arithmetic: their effective unary rows are materialised into
the stack first (base row gather + scalar bonus fix-ups, exactly the
additions :meth:`StreamingDecoder._refresh_unary` performs).  Ragged
sub-batches — the same entity appearing multiple times — are layered
into sequential *rounds*: occurrence r of every entity lands in round
r, so within a round all entities are distinct and independent.

Every stacked operation replays the scalar engine's float operations
bit-for-bit (elementwise adds/exp/log are elementwise; max/argmax are
order-independent; at K = 3 numpy's pairwise summation degenerates to
the same left-to-right sum), so a sub-batch is *bit-identical* to a
per-alert ``observe`` loop over the same alerts — detections,
confidences, trajectories, and checkpointed state.  The differential
oracle replays the full engine × shards × backend × driver matrix
against ``engine="naive"`` to prove it.

The kernel object itself is pure scratch: it holds no decode state, is
dropped on pickling, and is recreated lazily after restore.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .factor_graph import (
    _logsumexp,
    logsumexp_matmul_batch,
    logsumexp_vecmat_batch,
    maxplus_matmul_batch,
    maxplus_vecmat_batch,
)
from .states import NUM_STATES
from .streaming import _DECISION_GUARD, _GUARD_SLACK, _MALICIOUS

_K = NUM_STATES

# Rounds smaller than this are not worth the gather/scatter round-trip;
# they run through the tagger's per-alert path (which is also what makes
# the single-entity case match per-alert throughput trivially).
_MIN_BATCH = 4


class _ScratchArena:
    """Grow-only pool of reusable stacked work buffers, keyed by role.

    Buffers are sized to the largest round seen (doubling growth) and
    sliced per use.  Decoders and windows copy what they retain out of
    these stacks, so every buffer is free again after the round.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def rows(
        self, key: str, count: int, tail: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[0] < count:
            capacity = count if buffer is None else max(count, 2 * buffer.shape[0])
            buffer = np.empty((capacity,) + tail, dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:count]


class BatchedDecodeKernel:
    """Stacked sub-batch executor bound to one :class:`AttackTagger`."""

    __slots__ = ("_tagger", "_scratch")

    def __init__(self, tagger) -> None:
        self._tagger = tagger
        self._scratch = _ScratchArena()

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
        if not rounds or len(rounds[0]) < _MIN_BATCH:
            # Round 0 holds every distinct entity, so it is the largest
            # round; when even it is below the stacking threshold every
            # round would take the scalar fallback — skip the layering
            # entirely and walk the sub-batch in stream order (already
            # sorted, identical semantics).
            for position, alert in enumerate(alerts):
                detection = tagger._observe_impl(alert)
                if detection is not None:
                    hits.append((position, detection))
        else:
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
        pairwise = tagger.parameters.transition_log
        # Entries: (position, alert, track, decoder).
        fill_first: List[tuple] = []
        fill_simple: List[Tuple[tuple, int]] = []
        windowed: List[Tuple[tuple, int, bool]] = []
        decide_fill: List[tuple] = []
        decide_windowed: List[tuple] = []
        for position, alert in items:
            track = tagger.track(alert.entity)
            if track.detected is not None:
                # Already-detected fast path: timeline only, no inference.
                track.alerts.append(alert)
                tagger._trim_track(track)
                track.decoder = None
                continue
            decoder = tagger._decoder_for(track)
            sliding = len(track.alerts) >= max_window
            track.alerts.append(alert)
            tagger._trim_track(track)
            step, dirty, invalid_from = decoder.append_plan(alert.name)
            entry = (position, alert, track, decoder)
            if decoder.windowed:
                # dirty == {step} is the common case the stacked window
                # push handles alone; a bonus relocation also touched
                # older queued steps, which are patched in place first.
                for touched in dirty:
                    if touched != step:
                        decoder._refresh_unary(touched)
                if len(dirty) == 1 or decoder._patch_window(dirty, skip=step):
                    windowed.append((entry, step, sliding))
                else:
                    # Defensive fallback, as in _apply_dirty_to_window:
                    # exact re-aggregation (covers the appended step).
                    decoder._refresh_unary(step)
                    decoder._rebuild_window_aggregates()
                    if sliding:
                        decoder.evict_front()
                    decide_windowed.append(entry)
            elif sliding:
                # Filling → windowed transition (first eviction builds
                # the two-stack aggregates): once per entity lifetime.
                decoder._complete_append(step, dirty, invalid_from)
                decoder.evict_front()
                decide_windowed.append(entry)
            elif invalid_from == step:
                if step:
                    fill_simple.append((entry, step))
                else:
                    fill_first.append(entry)
                decide_fill.append(entry)
            else:
                # A bonus relocation invalidated history.
                decoder._complete_append(step, dirty, invalid_from)
                decide_fill.append(entry)
        if fill_first:
            self._start_fill(fill_first)
        if fill_simple:
            self._advance_fill(fill_simple, pairwise)
        if windowed:
            self._advance_windowed(windowed, pairwise)
            decide_windowed.extend(entry for entry, _, _ in windowed)
        hits: List[Tuple[int, object]] = []
        if decide_fill:
            hits.extend(self._decide_fill(decide_fill))
        if decide_windowed:
            hits.extend(self._decide_windowed(decide_windowed))
        return hits

    # -- filling phase: stacked forward/Viterbi extension --------------------
    def _start_fill(self, entries: List[tuple]) -> None:
        """Stacked ``t == 0`` branch of ``_recompute_forward`` for new
        entities' first alerts: ``score = unary``, ``backpointers = 0``,
        ``alpha = normalise(unary)`` in one normalisation for all."""
        unary_0 = self._scratch.rows("first_unary", len(entries), (_K,))
        for i, (_, _, _, decoder) in enumerate(entries):
            decoder._refresh_unary(0)
            unary_0[i] = decoder._unary[0]
        alpha_0 = unary_0 - _logsumexp(unary_0, axis=1, keepdims=True)
        for i, (_, _, _, decoder) in enumerate(entries):
            decoder._score[0] = unary_0[i]
            decoder._backpointers[0] = 0
            decoder._alpha[0] = alpha_0[i]

    def _advance_fill(
        self, entries: List[Tuple[tuple, int]], pairwise: np.ndarray
    ) -> None:
        """One stacked Viterbi + forward step for window-filling entities.

        Replays one iteration of ``StreamingDecoder._recompute_forward``
        for all N entities at once (the entities here appended at
        ``step > 0`` with no history invalidation, so exactly one new
        step extends each recursion).
        """
        scratch = self._scratch
        n = len(entries)
        unary_t = scratch.rows("fill_unary", n, (_K,))
        prev_score = scratch.rows("fill_prev_score", n, (_K,))
        prev_alpha = scratch.rows("fill_prev_alpha", n, (_K,))
        for i, ((_, _, _, decoder), step) in enumerate(entries):
            decoder._refresh_unary(step)
            unary_t[i] = decoder._unary[step]
            prev_score[i] = decoder._score[step - 1]
            prev_alpha[i] = decoder._alpha[step - 1]
        # Viterbi: candidate[n, a, b] = score[n, a] + pairwise[a, b].
        candidate = scratch.rows("fill_candidate", n, (_K, _K))
        np.add(prev_score[:, :, None], pairwise[None, :, :], out=candidate)
        backpointers = np.argmax(candidate, axis=1)
        rows = np.arange(n)[:, None]
        cols = np.arange(_K)[None, :]
        new_score = candidate[rows, backpointers, cols] + unary_t
        # Forward: alpha' = normalise(lse_a(alpha[a] + pairwise[a, :]) + unary).
        prev = scratch.rows("fill_prev", n, (_K, _K))
        np.add(prev_alpha[:, :, None], pairwise[None, :, :], out=prev)
        message = _logsumexp(prev, axis=1) + unary_t
        new_alpha = message - _logsumexp(message, axis=1, keepdims=True)
        for i, ((_, _, _, decoder), step) in enumerate(entries):
            decoder._score[step] = new_score[i]
            decoder._alpha[step] = new_alpha[i]
            decoder._backpointers[step] = backpointers[i]

    # -- windowed phase: stacked push + eviction -----------------------------
    def _advance_windowed(
        self, windowed: List[Tuple[tuple, int, bool]], pairwise: np.ndarray
    ) -> None:
        """Stacked step-matrix build + back-prefix fold, then eviction.

        The push must precede the eviction (matching the scalar order:
        ``append`` then ``evict_front``) because a flip triggered by the
        eviction folds the freshly pushed matrix into the suffix
        products.
        """
        scratch = self._scratch
        n = len(windowed)
        unary_t = scratch.rows("wind_unary", n, (_K,))
        for i, ((_, _, _, decoder), step, _) in enumerate(windowed):
            decoder._refresh_unary(step)
            unary_t[i] = decoder._unary[step]
        # All N step matrices in one broadcast add.  The windows keep
        # private copies, so every stack here is reusable scratch.
        matrices = scratch.rows("wind_matrices", n, (_K, _K))
        np.add(pairwise[None, :, :], unary_t[:, None, :], out=matrices)
        nonempty_back: List[int] = []
        for i, ((_, _, _, decoder), step, _) in enumerate(windowed):
            if decoder._window._back_indices:
                nonempty_back.append(i)
            else:
                # No product to fold: push() stores the matrix itself.
                decoder._window.push(step, matrices[i].copy())
        if nonempty_back:
            m = len(nonempty_back)
            prev_max = scratch.rows("wind_prev_max", m, (_K, _K))
            prev_lse = scratch.rows("wind_prev_lse", m, (_K, _K))
            step_stack = scratch.rows("wind_step", m, (_K, _K))
            for j, i in enumerate(nonempty_back):
                window = windowed[i][0][3]._window
                prev_max[j] = window._back_max[-1]
                prev_lse[j] = window._back_lse[-1]
                step_stack[j] = matrices[i]
            stacked = scratch.rows("wind_stacked", m, (_K, _K, _K))
            new_max = maxplus_matmul_batch(
                prev_max,
                step_stack,
                stacked_out=stacked,
                out=scratch.rows("wind_new_max", m, (_K, _K)),
            )
            new_lse = logsumexp_matmul_batch(
                prev_lse,
                step_stack,
                stacked_out=stacked,
                out=scratch.rows("wind_new_lse", m, (_K, _K)),
            )
            for j, i in enumerate(nonempty_back):
                (_, _, _, decoder), step, _ = windowed[i]
                decoder._window.push_aggregated(
                    step, matrices[i], new_max[j], new_lse[j]
                )
        # Eviction stays per entity: amortised pop/flip, cursor rescans
        # and the new head row are bookkeeping, not stackable arithmetic.
        for (_, _, _, decoder), _, sliding in windowed:
            if sliding:
                decoder.evict_front()

    # -- stacked decisions ---------------------------------------------------
    def _decide_fill(self, entries: List[tuple]) -> List[Tuple[int, object]]:
        """Stacked threshold decisions for window-filling entities.

        Replays the per-alert read-outs (``final_state`` argmax of the
        Viterbi score, ``final_marginal`` from the normalised forward
        message) across the stack; only firing entities pay for the
        exact per-entity materialisation.
        """
        tagger = self._tagger
        scratch = self._scratch
        n = len(entries)
        score = scratch.rows("df_score", n, (_K,))
        alpha = scratch.rows("df_alpha", n, (_K,))
        for i, (_, _, _, decoder) in enumerate(entries):
            last = decoder._length - 1
            score[i] = decoder._score[last]
            alpha[i] = decoder._alpha[last]
        final_state = np.argmax(score, axis=1)
        marginal = np.exp(alpha - _logsumexp(alpha, axis=1, keepdims=True))
        # ~(p < threshold), not (p >= threshold): a NaN posterior (hard
        # zeros in user parameters) fails the scalar path's `<` test and
        # therefore fires there — keep the stacked mask a faithful
        # replay, and let _finalize_decision re-decide exactly.
        fire = (final_state == _MALICIOUS) & ~(
            marginal[:, _MALICIOUS] < tagger.detection_threshold
        )
        hits: List[Tuple[int, object]] = []
        for i in np.flatnonzero(fire):
            position, alert, track, decoder = entries[i]
            detection = tagger._finalize_decision(track, alert, decoder)
            if detection is not None:
                hits.append((position, detection))
        return hits

    def _decide_windowed(self, entries: List[tuple]) -> List[Tuple[int, object]]:
        """Stacked guard-banded ``may_fire`` pre-filter, then exact decide.

        The aggregate window products are folded for all entities in
        (at most) two stacked vec-mat reduces per semiring, grouped by
        which stacks each window currently populates; the guard-band
        arithmetic then replays ``StreamingDecoder.may_fire``
        elementwise.  ``False`` is authoritative exactly as in the
        scalar path; survivors consult the exact cached window decode.
        """
        tagger = self._tagger
        scratch = self._scratch
        threshold = tagger.detection_threshold
        n = len(entries)
        heads = scratch.rows("dw_heads", n, (_K,))
        lengths = scratch.rows("dw_lengths", n, ())
        for i, (_, _, _, decoder) in enumerate(entries):
            heads[i] = decoder._unary[decoder._start]
            lengths[i] = decoder.length
        score = scratch.rows("dw_score", n, (_K,))
        forward = scratch.rows("dw_forward", n, (_K,))
        groups: Dict[Tuple[bool, bool], List[int]] = {}
        for i, (_, _, _, decoder) in enumerate(entries):
            window = decoder._window
            key = (bool(window._front_indices), bool(window._back_indices))
            groups.setdefault(key, []).append(i)
        for (has_front, has_back), indices in groups.items():
            idx = np.array(indices)
            sub_score = heads[idx]
            sub_forward = sub_score
            g = len(indices)
            stacked = scratch.rows("dw_stacked", g, (_K, _K))
            for front in (True, False):
                present = has_front if front else has_back
                if not present:
                    continue
                fold_max = scratch.rows("dw_fold_max", g, (_K, _K))
                fold_lse = scratch.rows("dw_fold_lse", g, (_K, _K))
                for j, i in enumerate(indices):
                    window = entries[i][3]._window
                    if front:
                        fold_max[j] = window._front_max[-1]
                        fold_lse[j] = window._front_lse[-1]
                    else:
                        fold_max[j] = window._back_max[-1]
                        fold_lse[j] = window._back_lse[-1]
                sub_score = maxplus_vecmat_batch(
                    sub_score, fold_max, stacked_out=stacked
                )
                sub_forward = logsumexp_vecmat_batch(
                    sub_forward, fold_lse, stacked_out=stacked
                )
            score[idx] = sub_score
            forward[idx] = sub_forward
        # Guard-banded pre-filter, elementwise identical to may_fire().
        magnitude = np.max(np.abs(score), axis=1)
        guard = np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths) * magnitude)
        cannot_fire = score[:, _MALICIOUS] < np.max(score, axis=1) - guard
        probability = np.exp(forward[:, _MALICIOUS] - _logsumexp(forward, axis=1))
        candidates = ~cannot_fire & (
            np.isnan(probability) | (probability >= threshold - guard)
        )
        hits: List[Tuple[int, object]] = []
        for i in np.flatnonzero(candidates):
            position, alert, track, decoder = entries[i]
            detection = tagger._finalize_decision(track, alert, decoder)
            if detection is not None:
                hits.append((position, detection))
        return hits


__all__ = ["BatchedDecodeKernel"]
