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
  prefix aggregates, effective unary rows) are copied into *entity-minor*
  stacks, ``(K, N)`` / ``(K, K, N)`` with entity ``n`` in ``[..., n]``
  (see the stacked primitives in :mod:`~repro.core.factor_graph`), so
  every inner loop numpy runs is contiguous over the N entities;
* **stacked update** — one broadcast add builds all N step matrices
  (``transition[:, :, None] + unary[None, :, :]``), one ``(K, K, K, N)``
  add + leading-axis reduce per semiring folds them into the
  back-prefix aggregates, one ``(K, N) x (K, K, N)`` reduce per semiring
  advances the filling-phase Viterbi/forward heads, and the round's due
  two-stack flips run as one doubling scan per back length
  (:func:`~repro.core.sliding_window.flip_together`) — no Python loop
  over entities in the arithmetic;
* **stacked decide** — the ``may_fire`` pre-filter in its own two
  stages: the ``(max, +)`` score for every row, the ``(logsumexp, +)``
  forward message only for the rows the score test lets through;
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
order-independent; a K = 3 reduce over a leading axis sums left to
right, as the scalar ops do), so a sub-batch is *bit-identical* to a
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
from .sliding_window import flip_together
from .states import NUM_STATES
from .streaming import _DECISION_GUARD, _GUARD_SLACK, _MALICIOUS

_K = NUM_STATES

# Stand-in aggregate for a window stack that is empty this round.
_NO_STACK = np.zeros((_K, _K))

# Rounds smaller than this are not worth the gather/scatter round-trip;
# they run through the tagger's per-alert path (which is also what makes
# the single-entity case match per-alert throughput trivially).
_MIN_BATCH = 4


class _ScratchArena:
    """Grow-only pool of reusable entity-minor work buffers, keyed by role.

    A buffer has shape ``lead + (capacity,)``: the entity axis is the
    last one, sized to the largest round seen (doubling growth) and
    sliced per use, so a round narrower than the capacity works on
    strided slices.  Decoders and windows copy what they retain out of
    these stacks, so every buffer is free again after the round.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def cols(self, key: str, lead: Tuple[int, ...], count: int) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.shape[-1] < count:
            capacity = count if buffer is None else max(count, 2 * buffer.shape[-1])
            buffer = np.empty(lead + (capacity,))
            self._buffers[key] = buffer
        return buffer[..., :count]

    def stack(self, key: str, arrays: List[np.ndarray]) -> np.ndarray:
        """Gather equal-shape per-entity arrays: ``result[..., i] = arrays[i]``."""
        staged = np.array(arrays)
        block = self.cols(key, staged.shape[1:], len(arrays))
        np.copyto(block, staged.transpose(*range(1, staged.ndim), 0))
        return block


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
        for _, _, _, decoder in entries:
            decoder._refresh_unary(0)
        unary_0 = self._scratch.stack(
            "first_unary", [decoder._unary[0] for _, _, _, decoder in entries]
        )
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
        scratch = self._scratch
        n = len(entries)
        for (_, _, _, decoder), step in entries:
            decoder._refresh_unary(step)
        unary_t = scratch.stack(
            "fill_unary", [decoder._unary[step] for (_, _, _, decoder), step in entries]
        )
        prev_score = scratch.stack(
            "fill_prev_score",
            [decoder._score[step - 1] for (_, _, _, decoder), step in entries],
        )
        prev_alpha = scratch.stack(
            "fill_prev_alpha",
            [decoder._alpha[step - 1] for (_, _, _, decoder), step in entries],
        )
        # Viterbi: candidate[a, b, n] = score[a, n] + pairwise[a, b].
        candidate = scratch.cols("fill_candidate", (_K, _K), n)
        np.add(prev_score[:, None, :], pairwise[:, :, None], out=candidate)
        backpointers = np.argmax(candidate, axis=0)
        cols = np.arange(_K)[:, None]
        rows = np.arange(n)[None, :]
        new_score = candidate[backpointers, cols, rows] + unary_t
        # Forward: alpha' = normalise(lse_a(alpha[a] + pairwise[a, :]) + unary).
        prev = scratch.cols("fill_prev", (_K, _K), n)
        np.add(prev_alpha[:, None, :], pairwise[:, :, None], out=prev)
        message = _logsumexp(prev, axis=0) + unary_t
        new_alpha = message - _logsumexp(message, axis=0, keepdims=True)
        for i, ((_, _, _, decoder), step) in enumerate(entries):
            decoder._score[step] = new_score[:, i]
            decoder._alpha[step] = new_alpha[:, i]
            decoder._backpointers[step] = backpointers[:, i]

    # -- windowed phase: stacked push + eviction -----------------------------
    def _advance_windowed(
        self, windowed: List[Tuple[tuple, int, bool]], pairwise: np.ndarray
    ) -> None:
        """Stacked step-matrix build + back-prefix fold, then flips, then eviction.

        The push must precede the eviction (matching the scalar order:
        ``append`` then ``evict_front``) because a flip triggered by the
        eviction folds the freshly pushed matrix into the suffix
        products.
        """
        scratch = self._scratch
        n = len(windowed)
        for (_, _, _, decoder), step, _ in windowed:
            decoder._refresh_unary(step)
        unary_t = scratch.stack(
            "wind_unary",
            [decoder._unary[step] for (_, _, _, decoder), step, _ in windowed],
        )
        # All N step matrices in one broadcast add.  The windows keep
        # private copies, so every stack here is reusable scratch.
        matrices = scratch.cols("wind_matrices", (_K, _K), n)
        np.add(pairwise[:, :, None], unary_t[None, :, :], out=matrices)
        nonempty_back: List[int] = []
        for i, ((_, _, _, decoder), step, _) in enumerate(windowed):
            if decoder._window._back_indices:
                nonempty_back.append(i)
            else:
                # No product to fold: push() stores the matrix itself.
                decoder._window.push(step, matrices[:, :, i].copy())
        if nonempty_back:
            m = len(nonempty_back)
            windows = [windowed[i][0][3]._window for i in nonempty_back]
            prev_max = scratch.stack("wind_prev_max", [w._back_max[-1] for w in windows])
            prev_lse = scratch.stack("wind_prev_lse", [w._back_lse[-1] for w in windows])
            step_stack = matrices if m == n else matrices[:, :, nonempty_back]
            stacked = scratch.cols("wind_stacked", (_K, _K, _K), m)
            new_max = maxplus_matmul_batch(
                prev_max,
                step_stack,
                stacked_out=stacked,
                out=scratch.cols("wind_new_max", (_K, _K), m),
            )
            new_lse = logsumexp_matmul_batch(
                prev_lse,
                step_stack,
                stacked_out=stacked,
                out=scratch.cols("wind_new_lse", (_K, _K), m),
            )
            for j, i in enumerate(nonempty_back):
                windows[j].push_aggregated(
                    windowed[i][1], matrices[:, :, i], new_max[:, :, j], new_lse[:, :, j]
                )
        # The round's due flips share one scan per back length; after
        # them every eviction below finds a populated front stack.
        flip_together(
            decoder._window
            for (_, _, _, decoder), _, sliding in windowed
            if sliding and not decoder._window._front_indices
        )
        # Eviction stays per entity: the pop, cursor rescans and the new
        # head row are bookkeeping, not stackable arithmetic.
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
        decoders = [decoder for _, _, _, decoder in entries]
        score = scratch.stack("df_score", [d._score[d._length - 1] for d in decoders])
        alpha = scratch.stack("df_alpha", [d._alpha[d._length - 1] for d in decoders])
        final_state = np.argmax(score, axis=0)
        marginal = np.exp(alpha[_MALICIOUS] - _logsumexp(alpha, axis=0))
        # ~(p < threshold), not (p >= threshold): a NaN posterior (hard
        # zeros in user parameters) fails the scalar path's `<` test and
        # therefore fires there — keep the stacked mask a faithful
        # replay, and let _finalize_decision re-decide exactly.
        fire = (final_state == _MALICIOUS) & ~(marginal < tagger.detection_threshold)
        return self._finalize(entries, np.flatnonzero(fire))

    def _decide_windowed(self, entries: List[tuple]) -> List[Tuple[int, object]]:
        """Stacked guard-banded ``may_fire`` pre-filter, then exact decide.

        Same two stages, in the same order, as
        ``StreamingDecoder.may_fire``: the ``(max, +)`` window score is
        folded for every row (head through the front-top suffix, then
        the last back prefix; a row lacking one of the stacks keeps its
        vector through that fold), and only rows whose malicious score
        is within the guard band of the best state gather and fold the
        ``(logsumexp, +)`` forward message for the probability test.
        ``False`` is authoritative exactly as in the scalar path;
        survivors consult the exact cached window decode.
        """
        scratch = self._scratch
        threshold = self._tagger.detection_threshold
        decoders = [decoder for _, _, _, decoder in entries]
        windows = [decoder._window for decoder in decoders]
        heads = scratch.stack("dw_heads", [d._unary[d._start] for d in decoders])
        lengths = np.array([d._length - d._start for d in decoders], dtype=np.float64)
        score = self._fold_windows(
            maxplus_vecmat_batch, heads, [(w._front_max, w._back_max) for w in windows]
        )
        # Guard-banded pre-filter, elementwise identical to may_fire().
        magnitude = np.maximum.reduce(np.abs(score), axis=0)
        guard = np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths) * magnitude)
        cannot_fire = score[_MALICIOUS] < np.maximum.reduce(score, axis=0) - guard
        survivors = np.flatnonzero(~cannot_fire)
        if not survivors.size:
            return []
        forward = self._fold_windows(
            logsumexp_vecmat_batch,
            heads[:, survivors],
            [(windows[i]._front_lse, windows[i]._back_lse) for i in survivors],
        )
        probability = np.exp(forward[_MALICIOUS] - _logsumexp(forward, axis=0))
        candidates = np.isnan(probability) | (probability >= threshold - guard[survivors])
        return self._finalize(entries, survivors[candidates])

    def _fold_windows(
        self, vecmat, vectors: np.ndarray, stacks: List[Tuple[list, list]]
    ) -> np.ndarray:
        """``vectors[:, i] ⊗ top of stacks[i][0] ⊗ top of stacks[i][1]`` per row.

        ``stacks[i]`` is window ``i``'s ``(front, back)`` aggregate
        lists of the semiring ``vecmat`` folds in.  One gather and one
        stacked vec-mat per side; a row whose stack on that side is
        empty folds a zero matrix and has its column restored.
        """
        scratch = self._scratch
        stacked = scratch.cols("dw_stacked", (_K, _K), len(stacks))
        for side in zip(*stacks):
            missing = [i for i, aggregates in enumerate(side) if not aggregates]
            tops = [aggregates[-1] if aggregates else _NO_STACK for aggregates in side]
            folded = vecmat(vectors, scratch.stack("dw_tops", tops), stacked_out=stacked)
            if missing:
                folded[:, missing] = vectors[:, missing]
            vectors = folded
        return vectors

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
