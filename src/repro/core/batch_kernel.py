"""Vectorised cross-entity semiring decode kernel, with a depth axis.

``AttackTagger(engine="streaming")`` runs every sub-batch
(``observe_batch_indexed``, and ``observe_batch`` over it) through
this kernel.  The per-alert path advances one entity by one alert at a
time: every K×K ``transition ⊗ unary`` step-matrix composition, every
Viterbi/(max, +) and forward/(logsumexp, +) head advance, and every
guard-banded ``may_fire`` pre-filter is its own small-matrix numpy
call, so a sub-batch pays the interpreter/dispatch overhead once per
alert for arithmetic that is identical in shape across entities *and*
across one entity's consecutive alerts.  :class:`BatchedDecodeKernel`
executes that arithmetic as stacked tensor operations, on the same
state the per-alert path uses.

**Runs and passes.**  The sub-batch is grouped into per-entity *runs*
(each entity's alerts, in stream order).  A *pass* takes every run with
alerts left through its next stacked segment -- one window-filling
step, or a *chunk* of plain windowed steps -- and runs the steps that
touch pattern state through the per-entity path on the way, so the
chunks of all entities share one depth loop.  Entities are
independent, so one pass may advance one entity by one alert and
another by thirty.

**Chunks: the depth axis.**  Every windowed entity is a row of the
tagger's :class:`~repro.core.sliding_window.WindowArena` (see that
module for the layout).  A chunk is a row's run of consecutive *plain*
steps at depths ``0 .. D - 1``.  It ends at the first of four cuts:

* the row's next flip -- the step whose eviction exhausts the front
  and turns the back into suffixes is the chunk's last;
* a step that touches pattern state (``StreamingDecoder.plain_run``: an
  awaited or seeding symbol, or a cursor's first matched step entering
  the horizon);
* the end of the entity's run in the sub-batch;
* a detection: the rest of the run is timeline only.

A pass sorts its chunks deepest first, so the rows still active at
depth ``d`` are a prefix, and lays every per-cell array out
depth-major.  Only the back-prefix push is sequential in depth: one
stacked ``(max, +)`` / ``(logsumexp, +)`` product pair over the rows
active at that depth, so every aggregate is the per-alert loop's bit
for bit.  Everything else happens once per pass:

* the unary rows are one lookup of the cells' symbol indices in the
  arena's observation table (``WindowArena.observations``, which grows
  by one row per newly interned name and is never rebuilt);
* the ``may_fire`` pre-filter runs its two guard-banded stages over
  every ``(row, depth)`` cell: the ``(max, +)`` score for all of them,
  the ``(logsumexp, +)`` forward message only for the cells the score
  test lets through;
* the writes: symbols, unary rows, aggregates, head priors,
  ``start`` / ``end``;
* the due flips, grouped by back length (``WindowArena.flip_together``).

**Scratch, then commit.**  A push at depth ``d`` reuses the ring slot of
the step evicted at depth ``d - 1``, while the decision at an earlier
depth still reads that slot (as its head or its front top).  So the
prefixes and the pre-filter are computed in scratch before anything is
written.  Each row is then committed *in depth order* up to its first
candidate cell -- the arena row is then exactly its state after that
alert -- decided exactly by ``AttackTagger._finalize_decision`` and,
unless it fired, committed on to its next candidate or the end of its
chunk.  Nothing in a chunk comes after its last step (where its flip,
if any, runs), so that cell is pre-filtered from the committed row, the
way a pass of depth-1 chunks decides all its rows.

Rows that are not plain (a cursor advances, a bonus relocates, an
eviction rescans, or the window is only now opening) take the
per-entity path, ``AttackTagger._advance``, on the same arena row;
cursors, waiting lists and bonus buckets stay the sparse per-entity
dicts they are.  **Filling entities** (window not yet saturated) keep
their steps in the arena's fill storage, one cell per step: a pass
takes one step of each, reads the unary rows with one lookup of the
symbols in the observation table (plus the prior at step 0), gathers
the previous cells' recursions into entity-minor ``(K, N)`` stacks,
advances the Viterbi and forward recursions by one stacked step and
scatters the results back, each with one index array.  Only a step
that meets a bonus builds its row through ``_effective_row``, and one
that relocates a bonus goes through ``_complete_append``.  A pass that
would stack fewer than ``_MIN_BATCH`` alerts runs them through the
per-alert path instead.

Every stacked operation replays the scalar engine's float operations
bit-for-bit (elementwise adds/exp/log are elementwise; max/argmax are
order-independent; a K = 3 reduce over a leading axis sums left to
right, as the scalar ops do), so a sub-batch leaves every row exactly as
a per-alert ``observe`` loop over the same alerts would -- unary rings,
aggregates, spans.  And no emitted number reads an aggregate: a cell
the pre-filter cannot rule out is decided, and its detection
materialised, by the exact sequential decode of its unary ring, the
very float operations of ``engine="naive"``.  The differential oracle
replays the full engine × shards × backend × driver matrix against
``naive`` to prove it.

The kernel object itself is pure scratch: it holds no decode state, is
dropped on pickling, and is recreated lazily.  What it decodes with is
the tagger's, resolved once when the tagger is built or unpickled: the
arena (its ring, symbols and observation rows, under the tagger's
parameters) and the pattern table.  Nothing here re-checks either.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .factor_graph import _logsumexp, logsumexp_vecmat_batch, maxplus_vecmat_batch
from .sliding_window import FillPages, WindowArena
from .states import NUM_STATES
from .streaming import _ARANGE_K, _DECISION_GUARD, _GUARD_SLACK, _MALICIOUS, StreamingDecoder

if TYPE_CHECKING:
    from .alerts import Alert
    from .attack_tagger import AttackTagger, Detection, EntityTrack

_K = NUM_STATES

# A pass that would stack fewer alerts than this (filling steps plus
# chunk cells, i.e. rows x depth) runs them through the tagger's
# per-alert path instead (the one-row view, on the same arena).
# Measured at W = 32 on a 2-vCPU Xeon: a stacked pass costs ~125 us plus
# ~5 us a row and ~15 us a further depth, a step through the view
# ~38 us; stacking wins from 4 one-step rows and from about 6 steps of
# one row, and 5 splits the difference.
_MIN_BATCH = 5

#: ``(sub-batch position, detection)``.
Hit = Tuple[int, "Detection"]

#: One fold of the pre-filter: ``(held, agg_max, agg_lse)``, the cells
#: it applies to (``(N,)``, or ``None`` for all) and two ``(K, K, N)``
#: stacks of the aggregates folded in.
Part = Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]


#: One window-filling step of a pass: ``(sub-batch position, alert, track, decoder)``.
Fill = Tuple[int, "Alert", "EntityTrack", StreamingDecoder]


class Chunks:
    """A pass's chunks, struct-of-arrays: chunk ``k`` is the run of plain
    windowed steps of ``tracks[k]`` / ``decoders[k]`` / arena row
    ``rows[k]``, at sub-batch ``positions[k]`` with alert ``names[k]``,
    by depth."""

    __slots__ = ("tracks", "decoders", "rows", "positions", "names")

    def __init__(self) -> None:
        self.tracks: List["EntityTrack"] = []
        self.decoders: List[StreamingDecoder] = []
        self.rows: List[int] = []
        self.positions: List[List[int]] = []
        self.names: List[List[str]] = []

    def __len__(self) -> int:
        return len(self.tracks)

    def deepest_first(self) -> List[int]:
        """Reorder the chunks by depth, deepest first; returns the depths."""
        depths = [len(positions) for positions in self.positions]
        if max(depths) > 1:
            order = sorted(range(len(depths)), key=depths.__getitem__, reverse=True)
            for name in self.__slots__:
                column = getattr(self, name)
                setattr(self, name, [column[k] for k in order])
            depths = [depths[k] for k in order]
        return depths


def _push(
    previous: np.ndarray,
    matrices: np.ndarray,
    out: np.ndarray,
    stacked: np.ndarray,
    summed: np.ndarray,
) -> None:
    """Both semirings' stacked products ``previous[s] ⊗ matrices`` into ``out[s]``.

    ``out`` is ``(2, K, K, N)``, the ``(max, +)`` prefixes at ``[0]``
    and the ``(logsumexp, +)`` ones at ``[1]``; ``previous`` is
    ``(2, K, K, 1, N)`` and ``matrices`` ``(1, 1, K, K, N)``, both
    already broadcast to the ``(2, K, K, K, N)`` scratch ``stacked``;
    ``summed`` is ``(K, K, N)`` scratch.  The float ops are exactly those
    of ``maxplus_matmul_batch`` and ``logsumexp_matmul_batch``, whose
    max-shift is the same reduce, so a depth costs seven ufunc calls
    instead of nine.  The caller holds
    ``np.errstate(invalid="ignore", divide="ignore")``.
    """
    np.add(previous, matrices, out=stacked)
    np.maximum.reduce(stacked, axis=2, out=out)
    shift, lse = out[1], stacked[1]
    np.subtract(lse, shift[:, None], out=lse)
    np.exp(lse, out=lse)
    np.add.reduce(lse, axis=1, out=summed)
    np.log(summed, out=summed)
    np.add(shift, summed, out=shift)


def _candidates(
    heads: np.ndarray, lengths: np.ndarray, parts: Sequence[Part], threshold: float
) -> np.ndarray:
    """The cells the guard-banded ``may_fire`` pre-filter cannot rule out.

    ``heads`` is ``(K, N)``; each part folds its aggregates in where it
    is held (the front-top suffix, then the newest back prefix).  Same
    two stages, in the same order, as ``StreamingDecoder.may_fire``:
    the ``(max, +)`` window score for every cell, and the
    ``(logsumexp, +)`` forward message only for the cells whose
    malicious score is within the guard band of the best state.  Ruling
    a cell out is authoritative exactly as in the scalar path;
    candidates consult the exact window decode.
    """
    score = heads
    for held, agg_max, _ in parts:
        scored = maxplus_vecmat_batch(score, agg_max)
        score = scored if held is None else np.where(held, scored, score)
    # Elementwise identical to may_fire().
    magnitude = np.maximum.reduce(np.abs(score), axis=0)
    guard = np.maximum(_DECISION_GUARD, (_GUARD_SLACK * lengths.astype(np.float64)) * magnitude)
    cannot_fire = score[_MALICIOUS] < np.maximum.reduce(score, axis=0) - guard
    survivors = np.flatnonzero(~cannot_fire)
    if not survivors.size:
        return survivors
    forward = heads[:, survivors]
    for held, _, agg_lse in parts:
        carried = logsumexp_vecmat_batch(forward, agg_lse[:, :, survivors])
        forward = carried if held is None else np.where(held[survivors], carried, forward)
    probability = np.exp(forward[_MALICIOUS] - _logsumexp(forward, axis=0))
    return survivors[np.isnan(probability) | (probability >= threshold - guard[survivors])]


class BatchedDecodeKernel:
    """Stacked sub-batch executor bound to one :class:`AttackTagger`."""

    __slots__ = ("_tagger", "rows_stacked", "rows_scalar")

    def __init__(self, tagger: "AttackTagger") -> None:
        self._tagger = tagger
        # Windowed steps advanced as arena arithmetic / by the per-entity path.
        self.rows_stacked = 0
        self.rows_scalar = 0

    # -- entry point --------------------------------------------------------
    def observe(self, alerts: Sequence["Alert"]) -> List[Hit]:
        """Advance the tagger through one sub-batch of alerts.

        Returns ``(position, detection)`` pairs sorted by sub-batch
        position.  Per-entity state afterwards is bit-identical to
        feeding the same alerts through ``observe`` one at a time.
        """
        tagger = self._tagger
        started = time.perf_counter()
        runs: Dict[str, List[int]] = {}
        for position, alert in enumerate(alerts):
            run = runs.get(alert.entity)
            if run is None:
                runs[alert.entity] = [position]
            else:
                run.append(position)
        pending = list(runs.values())
        hits: List[Hit] = []
        while pending:
            pending = self._pass(alerts, pending, hits)
        # Passes emit per entity; restore stream order.
        hits.sort(key=lambda item: item[0])
        tagger.kernel_seconds += time.perf_counter() - started
        return hits

    # -- one pass: the next stacked segment of every run ----------------------
    def _pass(
        self, alerts: Sequence["Alert"], runs: List[List[int]], hits: List[Hit]
    ) -> List[List[int]]:
        """Advance every run to and through its next stacked segment.

        ``runs`` are the sub-batch positions each entity has left; returns
        what is left after this pass.  A run's steps that touch pattern
        state go through the per-entity path on the way, so every run
        still windowed brings a chunk and the chunks of a pass share
        their depth loop.  Every alert is recorded on its track's
        timeline when it is assigned: a chunk's first step is committed
        before anything of it is decided.
        """
        tagger = self._tagger
        max_window = tagger.max_window
        arena = tagger._arena
        fill: List[Fill] = []
        chunks = Chunks()
        cells = 0  # chunk steps
        rest: List[List[int]] = []
        for positions in runs:
            track = tagger.track(alerts[positions[0]].entity)
            taken = 0
            while taken < len(positions):
                position = positions[taken]
                alert = alerts[position]
                if track.detected is not None:
                    # Already detected: the rest of the run is timeline only.
                    track.alerts.extend(map(alerts.__getitem__, positions[taken:]))
                    tagger._release(track)
                    taken = len(positions)
                    break
                decoder = tagger._decoder_for(track)
                window = decoder._window
                sliding = len(track.alerts) >= max_window
                track.alerts.append(alert)
                if window is None and not sliding:
                    fill.append((position, alert, track, decoder))
                    taken += 1
                    break
                if sliding and window is not None:
                    ahead = positions[taken : taken + max_window]
                    if len(ahead) == 1:
                        names = [alert.name]
                    else:
                        # The step that evicts the last front step (the
                        # head included) flips the back: the chunk ends there.
                        row = window.row
                        ahead = ahead[: arena.boundary[row] - arena.start[row]]
                        names = [alerts[p].name for p in ahead]
                    depth = decoder.plain_run(names)
                    if depth:
                        if depth < len(ahead):
                            ahead, names = ahead[:depth], names[:depth]
                        chunks.tracks.append(track)
                        chunks.decoders.append(decoder)
                        chunks.rows.append(window.row)
                        chunks.positions.append(ahead)
                        chunks.names.append(names)
                        cells += depth
                        taken += depth
                        break
                # A cursor advances, a bonus moves, an eviction rescans,
                # or the window is only now opening: the per-entity path,
                # on the same arena row.
                self.rows_scalar += 1
                taken += 1
                detection = tagger._advance(track, alert, decoder, sliding)
                if detection is not None:
                    hits.append((position, detection))
            if taken < len(positions):
                rest.append(positions[taken:])
        if len(fill) + cells < _MIN_BATCH:
            self._advance_each(alerts, fill, chunks, hits)
        else:
            if fill:
                hits.extend(self._advance_fill(fill, arena))
            if cells:
                hits.extend(self._advance_chunks(arena, chunks, alerts))
        return rest

    def _advance_each(
        self, alerts: Sequence["Alert"], fill: List[Fill], chunks: Chunks, hits: List[Hit]
    ) -> None:
        """A pass too small to stack: every step through the per-entity path."""
        advance = self._tagger._advance
        for position, alert, track, decoder in fill:
            if (detection := advance(track, alert, decoder, False)) is not None:
                hits.append((position, detection))
        for track, decoder, positions in zip(chunks.tracks, chunks.decoders, chunks.positions):
            for depth, position in enumerate(positions):
                alert = alerts[position]
                if depth:
                    track.alerts.append(alert)
                if track.detected is None:
                    if (detection := advance(track, alert, decoder, True)) is not None:
                        hits.append((position, detection))

    # -- filling phase: one block of fill-storage cells ----------------------
    def _advance_fill(self, fill: List[Fill], arena: WindowArena) -> List[Hit]:
        """Append one alert to every window-filling entity, then decide them.

        A step that relocates a bonus invalidates history: the
        per-entity ``_complete_append``.  Every other step is one cell
        of a block, advanced by one stacked recursion step (see the
        module docstring).
        """
        store = arena.fill
        cells: List[int] = []  # every step's cell
        block: List[int] = []  # the cells of the stacked steps
        first: List[int] = []  # block positions of steps 0 ...
        extend: List[int] = []  # ... and of later steps,
        before: List[int] = []  # whose previous cells these are
        bonus: List[Tuple[int, np.ndarray]] = []
        for _, alert, _, decoder in fill:
            step, dirty, invalid_from = decoder.append_plan(alert.name)
            cell = decoder._cell(step)
            cells.append(cell)
            if invalid_from != step:
                decoder._complete_append(step, dirty, invalid_from)
                continue
            if step:
                extend.append(len(block))
                before.append(decoder._cell(step - 1))
            else:
                first.append(len(block))
            if step in decoder._bonus_at:
                bonus.append((len(block), decoder._effective_row(step)))
            block.append(cell)
        if block:
            steps = np.array(block)
            unary = arena.observations[store.symbols[steps]]
            if first:
                unary[first] += arena.parameters.initial_log
            for k, row in bonus:
                unary[k] = row
            store.unary[steps] = unary
            if first:
                self._start_fill(store, steps[first], unary[first])
            if extend:
                self._extend_fill(arena, steps[extend], before, unary[extend])
        return self._decide_fill(fill, store, cells)

    @staticmethod
    def _start_fill(store: FillPages, cells: np.ndarray, unary: np.ndarray) -> None:
        """Stacked ``t == 0`` branch of ``_recompute_forward`` for new
        entities' first alerts: ``score = unary`` and
        ``alpha = normalise(unary)`` in one normalisation for all."""
        unary_0 = unary.T
        alpha_0 = unary_0 - _logsumexp(unary_0, axis=0, keepdims=True)
        store.score[cells] = unary
        store.alpha[cells] = alpha_0.T

    @staticmethod
    def _extend_fill(arena: WindowArena, cells: np.ndarray, before: List[int], unary: np.ndarray) -> None:
        """One stacked Viterbi + forward step for window-filling entities.

        Replays one iteration of ``StreamingDecoder._recompute_forward``
        for all N entities at once (the entities here appended at
        ``step > 0`` with no history invalidation, so exactly one new
        step extends each recursion from the cells ``before``).
        """
        n, store, pairwise = len(before), arena.fill, arena.parameters.transition_log
        unary_t = unary.T
        prev_score = store.score[before].T
        prev_alpha = store.alpha[before].T
        # Viterbi: candidate[a, b, n] = score[a, n] + pairwise[a, b].
        candidate = prev_score[:, None, :] + pairwise[:, :, None]
        best = np.argmax(candidate, axis=0)
        new_score = candidate[best, _ARANGE_K[:, None], np.arange(n)[None, :]] + unary_t
        # Forward: alpha' = normalise(lse_a(alpha[a] + pairwise[a, :]) + unary).
        prev = prev_alpha[:, None, :] + pairwise[:, :, None]
        message = _logsumexp(prev, axis=0) + unary_t
        new_alpha = message - _logsumexp(message, axis=0, keepdims=True)
        store.score[cells] = new_score.T
        store.alpha[cells] = new_alpha.T

    def _decide_fill(self, fill: List[Fill], store: FillPages, cells: List[int]) -> List[Hit]:
        """Stacked threshold decisions for window-filling entities.

        Replays the per-alert read-outs (``final_state`` argmax of the
        Viterbi score, ``final_marginal`` from the normalised forward
        message) across the stack of every entity's last cell; only
        firing entities pay for the exact per-entity materialisation.
        """
        tagger = self._tagger
        score = store.score[cells].T
        alpha = store.alpha[cells].T
        final_state = np.argmax(score, axis=0)
        marginal = np.exp(alpha[_MALICIOUS] - _logsumexp(alpha, axis=0))
        # ~(p < threshold), not (p >= threshold): a NaN posterior (hard
        # zeros in user parameters) fails the scalar path's `<` test and
        # therefore fires there — keep the stacked mask a faithful
        # replay, and let _finalize_decision re-decide exactly.
        fire = (final_state == _MALICIOUS) & ~(marginal < tagger.detection_threshold)
        hits: List[Hit] = []
        for i in np.flatnonzero(fire).tolist():
            position, alert, track, decoder = fill[i]
            detection = tagger._finalize_decision(track, alert, decoder)
            if detection is not None:
                hits.append((position, detection))
        return hits

    # -- windowed phase: chunks of plain steps, as arena arithmetic ------------
    def _advance_chunks(
        self, arena: WindowArena, chunks: Chunks, alerts: Sequence["Alert"]
    ) -> List[Hit]:
        """Advance every chunk of a pass through its depths.

        Scratch first (:class:`_ChunkPass`); then every chunk is
        committed up to its next candidate cell and decided there
        exactly, until it fires or runs out of depths.
        """
        tagger = self._tagger
        threshold = tagger.detection_threshold
        # Deepest first: the rows active at a depth are a prefix.
        depths = chunks.deepest_first()
        active = [len(chunks)] * depths[-1] + [
            sum(depth > q for depth in depths) for q in range(depths[-1], depths[0])
        ]
        intern = arena.intern
        symbols = np.array(
            [intern(names[q]) for q, count in enumerate(active) for names in chunks.names[:count]]
        )
        rows = np.array(chunks.rows)
        depth = np.array(depths)
        scratch = _ChunkPass(arena, rows, depth, active, symbols)
        # Each chunk's candidate depths, ascending (cells are depth-major).
        waiting: Dict[int, List[int]] = {}
        for cell in scratch.candidates(threshold).tolist():
            waiting.setdefault(int(scratch.col[cell]), []).append(int(scratch.level[cell]))
        hits: List[Hit] = []
        done = np.zeros(len(chunks), dtype=np.int64)
        target = depth  # where each chunk's commits end: its depth, or where it fired
        whole = not waiting
        while True:
            stop = target
            short = sorted(waiting)  # the chunks stopping at a candidate this time
            decide = list(short)
            if short:
                stop = target.copy()
                for i in short:
                    stop[i] = waiting[i].pop(0) + 1
                    if not waiting[i]:
                        del waiting[i]
            ended = scratch.commit(done, stop, whole)
            if ended.size:
                # A chunk's last step is pre-filtered from the committed row.
                found = _row_candidates(arena, rows[ended], scratch.last_heads(ended), threshold)
                decide.extend(ended[found].tolist())
            if depths[0] > 1:
                # The rest of each timeline (the first steps are on it).
                for track, positions, low, high in zip(
                    chunks.tracks, chunks.positions, done.tolist(), stop.tolist()
                ):
                    if high > 1 and low < high:
                        track.alerts.extend(map(alerts.__getitem__, positions[max(low, 1) : high]))
            for i in decide:
                track, decoder, positions = chunks.tracks[i], chunks.decoders[i], chunks.positions[i]
                last = int(stop[i]) - 1
                detection = tagger._finalize_decision(track, alerts[positions[last]], decoder)
                if detection is not None:
                    hits.append((positions[last], detection))
                    # The rest of the run is timeline only.
                    track.alerts.extend(map(alerts.__getitem__, positions[last + 1 :]))
                    if target is depth:
                        target = depth.copy()
                    target[i] = stop[i]
                    waiting.pop(i, None)
            if not short:
                break
            done, whole = stop, False
        self.rows_stacked += int(target.sum())
        return hits


def _row_candidates(
    arena: WindowArena, rows: np.ndarray, heads: np.ndarray, threshold: float
) -> np.ndarray:
    """:func:`_candidates` of arena rows as committed, whose head vectors
    (``(K, N)``, prior included) the caller has at hand."""
    start, boundary, end = arena.start[rows], arena.boundary[rows], arena.end[rows]
    parts = []
    for held, steps in ((start + 1 < boundary, start + 1), (boundary < end, end - 1)):
        cells = arena.cells(rows, steps)
        parts.append((held, arena.agg_max[:, :, cells], arena.agg_lse[:, :, cells]))
    return _candidates(heads, end - start, parts, threshold)


class _ChunkPass:
    """One pass's chunks in scratch -- back prefixes and pre-filter -- then commits.

    Per-cell arrays are flat and depth-major: depth ``q``'s cells are
    ``bounds[q] .. bounds[q + 1] - 1``, one per chunk deeper than ``q``,
    in chunk order (deepest first).  Nothing is written to the
    arena before :meth:`commit`.  Each write is the float op the
    per-alert path performs for a step with no bonus in reach: the
    unary row is the observation row, the head gains the prior, and the
    push precedes the eviction (``append`` then ``evict_front``) because
    a flip folds the freshly pushed matrix.
    """

    def __init__(
        self,
        arena: WindowArena,
        rows: np.ndarray,
        depth: np.ndarray,
        active: List[int],
        symbols: np.ndarray,
    ) -> None:
        self.arena, self.rows, self.depth = arena, rows, depth
        self.symbols = symbols
        self.unary = unary = arena.observations[symbols]
        parameters = arena.parameters
        self.pairwise = parameters.transition_log
        self.start, self.boundary, self.end = arena.start[rows], arena.boundary[rows], arena.end[rows]
        # A chunk whose last step exhausts the front flips there.
        self.flips = depth == self.boundary - self.start
        self.active = active
        self.bounds = list(accumulate(active, initial=0))
        # Each cell's depth, and its chunk's row and geometry.
        if len(active) == 1:
            level, row_c, start_c, end_c = 0, rows, self.start, self.end  # cell k is chunk k
        else:
            level, col = self.level, self.col
            row_c, start_c, end_c = rows[col], self.start[col], self.end[col]
        self.row_c = row_c
        self.prefix = self._prefixes()
        # The cell each step lands in, and the head after its eviction,
        # whose row gains the prior.
        self.cells = arena.cells(row_c, end_c + level)
        self.head = head = start_c + level + 1
        self.head_cells = arena.cells(row_c, head)
        heads = arena.observations[arena.symbols[self.head_cells]]
        if len(active) > 1:
            # At a flip, the new head can be a step of this very chunk
            # (never at depth 0: a window holds two steps at least).
            fresh = np.flatnonzero(head >= end_c)
            heads[fresh] = unary[self.offsets[(head - end_c)[fresh]] + self.col[fresh]]
        self.heads = heads + parameters.initial_log

    @cached_property
    def offsets(self) -> np.ndarray:
        """:attr:`bounds` as an array."""
        return np.array(self.bounds)

    @cached_property
    def level(self) -> np.ndarray:
        """Each cell's depth."""
        return np.repeat(np.arange(len(self.active)), self.active)

    @cached_property
    def col(self) -> np.ndarray:
        """Each cell's chunk."""
        return np.arange(self.level.size) - self.offsets[self.level]

    def last_heads(self, chunks: np.ndarray) -> np.ndarray:
        """The ``(K, m)`` head vectors after the last step of each of ``chunks``."""
        last = chunks if len(self.active) == 1 else self.offsets[self.depth[chunks] - 1] + chunks
        return self.heads[last].T

    def _prefixes(self) -> np.ndarray:
        """Both semirings' newest back prefix after every cell's push, ``(2, K, K, cells)``."""
        arena, active, bounds, n = self.arena, self.active, self.bounds, self.active[0]
        matrices = self.pairwise[:, :, None] + self.unary.T[None, :, :]
        prefix = np.empty((2, _K, _K, matrices.shape[2]))
        top = arena.cells(self.rows, self.end - 1)
        prefix[0, :, :, :n] = arena.agg_max[:, :, top]
        prefix[1, :, :, :n] = arena.agg_lse[:, :, top]
        # Broadcast-ready views, and scratch for the widest depth.
        previous, step = prefix[:, :, :, None, :], matrices[None, None]
        stacked, summed = np.empty((2, _K, _K, _K, n)), np.empty((_K, _K, n))
        with np.errstate(invalid="ignore", divide="ignore"):
            _push(previous[..., :n], step[..., :n], prefix[..., :n], stacked, summed)
            # An empty back has no product to extend: its prefix is the matrix.
            empty = np.flatnonzero(self.end <= self.boundary)
            prefix[..., empty] = matrices[:, :, empty]
            for q in range(1, len(active)):
                low, count = bounds[q], active[q]
                _push(
                    previous[..., bounds[q - 1] : bounds[q - 1] + count],
                    step[..., low : low + count],
                    prefix[..., low : low + count],
                    stacked[..., :count],
                    summed[..., :count],
                )
        return prefix

    def candidates(self, threshold: float) -> np.ndarray:
        """The cells :func:`_candidates` cannot rule out, each chunk's last aside.

        A cell folds its head through the front-top suffix, still in the
        arena (the pushes before it in its chunk only reuse the slots of
        steps evicted earlier), then through its back prefix.  A chunk's
        last cell may flip, and nothing after it in the chunk reads
        around it, so it is pre-filtered once committed
        (:func:`_row_candidates`).
        """
        if len(self.active) == 1:
            return np.zeros(0, dtype=np.int64)  # every cell is a last one
        arena, col = self.arena, self.col
        front = arena.cells(self.row_c, self.head + 1)
        parts = (
            (self.head + 1 < self.boundary[col], arena.agg_max[:, :, front], arena.agg_lse[:, :, front]),
            (None, *self.prefix),
        )
        found = _candidates(self.heads.T, (self.end - self.start)[col], parts, threshold)
        return found[self.level[found] < self.depth[col[found]] - 1]

    def commit(self, done: np.ndarray, stop: np.ndarray, whole: bool) -> np.ndarray:
        """Write depths ``done[i] .. stop[i] - 1`` of every chunk ``i`` to the arena.

        ``whole``: nothing is committed yet and every chunk goes to its end.

        In the order the per-alert loop leaves them: the pushed steps
        and ``end``, the flips of the chunks that reached their last
        depth, then the head priors -- only those of each chunk's last
        two committed depths, as an earlier head's slot is the one a
        later push of the same commit reuses -- and ``start``.  Returns
        the chunks committed through their last depth.
        """
        arena, rows = self.arena, self.rows
        if whole:
            # The common case: every chunk, whole (and when none is
            # deeper than two, every head is one of its last two).
            selected = moved = slice(None)
            kept = self.level >= self.depth[self.col] - 2 if len(self.active) > 2 else selected
        else:
            level, col = self.level, self.col
            selected = np.flatnonzero((level >= done[col]) & (level < stop[col]))
            moved = done < stop
            kept = selected[level[selected] >= stop[col[selected]] - 2]
        cells = self.cells[selected]
        arena.symbols[cells] = self.symbols[selected]
        arena.unary[cells] = self.unary[selected]
        arena.agg_max[:, :, cells] = self.prefix[0][:, :, selected]
        arena.agg_lse[:, :, cells] = self.prefix[1][:, :, selected]
        arena.end[rows[moved]] = (self.end + stop)[moved]
        if whole:
            ended, flipped = np.arange(len(rows)), np.flatnonzero(self.flips)
        else:
            ended = np.flatnonzero((stop == self.depth) & (done < stop))
            flipped = ended[self.flips[ended]]
        if flipped.size:
            arena.flip_together(rows[flipped], self.pairwise)
        arena.unary[self.head_cells[kept]] = self.heads[kept]
        arena.start[rows[moved]] = (self.start + stop)[moved]
        return ended


__all__ = ["BatchedDecodeKernel", "Chunks"]
