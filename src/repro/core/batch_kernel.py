"""Vectorised cross-entity semiring decode kernel, with a depth axis.

``AttackTagger(engine="streaming")`` runs every sub-batch
(``observe_batch_indexed``, and ``observe_batch`` over it) through
this kernel.  The per-alert path advances one entity by one alert at a
time: every K×K ``transition ⊗ unary`` step-matrix composition, every
Viterbi/(max, +) head advance, and every guard-banded ``may_fire``
pre-filter is its own small-matrix numpy call, so a sub-batch pays the
interpreter/dispatch overhead once per alert for arithmetic that is
identical in shape across entities *and* across one entity's
consecutive alerts.  :class:`BatchedDecodeKernel`
executes that arithmetic as stacked tensor operations, on the same
state the per-alert path uses.

**Slots, runs and passes.**  Every tracked entity holds a *slot* of
the arena's :class:`~repro.core.sliding_window.SlotTable`: its arena
row (or none), its fill length and pages, its match row (none while
"pristine": no pattern matched), and whether it is detected.  The
sub-batch is interned once -- one dict lookup per alert maps its entity
to a slot (a batch's new entities are opened together) and its name to
an arena symbol, read off a :class:`~repro.core.alerts.NormalizedBatch`'s
entity and name columns -- and grouped into per-entity *runs* (each
entity's alerts, in stream order) by one stable argsort over slots.
The arena's steps are the only copy of a live entity's window: no
track records a name, and a detected entity's run is skipped whole.
No :class:`~repro.core.alerts.Alert` is built except a detection's
trigger.  A *pass* then takes every
run with alerts left through its next stacked segment -- a run of
plain filling steps, or a *chunk* of plain windowed steps -- with
masks over the slot columns: the detected check, the filling /
windowed split and the plain test (a pristine slot and a symbol no
pattern starts with, or ``streaming.plain_depth`` for a slot with
matches).  On the way, a step that opens a window goes through the
per-entity path and windowed steps that touch pattern state through
the *pattern pass*, so the segments of all entities share their depth
loops.  Entities are independent, so one pass may advance one entity
by one alert and another by thirty.  There is no per-entity decoder
object: an entity's decode state is its slot and arena row, which the
stacked passes index directly and the per-entity fallbacks hand to the
functions of :mod:`repro.core.streaming`.

**Chunks: the depth axis.**  Every windowed entity is a row of the
tagger's :class:`~repro.core.sliding_window.WindowArena` (see that
module for the layout).  A chunk is a row's run of consecutive *plain*
steps at depths ``0 .. D - 1``.  It ends at the first of four cuts:

* the row's next flip -- the step whose eviction exhausts the front
  and turns the back into suffixes is the chunk's last;
* a step that touches pattern state (``streaming.plain_depth``: an
  awaited or seeding symbol, or the eviction of a match's first step);
* the end of the entity's run in the sub-batch;
* a detection: the rest of the run is skipped (detection is final).

A pass sorts its chunks deepest first, so the rows still active at
depth ``d`` are a prefix, and lays every per-cell array out
depth-major.  Only the back-prefix push is sequential in depth: one
stacked ``(max, +)`` product over the rows active at that depth, so
every aggregate is the per-alert loop's bit for bit.  Everything else
happens once per pass:

* the unary rows are one lookup of the cells' symbol indices in the
  arena's observation table (``WindowArena.observations``, which grows
  by one row per newly interned name and is never rebuilt), and the
  head rows the same plus the prior and, for a slot with matches, the
  bonuses ending there (``streaming.effective_rows``);
* the first ``may_fire`` stage, the guard-banded ``(max, +)`` window
  score, over every ``(row, depth)`` cell;
* the writes: symbols, unary rows, aggregates, head priors,
  ``start`` / ``end``;
* the due flips, grouped by back length (``WindowArena.flip_together``).

**Scratch, then commit.**  A push at depth ``d`` reuses the ring slot of
the step evicted at depth ``d - 1``, while the decision at an earlier
depth still reads that slot (as its head or its front top).  So the
prefixes and the pre-filter are computed in scratch before anything is
written.  Each row is then committed *in depth order* up to its first
candidate cell -- the arena row is then exactly its state after that
alert -- and, unless it fired, committed on to its next candidate or
the end of its chunk.  Nothing in a chunk comes after its last step
(where its flip, if any, runs), so that cell is score-tested from the
committed row, the way a pass of depth-1 chunks tests all its rows.  A
candidate is rare, so only then, on the committed rows of one commit
together, does the second ``may_fire`` stage fold the forward message
(``streaming.forward_stage``: a tree of ``(logsumexp, +)`` products
over each row's unary ring); the rows it cannot rule out are decided
exactly by ``AttackTagger._finalize_decision``.

**The pattern pass.**  A windowed row whose next step touches pattern
state (a match advances or its first step is evicted, moving a bonus)
takes its steps up to the last one that does, ``_PATTERN_DEPTH`` at
most, in one stacked computation for all such rows
(``BatchedDecodeKernel._advance_patterned``).  A match is a function
of its window alone (the greedy leftmost match the naive rebuild
computes), so ``streaming.match_windows`` gives the matches after
every step at once from a next-occurrence table of each row's ring
and upcoming symbols -- one stacked lookup per pattern symbol -- and
with them each window's effective rows.  The score test is
conservative twice over: bonuses only raise the malicious state's
unary, so a window's score lies between its bonus-free score and that
plus its bonus total, and the bonus-free scores are a few stacked
products of blocks of observation-only step matrices; only windows
that bound cannot rule out are scored exactly, one product tree each.
A window still standing is committed and decided as in a chunk; a row
that does not fire commits its last window and is re-aggregated from
scratch (``WindowArena.rebuild``) -- exactly what the per-alert path
(``streaming.slide``) leaves after a step that touches pattern
state.  Match state lives in the arena's
:class:`~repro.core.sliding_window.MatchRows`: per slot and pattern
the matched length and the first and last matched steps, in a row
taken when a slot leaves the seed.  Only a window opening takes the
per-entity path, ``AttackTagger._advance``.  A stale slot (restored or
adopted) is rebuilt from its track's names before its run starts
(``AttackTagger._sync``), which then drops them.  **Filling entities**
(window not yet saturated) keep
their steps in the arena's fill storage, one cell per step.  A pass
takes each filling run's plain steps up to the one that would open its
window (or the one step that touches pattern state, through
``streaming.append_plan``): the bookkeeping of plain steps -- a page
off the free list where a step starts one, the symbol store, the
length bump -- is one index-array write each
(``WindowArena.store_fills``); the unary rows are one lookup of the
symbols in the observation table (plus the prior at step 0); and the
Viterbi and forward recursions advance one stacked step per depth,
gathered into entity-minor ``(K, N)`` stacks and scattered back with
one index array.  Fill storage only grows, so every cell is decided at
once afterwards; a run that fires before its last step gives the later
steps back first.  A step that touches pattern state builds its row
through ``streaming.effective_row``, and one that relocates a bonus goes
through ``streaming.complete_append``.  A pass's filling steps, or its chunk cells,
that would stack fewer than ``_MIN_BATCH`` alerts run through the
per-alert path instead.

Every stacked operation replays the scalar engine's float operations
bit-for-bit (elementwise adds/exp/log are elementwise; max/argmax are
order-independent; a K = 3 reduce over a leading axis sums left to
right, as the scalar ops do), so a sub-batch leaves every row exactly as
a per-alert ``observe`` loop over the same alerts would -- unary rings,
aggregates, spans, matches.  And no emitted number reads an aggregate,
a bound or a product tree: a cell the pre-filter cannot rule out is
decided, and its
detection materialised, by the exact sequential decode of its unary
ring, the very float operations of ``engine="naive"``.  The differential oracle
replays the full engine × shards × backend × driver matrix against
``naive`` to prove it.

The kernel object itself is pure scratch: it holds no decode state, is
dropped on pickling, and is recreated lazily.  What it decodes with is
the tagger's, resolved once when the tagger is built or unpickled: the
arena (its ring, symbols, observation rows and pattern tables, under
the tagger's parameters).  Nothing here re-checks it.
"""

from __future__ import annotations

import time
from functools import cached_property, partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import streaming
from .alerts import NormalizedBatch
from .factor_graph import _logsumexp, maxplus_matmul_batch, maxplus_vecmat_batch
from .sliding_window import FillPages, WindowArena, tree
from .states import NUM_STATES
from .streaming import _ARANGE_K, _MALICIOUS, _guard, effective_rows, forward_stage, match_windows, plain_depth

if TYPE_CHECKING:
    from .alerts import Alert
    from .attack_tagger import AttackTagger, Detection

_K = NUM_STATES

# A pass's filling steps, or its chunk cells (rows x depth), that
# number fewer than this run through the tagger's per-alert path
# instead (the one-row operations, on the same arena): each stacked path
# pays its own fixed cost.  Kernel seconds of in-process replays of the
# five e2e workloads' detection input (W = 32, 2-vCPU Xeon, medians of 5
# alternating replays, detections identical), stacking every segment (1)
# against 4: steady_alerts 179 -> 176 ms, raw_scan_flood 132 -> 115,
# paced_latency 276 -> 244, entity_churn 146 -> 137, sharded_replay
# 241 -> 226.  The per-alert fallback still pays for itself.
_MIN_BATCH = 4

# Steps the pattern pass looks ahead of each run: its windows cost
# ``depth * max_window`` step matrices.
_PATTERN_DEPTH = 32

#: ``(sub-batch position, detection)``.
Hit = Tuple[int, "Detection"]

#: One fold of the pre-filter: ``(held, agg_max)``, the cells it
#: applies to (``(N,)``, or ``None`` for all) and the ``(K, K, N)``
#: stack of the aggregates folded in.
Part = Tuple[Optional[np.ndarray], np.ndarray]


def _push(previous: np.ndarray, matrices: np.ndarray, out: np.ndarray, stacked: np.ndarray) -> None:
    """Stacked ``(max, +)`` products ``previous ⊗ matrices`` into ``out``.

    ``out`` is ``(K, K, N)``; ``previous`` is ``(K, K, 1, N)`` and
    ``matrices`` ``(1, K, K, N)``, both broadcast to the ``(K, K, K,
    N)`` scratch ``stacked``: an add and a ``max`` reduce, the float ops
    of ``maxplus_matmul_batch`` without its allocations.
    """
    np.add(previous, matrices, out=stacked)
    np.maximum.reduce(stacked, axis=1, out=out)


def _candidates(heads: np.ndarray, lengths: np.ndarray, parts: Sequence[Part]) -> np.ndarray:
    """The cells the guard-banded ``(max, +)`` stage of ``may_fire`` cannot rule out.

    ``heads`` is ``(K, N)``; each part folds its aggregates in where it
    is held (the front-top suffix, then the newest back prefix).  A
    cell is ruled out, authoritatively as in the scalar path, when its
    malicious score falls short of the best state's by more than the
    guard band; the others go on to the forward stage
    (``streaming.forward_stage``) once committed.
    """
    score = heads
    for held, agg_max in parts:
        scored = maxplus_vecmat_batch(score, agg_max)
        score = scored if held is None else np.where(held, scored, score)
    # Elementwise identical to may_fire().
    cannot_fire = score[_MALICIOUS] < np.maximum.reduce(score, axis=0) - _guard(lengths, score)
    return np.flatnonzero(~cannot_fire)


def _active(depth: np.ndarray) -> List[int]:
    """``active[q]``: how many of the deepest-first ``depth`` reach past depth ``q``."""
    depths = depth.tolist()
    count = len(depths)
    active = []
    for q in range(depths[0]):
        while depths[count - 1] <= q:
            count -= 1
        active.append(count)
    return active


class _SubBatch:
    """One sub-batch, interned and grouped into per-entity runs.

    The batch's entity and name columns are read once.  One dict lookup
    per alert numbers its entity in order of first sight; each entity's
    track and slot are looked up once, and one stable argsort over those numbers
    groups the alerts into runs (a sub-batch of distinct entities needs
    none).  Sorted alert ``k`` is row ``order[k]`` of the sub-batch,
    with interned symbol ``symbols[k]``; ``next_seed[k]`` is the first
    sorted alert at or after ``k`` whose symbol starts a pattern.  Run
    ``r`` is sorted alerts ``head[r] .. end[r] - 1`` of ``tracks[r]``,
    at slot ``slot[r]``; a pass moves ``head`` past the steps it took.
    A stale slot (restored or adopted) is rebuilt from its track's
    names here, first; no other track name is read or written (the
    slot's steps are the window, and a detection's alert index is its
    slot's length).  An alert is built only as a detection's trigger
    (:meth:`trigger`).
    """

    __slots__ = ("alerts", "order", "symbols", "seeding", "next_seed", "tracks", "slot", "head", "end")

    def __init__(self, kernel: "BatchedDecodeKernel", alerts: NormalizedBatch) -> None:
        tagger = kernel._tagger
        arena = tagger._arena
        self.alerts = alerts
        # One dict lookup per alert: its entity's index in order of first sight.
        entities: Dict[str, int] = {}
        seen = [entities.setdefault(entity, len(entities)) for entity in alerts.entities]
        tracks = tagger._tracks_for(entities)
        slots = np.array([track.slot for track in tracks], dtype=np.int64)
        get = arena.symbol_ids.get
        symbols = list(map(get, alerts.names))
        if None in symbols:
            symbols = list(map(arena.intern, alerts.names))
        n = len(symbols)
        if len(tracks) == n:
            # Every alert its own entity's run: no grouping to do.
            self.order = np.arange(n)
            self.slot, self.tracks = slots, tracks
            self.head, self.end = np.arange(n), np.arange(1, n + 1)
            self.symbols = np.array(symbols, dtype=np.int64)
        else:
            # Run r is the r-th entity seen, the one at slot ``slots[r]``.
            at = np.array(seen)
            self.order = order = np.argsort(at, kind="stable")
            counts = np.bincount(at)
            self.end = np.add.accumulate(counts)
            self.head = self.end - counts
            self.slot, self.tracks = slots, tracks
            self.symbols = np.array(symbols, dtype=np.int64)[order]
        self.seeding = seeding_of = arena.matches.seeding(self.symbols)
        # The first seeding symbol at or after each sorted alert, if any.
        self.next_seed: Optional[np.ndarray] = None
        if seeding_of.any():
            self.next_seed = np.minimum.accumulate(np.where(seeding_of, np.arange(n), n)[::-1])[::-1]
        table = arena.slots
        if table.stale.any():
            # Restored or adopted entities rebuild their decode state first.
            for r in np.flatnonzero(table.stale[self.slot]).tolist():
                tagger._sync(self.tracks[r])

    def trigger(self, k: int) -> Callable[[], "Alert"]:
        """What builds sorted alert ``k``, called only if it fires."""
        return partial(self.alerts.alert, int(self.order[k]))


class BatchedDecodeKernel:
    """Stacked sub-batch executor bound to one :class:`AttackTagger`."""

    __slots__ = ("_tagger", "rows_stacked", "rows_patterned", "rows_scalar")

    def __init__(self, tagger: "AttackTagger") -> None:
        self._tagger = tagger
        # Windowed steps advanced in chunks, by the pattern pass, and by
        # the per-entity path (window openings, segments too small to stack).
        self.rows_stacked = 0
        self.rows_patterned = 0
        self.rows_scalar = 0

    # -- entry point --------------------------------------------------------
    def observe(self, alerts: NormalizedBatch) -> List[Hit]:
        """Advance the tagger through one sub-batch of alerts.

        Returns ``(position, detection)`` pairs sorted by sub-batch
        position.  Per-entity state afterwards is bit-identical to
        feeding the same alerts through ``observe`` one at a time.
        """
        tagger = self._tagger
        started = time.perf_counter()
        hits: List[Hit] = []
        if len(alerts):
            batch = _SubBatch(self, alerts)
            runs = np.arange(len(batch.tracks))
            while runs.size:
                self._pass(batch, runs, hits)
                runs = np.flatnonzero(batch.head < batch.end)
        # Passes emit per entity; restore stream order.
        hits.sort(key=lambda item: item[0])
        tagger.kernel_seconds += time.perf_counter() - started
        return hits

    # -- one pass: the next stacked segment of every run ----------------------
    def _pass(self, batch: _SubBatch, runs: np.ndarray, hits: List[Hit]) -> None:
        """Advance every run to and through its next stacked segment.

        A run whose next step opens its window takes it through the
        per-entity path, and a windowed run whose next step touches
        pattern state takes its steps through the pattern pass, first;
        either is classified again, so every run still live brings a
        segment and the segments of a pass share their depth loops.
        """
        fill, reach, chunk, depth, opening, patterned = self._classify(batch, runs)
        while opening.size or patterned.size:
            left = np.concatenate((
                self._advance_scalar(batch, opening, hits),
                self._advance_patterned(batch, patterned, hits),
            ))  # fmt: skip
            if not left.size:
                break
            more = self._classify(batch, left)
            fill, reach, chunk, depth = (
                np.concatenate(pair) for pair in zip((fill, reach, chunk, depth), more)
            )
            opening, patterned = more[4:]
        if fill.size and int(reach.sum()) < _MIN_BATCH:
            self._advance_each(batch, fill, reach, False, hits)
        elif fill.size:
            self._advance_fill(batch, fill, reach, hits)
        if chunk.size and int(depth.sum()) < _MIN_BATCH:
            self._advance_each(batch, chunk, depth, True, hits)
        elif chunk.size:
            self._advance_chunks(batch, chunk, depth, hits)

    def _classify(self, batch: _SubBatch, runs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Split ``runs`` by their next segment: ``(fill, reach, chunk, depth, opening, patterned)``.

        A detected entity records nothing: the rest of its run is
        skipped here, whole.

        A filling slot brings ``reach`` filling steps: its plain steps
        (the slot pristine, the symbols ones no pattern starts with) up
        to the run's end and the step that would open its window, or
        the one step that touches pattern state.  A windowed row brings
        a chunk of ``depth`` plain steps: up to its next flip (the step
        that evicts the last front step, the head included), the run's
        end and a step that touches pattern state -- for a pristine
        slot the next symbol a pattern starts with, otherwise
        :func:`~repro.core.streaming.plain_depth`.  A window opening is
        ``opening``; a windowed row whose next step touches pattern
        state (a chunk of depth 0) is ``patterned``.
        """
        tagger = self._tagger
        arena = tagger._arena
        table = arena.slots
        window = tagger.max_window
        slot = batch.slot[runs]
        detected = table.detected[slot]
        if detected.any():
            batch.head[runs[detected]] = batch.end[runs[detected]]
            runs, slot = runs[~detected], slot[~detected]
        head, end = batch.head[runs], batch.end[runs]
        row, pristine = table.row[slot], table.match[slot] < 0
        plain_to = end if batch.next_seed is None else np.minimum(end, batch.next_seed[head])
        none = runs[:0]
        filling = row < 0
        if filling.all():
            length = table.length[slot]
            if not (length >= window).any():
                # Filling steps only (the churn shape).
                reach = np.maximum(np.minimum(plain_to - head, window - length), 1)
                if not pristine.all():
                    reach[~pristine] = 1
                return runs, reach, none, none, none, none
        if filling.any():
            length = table.length[slot]
            opening = filling & (length >= window)
            taking = np.flatnonzero(filling & ~opening)
            reach = np.minimum(plain_to[taking] - head[taking], window - length[taking])
            fill = runs[taking], np.where(pristine[taking], np.maximum(reach, 1), 1)
            windowed = np.flatnonzero(~filling)
            opening = runs[opening]
            if not windowed.size:
                return (*fill, none, none, opening, none)
            runs, slot, head, end, row = runs[windowed], slot[windowed], head[windowed], end[windowed], row[windowed]
            pristine, plain_to = pristine[windowed], plain_to[windowed]
        else:
            fill, opening = (none, none), none
        ahead = np.minimum(end - head, arena.boundary[row] - arena.start[row])
        ahead = np.minimum(ahead, window)
        depth = np.minimum(ahead, plain_to - head)
        if not pristine.all():
            k = np.flatnonzero(~pristine)
            offsets = np.arange(int(ahead[k].max()))
            within = offsets < ahead[k, None]
            at = np.where(within, head[k, None] + offsets, 0)
            symbols = np.where(within, batch.symbols[at], -1)
            depth[k] = plain_depth(arena, slot[k], row[k], symbols, ahead[k])
        plain = depth > 0
        if plain.all():
            return (*fill, runs, depth, opening, none)
        return (*fill, runs[plain], depth[plain], opening, runs[~plain])

    def _advance_scalar(self, batch: _SubBatch, runs: np.ndarray, hits: List[Hit]) -> np.ndarray:
        """Each run's next step, the one that opens its window, through
        the per-entity path.  Returns the runs with steps left that did
        not fire."""
        tagger = self._tagger
        left = []
        for r, k in zip(runs.tolist(), batch.head[runs].tolist()):
            detection = tagger._advance(batch.tracks[r], int(batch.symbols[k]), batch.trigger(k))
            batch.head[r] = k + 1
            if detection is not None:
                hits.append((batch.order[k].item(), detection))
            elif k + 1 < batch.end[r]:
                left.append(r)
        self.rows_scalar += runs.size
        return np.array(left, dtype=np.int64)

    def _advance_patterned(self, batch: _SubBatch, runs: np.ndarray, hits: List[Hit]) -> np.ndarray:
        """The pattern pass: windowed runs whose next step touches pattern
        state take their steps up to the last one that does (within
        ``_PATTERN_DEPTH``), all runs at once (see the module docstring).

        The matches before and after every step come from one
        :func:`~repro.core.streaming.match_windows` over each run's ring
        plus its next symbols; :class:`_PatternWindows` pre-filters the
        windows, and a window it cannot rule out is committed (rows,
        span, matches) and decided as in a chunk.  A run that does not
        fire commits its last window and is re-aggregated from scratch,
        which is what the per-alert path leaves after a step that
        touches pattern state (``streaming.slide``).
        Returns the runs with steps left that did not fire.
        """
        if not runs.size:
            return runs
        head = batch.head[runs]
        horizon = np.minimum(batch.end[runs] - head, _PATTERN_DEPTH)
        if int(horizon.sum()) < _MIN_BATCH:
            # Too few steps left to stack: each run's last ones, per alert.
            self._advance_each(batch, runs, horizon, True, hits)
            return runs[:0]
        tagger = self._tagger
        arena = tagger._arena
        width = tagger.max_window  # every window holds max_window steps
        slots = batch.slot[runs]
        rows = arena.slots.row[slots]
        reach = int(horizon.max())
        ahead = np.arange(reach) < horizon[:, None]
        start = arena.start[rows]
        queued = arena.symbols[arena.cells(rows[:, None], start[:, None] + np.arange(width))]
        upcoming = np.where(ahead, batch.symbols[np.where(ahead, head[:, None] + np.arange(reach), 0)], -1)
        sequence = np.concatenate((queued, upcoming), axis=1)
        # The matches of the window as it stands (0) and after each step (1 ..).
        matched, first, last = match_windows(arena.matches, sequence, np.arange(reach + 1), width)
        moved = (matched[:, 1:] != matched[:, :-1]) | (
            (matched[:, 1:] > 0) & ((first[:, 1:] != first[:, :-1]) | (last[:, 1:] != last[:, :-1]))
        )
        moved = moved.any(axis=2) & ahead
        # Each run's steps end with the last that moves a match (its first does).
        depth = reach - np.argmax(moved[:, ::-1], axis=1)
        # Window q of run i (after its step q < depth[i]) is pair j, and
        # ``sequence[i, q + 1 : q + 1 + width]``.
        owner = np.repeat(np.arange(runs.size), depth)
        level = np.arange(owner.size) - np.repeat(np.cumsum(depth) - depth, depth)
        after = (matched[:, 1:], first[:, 1:], last[:, 1:])
        window = _PatternWindows(arena, slots, rows, start, sequence, owner, level, *after)
        candidate = window.candidates(width)
        taken, fired = depth.copy(), np.zeros(runs.size, dtype=np.bool_)
        for i, q in zip(owner[candidate].tolist(), level[candidate].tolist()):
            if fired[i]:
                continue
            window.commit(np.array([i]), np.array([q]))
            k = int(head[i] + q)
            track = batch.tracks[runs[i]]
            if forward_stage(arena, rows[i : i + 1], tagger.detection_threshold)[0]:
                detection = tagger._finalize_decision(track, batch.trigger(k))
                if detection is not None:
                    hits.append((int(batch.order[k]), detection))
                    taken[i], fired[i] = q + 1, True
        live = np.flatnonzero(~fired)
        if live.size:
            window.commit(live, depth[live] - 1)
            arena.rebuild(rows[live], arena.parameters.transition_log)
        batch.head[runs] += taken
        self.rows_patterned += int(taken.sum())
        return runs[live[head[live] + depth[live] < batch.end[runs[live]]]]

    def _advance_each(
        self, batch: _SubBatch, runs: np.ndarray, steps: np.ndarray, sliding: bool, hits: List[Hit]
    ) -> None:
        """Segments too small to stack (filling runs, or windowed chunks
        when ``sliding``, which the ``rows_scalar`` count takes): every
        step through the per-entity path."""
        advance = self._tagger._advance
        symbols = batch.symbols
        for r, count in zip(runs.tolist(), steps.tolist()):
            track = batch.tracks[r]
            low = int(batch.head[r])
            for k in range(low, low + count):
                if (detection := advance(track, int(symbols[k]), batch.trigger(k))) is not None:
                    hits.append((int(batch.order[k]), detection))
                    break
        batch.head[runs] += steps
        if sliding:
            self.rows_scalar += int(steps.sum())

    # -- filling phase: runs of steps in fill-storage cells --------------------
    def _advance_fill(self, batch: _SubBatch, runs: np.ndarray, reach: np.ndarray, hits: List[Hit]) -> None:
        """Append ``reach[i]`` alerts to every window-filling run ``runs[i]``, then decide them.

        Plain steps (every step of a run that reaches past one) are
        bookkeeping of one :meth:`WindowArena.store_fills` and one
        length write.  A step that touches pattern state goes through
        ``streaming.append_plan``; one that relocates a bonus
        invalidates history (the per-entity ``streaming.complete_append``).
        Every other step is a
        cell of a block laid out depth-major, deepest run first, and the
        recursions advance one stacked step per depth (see the module
        docstring).  Fill storage only ever grows, so every cell is then
        decided at once; a run that fires before its last step gives
        the later ones back first, so the decision sees exactly its
        state after the trigger.
        """
        tagger = self._tagger
        arena = tagger._arena
        store, table = arena.fill, arena.slots
        if reach.size > 1 and reach.max() > 1:
            deepest = np.argsort(-reach, kind="stable")
            runs, reach = runs[deepest], reach[deepest]
        slot, head = batch.slot[runs], batch.head[runs]
        active = _active(reach)
        bounds = list(accumulate(active, initial=0))
        start = table.length[slot]
        if len(active) == 1:
            # One step a run: cell i is run i's.
            level, col = None, None
            steps, symbols = start, batch.symbols[head]
        else:
            level = np.repeat(np.arange(len(active)), active)
            col = np.arange(bounds[-1]) - np.array(bounds)[level]
            steps = start[col] + level
            symbols = batch.symbols[head[col] + level]
        # A run reaching past one step is plain; a one-step run is plain
        # unless its slot has left the seed or its symbol starts a pattern.
        plain = (table.match[slot] < 0) & ~batch.seeding[head]
        block = None  # every cell is stacked
        bonus: List[Tuple[int, np.ndarray]] = []
        cell_slots = slot if col is None else slot[col]
        if plain.all():
            cells = arena.store_fills(cell_slots, steps, symbols)
            table.length[slot] = start + reach
        else:
            block = np.ones(bounds[-1], dtype=np.bool_)
            cells = np.empty(bounds[-1], dtype=np.int64)
            vector = plain if col is None else plain[col]
            cells[vector] = arena.store_fills(cell_slots[vector], steps[vector], symbols[vector])
            table.length[slot[plain]] = (start + reach)[plain]
            # Depth 0 holds run i's first step at cell i.
            for i in np.flatnonzero(~plain).tolist():
                s = int(slot[i])
                step, dirty, invalid_from, ends = streaming.append_plan(arena, s, int(batch.symbols[head[i]]))
                cells[i] = table.cells(s, step)
                if invalid_from != step:
                    streaming.complete_append(arena, s, step, dirty, invalid_from)
                    block[i] = False
                elif ends:
                    bonus.append((i, streaming.effective_row(arena, s, step)))
        unary = arena.observations[symbols]
        first = steps == 0
        if first.any():
            unary[first] += arena.parameters.initial_log
        for i, row in bonus:
            unary[i] = row
        self._fill_recursions(arena, slot, steps, cells, unary, first, block, active, bounds)
        taken = reach.copy()
        self._decide_fill(batch, runs, head, start, col, level, cells, taken, hits)
        batch.head[runs] += taken

    def _fill_recursions(
        self,
        arena: WindowArena,
        slot: np.ndarray,
        steps: np.ndarray,
        cells: np.ndarray,
        unary: np.ndarray,
        first: np.ndarray,
        block: Optional[np.ndarray],
        active: List[int],
        bounds: List[int],
    ) -> None:
        """Store the block's unary rows and advance its Viterbi and forward
        recursions one depth at a time: depth 0 from each slot's previous
        cell (or the prior at step 0), depth ``q`` from depth ``q - 1``."""
        store = arena.fill
        n = active[0]
        top = first[:n]
        if block is None:
            store.unary[cells] = unary
        else:
            store.unary[cells[block]] = unary[block]
            top = top & block[:n]
        if block is None and not top.any():
            before = arena.slots.previous(slot, steps[:n], cells[:n])
            self._extend_fill(arena, cells[:n], before, unary[:n])
        elif top.all():
            self._start_fill(store, cells[:n], unary[:n])
        else:
            starting = np.flatnonzero(top)
            ext = np.flatnonzero(~first[:n] if block is None else ~first[:n] & block[:n])
            self._start_fill(store, cells[starting], unary[starting])
            before = arena.slots.previous(slot[ext], steps[ext], cells[ext])
            self._extend_fill(arena, cells[ext], before, unary[ext])
        for q in range(1, len(active)):
            low, count = bounds[q], active[q]
            previous = cells[bounds[q - 1] : bounds[q - 1] + count]
            self._extend_fill(arena, cells[low : low + count], previous, unary[low : low + count])

    @staticmethod
    def _start_fill(store: FillPages, cells: np.ndarray, unary: np.ndarray) -> None:
        """Stacked ``t == 0`` branch of ``streaming.recompute_forward`` for new
        entities' first alerts: ``score = unary`` and
        ``alpha = normalise(unary)`` in one normalisation for all."""
        unary_0 = unary.T
        alpha_0 = unary_0 - _logsumexp(unary_0, axis=0, keepdims=True)
        store.score[cells] = unary
        store.alpha[cells] = alpha_0.T

    @staticmethod
    def _extend_fill(arena: WindowArena, cells: np.ndarray, before: np.ndarray, unary: np.ndarray) -> None:
        """One stacked Viterbi + forward step for window-filling entities.

        Replays one iteration of ``streaming.recompute_forward``
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

    def _decide_fill(
        self,
        batch: _SubBatch,
        runs: np.ndarray,
        head: np.ndarray,
        start: np.ndarray,
        col: Optional[np.ndarray],
        level: Optional[np.ndarray],
        cells: np.ndarray,
        taken: np.ndarray,
        hits: List[Hit],
    ) -> None:
        """Stacked threshold decisions for window-filling steps.

        Replays the per-alert read-out (``streaming.decode``: the argmax
        of the Viterbi score, the marginal from the normalised forward
        message) across the stack of every cell; only a run's first
        firing step pays for the exact per-entity materialisation, with
        the run cut back to it (``taken``).
        """
        tagger = self._tagger
        arena = tagger._arena
        store = arena.fill
        score = store.score[cells].T
        alpha = store.alpha[cells].T
        final_state = np.argmax(score, axis=0)
        marginal = np.exp(alpha[_MALICIOUS] - _logsumexp(alpha, axis=0))
        # ~(p < threshold), not (p >= threshold): a NaN posterior (hard
        # zeros in user parameters) fails the scalar path's `<` test and
        # therefore fires there — keep the stacked mask a faithful
        # replay, and let _finalize_decision re-decide exactly.
        fire = np.flatnonzero((final_state == _MALICIOUS) & ~(marginal < tagger.detection_threshold))
        if not fire.size:
            return
        # Cells are depth-major, so a run's first firing cell is its earliest.
        first: Dict[int, int] = {}
        if col is None:
            first = dict.fromkeys(fire.tolist(), 0)
        else:
            for i, q in zip(col[fire].tolist(), level[fire].tolist()):
                first.setdefault(i, q)
        for i, q in first.items():
            if q + 1 < taken[i]:
                arena.truncate(int(batch.slot[runs[i]]), int(start[i]) + q + 1)
                taken[i] = q + 1
            track, k = batch.tracks[runs[i]], int(head[i]) + q
            detection = tagger._finalize_decision(track, batch.trigger(k))
            if detection is not None:
                hits.append((int(batch.order[k]), detection))

    # -- windowed phase: chunks of plain steps, as arena arithmetic ------------
    def _advance_chunks(self, batch: _SubBatch, runs: np.ndarray, depth: np.ndarray, hits: List[Hit]) -> None:
        """Advance every chunk of a pass through its depths.

        Scratch first (:class:`_ChunkPass`); then every chunk is
        committed up to its next candidate cell, forward-tested there
        (one ``forward_stage`` per commit, over the rows it stopped) and,
        if that cannot rule it out, decided exactly, until it fires or
        runs out of depths.
        """
        tagger = self._tagger
        arena = tagger._arena
        threshold = tagger.detection_threshold
        # Deepest first: the rows active at a depth are a prefix.
        if depth.size > 1 and depth.max() > 1:
            deepest = np.argsort(-depth, kind="stable")
            runs, depth = runs[deepest], depth[deepest]
        head = batch.head[runs]
        active = _active(depth)
        slots = batch.slot[runs]
        rows = arena.slots.row[slots]
        scratch = _ChunkPass(arena, rows, depth, active, batch.symbols, head, slots)
        # Each chunk's candidate depths, ascending (cells are depth-major).
        waiting: Dict[int, List[int]] = {}
        for cell in scratch.candidates().tolist():
            waiting.setdefault(int(scratch.col[cell]), []).append(int(scratch.level[cell]))
        done = np.zeros(runs.size, dtype=np.int64)
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
                # A chunk's last step is score-tested from the committed row.
                found = _row_candidates(arena, rows[ended])
                decide.extend(ended[found].tolist())
            if decide:
                # Every row to decide is committed through its candidate step.
                decide = np.array(decide)[forward_stage(arena, rows[decide], threshold)].tolist()
            for i in decide:
                k = int(head[i] + stop[i]) - 1
                track = batch.tracks[runs[i]]
                detection = tagger._finalize_decision(track, batch.trigger(k))
                if detection is not None:
                    hits.append((int(batch.order[k]), detection))
                    if target is depth:
                        target = depth.copy()
                    target[i] = stop[i]
                    waiting.pop(i, None)
            if not short:
                break
            done, whole = stop, False
        self.rows_stacked += int(target.sum())
        batch.head[runs] += depth


def _row_candidates(arena: WindowArena, rows: np.ndarray) -> np.ndarray:
    """:func:`_candidates` of arena rows as committed."""
    start, boundary, end = arena.start[rows], arena.boundary[rows], arena.end[rows]
    parts = [
        (held, arena.agg_max[:, :, arena.cells(rows, steps)])
        for held, steps in ((start + 1 < boundary, start + 1), (boundary < end, end - 1))
    ]
    return _candidates(arena.unary[arena.cells(rows, start)].T, end - start, parts)


def _window_rows(arena: WindowArena, windows: np.ndarray, matched: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Effective unary rows ``(n, width, K)`` of ``n`` windows of symbols
    ``windows`` ``(n, width)``: observation rows, the prior on the head,
    and the bonus of every match (``matched``, ending at window position
    ``ends``, ``(n, P)`` each) summed in catalogue order, as
    :func:`~repro.core.streaming.effective_rows` sums them."""
    unary = arena.observations[windows]
    unary[:, 0] += arena.parameters.initial_log
    j, p = np.nonzero(matched > 0)
    if j.size:
        bonus = arena.matches.bonus[p, matched[j, p]]
        cell = j * windows.shape[1] + ends[j, p]
        order = np.argsort(cell, kind="stable")  # catalogue order within a cell
        cell, bonus = cell[order], bonus[order]
        rank = np.arange(cell.size) - np.searchsorted(cell, cell)
        flat = unary.reshape(-1, _K)
        for k in range(int(rank.max()) + 1):
            pick = np.flatnonzero((rank == k) & (bonus > 0.0))
            flat[cell[pick], _MALICIOUS] += bonus[pick]
    return unary


class _PatternWindows:
    """The pattern pass's windows in scratch: pre-filtered, then committed
    a run at a time.

    Window ``j`` is run ``owner[j]``'s after its step ``level[j]``:
    symbols ``sequence[owner, level + 1 :][:width]``, matches
    ``matched/first/last[owner, level]`` (positions in ``sequence``,
    which starts at the run's old window start).
    """

    __slots__ = ("arena", "slots", "rows", "start", "sequence", "owner", "level", "matched", "first", "last")

    def __init__(self, arena, slots, rows, start, sequence, owner, level, matched, first, last) -> None:
        self.arena, self.slots, self.rows, self.start = arena, slots, rows, start
        self.sequence, self.owner, self.level = sequence, owner, level
        self.matched, self.first, self.last = matched[owner, level], first[owner, level], last[owner, level]

    def _windows(self, pick: np.ndarray, width: int) -> np.ndarray:
        """The symbols ``(n, width)`` of windows ``pick``."""
        return self.sequence[self.owner[pick, None], self.level[pick, None] + 1 + np.arange(width)]

    def _rows(self, pick: np.ndarray, width: int) -> np.ndarray:
        """The effective rows ``(n, width, K)`` of windows ``pick``."""
        ends = self.last[pick] - self.level[pick, None] - 1
        return _window_rows(self.arena, self._windows(pick, width), self.matched[pick], ends)

    def candidates(self, width: int) -> np.ndarray:
        """The windows the guard-banded ``(max, +)`` score test cannot rule out.

        Bonuses only raise the malicious state's unary, so a window's
        score lies between its score without them and that plus their
        sum: the bonus-free scores -- a sparse table of products of
        observation-only step matrices over each run's sequence, a
        window being the same popcount(width - 1) of its blocks -- rule
        most windows out for the price of a few stacked products.  The
        rest are scored as they are, one product tree each.
        """
        arena = self.arena
        parameters = arena.parameters
        pairwise = parameters.transition_log
        runs, length = self.sequence.shape
        # blocks[k][:, :, position, run]: the product of 2**k steps from there.
        blocks = [pairwise[:, :, None, None] + arena.observations[self.sequence].transpose(2, 1, 0)[None]]
        while 2 ** len(blocks) < width:
            block, span = blocks[-1], 2 ** (len(blocks) - 1)
            blocks.append(maxplus_matmul_batch(block[:, :, :-span], block[:, :, span:]))
        low = self.level + 2  # the window's first step past the head
        product = None
        for k in range(len(blocks) - 1, -1, -1):
            if (width - 1) >> k & 1:
                factor = blocks[k][:, :, low, self.owner]
                product = factor if product is None else maxplus_matmul_batch(product, factor)
                low = low + 2**k
        heads = arena.observations[self.sequence[self.owner, self.level + 1]].T + parameters.initial_log[:, None]
        score = maxplus_vecmat_batch(heads, product)
        bonus = arena.matches.bonus[np.arange(self.matched.shape[1]), self.matched].sum(axis=1)
        lengths = np.full(score.shape[1], width)
        guard = _guard(lengths, np.abs(score) + bonus)
        # Negated as in _candidates: a NaN score cannot rule a window out.
        found = np.flatnonzero(~(score[_MALICIOUS] + bonus < np.maximum.reduce(score, axis=0) - guard))
        if not found.size:
            return found
        unary = self._rows(found, width)
        stack = pairwise[:, :, None, None] + unary[:, 1:].transpose(2, 1, 0)[None]
        score = maxplus_vecmat_batch(unary[:, 0].T, tree(stack, maxplus_matmul_batch))
        lengths = lengths[: found.size]
        return found[~(score[_MALICIOUS] < np.maximum.reduce(score, axis=0) - _guard(lengths, score))]

    def commit(self, runs: np.ndarray, depths: np.ndarray) -> None:
        """Leave run ``runs[j]``'s arena row and matches as after its step ``depths[j]``."""
        arena = self.arena
        width = arena.ring - 1
        pick = np.searchsorted(self.owner, runs) + depths
        rows, low = self.rows[runs], self.start[runs] + depths + 1
        cells = arena.cells(rows[:, None], low[:, None] + np.arange(width))
        arena.symbols[cells] = self._windows(pick, width)
        arena.unary[cells] = self._rows(pick, width)
        arena.start[rows], arena.end[rows] = low, low + width
        # A position in the pass's sequence counts steps from the old start.
        origin = self.start[runs][:, None]
        table, matches = arena.slots, arena.matches
        slots = self.slots[runs]
        matched = self.matched[pick]
        held = matched.any(axis=1)
        match = table.match[slots]
        opening = np.flatnonzero(held & (match < 0))
        if opening.size:
            match[opening] = table.match[slots[opening]] = matches.allocate(opening.size)
        closing = np.flatnonzero(~held & (match >= 0))
        if closing.size:
            matches.release(match[closing].tolist())
            table.match[slots[closing]] = -1
        keep = np.flatnonzero(held)
        if keep.size:
            at = match[keep]
            matches.matched[at] = matched[keep]
            matches.first[at] = self.first[pick[keep]] + origin[keep]
            matches.last[at] = self.last[pick[keep]] + origin[keep]


class _ChunkPass:
    """One pass's chunks in scratch -- back prefixes and score test -- then commits.

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
        head: np.ndarray,
        slots: np.ndarray,
    ) -> None:
        self.arena, self.rows, self.depth = arena, rows, depth
        parameters = arena.parameters
        self.pairwise = parameters.transition_log
        self.start, self.boundary, self.end = arena.start[rows], arena.boundary[rows], arena.end[rows]
        # A chunk whose last step exhausts the front flips there.
        self.flips = depth == self.boundary - self.start
        self.active = active
        self.bounds = list(accumulate(active, initial=0))
        # Each cell's depth, and its chunk's row and geometry; chunk i's
        # step at depth q is ``symbols[head[i] + q]``.
        if len(active) == 1:
            level, row_c, start_c, end_c, slot_c = 0, rows, self.start, self.end, slots  # cell k is chunk k
            self.symbols = symbols[head]
        else:
            level, col = self.level, self.col
            row_c, start_c, end_c, slot_c = rows[col], self.start[col], self.end[col], slots[col]
            self.symbols = symbols[head[col] + level]
        self.unary = unary = arena.observations[self.symbols]
        self.row_c = row_c
        self.prefix = self._prefixes()
        # The cell each step lands in, and the head after its eviction,
        # whose row gains the prior.
        self.cells = arena.cells(row_c, end_c + level)
        self.head = head = start_c + level + 1
        self.head_cells = arena.cells(row_c, head)
        head_symbols = arena.symbols[self.head_cells]
        if len(active) > 1:
            # At a flip, the new head can be a step of this very chunk
            # (never at depth 0: a window holds two steps at least).
            fresh = np.flatnonzero(head >= end_c)
            head_symbols[fresh] = self.symbols[self.offsets[(head - end_c)[fresh]] + self.col[fresh]]
        self.heads = arena.observations[head_symbols] + parameters.initial_log
        # A slot with matches may have bonuses ending on a head (matches
        # start no later, so none is evicted in the chunk).
        held = np.flatnonzero(arena.slots.match[slot_c] >= 0)
        if held.size:
            self.heads[held] = effective_rows(
                arena, slot_c[held], head_symbols[held], head[held], np.ones(held.size, dtype=np.bool_)
            )

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

    def _prefixes(self) -> np.ndarray:
        """The newest back prefix after every cell's push, ``(K, K, cells)``."""
        arena, active, bounds, n = self.arena, self.active, self.bounds, self.active[0]
        matrices = self.pairwise[:, :, None] + self.unary.T[None, :, :]
        prefix = np.empty_like(matrices)
        prefix[:, :, :n] = arena.agg_max[:, :, arena.cells(self.rows, self.end - 1)]
        # Broadcast-ready views, and scratch for the widest depth.
        previous, step = prefix[:, :, None, :], matrices[None]
        stacked = np.empty((_K, _K, _K, n))
        _push(previous[..., :n], step[..., :n], prefix[..., :n], stacked)
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
            )
        return prefix

    def candidates(self) -> np.ndarray:
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
        front = arena.agg_max[:, :, arena.cells(self.row_c, self.head + 1)]
        parts = ((self.head + 1 < self.boundary[col], front), (None, self.prefix))
        found = _candidates(self.heads.T, (self.end - self.start)[col], parts)
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
        arena.agg_max[:, :, cells] = self.prefix[:, :, selected]
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


__all__ = ["BatchedDecodeKernel"]
