"""Differential suite for the stacked cross-entity decode kernel.

``AttackTagger(engine="streaming")`` runs every sub-batch through
``core/batch_kernel.py``.  That must be a pure performance
optimisation: for every stream, every sub-batch shape, and every window
size, three drives of the same stream must agree --

* the **batch API** (``observe_batch_indexed`` in chunks: the stacked
  kernel, with its per-entity fallback for passes below ``_MIN_BATCH``),
* a **per-alert** ``observe()`` loop on the same engine, and
* the ``engine="naive"`` executable spec --

on every detection (trigger position, state, confidence, matched
patterns, trajectory), and the two ``streaming`` drives must leave every
slot's logical state (unary tables, window names, bonuses, window span)
bitwise identical.  The window *aggregates* are exempt from bitwise
comparison with ``naive`` (it has none): the scans reassociate floating
point relative to the sequential recursion -- by design, the aggregates
only feed the guard-banded ``may_fire`` pre-filter, and every firing
decision is re-derived from the exact window decode (see the
``sliding_window`` module docstring).  Between the two ``streaming``
drives they *are* pinned: a row's aggregates (its whole dense state)
are the same whether the per-entity path advanced it or the kernel
advanced it next to a round of others, at whatever row index.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger, batch_kernel, sliding_window, streaming
from repro.core.alerts import Alert, AttackStage, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.batch_kernel import _MIN_BATCH, BatchedDecodeKernel
from repro.core.factors import FactorParameters
from repro.core.sliding_window import _MIN_SCAN, _PAGE, WindowArena
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed.pipeline import DETERMINISTIC_COUNTERS, TestbedPipeline
from repro.testbed.sharding import ShardedDetectorPool

from test_sliding_window import assert_same_window, window_of
from test_window_arena import _assert_rows_accounted

ALL_NAMES = [spec.name for spec in DEFAULT_VOCABULARY]
BENIGN_NAMES = [
    spec.name
    for spec in DEFAULT_VOCABULARY
    if spec.stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE)
]

#: Entities mixing ASCII, unicode, and separator-bearing names.
ENTITIES = ["host:α-web", "サーバ:db", "host:c", "10.0.0.7", "host:e"]


def _tagger(engine="streaming", max_window=8, **kwargs):
    kwargs.setdefault("patterns", list(DEFAULT_CATALOGUE))
    return AttackTagger(max_window=max_window, engine=engine, **kwargs)


def _random_stream(rng, length, entities=ENTITIES, names=ALL_NAMES):
    return [
        Alert(
            float(i),
            names[rng.integers(len(names))],
            entities[rng.integers(len(entities))],
        )
        for i in range(length)
    ]


def _detection_key(detection):
    return (
        detection.entity,
        detection.alert_index,
        detection.timestamp,
        detection.state,
        detection.confidence,
        detection.matched_patterns,
        detection.state_trajectory,
    )


def _drive_batched(tagger, stream, chunk):
    hits = []
    for base in range(0, len(stream), chunk):
        sub = stream[base : base + chunk]
        for position, detection in tagger.observe_batch_indexed(sub):
            hits.append((base + position, _detection_key(detection)))
    return hits


def _drive_scalar(tagger, stream):
    hits = []
    for position, alert in enumerate(stream):
        detection = tagger.observe(alert)
        if detection is not None:
            hits.append((position, _detection_key(detection)))
    return hits


def _window_names(tagger, entity):
    """The entity's window of names as a migration carries it (empty if
    it is not tracked)."""
    track = tagger.export_entity_tracks().get(entity)
    return [] if track is None else list(track.names)


def _sent_until_detected(stream, track, max_window):
    """The window a detected entity's track holds: the names it sent up
    to and including its trigger, the newest ``max_window``."""
    cut = track.detected.timestamp
    return [a.name for a in stream if a.entity == track.entity and a.timestamp <= cut][-max_window:]


def _assert_same_logical_state(reference, batched, entities):
    """Slot state equal where bit-identity is promised."""
    for entity in entities:
        track_r, track_b = reference.track(entity), batched.track(entity)
        assert _window_names(reference, entity) == _window_names(batched, entity)
        assert (track_r.detected is None) == (track_b.detected is None)
        if track_r.detected is not None:
            assert _detection_key(track_r.detected) == _detection_key(track_b.detected)
            continue
        states_r, marginal_r, matched_r = reference.infer(entity)
        states_b, marginal_b, matched_b = batched.infer(entity)
        assert np.array_equal(states_r, states_b)
        assert np.array_equal(marginal_r, marginal_b)
        assert matched_r == matched_b
        arena_r, arena_b = reference._arena, batched._arena
        windowed = arena_r.slots.row[track_r.slot] >= 0
        assert windowed == (arena_b.slots.row[track_b.slot] >= 0)
        assert streaming.length(arena_r, track_r.slot) == streaming.length(arena_b, track_b.slot)
        assert _match_state(reference, track_r) == _match_state(batched, track_b)
        if windowed:
            # Same absolute steps, names, observation rows, unary rows and
            # aggregates, whoever advanced the row and wherever in its
            # arena it lives.
            assert_same_window(window_of(reference, entity), window_of(batched, entity))
        else:
            # Same fill-storage steps (names and the recursions included),
            # whichever pages hold them.
            cells_r, cells_b = arena_r.slots.cells_of(track_r.slot), arena_b.slots.cells_of(track_b.slot)
            names_r = [arena_r.symbol_names[symbol] for symbol in arena_r.fill.symbols[cells_r].tolist()]
            assert names_r == [arena_b.symbol_names[symbol] for symbol in arena_b.fill.symbols[cells_b].tolist()]
            for block in ("unary", "score", "alpha"):
                assert np.array_equal(
                    getattr(reference._arena.fill, block)[cells_r],
                    getattr(batched._arena.fill, block)[cells_b],
                )


def _match_state(tagger, track):
    """A slot's pattern arrays, where a pattern is matched: ``(matched,
    first, last)`` per pattern (``None`` for steps of unmatched ones)."""
    arena = tagger._arena
    match = int(arena.slots.match[track.slot])
    if match < 0:
        return None
    matches = arena.matches
    matched = matches.matched[match].tolist()
    return (
        matched,
        [f if m else None for m, f in zip(matched, matches.first[match].tolist())],
        [f if m else None for m, f in zip(matched, matches.last[match].tolist())],
    )


def _assert_matches_spec(naive, tagger, entities):
    """Every read-out of a streaming tagger equals the naive re-decode."""
    for entity in entities:
        assert _window_names(naive, entity) == _window_names(tagger, entity)
        states_n, marginal_n, matched_n = naive.infer(entity)
        states_t, marginal_t, matched_t = tagger.infer(entity)
        assert np.array_equal(states_n, states_t)
        assert np.array_equal(marginal_n, marginal_t)
        assert matched_n == matched_t


def _three_way(stream, chunk, entities, **tagger_kwargs):
    """Drive batch API, per-alert loop and naive; assert they agree.

    Returns ``(hits, batched, scalar, naive)`` for further probing.
    """
    batched = _tagger(**tagger_kwargs)
    scalar = _tagger(**tagger_kwargs)
    naive = _tagger("naive", **tagger_kwargs)
    hits = _drive_batched(batched, stream, chunk)
    assert hits == _drive_scalar(scalar, stream)
    assert hits == _drive_scalar(naive, stream)
    _assert_same_logical_state(scalar, batched, entities)
    _assert_matches_spec(naive, batched, entities)
    return hits, batched, scalar, naive


class _DispatchCounter:
    """Alerts per pass on each side of the kernel's size-based selection.

    ``stacked`` holds, per pass that stacked, its filling steps plus chunk
    steps; ``each`` the same count for passes too small to stack, and
    ``sliding`` the windowed steps among them.
    """

    def __init__(self, monkeypatch):
        self.stacked = []
        self.each = []
        self.sliding = []
        current = []
        run_pass = BatchedDecodeKernel._pass
        advance_fill = BatchedDecodeKernel._advance_fill
        advance_chunks = BatchedDecodeKernel._advance_chunks
        advance_each = BatchedDecodeKernel._advance_each

        def counted_pass(kernel, batch, runs, hits):
            current.clear()
            run_pass(kernel, batch, runs, hits)
            if current:
                self.stacked.append(sum(current))

        def counted_fill(kernel, batch, runs, reach, hits):
            current.append(int(reach.sum()))
            return advance_fill(kernel, batch, runs, reach, hits)

        def counted_chunks(kernel, batch, runs, depth, hits):
            current.append(int(depth.sum()))
            return advance_chunks(kernel, batch, runs, depth, hits)

        def counted_each(kernel, batch, runs, steps, sliding, hits):
            self.each.append(int(steps.sum()))
            self.sliding.append(int(steps.sum()) if sliding else 0)
            return advance_each(kernel, batch, runs, steps, sliding, hits)

        monkeypatch.setattr(BatchedDecodeKernel, "_pass", counted_pass)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_fill", counted_fill)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_chunks", counted_chunks)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_each", counted_each)


class TestBatchedEngineEquivalence:
    @pytest.mark.parametrize("max_window", [2, 3, 5, 8, 64])
    def test_bit_identical_detections_across_windows(self, max_window):
        rng = np.random.default_rng(max_window)
        stream = _random_stream(rng, 8 * max_window + 11)
        _three_way(stream, 32, ENTITIES, max_window=max_window)

    @pytest.mark.parametrize("chunk", [1, 3, 17, 64])
    def test_sub_batch_shape_is_invisible(self, chunk):
        """Ragged chunking (duplicate entities per call) never shows."""
        rng = np.random.default_rng(chunk)
        stream = _random_stream(rng, 150, entities=ENTITIES[:3])
        _three_way(stream, chunk, ENTITIES[:3])

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        stream = _random_stream(rng, 90)
        hits, _, _, _ = _three_way(stream, 16, ENTITIES)
        assert hits  # the stream must actually fire detections

    def test_ragged_rounds_and_rounds_below_min_batch(self, monkeypatch):
        """Both sides of ``_MIN_BATCH``, in one sub-batch and across them.

        Six entities with skewed volumes: the first pass of a sub-batch
        stacks all six, later passes thin out to the heavy hitters' runs
        and, once fewer than ``_MIN_BATCH`` steps are left to stack, take
        the per-entity fallback.
        """
        rng = np.random.default_rng(17)
        entities = [f"skew:{i}" for i in range(6)]
        weights = np.array([8, 6, 3, 1, 1, 1], dtype=float)
        picks = rng.choice(len(entities), size=400, p=weights / weights.sum())
        stream = [
            Alert(float(i), BENIGN_NAMES[rng.integers(len(BENIGN_NAMES))], entities[e])
            for i, e in enumerate(picks)
        ]
        # A tail that only the two heavy hitters appear in.
        stream += [
            Alert(400.0 + i, BENIGN_NAMES[i % len(BENIGN_NAMES)], entities[i % 2])
            for i in range(40)
        ]
        batched = _tagger()
        counter = _DispatchCounter(monkeypatch)
        hits = _drive_batched(batched, stream, 40)
        assert counter.stacked and counter.each  # both sides ran
        assert min(counter.stacked) >= _MIN_BATCH > max(counter.each)
        kernel = batched._batch_kernel
        # Every alert is counted once: stacked or not, a window opening or
        # a pattern-pass step (the kernel counts a per-alert windowed step
        # as scalar too).
        counted = kernel.rows_scalar + kernel.rows_patterned - sum(counter.sliding)
        assert sum(counter.stacked) + sum(counter.each) + counted == len(stream)
        scalar, naive = _tagger(), _tagger("naive")
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream)
        _assert_same_logical_state(scalar, batched, entities)
        _assert_matches_spec(naive, batched, entities)

    def test_sub_batch_below_min_batch_never_stacks(self, monkeypatch):
        rng = np.random.default_rng(19)
        entities = ENTITIES[: _MIN_BATCH - 1]
        stream = _random_stream(rng, 120, entities=entities)
        batched = _tagger()
        counter = _DispatchCounter(monkeypatch)
        hits = _drive_batched(batched, stream, _MIN_BATCH - 1)
        assert counter.stacked == [] and counter.each
        assert batched.kernel_seconds > 0.0  # still attributed to the kernel
        naive = _tagger("naive")
        assert hits == _drive_scalar(naive, stream)
        _assert_matches_spec(naive, batched, entities)

    @pytest.mark.parametrize("max_window", [_MIN_SCAN - 2, 3 * _MIN_SCAN])
    def test_window_slide_with_bonus_relocation(self, max_window, monkeypatch):
        """Pattern bonuses relocate inside saturated, sliding windows.

        Two-symbol patterns over a small symbol pool keep partial
        matches advancing (the bonus moves off an older queued step)
        and their first matched steps evicting (rescans relocating
        bonuses again) while every window slides, so windows are
        re-aggregated after such steps; windows straddle ``_MIN_SCAN``
        so the rebuilds and flips refold both sequentially and through
        the scan.
        """
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
            PatternSpec(name="P2", names=(x, z)),
        ]
        pool = [x, y, z] + ["alert_login_normal"] * 5
        rng = np.random.default_rng(max_window)
        entities = [f"slide:{i}" for i in range(2 * _MIN_BATCH)]
        stream = [
            Alert(float(i), pool[rng.integers(len(pool))], entities[i % len(entities)])
            for i in range(len(entities) * 6 * max_window)
        ]
        patched = []
        rebuild = WindowArena.rebuild

        def counted_rebuild(arena, rows, pairwise):
            # Past its first eviction: a pattern step, not a window opening.
            patched.append(bool((arena.start[rows] > 1).any()))
            return rebuild(arena, rows, pairwise)

        monkeypatch.setattr(WindowArena, "rebuild", counted_rebuild)
        hits, batched, _, _ = _three_way(
            stream,
            4 * len(entities),
            entities,
            max_window=max_window,
            patterns=patterns,
            detection_threshold=0.999,
        )
        assert hits == []  # every entity stays live, so every window slides
        assert any(patched)  # windows really were re-aggregated after pattern steps
        assert all(batched._arena.slots.row[batched.track(e).slot] >= 0 for e in entities)

    def test_round_mixing_flip_phases_and_relocations(self, monkeypatch):
        """One pass holds every window shape the stacked push, the group
        flip and the masked pre-filter fold branch on.

        A staggering pre-roll spreads the flip phases, so each pass over
        48 entities has windows with an empty front (they flip this
        pass, together), windows with an empty back (they flipped last
        pass: plain ``push``), and windows with both stacks populated
        that do not flip; the symbol pool keeps pattern bonuses
        relocating, some of them inside a window that flips in the same
        pass.
        """
        max_window = 3 * _MIN_SCAN
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
            PatternSpec(name="P2", names=(x, z)),
        ]
        pool = [x, y, z] + ["alert_login_normal"] * 24
        rng = np.random.default_rng(29)
        entities = [f"phase:{i}" for i in range(2 * max_window)]
        visits = [
            i
            for extra in range(max_window - 1)
            for i in range(len(entities))
            if i % max_window > extra
        ] + list(range(len(entities))) * (2 * max_window)
        stream = [
            Alert(float(t), pool[rng.integers(len(pool))], entities[i])
            for t, i in enumerate(visits)
        ]
        kwargs = dict(max_window=max_window, patterns=patterns, detection_threshold=0.999)

        shapes, flips, patched = [], [], set()
        chunk_pass = batch_kernel._ChunkPass.__init__
        rebuild = WindowArena.rebuild
        flip_together = WindowArena.flip_together

        def counted_pass(scratch, arena, rows, *args):
            start, boundary, end = arena.start[rows], arena.boundary[rows], arena.end[rows]
            shapes.append(set(zip((start + 1 < boundary).tolist(), (boundary < end).tolist())))
            chunk_pass(scratch, arena, rows, *args)

        def counted_rebuild(arena, rows, pairwise):
            rebuild(arena, rows, pairwise)  # its own flip is not the one looked for
            patched.update(rows[arena.start[rows] > 1].tolist())

        def counted_flip(arena, rows, pairwise):
            flips.append((rows.size, sum(row in patched for row in rows.tolist())))
            patched.difference_update(rows.tolist())
            flip_together(arena, rows, pairwise)

        batched = _tagger(**kwargs)
        monkeypatch.setattr(batch_kernel._ChunkPass, "__init__", counted_pass)
        monkeypatch.setattr(WindowArena, "rebuild", counted_rebuild)
        monkeypatch.setattr(WindowArena, "flip_together", counted_flip)
        hits = _drive_batched(batched, stream, len(entities))
        monkeypatch.undo()

        front_empty, back_empty, both = (False, True), (True, False), (True, True)
        assert any({front_empty, back_empty, both} <= round_shapes for round_shapes in shapes)
        assert max(size for size, _ in flips) >= 2  # flips really were grouped
        assert any(relocated for _, relocated in flips)  # a patched window flipped
        kernel = batched._batch_kernel
        assert kernel.rows_stacked > 0 < kernel.rows_patterned  # both paths shared the passes

        scalar, naive = _tagger(**kwargs), _tagger("naive", **kwargs)
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream) == []
        _assert_same_logical_state(scalar, batched, entities)
        _assert_matches_spec(naive, batched, entities)
        # The drivers flipped the same windows in different company
        # (_assert_same_logical_state compared every aggregate), and no
        # two rows share storage.
        for tagger in (batched, scalar):
            rows = [window_of(tagger, entity)[1] for entity in entities]
            assert len(set(rows)) == len(entities) == tagger._arena.live

    def test_probability_stage_runs_only_for_score_survivors(self, monkeypatch):
        """The chunk path folds the forward message (``forward_stage``)
        only for the cells the ``(max, +)`` score test lets through, on
        their committed rows, at most once per commit, and before the
        exact decode.

        At ``detection_threshold=0.99`` the mixed-vocabulary entities
        often have a malicious MAP state under a posterior short of the
        bar: they pass stage one, run stage two, and most stop there.
        """
        rng = np.random.default_rng(31)
        entities = [f"stage:{i}" for i in range(3 * _MIN_BATCH)]
        stream = [
            Alert(float(i), names[rng.integers(len(names))], entities[i % len(entities)])
            for i in range(len(entities) * 60)
            for names in ((ALL_NAMES if (i % len(entities)) % 3 else BENIGN_NAMES),)
        ]
        kwargs = dict(max_window=6, detection_threshold=0.99)
        seen = {"survivors": 0, "forward_rows": 0, "passed": 0, "finalized": 0, "commits": 0}
        calls = []  # (commits so far, rows) of every forward_stage call
        candidates, stage_two = batch_kernel._candidates, batch_kernel.forward_stage
        commit = batch_kernel._ChunkPass.commit
        advance_chunks = BatchedDecodeKernel._advance_chunks
        in_windowed = []

        # Counted in the chunk path only (the pattern pass tests its rows too).
        def counted_candidates(*args):
            found = candidates(*args)
            seen["survivors"] += found.size if in_windowed else 0
            return found

        def counted_stage_two(arena, rows, threshold):
            keep = stage_two(arena, rows, threshold)
            if in_windowed:
                calls.append((seen["commits"], rows.size))
                seen["forward_rows"] += rows.size
                seen["passed"] += int(keep.sum())
            return keep

        def counted_commit(scratch, *args):
            seen["commits"] += 1
            return commit(scratch, *args)

        def counted_chunks(kernel, *args):
            in_windowed.append(True)
            try:
                return advance_chunks(kernel, *args)
            finally:
                in_windowed.pop()

        batched = _tagger(**kwargs)
        finalize = batched._finalize_decision

        def counted_finalize(*args):
            if in_windowed:
                seen["finalized"] += 1
            return finalize(*args)

        monkeypatch.setattr(batch_kernel, "_candidates", counted_candidates)
        monkeypatch.setattr(batch_kernel, "forward_stage", counted_stage_two)
        monkeypatch.setattr(batch_kernel._ChunkPass, "commit", counted_commit)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_chunks", counted_chunks)
        monkeypatch.setattr(batched, "_finalize_decision", counted_finalize)
        hits = _drive_batched(batched, stream, len(entities))
        monkeypatch.undo()

        # Stage two ran, on stage-one survivors only ...
        assert 0 < seen["forward_rows"] <= seen["survivors"]
        # ... ruled some out, and only what it let through was decoded exactly.
        assert seen["finalized"] == seen["passed"] < seen["forward_rows"]
        # At most once per commit, stacked over the rows it stopped (some hold several).
        assert len({commit for commit, _ in calls}) == len(calls) <= seen["commits"]
        assert max(size for _, size in calls) > 1
        scalar, naive = _tagger(**kwargs), _tagger("naive", **kwargs)
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream)
        assert hits
        _assert_same_logical_state(scalar, batched, entities)

    def test_already_detected_entities_record_nothing(self):
        """Detected entities ride along in stacked rounds and record nothing:
        each keeps the window it was detected on, and no decode state."""
        rng = np.random.default_rng(23)
        entities = [f"mix:{i}" for i in range(2 * _MIN_BATCH)]
        # Odd entities draw from the whole vocabulary and get detected;
        # even ones stay benign, so rounds mix detected and live entities.
        stream = [
            Alert(float(i), names[rng.integers(len(names))], entities[e])
            for i, e in enumerate(rng.integers(len(entities), size=600))
            for names in ((ALL_NAMES if e % 2 else BENIGN_NAMES),)
        ]
        hits, batched, scalar, naive = _three_way(stream, 48, entities)
        detected = {key[0] for _, key in hits}
        assert detected == set(entities[1::2])
        last_hit = max(position for position, _ in hits)
        assert last_hit < len(stream) - 48  # detected entities kept receiving
        slots = batched._arena.slots
        for entity in detected:
            track = batched.track(entity)
            window = _window_names(batched, entity)
            assert window == _window_names(naive, entity) == _window_names(scalar, entity)
            # Window-bounded, and nothing appended after the detection.
            assert window == list(track.names)
            assert window == _sent_until_detected(stream, track, batched.max_window)
            sent = [alert for alert in stream if alert.entity == entity]
            assert sent[-1].timestamp > track.detected.timestamp
            assert slots.row[track.slot] < 0 and not slots.length[track.slot]

    def test_first_alerts_of_new_entities_are_stacked(self, monkeypatch):
        """Entity churn: a sub-batch of brand-new entities never goes scalar.

        One sub-batch, laid out visit-major like the churn workload:
        attackers send download -> privilege escalation and detect on
        their second alert, starters open a catalogue pattern so a
        bonus lands on step 0, the rest send one or two benign alerts,
        and one entity was detected by an earlier sub-batch.
        """
        chain = ("alert_download_sensitive", "alert_privilege_escalation")
        starter = next(
            pattern.names[0] for pattern in DEFAULT_CATALOGUE if pattern.names[0] in BENIGN_NAMES
        )
        attackers = [f"churn:attacker-{i}" for i in range(_MIN_BATCH)]
        twice = [f"churn:twice-{i}" for i in range(_MIN_BATCH)]
        once = [f"churn:once-{i}" for i in range(_MIN_BATCH)]
        starters = [f"churn:starter-{i}" for i in range(2)]
        old = "churn:old"
        earlier = [Alert(float(i), name, old) for i, name in enumerate(chain)]
        batch = []
        for visit in range(2):
            for entity in attackers:
                batch.append(Alert(10.0 + len(batch), chain[visit], entity))
            for i, entity in enumerate(twice):
                batch.append(Alert(10.0 + len(batch), BENIGN_NAMES[(i + visit) % 3], entity))
            if visit == 0:
                batch += [Alert(10.0 + len(batch) + i, BENIGN_NAMES[i % 3], e) for i, e in enumerate(once)]
                batch += [Alert(40.0 + i, starter, e) for i, e in enumerate(starters)]
                batch.append(Alert(50.0, BENIGN_NAMES[0], old))
        entities = attackers + twice + once + starters + [old]

        batched, scalar, naive = _tagger(), _tagger(), _tagger("naive")
        assert batched.observe_batch_indexed(earlier)  # `old` is detected
        recomputes = []
        recompute_forward = streaming.recompute_forward

        def counted(arena, slot, start):
            recomputes.append(start)
            return recompute_forward(arena, slot, start)

        monkeypatch.setattr(streaming, "recompute_forward", counted)
        hits = _drive_batched(batched, batch, len(batch))
        monkeypatch.undo()
        # Neither round fell back to the scalar recursion: step 0 is
        # stacked, and nothing here relocates a bonus.
        assert recomputes == []

        assert {key[0] for _, key in hits} == set(attackers)
        assert all(key[1] == 1 for _, key in hits)  # detected on alert 2
        for entity in starters:
            assert 0 in _match_state(batched, batched.track(entity))[2]  # a bonus at step 0
        _drive_scalar(scalar, earlier), _drive_scalar(naive, earlier)
        assert hits == _drive_scalar(scalar, batch) == _drive_scalar(naive, batch)
        _assert_same_logical_state(scalar, batched, entities)
        _assert_matches_spec(naive, batched, entities)

    def test_saturated_windows_heavy_eviction(self):
        """Long undetected streams keep every entity in eviction mode."""
        rng = np.random.default_rng(11)
        entities = [f"sat:{i}" for i in range(16)]
        stream = [
            Alert(float(i), BENIGN_NAMES[rng.integers(len(BENIGN_NAMES))], entities[i % 16])
            for i in range(3000)
        ]
        hits, batched, scalar, _ = _three_way(stream, 64, entities, max_window=16)
        assert hits == []
        assert batched.kernel_seconds > 0.0
        assert scalar.kernel_seconds == 0.0  # observe() never enters the kernel

    def test_mid_stream_reset_entity(self):
        rng = np.random.default_rng(3)
        stream = _random_stream(rng, 240)
        scalar, batched, naive = _tagger(), _tagger(), _tagger("naive")
        hits_s, hits_b, hits_n = [], [], []
        for base in range(0, len(stream), 30):
            sub = stream[base : base + 30]
            hits_s.extend((base + p, k) for p, k in _drive_scalar(scalar, sub))
            hits_n.extend((base + p, k) for p, k in _drive_scalar(naive, sub))
            for position, detection in batched.observe_batch_indexed(sub):
                hits_b.append((base + position, _detection_key(detection)))
            if base == 90:
                for tagger in (scalar, batched, naive):
                    tagger.reset_entity(ENTITIES[0])
        assert hits_s == hits_b == hits_n
        _assert_same_logical_state(scalar, batched, ENTITIES)
        _assert_matches_spec(naive, batched, ENTITIES)

    def test_checkpoint_restore_replay(self):
        """Pickle mid-stream, replay the rest: identical to unbroken run."""
        rng = np.random.default_rng(5)
        stream = _random_stream(rng, 200)
        expected, _, scalar, _ = _three_way(stream, 25, ENTITIES)
        restored = _tagger()
        hits = _drive_batched(restored, stream[:100], 25)
        blob = pickle.dumps(restored)
        restored = pickle.loads(blob)
        assert restored._batch_kernel is None  # kernel is pure scratch
        for position, detection in restored.observe_batch_indexed(stream[100:]):
            hits.append((100 + position, _detection_key(detection)))
        assert hits == expected
        _assert_same_logical_state(scalar, restored, ENTITIES)

    def test_observe_returns_single_detections(self):
        """Per-alert and batch entry points interleave on one tagger."""
        rng = np.random.default_rng(13)
        stream = _random_stream(rng, 160)
        mixed, naive = _tagger(), _tagger("naive")
        hits = []
        for base in range(0, len(stream), 20):
            sub = stream[base : base + 20]
            if (base // 20) % 2:
                found = _drive_scalar(mixed, sub)
            else:
                found = _drive_batched(mixed, sub, 20)
            hits.extend((base + position, key) for position, key in found)
        assert hits == _drive_scalar(naive, stream)
        _assert_matches_spec(naive, mixed, ENTITIES)


class TestDeepRuns:
    """A sub-batch in which every entity brings a run several windows deep.

    Each run starts in the fill phase and crosses at least two flips;
    pattern symbols break its plain steps into chunks; the first entity
    fires on a chain mid-run and keeps sending (timeline only).  The
    kernel's pre-filter is widened to a superset of its candidates, so
    chunks stop mid-way at cells that do not fire: over-approximating
    the candidates must change nothing.
    """

    X, Y, Z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
    PATTERNS = [
        PatternSpec(name="P0", names=(X, Y)),
        PatternSpec(name="P1", names=(Z, Y)),
    ]
    FILLER = list(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))
    CHAIN = ("alert_download_sensitive", "alert_privilege_escalation")

    def _stream(self, seed, max_window, entities):
        rng = np.random.default_rng(seed)
        ring = max_window + 1
        runs = []
        for index, entity in enumerate(entities):
            # Staggered fills put the entities' flips at different depths.
            depth = max_window + index + int(rng.integers(2 * ring, 3 * ring + 1))
            names = [self.FILLER[k] for k in rng.integers(len(self.FILLER), size=depth)]
            for at in rng.choice(np.arange(max_window, depth), size=2, replace=False):
                names[at] = (self.X, self.Z, self.Y)[int(rng.integers(3))]
            if index == 0:
                at = int(rng.integers(ring, depth - 3))  # once the window slides
                names[at : at + 2] = self.CHAIN
            runs.append([(name, entity) for name in names])
        # Interleave the runs, each in its own order.
        order = rng.permutation(np.repeat(np.arange(len(runs)), [len(run) for run in runs]))
        cursors = [0] * len(runs)
        stream = []
        for index in order.tolist():
            name, entity = runs[index][cursors[index]]
            cursors[index] += 1
            stream.append(Alert(float(len(stream)), name, entity))
        return stream

    def _drive(self, seed, max_window, n_entities, widen):
        """:func:`_three_way` over one deep sub-batch; returns it with what the kernel saw."""
        entities = [f"deep:{index}" for index in range(n_entities)]
        stream = self._stream(seed, max_window, entities)
        candidates = batch_kernel._candidates
        chunk_candidates = batch_kernel._ChunkPass.candidates
        commit = batch_kernel._ChunkPass.commit
        seen = {"mid_chunk": 0, "flipped": 0}

        def widened(heads, lengths, parts):
            found = candidates(heads, lengths, parts)
            return np.union1d(found, np.arange(0, heads.shape[1], widen))

        def counted_candidates(scratch):
            found = chunk_candidates(scratch)  # never a chunk's last cell
            seen["mid_chunk"] += found.size
            return found

        def counted_commit(scratch, *args):
            ended = commit(scratch, *args)
            seen["flipped"] += int(scratch.flips[ended].sum())
            return ended

        with mock.patch.object(batch_kernel, "_candidates", widened), mock.patch.object(
            batch_kernel._ChunkPass, "candidates", counted_candidates
        ), mock.patch.object(batch_kernel._ChunkPass, "commit", counted_commit):
            hits, batched, _, _ = _three_way(
                stream, len(stream), entities, max_window=max_window, patterns=self.PATTERNS
            )
        attacker = batched.track(entities[0])
        assert attacker.detected is not None  # fired mid-run ...
        sent = [alert for alert in stream if alert.entity == entities[0]]
        assert sent[-1].timestamp > attacker.detected.timestamp  # ... kept sending
        assert list(attacker.names) == _sent_until_detected(stream, attacker, max_window)
        return hits, batched, seen

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        max_window=st.sampled_from((2, 3, 5, 8, 32)),
        n_entities=st.integers(1, 8),
        widen=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deep_runs_equal_the_per_alert_loop(self, max_window, n_entities, widen, seed):
        self._drive(seed, max_window, n_entities, widen)

    @pytest.mark.parametrize("max_window", [2, 3, 5, 8, 32])
    def test_deep_runs_hold_every_shape_the_chunks_cut_on(self, max_window):
        """The generator's runs really hold what the property is about."""
        hits, batched, seen = self._drive(0, max_window, 4, 3)
        assert batched._batch_kernel.rows_patterned > 0  # pattern steps broke chunks
        assert seen["flipped"] >= 2  # stacked flips
        assert seen["mid_chunk"] > len(hits)  # chunks stopped at cells that did not fire


class TestFreshEntitiesFillInOneSubBatch:
    """Dozens of brand-new entities in one sub-batch, each crossing a
    fill-page boundary and most of them the fill→windowed transition.
    Pattern walkers match ``X`` on the first page and ``Y`` or ``Z`` on a
    later one, so a bonus relocates across the boundary (the
    ``streaming.complete_append`` path inside a stacked filling pass); lone
    seeders keep a bonus where it landed (``streaming.effective_row`` inside the
    block); a few entities end on a firing chain.  Pages of two steps as
    well as the module's put a boundary inside the smallest windows too,
    and the fill storage starts at two pages, so it grows mid-pass.
    """

    X, Y, Z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
    PATTERNS = [
        PatternSpec(name="P0", names=(X, Y)),
        PatternSpec(name="P1", names=(Z, Y)),
        PatternSpec(name="P2", names=(X, Z)),
    ]
    FILLER = list(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))
    CHAIN = ("alert_download_sensitive", "alert_privilege_escalation")

    def _stream(self, seed, max_window, n_entities, page):
        rng = np.random.default_rng(seed)
        longest = max(page, max_window) + 3
        runs = []
        for index in range(n_entities):
            length = int(rng.integers(page + 1, longest + 1))
            names = [self.FILLER[k] for k in rng.integers(len(self.FILLER), size=length)]
            kind = index % 5
            if kind in (1, 2):  # a walker: a match on page 0, its next symbol later
                names[int(rng.integers(page))] = self.X
                names[int(rng.integers(page, length))] = (self.Y, self.Z)[kind - 1]
            elif kind == 3:  # a lone seeder: its bonus never moves
                names[int(rng.integers(length))] = self.X
            elif kind == 4 and rng.integers(2):
                names[-2:] = self.CHAIN
            runs.append([(name, f"fresh:{index}") for name in names])
        order = rng.permutation(np.repeat(np.arange(n_entities), [len(run) for run in runs]))
        cursors = [0] * n_entities
        stream = []
        for index in order.tolist():
            name, entity = runs[index][cursors[index]]
            cursors[index] += 1
            stream.append(Alert(float(len(stream)), name, entity))
        return stream, [run[0][1] for run in runs]

    def _drive(self, seed, max_window, n_entities, threshold, page):
        stream, entities = self._stream(seed, max_window, n_entities, page)
        with mock.patch.object(sliding_window, "_PAGE", page), mock.patch.object(
            sliding_window, "_INITIAL_PAGES", 2
        ):
            _, batched, scalar, _ = _three_way(
                stream,
                len(stream),
                entities,
                max_window=max_window,
                patterns=self.PATTERNS,
                detection_threshold=threshold,
            )
            # Per entity the arena state is compared above; no row or page leaked.
            _assert_rows_accounted(batched), _assert_rows_accounted(scalar)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        max_window=st.sampled_from((2, 3, 5, 8)),
        n_entities=st.integers(24, 48),
        threshold=st.sampled_from((0.5, 0.9)),
        page=st.sampled_from((2, _PAGE)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_per_alert_and_naive_agree(self, max_window, n_entities, threshold, page, seed):
        self._drive(seed, max_window, n_entities, threshold, page)

    @pytest.mark.parametrize("max_window", [2, 3, 5, 8])
    def test_the_sub_batch_holds_what_the_property_is_about(self, max_window, monkeypatch):
        page = 2 if max_window < _PAGE else _PAGE  # the window fills past page 0
        fills, relocations = [], []
        advance_fill = BatchedDecodeKernel._advance_fill
        complete_append = streaming.complete_append

        def counted_fill(kernel, batch, runs, reach, hits):
            fills.append(runs.size)
            return advance_fill(kernel, batch, runs, reach, hits)

        def counted(arena, slot, step, dirty, invalid_from):
            if arena.slots.row[slot] < 0 and invalid_from // page < step // page:
                relocations.append(step)
            return complete_append(arena, slot, step, dirty, invalid_from)

        monkeypatch.setattr(sliding_window, "_PAGE", page)
        monkeypatch.setattr(sliding_window, "_INITIAL_PAGES", 2)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_fill", counted_fill)
        stream, entities = self._stream(0, max_window, 32, page)
        batched = _tagger(max_window=max_window, patterns=self.PATTERNS)
        monkeypatch.setattr(streaming, "complete_append", counted)
        hits = batched.observe_batch_indexed(stream)
        assert max(fills) >= 24  # every fresh entity's first step in one pass
        assert relocations  # a bonus moved from page 0 to a later page
        assert batched._arena.fill.capacity > 2  # the fill storage grew mid-pass
        assert hits  # chains fired
        assert any(batched._arena.slots.row[batched.track(entity).slot] >= 0 for entity in entities)


class TestSlotLifecycle:
    """Slots through everything that creates, drops or rebuilds them.

    Every sub-batch mixes brand-new entities (plain filling steps, no
    per-entity call), pattern walkers (a seeding symbol copies the waiting lists
    inside a stacked filling pass), entities whose window opens at this
    step, attackers firing part-way through a run of filling steps (the
    steps after the trigger are given back), and entities detected
    earlier (timeline only).  Between
    sub-batches one entity is reset and comes back under the same name
    in the next sub-batch, or is exported and adopted again (a stale
    slot, rebuilt from its alerts), or the taggers make a pickle round
    trip (every slot rebuilt).  The stacked kernel, the per-alert loop
    and ``naive`` agree bit for bit, and no slot, row or page leaks.
    """

    X, Y, Z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
    PATTERNS = [
        PatternSpec(name="P0", names=(X, Y)),
        PatternSpec(name="P1", names=(Z, Y)),
        PatternSpec(name="P2", names=(X, Z)),
    ]
    FILLER = list(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))[:3]
    CHAIN = ("alert_download_sensitive", "alert_privilege_escalation")

    def _sub_batch(self, rng, max_window, known, fresh, back):
        """Interleaved runs: one per fresh or returning entity, and for a
        few known ones; a walker opens a pattern, an attacker ends on the chain."""
        picked = list(rng.choice(known, size=min(len(known), 4), replace=False)) if known else []
        runs = []
        for entity in fresh + back + picked:
            length = int(rng.integers(1, max_window + 3))
            names = [self.FILLER[k] for k in rng.integers(len(self.FILLER), size=length)]
            kind = int(rng.integers(4))
            if kind == 1:  # a walker
                names[int(rng.integers(length))] = self.X
                names.append((self.Y, self.Z)[int(rng.integers(2))])
            elif kind == 2 and rng.random() < 0.5:  # an attacker, who keeps sending
                at = int(rng.integers(length + 1))
                names[at:at] = self.CHAIN
            runs.append([(name, entity) for name in names])
        order = rng.permutation(np.repeat(np.arange(len(runs)), [len(run) for run in runs]))
        cursors = [0] * len(runs)
        batch = []
        for index in order.tolist():
            batch.append(runs[index][cursors[index]])
            cursors[index] += 1
        return batch

    def _drive(self, seed, max_window, events, probe=None):
        rng = np.random.default_rng(seed)
        kwargs = dict(max_window=max_window, patterns=self.PATTERNS)
        batched, scalar, naive = _tagger(**kwargs), _tagger(**kwargs), _tagger("naive", **kwargs)
        clock = iter(range(1_000_000))
        known, back, created = [], [], 0
        for event in events:
            fresh = [f"slot:{created + i}" for i in range(int(rng.integers(2, 5)))]
            created += len(fresh)
            sub = [
                Alert(float(next(clock)), name, entity)
                for name, entity in self._sub_batch(rng, max_window, known, fresh, back)
            ]
            known += fresh
            if probe is not None:
                probe(batched)
            got = [(p, _detection_key(d)) for p, d in batched.observe_batch_indexed(sub)]
            assert got == _drive_scalar(scalar, sub) == _drive_scalar(naive, sub)
            back = []
            entity = known[int(rng.integers(len(known)))]
            if event == "reset":
                for tagger in (batched, scalar, naive):
                    tagger.reset_entity(entity)
                back = [entity]  # the same name, re-created next sub-batch
            elif event == "adopt":
                for tagger in (batched, scalar, naive):
                    track = tagger.export_entity_tracks()[entity]
                    tagger.reset_entity(entity)
                    tagger.adopt_entity_track(entity, track)
            elif event == "pickle":
                batched, scalar = (pickle.loads(pickle.dumps(t)) for t in (batched, scalar))
            _assert_rows_accounted(batched), _assert_rows_accounted(scalar)
        _assert_same_logical_state(scalar, batched, known)
        _assert_matches_spec(naive, batched, known)
        return batched

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_window=st.sampled_from((2, 3, 5)),
        events=st.lists(st.sampled_from(("none", "reset", "adopt", "pickle")), min_size=3, max_size=6),
    )
    def test_stacked_per_alert_and_naive_agree(self, seed, max_window, events):
        self._drive(seed, max_window, events)

    def test_the_sub_batches_hold_what_the_property_is_about(self, monkeypatch):
        seen = {
            "plain_without_append_plan": 0,
            "copied_in_fill_pass": 0,
            "opened": 0,
            "cut_back": 0,
            "timeline": 0,
        }
        advance_fill = BatchedDecodeKernel._advance_fill
        advance_scalar = BatchedDecodeKernel._advance_scalar
        classify = BatchedDecodeKernel._classify
        truncate = sliding_window.WindowArena.truncate
        append_plan = streaming.append_plan
        planned = set()

        def counted_plan(arena, slot, symbol):
            planned.add(slot)
            return append_plan(arena, slot, symbol)

        def counted_truncate(arena, slot, length):
            seen["cut_back"] += length > 0
            return truncate(arena, slot, length)

        def counted_fill(kernel, batch, runs, reach, hits):
            table = kernel._tagger._arena.slots
            pristine = table.match[batch.slot[runs]] < 0
            planned.clear()
            advance_fill(kernel, batch, runs, reach, hits)
            seen["plain_without_append_plan"] += sum(s not in planned for s in batch.slot[runs].tolist())
            seen["copied_in_fill_pass"] += int((pristine & (table.match[batch.slot[runs]] >= 0)).sum())

        def counted_scalar(kernel, batch, runs, hits):
            table = kernel._tagger._arena.slots
            filling = int((table.row[batch.slot[runs]] < 0).sum())
            seen["opened"] += filling
            return advance_scalar(kernel, batch, runs, hits)

        def counted_classify(kernel, batch, runs):
            before = batch.head.copy()
            split = classify(kernel, batch, runs)
            seen["timeline"] += int((batch.head != before).sum())  # a detected run, whole
            return split

        monkeypatch.setattr(BatchedDecodeKernel, "_advance_fill", counted_fill)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_scalar", counted_scalar)
        monkeypatch.setattr(BatchedDecodeKernel, "_classify", counted_classify)
        monkeypatch.setattr(sliding_window.WindowArena, "truncate", counted_truncate)
        monkeypatch.setattr(streaming, "append_plan", counted_plan)
        self._drive(3, 5, ["reset", "adopt", "pickle", "none", "reset", "adopt"])
        assert all(seen.values()), seen


class TestTheArenaIsTheOnlyWindow:
    """A live streaming track holds no names: its window is its slot's
    steps.  A detection is final: the track keeps the window it was
    detected on, under both engines, and later alerts change nothing."""

    MAX_WINDOW = 8

    def _feed(self, taggers, stream, chunk=24):
        """The same chunks to every tagger, alternately per alert through
        ``observe`` and as one ``observe_batch_indexed``; the hits must agree."""
        hits = [[] for _ in taggers]
        for number, base in enumerate(range(0, len(stream), chunk)):
            sub = stream[base : base + chunk]
            for tagger, found in zip(taggers, hits):
                if number % 2:
                    pairs = tagger.observe_batch_indexed(sub)
                else:
                    pairs = [(k, d) for k, alert in enumerate(sub) if (d := tagger.observe(alert)) is not None]
                found.extend((base + k, _detection_key(d)) for k, d in pairs)
        assert all(found == hits[0] for found in hits)
        return hits[0]

    def _stream(self, rng, start, length, entities):
        """Attackers (``atk:``) draw from the whole vocabulary, the others
        from the benign names; a ``long:`` entity gets four alerts a turn."""
        stream = []
        while len(stream) < length:
            entity = entities[rng.integers(len(entities))]
            names = ALL_NAMES if entity.startswith("atk:") else BENIGN_NAMES
            for _ in range(4 if entity.startswith("long:") else 1):
                stream.append(Alert(start + len(stream), names[rng.integers(len(names))], entity))
        return stream

    def test_mixed_streams_export_the_naive_windows(self):
        rng = np.random.default_rng(51)
        first = ["atk:0", "atk:1", "atk:2", "long:0", "long:1", "short:0", "idle:0", "idle:1"]
        stream = self._stream(rng, 0.0, 240, first)
        streaming_, naive = _tagger(max_window=self.MAX_WINDOW), _tagger("naive", max_window=self.MAX_WINDOW)
        self._feed((streaming_, naive), stream)
        # Migrate every track into fresh replicas, then drive all but the
        # ``idle:`` entities on: those stay adopted and not yet rebuilt.
        adopters = _tagger(max_window=self.MAX_WINDOW), _tagger("naive", max_window=self.MAX_WINDOW)
        for source, target in zip((streaming_, naive), adopters):
            for entity, track in source.export_entity_tracks().items():
                target.adopt_entity_track(entity, track)
        second = ["atk:0", "atk:1", "atk:3", "atk:4", "long:0", "long:1", "short:1", "short:2"]
        later = self._stream(rng, 1e4, 120, second)
        later += [Alert(2e4 + i, BENIGN_NAMES[i], "fresh:0") for i in range(3)]  # still filling
        self._feed(adopters, later)
        streaming_, naive = adopters
        exported, spec = streaming_.export_entity_tracks(), naive.export_entity_tracks()
        assert list(exported) == list(spec)
        for entity, track in exported.items():
            assert list(track.names) == list(spec[entity].names), entity
            assert track.detected == spec[entity].detected, entity
            if track.detected is not None:
                assert list(track.names) == _sent_until_detected(stream + later, track, self.MAX_WINDOW)
        # Every kind of track took part.
        slots = streaming_._arena.slots
        kinds = set()
        for track in streaming_._tracks.values():
            s = track.slot
            if track.detected is not None:
                kinds.add("detected")
            elif slots.stale[s]:
                kinds.add("adopted")
            else:
                kinds.add("windowed" if slots.row[s] >= 0 else "filling")
        assert kinds == {"detected", "adopted", "windowed", "filling"}
        detected = [e for e, track in exported.items() if track.detected is not None]
        assert any(a.entity in detected and a.timestamp > exported[a.entity].detected.timestamp for a in later)
        _assert_rows_accounted(streaming_)

    def test_a_detected_entity_s_later_alerts_change_nothing(self):
        taggers = _tagger(max_window=4), _tagger("naive", max_window=4)
        chain = ["alert_download_sensitive", "alert_privilege_escalation"]
        fired = self._feed(taggers, [Alert(float(i), name, "user:x") for i, name in enumerate(chain)])
        assert [position for position, _ in fired] == [1]
        before = [(list(t.export_entity_tracks()["user:x"].names), t.infer("user:x")) for t in taggers]
        assert before[0][0] == chain
        later = [Alert(10.0 + i, ALL_NAMES[i % len(ALL_NAMES)], "user:x") for i in range(3 * 4 + 1)]
        assert self._feed(taggers, later, chunk=5) == []
        for tagger, (names, read) in zip(taggers, before):
            assert list(tagger.export_entity_tracks()["user:x"].names) == names
            for got, expected in zip(tagger.infer("user:x"), read):
                assert np.array_equal(got, expected)
        assert taggers[0]._arena.fill.live == 0  # no read left decode state behind

    def test_no_live_streaming_track_holds_names(self):
        rng = np.random.default_rng(7)
        entities = ["atk:0", "long:0", "long:1", "short:0", "short:1"]
        tagger = _tagger(max_window=self.MAX_WINDOW)
        self._feed((tagger,), self._stream(rng, 0.0, 160, entities))
        adopter = _tagger(max_window=self.MAX_WINDOW)
        for entity, track in tagger.export_entity_tracks().items():
            adopter.adopt_entity_track(entity, track)
        self._feed((adopter,), self._stream(rng, 1e4, 80, entities))
        for owner in (tagger, adopter):
            stale = owner._arena.slots.stale
            live = [t for t in owner._tracks.values() if t.detected is None and not stale[t.slot]]
            assert live and all(t.names == () for t in live)
            assert all(t.names for t in owner._tracks.values() if t.detected is not None)


class TestObservationRowsResolveOncePerName:
    def test_stacked_passes_resolve_each_new_name_once(self):
        """The socket admits any alert name, so a stream may keep
        introducing names.  Each one's observation row is resolved once,
        when the arena interns it, however many symbols the arena holds
        already: N passes with one fresh name each cost N rows, not the
        whole table again per pass."""
        max_window, passes = 4, 40
        entities = [f"host:{index}" for index in range(2 * _MIN_BATCH)]
        batched, scalar = (AttackTagger(max_window=max_window, detection_threshold=0.999) for _ in range(2))
        clock = iter(range(100_000))
        warm_up = [
            Alert(float(next(clock)), BENIGN_NAMES[step % 3], entity)
            for step in range(max_window + 1)
            for entity in entities
        ]
        fresh = [f"alert_unseen_{index}" for index in range(passes)]
        batches = [
            [
                Alert(float(next(clock)), fresh[index] if k == 0 else BENIGN_NAMES[0], entity)
                for k, entity in enumerate(entities)
            ]
            for index in range(passes)
        ]
        assert batched.observe_batch(warm_up) == []
        kernel = batched._batch_kernel
        resolved = []
        observation_row = FactorParameters.observation_row

        def counted(parameters, name):
            resolved.append(name)
            return observation_row(parameters, name)

        with mock.patch.object(FactorParameters, "observation_row", counted):
            for batch in batches:
                assert batched.observe_batch(batch) == []
        assert kernel.rows_stacked == passes * len(entities)  # every step a stacked cell
        assert resolved == fresh
        for alert in warm_up + [alert for batch in batches for alert in batch]:
            assert scalar.observe(alert) is None
        _assert_same_logical_state(scalar, batched, entities)

    def test_every_step_reads_its_own_names_row(self):
        """Two taggers that number the alert names differently (here the
        batched one saw them first in reverse order) still give every
        window step its own name's observation row, exactly as per-alert
        ``observe`` resolves it."""
        names = [
            "alert_login_normal",
            "alert_address_sweep",
            "alert_malicious_binary_installed",
            "alert_irc_connection",
        ]
        batched, scalar = (AttackTagger(max_window=4, detection_threshold=0.999) for _ in range(2))
        clock = iter(range(10_000))
        for name in names[::-1]:
            assert batched.observe(Alert(float(next(clock)), name, "user:first")) is None
        entities = [f"user:x{i}" for i in range(8)]
        for b in range(30):
            batch = [
                Alert(float(next(clock)), names[(b + i) % 4], entity)
                for i, entity in enumerate(entities)
            ]
            assert batched.observe_batch(batch) == []
            assert [scalar.observe(alert) for alert in batch] == [None] * len(batch)
        arena = batched._arena
        assert list(arena.symbol_names) == names[::-1]
        assert list(scalar._arena.symbol_names) == names
        for entity in entities:
            symbols = arena.symbols[arena.window_cells(window_of(batched, entity)[1])]
            for name, row in zip((arena.symbol_names[symbol] for symbol in symbols.tolist()), arena.observations[symbols]):
                assert np.array_equal(row, batched.parameters.observation_row(name))
        assert batched.posterior("user:x0") == scalar.posterior("user:x0")
        _assert_same_logical_state(scalar, batched, entities)


class TestBatchedThroughSharding:
    @pytest.mark.parametrize("n_shards,backend", [(1, "serial"), (4, "serial"), (2, "process")])
    def test_pool_merges_identically(self, n_shards, backend):
        rng = np.random.default_rng(n_shards)
        stream = _random_stream(rng, 160)
        expected = [key for _, key in _drive_scalar(_tagger("naive"), stream)]
        pool = ShardedDetectorPool.from_template(
            _tagger(), n_shards=n_shards, backend=backend
        )
        try:
            merged = []
            for base in range(0, len(stream), 40):
                merged.extend(pool.observe_batch(stream[base : base + 40]))
            assert [_detection_key(d) for d in merged] == expected
            if expected:
                assert sum(pool.kernel_seconds) > 0.0
        finally:
            pool.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kernel_steps_are_summed_over_shards(self, backend):
        """Every windowed step a shard's kernel took is counted once, by
        path, in the pool and in the pipeline summary; the stacked and
        per-alert engines split them differently, so they stay out of
        the deterministic counters."""
        rng = np.random.default_rng(5)
        stream = _random_stream(rng, 400, names=BENIGN_NAMES + ["alert_download_sensitive"])
        serial = _tagger()
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=2, backend=backend)
        try:
            for base in range(0, len(stream), 100):
                serial.observe_batch(stream[base : base + 100])
                pool.observe_batch(stream[base : base + 100])
            # Each entity's windowed steps, whichever shard took them.
            assert sum(pool.kernel_steps) == sum(serial.kernel_steps) > 0
            assert pool.kernel_steps[1] > 0  # the pattern pass
        finally:
            pool.close()
        with TestbedPipeline(detectors={"fg": _tagger()}, n_shards=2, shard_backend=backend) as pipeline:
            pipeline.ingest_alerts(stream)
            steps = pipeline.summary()["kernel_steps"]
            assert steps == {"fg": dict(zip(("stacked", "patterned", "scalar"), pipeline.detector_pools["fg"].kernel_steps))}
        assert sum(steps["fg"].values()) > 0 and "kernel_steps" not in DETERMINISTIC_COUNTERS

    def test_pool_kernel_seconds_stay_out_of_checkpoints(self):
        # Run telemetry is the pool's, not stream state: a restore
        # carries the tracks and the counters start from zero.
        rng = np.random.default_rng(21)
        stream = _random_stream(rng, 120)
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        pool.observe_batch(stream)
        assert sum(pool.kernel_seconds) > 0.0
        state = pool.snapshot_state()
        assert set(state) == {"n_shards", "backend", "shards"}
        other = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        other.restore_state(state)
        assert other.kernel_seconds == [0.0, 0.0] and other.alerts_routed == [0, 0]
        more = _random_stream(rng, 60)
        assert other.observe_batch(more) == pool.observe_batch(more)
