"""Differential suite for the stacked cross-entity decode kernel.

``AttackTagger(engine="streaming")`` runs every sub-batch through
``core/batch_kernel.py``.  That must be a pure performance
optimisation: for every stream, every sub-batch shape, and every window
size, three drives of the same stream must agree --

* the **batch API** (``observe_batch_indexed`` in chunks: the stacked
  kernel, with its scalar fallback for rounds below ``_MIN_BATCH``),
* a **per-alert** ``observe()`` loop on the same engine, and
* the ``engine="naive"`` executable spec --

on every detection (trigger position, state, confidence, matched
patterns, trajectory), and the two ``streaming`` drives must leave every
decoder's logical state (unary tables, names, bonuses, window span)
bitwise identical.  The window *aggregates* are exempt from bitwise
comparison with ``naive`` (it has none): the scans reassociate floating
point relative to the sequential recursion -- by design, the aggregates
only feed the guard-banded ``may_fire`` pre-filter, and every firing
decision is re-derived from the exact window decode (see the
``sliding_window`` module docstring).  Between the two ``streaming``
drives they *are* pinned: a row's aggregates (its whole dense state)
are the same whether the per-entity view advanced it or the kernel
advanced it next to a round of others, at whatever row index.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import AttackTagger, batch_kernel
from repro.core.alerts import Alert, AttackStage, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.batch_kernel import _MIN_BATCH, BatchedDecodeKernel
from repro.core.sliding_window import _MIN_SCAN, WindowArena
from repro.core.streaming import StreamingDecoder
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed.sharding import ShardedDetectorPool

from test_sliding_window import assert_same_window

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


def _assert_same_logical_state(reference, batched, entities):
    """Decoder state equal where bit-identity is promised."""
    for entity in entities:
        track_r, track_b = reference.track(entity), batched.track(entity)
        assert [a.name for a in track_r.alerts] == [a.name for a in track_b.alerts]
        assert (track_r.detected is None) == (track_b.detected is None)
        if track_r.detected is not None:
            assert _detection_key(track_r.detected) == _detection_key(track_b.detected)
            continue
        states_r, marginal_r, matched_r = reference.infer(entity)
        states_b, marginal_b, matched_b = batched.infer(entity)
        assert np.array_equal(states_r, states_b)
        assert np.array_equal(marginal_r, marginal_b)
        assert matched_r == matched_b
        decoder_r = reference._decoder_for(track_r)
        decoder_b = batched._decoder_for(track_b)
        assert decoder_r.windowed == decoder_b.windowed
        assert decoder_r.length == decoder_b.length
        assert decoder_r.names == decoder_b.names
        assert np.array_equal(decoder_r.unary_table(), decoder_b.unary_table())
        assert decoder_r._bonus_at == decoder_b._bonus_at
        if decoder_r.windowed:
            # Same absolute steps, base rows and aggregates, whoever
            # advanced the row and wherever in its arena it lives.
            assert_same_window(decoder_r._window, decoder_b._window)


def _assert_matches_spec(naive, tagger, entities):
    """Every read-out of a decoder-backed tagger equals the naive re-decode."""
    for entity in entities:
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
    for tagger in (scalar, naive):
        assert [_detection_key(d) for d in tagger.detections] == [
            _detection_key(d) for d in batched.detections
        ]
    return hits, batched, scalar, naive


class _DispatchCounter:
    """Counts which side of the kernel's size-based selection alerts took."""

    def __init__(self, monkeypatch, tagger):
        self.scalar = 0
        self.stacked_rounds = []
        observe_impl = tagger._observe_impl
        observe_round = BatchedDecodeKernel._observe_round

        def counted_impl(alert):
            self.scalar += 1
            return observe_impl(alert)

        def counted_round(kernel, items):
            if len(items) >= _MIN_BATCH:
                self.stacked_rounds.append(len(items))
            return observe_round(kernel, items)

        monkeypatch.setattr(tagger, "_observe_impl", counted_impl)
        monkeypatch.setattr(BatchedDecodeKernel, "_observe_round", counted_round)


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

        Six entities with skewed volumes: round 0 of a sub-batch stacks
        all six, later rounds thin out below ``_MIN_BATCH`` and take the
        per-round scalar fallback; sub-batches touching fewer than
        ``_MIN_BATCH`` entities skip the layering altogether.
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
        counter = _DispatchCounter(monkeypatch, batched)
        hits = _drive_batched(batched, stream, 40)
        assert counter.stacked_rounds and counter.scalar  # both sides ran
        assert sum(counter.stacked_rounds) + counter.scalar == len(stream)
        assert min(counter.stacked_rounds) >= _MIN_BATCH
        scalar, naive = _tagger(), _tagger("naive")
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream)
        _assert_same_logical_state(scalar, batched, entities)
        _assert_matches_spec(naive, batched, entities)

    def test_sub_batch_below_min_batch_never_stacks(self, monkeypatch):
        rng = np.random.default_rng(19)
        entities = ENTITIES[: _MIN_BATCH - 1]
        stream = _random_stream(rng, 120, entities=entities)
        batched = _tagger()
        counter = _DispatchCounter(monkeypatch, batched)
        hits = _drive_batched(batched, stream, 30)
        assert counter.stacked_rounds == [] and counter.scalar == len(stream)
        assert batched.kernel_seconds > 0.0  # still attributed to the kernel
        naive = _tagger("naive")
        assert hits == _drive_scalar(naive, stream)
        _assert_matches_spec(naive, batched, entities)

    @pytest.mark.parametrize("max_window", [_MIN_SCAN - 2, 3 * _MIN_SCAN])
    def test_window_slide_with_bonus_relocation(self, max_window, monkeypatch):
        """Pattern bonuses relocate inside saturated, sliding windows.

        Two-symbol patterns over a small symbol pool keep partial
        matches advancing (the bonus moves off an older queued step:
        the in-place window patch) and their first matched steps
        evicting (cursor rescans relocating bonuses again) while every
        window slides; windows straddle ``_MIN_SCAN`` so the patches and
        flips refold both sequentially and through the scan.
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
        sync_window = StreamingDecoder._sync_window

        def counted_sync(decoder, dirty, appended=None):
            if any(step > decoder._window.start and step != appended for step in dirty):
                patched.append(decoder.windowed)
            return sync_window(decoder, dirty, appended)

        monkeypatch.setattr(StreamingDecoder, "_sync_window", counted_sync)
        hits, batched, _, _ = _three_way(
            stream,
            4 * len(entities),
            entities,
            max_window=max_window,
            patterns=patterns,
            detection_threshold=0.999,
        )
        assert hits == []  # every entity stays live, so every window slides
        assert any(patched)  # queued steps really were patched in place
        assert all(batched.track(e).decoder.windowed for e in entities)

    def test_round_mixing_flip_phases_and_relocations(self, monkeypatch):
        """One round holds every window shape the stacked push, the group
        flip and the masked decide fold branch on.

        A staggering pre-roll spreads the flip phases, so each round of
        48 entities has windows with an empty front (they flip this
        round, together), windows with an empty back (they flipped last
        round: plain ``push``), and windows with both stacks populated
        that do not flip; the symbol pool keeps pattern bonuses
        relocating, some of them inside a window that flips in the same
        round.
        """
        max_window = 3 * _MIN_SCAN
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
            PatternSpec(name="P2", names=(x, z)),
        ]
        pool = [x, y, z] + ["alert_login_normal"] * 3
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
        advance = BatchedDecodeKernel._advance_windowed
        sync_window = StreamingDecoder._sync_window
        flip_together = WindowArena.flip_together

        def counted_advance(kernel, arena, rows, symbols, parameters):
            start, boundary, end = arena.start[rows], arena.boundary[rows], arena.end[rows]
            shapes.append(set(zip((start + 1 < boundary).tolist(), (boundary < end).tolist())))
            advance(kernel, arena, rows, symbols, parameters)

        def counted_sync(decoder, dirty, appended=None):
            if any(s > decoder._window.start and s != appended for s in dirty):
                patched.add(decoder._window.row)
            return sync_window(decoder, dirty, appended)

        def counted_flip(arena, rows, pairwise):
            flips.append((rows.size, sum(row in patched for row in rows.tolist())))
            patched.difference_update(rows.tolist())
            flip_together(arena, rows, pairwise)

        batched = _tagger(**kwargs)
        monkeypatch.setattr(BatchedDecodeKernel, "_advance_windowed", counted_advance)
        monkeypatch.setattr(StreamingDecoder, "_sync_window", counted_sync)
        monkeypatch.setattr(WindowArena, "flip_together", counted_flip)
        hits = _drive_batched(batched, stream, len(entities))
        monkeypatch.undo()

        front_empty, back_empty, both = (False, True), (True, False), (True, True)
        assert any({front_empty, back_empty, both} <= round_shapes for round_shapes in shapes)
        assert max(size for size, _ in flips) >= 2  # flips really were grouped
        assert any(relocated for _, relocated in flips)  # a patched window flipped
        kernel = batched._batch_kernel
        assert kernel.rows_stacked > 0 < kernel.rows_scalar  # both paths shared the rounds

        scalar, naive = _tagger(**kwargs), _tagger("naive", **kwargs)
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream) == []
        _assert_same_logical_state(scalar, batched, entities)
        _assert_matches_spec(naive, batched, entities)
        # The drivers flipped the same windows in different company
        # (_assert_same_logical_state compared every aggregate), and no
        # two rows share storage.
        for tagger in (batched, scalar):
            rows = [tagger.track(entity).decoder._window.row for entity in entities]
            assert len(set(rows)) == len(entities) == tagger._arena.live

    def test_probability_stage_runs_only_for_score_survivors(self, monkeypatch):
        """``_decide_windowed`` folds the forward message for the rows the
        score test lets through, and only for those.

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
        rows = {"maxplus_vecmat_batch": 0, "logsumexp_vecmat_batch": 0, "finalized": 0}
        fold = WindowArena.fold
        decide_windowed = BatchedDecodeKernel._decide_windowed
        finalize = BatchedDecodeKernel._finalize
        in_windowed = []

        def counted_fold(arena, indices, vectors, vecmat, aggregates):
            rows[vecmat.__name__] += vectors.shape[1]
            return fold(arena, indices, vectors, vecmat, aggregates)

        def counted_decide(kernel, arena, indices, entries):
            in_windowed.append(True)
            try:
                return decide_windowed(kernel, arena, indices, entries)
            finally:
                in_windowed.pop()

        def counted_finalize(kernel, entries, chosen):
            if in_windowed:
                rows["finalized"] += len(chosen)
            return finalize(kernel, entries, chosen)

        batched = _tagger(**kwargs)
        monkeypatch.setattr(WindowArena, "fold", counted_fold)
        monkeypatch.setattr(BatchedDecodeKernel, "_decide_windowed", counted_decide)
        monkeypatch.setattr(BatchedDecodeKernel, "_finalize", counted_finalize)
        hits = _drive_batched(batched, stream, len(entities))
        monkeypatch.undo()

        stage_one, stage_two = rows["maxplus_vecmat_batch"], rows["logsumexp_vecmat_batch"]
        assert 0 < stage_two < stage_one  # stage two ran, on survivors only
        assert rows["finalized"] < stage_two  # ... and itself filtered some out
        scalar, naive = _tagger(**kwargs), _tagger("naive", **kwargs)
        assert hits == _drive_scalar(scalar, stream) == _drive_scalar(naive, stream)
        assert hits
        _assert_same_logical_state(scalar, batched, entities)

    def test_already_detected_entities_keep_recording(self):
        """Detected entities ride along in stacked rounds, timeline only."""
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
        for entity in detected:
            track = batched.track(entity)
            assert list(track.alerts) == list(naive.track(entity).alerts)
            assert list(track.alerts) == list(scalar.track(entity).alerts)
            assert track.alerts[-1].timestamp > track.detected.timestamp

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
        recompute_forward = StreamingDecoder._recompute_forward

        def counted(decoder, start):
            recomputes.append(start)
            return recompute_forward(decoder, start)

        monkeypatch.setattr(StreamingDecoder, "_recompute_forward", counted)
        hits = _drive_batched(batched, batch, len(batch))
        monkeypatch.undo()
        # Neither round fell back to the scalar recursion: step 0 is
        # stacked, and nothing here relocates a bonus.
        assert recomputes == []

        assert {key[0] for _, key in hits} == set(attackers)
        assert all(key[1] == 1 for _, key in hits)  # detected on alert 2
        for entity in starters:
            assert 0 in batched.track(entity).decoder._bonus_at
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
        assert [_detection_key(d) for d in mixed.detections] == [
            _detection_key(d) for d in naive.detections
        ]
        _assert_matches_spec(naive, mixed, ENTITIES)


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

    def test_pool_kernel_seconds_checkpoint_roundtrip(self):
        rng = np.random.default_rng(21)
        stream = _random_stream(rng, 120)
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        pool.observe_batch(stream)
        assert sum(pool.kernel_seconds) > 0.0
        state = pool.snapshot_state()
        other = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        other.restore_state(state)
        assert other.kernel_seconds == pool.kernel_seconds
        # Pre-kernel checkpoints restore with zeroed kernel telemetry.
        legacy = {key: value for key, value in state.items() if key != "kernel_seconds"}
        other.restore_state(legacy)
        assert other.kernel_seconds == [0.0, 0.0]
