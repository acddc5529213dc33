"""Checkpoint/restore suite: crash-safe pipeline persistence.

The pipeline's crash-safety contract has three layers, each pinned
here:

* the *file* layer (``write_checkpoint`` / ``read_checkpoint``) frames
  payloads as ``magic || version || pickle`` and writes atomically, so
  bad magic, foreign versions, and torn bodies fail loudly;
* the *store* layer (``CheckpointStore``) numbers checkpoints
  monotonically and prunes retention only after the new file is
  durable;
* the *pipeline* layer (``TestbedPipeline.checkpoint`` / ``restore``)
  gives bit-identical continuation: a restored pipeline produces
  exactly the detections and counters the uninterrupted run would
  have, and re-checkpointing a restored pipeline reproduces the
  original checkpoint byte for byte (the property Hypothesis fuzzes
  below with unicode entities and saturated decode windows).
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_corpus
from repro.core import AttackTagger
from repro.core.alerts import Alert, AttackStage, DEFAULT_VOCABULARY
from repro.incidents import DEFAULT_CATALOGUE
from repro.telemetry import ZeekMonitor
from repro.testbed import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    TestbedPipeline,
    read_checkpoint,
    write_checkpoint,
)

#: Alert names the default catalogue's first pattern fires on, plus a
#: benign-ish name -- enough vocabulary to drive real decoder state.
_PATTERNS = list(DEFAULT_CATALOGUE)
_ATTACK_NAMES = list(_PATTERNS[0].names)
_ALL_NAMES = sorted({name for pattern in _PATTERNS for name in pattern.names})


def _build_pipeline(
    *, n_shards: int = 1, backend: str = "serial", max_window: int = 64
) -> TestbedPipeline:
    tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=max_window)
    return TestbedPipeline(
        detectors={"factor_graph": tagger},
        n_shards=n_shards,
        shard_backend=backend,
    )


def _mixed_stream(*, seed: int = 7, n_entities: int = 12, length: int = 240) -> list[Alert]:
    """Interleaved attack chains across entities, strictly increasing time."""
    rng = np.random.default_rng(seed)
    queues = {
        f"user:u{index:02d}": list(_PATTERNS[index % len(_PATTERNS)].names)
        for index in range(n_entities)
    }
    entities = list(queues)
    stream: list[Alert] = []
    timestamp = 0.0
    while len(stream) < length:
        entity = entities[int(rng.integers(0, len(entities)))]
        queue = queues[entity]
        if not queue:
            queue.extend(_PATTERNS[int(rng.integers(0, len(_PATTERNS)))].names)
        timestamp += float(rng.uniform(0.1, 2.0))
        stream.append(Alert(timestamp, queue.pop(0), entity))
    return stream


def _counters(pipeline: TestbedPipeline) -> dict:
    summary = pipeline.summary()
    return {
        key: summary[key]
        for key in (
            "raw_records",
            "normalized_alerts",
            "filtered_alerts",
            "detections",
            "responses",
            "notifications",
            "blocked_sources",
        )
    }


class TestCheckpointFile:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "one.ckpt"
        payload = {"alpha": [1, 2.5, "x"], "beta": ("user:α", b"blob")}
        size = write_checkpoint(path, payload)
        assert path.stat().st_size == size
        assert read_checkpoint(path) == payload

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    def test_foreign_version_rejected(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION + 1) + b"x"
        )
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        write_checkpoint(path, {"key": list(range(100))})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            read_checkpoint(path)

    def test_unpicklable_payload_fails_without_leaving_files(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(CheckpointError, match="not picklable"):
            write_checkpoint(path, {"fn": lambda: None})
        assert list(tmp_path.iterdir()) == [], "no target and no temp litter"

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "same.ckpt"
        write_checkpoint(path, {"generation": 1})
        write_checkpoint(path, {"generation": 2})
        assert read_checkpoint(path) == {"generation": 2}
        assert list(tmp_path.iterdir()) == [path]


class TestCheckpointStore:
    def test_rejects_bad_retention(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointStore(tmp_path, keep_last=0)

    def test_empty_store_has_no_latest_and_cannot_load(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpts")
        assert store.sequences() == []
        assert store.latest() is None
        with pytest.raises(CheckpointError, match="no checkpoints"):
            store.load_latest(_build_pipeline())

    def test_save_numbers_monotonically_and_prunes(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        stream = _mixed_stream(length=90)
        with _build_pipeline() as pipeline:
            for start in range(0, 90, 30):
                pipeline.ingest_alerts(stream[start : start + 30])
                store.save(pipeline)
        assert store.sequences() == [2, 3], "oldest pruned after the save"
        assert store.latest() == store.path_for(3)

    def test_load_latest_continues_bit_identically(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stream = _mixed_stream(length=180)
        with _build_pipeline() as reference:
            reference.ingest_alerts(stream[:90])
            store.save(reference)
            tail = reference.ingest_alerts(stream[90:])
        with _build_pipeline() as restored:
            store.load_latest(restored)
            assert restored.ingest_alerts(stream[90:]) == tail


@pytest.mark.parametrize(
    "n_shards,backend",
    [(1, "serial"), (4, "serial"), (2, "process")],
    ids=["serial-1", "serial-4", "process-2"],
)
class TestPipelineCheckpointRestore:
    def test_restore_continues_bit_identically(self, tmp_path, n_shards, backend):
        stream = _mixed_stream(length=240)
        path = tmp_path / "mid.ckpt"
        with _build_pipeline(n_shards=n_shards, backend=backend) as reference:
            reference.ingest_alerts(stream[:120])
            reference.checkpoint(path)
            log_at_checkpoint = list(reference.detections)
            tail = reference.ingest_alerts(stream[120:])
            expected_counters = _counters(reference)
            expected_log = list(reference.detections)
        with _build_pipeline(n_shards=n_shards, backend=backend) as restored:
            restored.restore(path)
            assert list(restored.detections) == log_at_checkpoint
            assert restored.ingest_alerts(stream[120:]) == tail
            assert _counters(restored) == expected_counters
            assert list(restored.detections) == expected_log

    def test_recheckpoint_is_byte_identical(self, tmp_path, n_shards, backend):
        stream = _mixed_stream(length=160)
        original = tmp_path / "orig.ckpt"
        again = tmp_path / "again.ckpt"
        with _build_pipeline(n_shards=n_shards, backend=backend) as reference:
            reference.ingest_alerts(stream)
            reference.checkpoint(original)
        with _build_pipeline(n_shards=n_shards, backend=backend) as restored:
            restored.restore(original)
            restored.checkpoint(again)
        assert original.read_bytes() == again.read_bytes()


def _scan_batches(n_batches: int, *, targets: int = 16) -> list[list]:
    """Pure mass-scanner traffic: one source, unanswered S0 probes.

    Every batch sweeps ``targets`` distinct nodes, so the scan filter
    suppresses the source and nothing reaches a detector.
    """
    batches, step = [], 0
    for _ in range(n_batches):
        batch = []
        for node in range(targets):
            zeek = ZeekMonitor(f"node{node:02d}")
            zeek.record_connection(
                float(step), "203.0.113.9", 40000 + node, f"10.1.0.{node}", 22,
                conn_state="S0",
            )  # fmt: skip
            batch.extend(zeek.records)
            step += 1
        batches.append(batch)
    return batches


class TestCheckpointHoldsStateNotTraffic:
    """The mirror forwards and counts; a checkpoint carries no traffic."""

    def test_size_does_not_grow_with_suppressed_traffic(self, tmp_path):
        sizes = []
        for n_batches in (4, 40):
            with _build_pipeline() as pipeline:
                assert pipeline.ingest_raw_stream(_scan_batches(n_batches)) == []
                summary = pipeline.summary()
                assert summary["raw_records"] == 16 * n_batches
                assert summary["filtered_alerts"] == 0
                sizes.append(pipeline.checkpoint(tmp_path / f"{n_batches}.ckpt"))
        # Ten times the traffic may widen a handful of pickled integer
        # counters (1 -> 2 -> 4 payload bytes each); nothing else moves.
        assert abs(sizes[1] - sizes[0]) <= 32, sizes

    def test_legacy_mirror_payload_restores_like_the_new_one(self, tmp_path):
        # A version-1 checkpoint written when the mirror still archived
        # what it carried, the stage and pools still counted an
        # in-flight high-water mark, and raw records published on the
        # mirror still waited for the next ingestion: the two buffer
        # lists, the bound, the two counters and the (empty) pending-raw
        # list are ignored.
        stream = _mixed_stream(length=160)
        raw_seen, alerts_seen = [], []
        with _build_pipeline() as reference:
            reference.mirror.subscribe_raw(raw_seen.append)
            reference.mirror.subscribe_alerts(alerts_seen.append)
            reference.ingest_raw_stream(_scan_batches(2))
            reference.ingest_alerts(stream[:80])
            payload = reference._checkpoint_payload()
            assert set(payload["mirror"]) == {"stats"}
            assert "inflight_high_water" not in payload
            assert "inflight_high_water" not in payload["pools"]["factor_graph"]
            assert "pending_raw" not in payload
            legacy = dict(
                payload,
                pending_raw=[],
                inflight_high_water=2,
                pools={
                    name: dict(state, inflight_high_water=2)
                    for name, state in payload["pools"].items()
                },
                mirror={
                    "max_buffer": None,
                    "stats": payload["mirror"]["stats"],
                    "raw_buffer": raw_seen,
                    "alert_buffer": alerts_seen,
                },
            )
            assert raw_seen and alerts_seen
            reference.checkpoint(tmp_path / "new.ckpt")
            write_checkpoint(tmp_path / "legacy.ckpt", legacy)
        outcomes = []
        for shape in ("new", "legacy"):
            with _build_pipeline() as restored:
                restored.restore(tmp_path / f"{shape}.ckpt")
                restored.checkpoint(tmp_path / f"{shape}.again.ckpt")
                tail = restored.ingest_alerts(stream[80:])
                outcomes.append(
                    (tail, list(restored.detections), _counters(restored),
                     restored.mirror.stats)
                )  # fmt: skip
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2]["detections"] > 0
        assert (tmp_path / "legacy.again.ckpt").read_bytes() == (
            tmp_path / "new.again.ckpt"
        ).read_bytes()

    def test_legacy_payload_owing_raw_records_is_refused(self, tmp_path):
        # Raw records still waiting for detection have no way in any
        # more: the restore refuses them before touching any state.
        with _build_pipeline() as reference:
            reference.ingest_raw_stream(_scan_batches(1))
            payload = reference._checkpoint_payload()
        owed = _scan_batches(1)[0][:1]
        write_checkpoint(tmp_path / "owing.ckpt", dict(payload, pending_raw=owed))
        write_checkpoint(tmp_path / "settled.ckpt", dict(payload, pending_raw=[]))
        with _build_pipeline() as restored:
            with pytest.raises(CheckpointError, match="1 raw record"):
                restored.restore(tmp_path / "owing.ckpt")
            assert restored.stats.raw_records == 0
            # The refusal left the pipeline pristine.
            restored.restore(tmp_path / "settled.ckpt")
            assert restored.stats.raw_records == 16


class TestCheckpointBytesArePinned:
    """Decode scratch -- kernel, pattern table, window arena -- never
    reaches a checkpoint: the bytes of one fixed drive are pinned."""

    #: sha256 of the checkpoint written by the drive below: first
    #: recorded on the tree of commit f6f6f6b (before the window arena
    #: existed), then re-derived on commit 12619b2 by writing that drive's
    #: payload with its empty ``pending_raw`` list removed -- the only
    #: key the payload lost since.
    DIGEST = "41ef93444e18ea96195dae92fe372d27f780a5a71f81dcd4f0069148d6d0af5d"
    SIZE = 74868

    def test_pinned_drive_writes_the_recorded_bytes(self, tmp_path, monkeypatch):
        # Wall-clock fields (stage/busy/kernel seconds) become a count
        # of clock reads, so the bytes are a pure function of the code.
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        monkeypatch.setattr(time, "process_time", lambda: float(next(ticks)))
        background = [
            spec.name for spec in DEFAULT_VOCABULARY if spec.stage is AttackStage.BACKGROUND
        ]
        rng = np.random.default_rng(20)
        entities = [f"user:steady-{index:02d}" for index in range(24)]
        path = tmp_path / "pinned.ckpt"
        with _build_pipeline(n_shards=2, max_window=8) as pipeline:
            pipeline.ingest_raw(ingest_corpus.build_corpus())
            # Window-saturating steady stream: every entity slides its
            # window twice over, two alerts per entity per batch.
            for batch in range(12):
                names = rng.integers(0, len(background), size=2 * len(entities))
                pipeline.ingest_alerts(
                    [
                        Alert(1e6 + batch * 100.0 + i, background[names[i]], entities[i % len(entities)])
                        for i in range(2 * len(entities))
                    ]
                )
            pipeline.checkpoint(path)
        blob = path.read_bytes()
        assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (self.DIGEST, self.SIZE)


class TestRestoreMisuse:
    """Misuse must raise clearly *before* any state is mutated."""

    def _checkpoint_of(self, tmp_path, **kwargs) -> Path:
        path = tmp_path / "seed.ckpt"
        stream = _mixed_stream(length=120)
        with _build_pipeline(**kwargs) as pipeline:
            pipeline.ingest_alerts(stream)
            pipeline.checkpoint(path)
        return path

    def test_restore_into_driven_pipeline_raises(self, tmp_path):
        path = self._checkpoint_of(tmp_path)
        with _build_pipeline() as driven:
            driven.ingest_alerts(_mixed_stream(seed=11, length=30))
            before = list(driven.detections)
            with pytest.raises(RuntimeError, match="freshly constructed"):
                driven.restore(path)
            assert list(driven.detections) == before, "failed restore mutated state"

    def test_checkpoint_with_a_batch_in_flight_raises(self, tmp_path):
        with _build_pipeline() as pipeline:
            pipeline.submit_alerts(_mixed_stream(length=30))
            with pytest.raises(RuntimeError, match="cannot checkpoint with 1"):
                pipeline.checkpoint(tmp_path / "torn.ckpt")
            assert not (tmp_path / "torn.ckpt").exists()
            pipeline.collect_detections()
            assert pipeline.checkpoint(tmp_path / "whole.ckpt") > 0

    def test_double_restore_raises(self, tmp_path):
        path = self._checkpoint_of(tmp_path)
        with _build_pipeline() as pipeline:
            pipeline.restore(path)
            after_first = list(pipeline.detections)
            with pytest.raises(RuntimeError, match="already restored"):
                pipeline.restore(path)
            assert list(pipeline.detections) == after_first

    def test_shard_count_mismatch_raises(self, tmp_path):
        path = self._checkpoint_of(tmp_path, n_shards=2)
        with _build_pipeline(n_shards=4) as pipeline:
            with pytest.raises(CheckpointError, match="n_shards"):
                pipeline.restore(path)
            assert list(pipeline.detections) == []

    def test_backend_mismatch_raises(self, tmp_path):
        path = self._checkpoint_of(tmp_path, n_shards=2, backend="serial")
        with _build_pipeline(n_shards=2, backend="process") as pipeline:
            with pytest.raises(CheckpointError, match="backend"):
                pipeline.restore(path)


class TestPoolRestoreMisuse:
    """``ShardedDetectorPool.restore_state`` refuses before touching a shard."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_missing_shard_blob_is_refused_not_prefix_restored(self, backend):
        from repro.testbed import ShardedDetectorPool

        def pool():
            return ShardedDetectorPool.from_template(
                AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
                n_shards=3,
                backend=backend,
            )

        stream = _mixed_stream(length=120)
        with pool() as source, pool() as target:
            source.observe_batch(stream)
            state = source.snapshot_state()
            assert len(state["shards"]) == 3
            pristine = target.snapshot_state()
            # A blob short: zip() would silently restore shards 0 and 1
            # and leave shard 2 pristine under a full detection log.
            for shards in (state["shards"][:2], state["shards"] + state["shards"][:1]):
                with pytest.raises(ValueError, match="shard blob"):
                    target.restore_state(dict(state, shards=shards))
                assert target.detections == []
                assert target.snapshot_state() == pristine
            target.restore_state(state)
            assert target.detections == source.detections
            assert target.snapshot_state()["shards"] == state["shards"]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shape_mismatch_is_still_refused(self, backend):
        from repro.testbed import ShardedDetectorPool

        other = "process" if backend == "serial" else "serial"
        with ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend=backend
        ) as pool:
            state = pool.snapshot_state()
            with pytest.raises(ValueError, match="n_shards=3"):
                pool.restore_state(dict(state, n_shards=3))
            with pytest.raises(ValueError, match=f"backend='{other}'"):
                pool.restore_state(dict(state, backend=other))


@st.composite
def _hypothesis_stream(draw) -> list[Alert]:
    """Short adversarial streams: unicode entities, bursty repeats.

    Entities are drawn from a pool that mixes plain ASCII with
    non-Latin scripts and astral-plane codepoints; per-entity volumes
    are skewed so some entities saturate a small decode window.
    """
    entity_pool = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", blacklist_categories=("Cs",), min_codepoint=33
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_ALL_NAMES),
                st.sampled_from(entity_pool),
                st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    stream, timestamp = [], 0.0
    for name, entity, delta in events:
        timestamp += delta
        stream.append(Alert(timestamp, name, entity))
    return stream


class TestCheckpointDeterminismProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(stream=_hypothesis_stream())
    def test_checkpoint_restore_checkpoint_is_byte_identical(self, stream):
        # max_window=4 forces window saturation/eviction on bursty
        # entities, the decoder state hardest to serialise canonically.
        with tempfile.TemporaryDirectory() as workdir:
            original = Path(workdir) / "orig.ckpt"
            again = Path(workdir) / "again.ckpt"
            with _build_pipeline(max_window=4) as reference:
                reference.ingest_alerts(stream)
                reference.checkpoint(original)
            with _build_pipeline(max_window=4) as restored:
                restored.restore(original)
                restored.checkpoint(again)
            assert original.read_bytes() == again.read_bytes()
