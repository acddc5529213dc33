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

import dataclasses
import hashlib
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ingest_corpus
from repro.core import AttackTagger
from repro.core.alerts import Alert, AttackStage, DEFAULT_VOCABULARY
from repro.core.factors import default_parameters
from repro.incidents import DEFAULT_CATALOGUE
from repro.telemetry import ZeekMonitor
from repro.testbed.bhr import ScanRecord
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

    def test_version_1_file_is_refused_before_unpickling(self, tmp_path):
        # Version 2 dropped the traffic mirror and every detection log
        # but the pipeline's; there is no migration.
        path = tmp_path / "v1.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 1; this build reads version 4"):
            read_checkpoint(path)

    def test_version_2_file_is_refused_before_unpickling(self, tmp_path):
        # Version 3 tracks carry no ``decoder`` key; there is no migration.
        path = tmp_path / "v2.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 2; this build reads version 4"):
            read_checkpoint(path)

    def test_version_3_file_is_refused_before_unpickling(self, tmp_path):
        # Version 4 shards carry exported tracks, not pickled replicas
        # (whose model a version-3 restore ran); there is no migration.
        path = tmp_path / "v3.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 3) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 3; this build reads version 4"):
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
    """A checkpoint carries detector state and counters, never traffic."""

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

    def test_restore_loads_counters_into_the_live_ledger(self, tmp_path):
        # The stats object survives a restore (the service's admission
        # controller holds it) and takes the checkpoint's counters,
        # drops included.
        with _build_pipeline() as reference:
            reference.ingest_raw_stream(_scan_batches(2))
            reference.ingest_alerts(_mixed_stream(length=80))
            reference.stats.dropped_raw, reference.stats.dropped_alerts = 5, 7
            reference.checkpoint(tmp_path / "ledger.ckpt")
            expected = reference.summary()
        with _build_pipeline() as restored:
            ledger = restored.stats
            restored.restore(tmp_path / "ledger.ckpt")
            assert restored.stats is ledger
            assert (ledger.dropped_raw, ledger.dropped_alerts) == (5, 7)
            summary = restored.summary()
            for key in ("raw_records", "normalized_alerts", "filtered_alerts",
                        "detections", "responses", "dropped_raw", "dropped_alerts"):
                assert summary[key] == expected[key], key

    def test_a_version_1_payload_owing_raw_records_is_refused(self, tmp_path):
        # A version-1 file -- here one still carrying the traffic mirror
        # and raw records owed to detection -- is refused by the version
        # check before any state is touched.
        with _build_pipeline() as reference:
            reference.ingest_raw_stream(_scan_batches(1))
            payload = reference._checkpoint_payload()
            reference.checkpoint(tmp_path / "settled.ckpt")
        legacy = dict(
            payload,
            pending_raw=_scan_batches(1)[0][:1],
            mirror={"stats": {"raw_records": 16, "alerts": 0}},
        )
        (tmp_path / "owing.ckpt").write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", 1) + pickle.dumps(legacy)
        )
        with _build_pipeline() as restored:
            with pytest.raises(CheckpointError, match="version 1; this build reads version 4"):
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
    #: payload with its empty ``pending_raw`` list removed, then on
    #: commit 00031a9 by reading that drive's checkpoint on a tree whose
    #: ``FilterStats`` has no ``benign_suppressed`` field, deleting that
    #: attribute from ``payload["filter_stats"]`` and rewriting the
    #: payload -- the only value the payload lost since.  Version 2 was
    #: re-derived on the tree of commit 0f21486 from that drive's
    #: version-1 checkpoint (f5a0ee18..., 74 846 bytes) in four steps:
    #:
    #: 1. delete the pool's ``"detections"``, each shard replica's
    #:    ``_detections`` attribute and the payload's ``"mirror"``;
    #: 2. set ``payload["stats"].dropped_raw`` / ``.dropped_alerts``
    #:    from the deleted ``mirror["stats"]`` (both 0);
    #: 3. re-pickle each shard replica with ``pickle.HIGHEST_PROTOCOL``,
    #:    after re-interning the keys of every tracked alert's and
    #:    detection trigger's ``attributes`` (unpickling interns
    #:    instance attribute names but not those equal dict keys, so a
    #:    plain re-pickle would lose the live replica's string sharing);
    #: 4. frame the canonical pickle of the payload as version 2.
    #:
    #: Version 3 was re-derived on the tree of commit aadb8dc from that
    #: drive's version-2 checkpoint (8e3d2c4e..., 74 692 bytes), on that
    #: tree, in three steps:
    #:
    #: 1. unpickle each shard replica and delete the ``decoder`` key
    #:    (``None``) from every track's ``__dict__``;
    #: 2. re-intern the tracked alerts' and detection triggers'
    #:    ``attributes`` keys, as in step 3 above, and re-pickle each
    #:    replica with ``pickle.HIGHEST_PROTOCOL`` -- a tagger's state
    #:    being its ``__dict__`` without ``_arena`` and with
    #:    ``_batch_kernel`` set to ``None``, a track's its ``__dict__``
    #:    without ``slot`` (what this tree pickles);
    #: 3. frame the canonical pickle of the payload as version 3.
    #:
    #: Up to version 3 the drive ran with ``time.perf_counter`` and
    #: ``time.process_time`` patched to count clock reads, since the
    #: payload carried wall-clock seconds.  Version 4 carries none, so
    #: the drive runs on the real clocks.  It was re-derived from that
    #: drive's version-3 checkpoint (58c2b14e..., 74 298 bytes, written
    #: under the patch by the version-3 code) in five steps:
    #:
    #: 1. replace ``config["pools"]`` (the sorted pool names) by
    #:    ``{"factor_graph": model_digest(template)}``, the template
    #:    being ``AttackTagger(patterns=list(DEFAULT_CATALOGUE),
    #:    max_window=8)``;
    #: 2. replace ``payload["stats"]`` by the dict of its counters in
    #:    field order (``raw_records`` .. ``responses``,
    #:    ``dropped_raw``, ``dropped_alerts``): ``detection_seconds``,
    #:    ``response_seconds`` and ``stage_seconds`` go;
    #: 3. delete ``router["scans"]``, the payload's ``"audit_log"`` and
    #:    ``"filter_stats"``, and every pool's ``alerts_routed``,
    #:    ``busy_seconds``, ``kernel_seconds`` and three ``*_retired``
    #:    keys;
    #: 4. unpickle each shard replica, re-intern its tracked alerts' and
    #:    detection triggers' ``attributes`` keys (as in version 2's
    #:    step 3) and replace the blob by
    #:    ``pickle.dumps(replica.export_entity_tracks(),
    #:    pickle.HIGHEST_PROTOCOL)``;
    #: 5. frame the canonical pickle of the payload as version 4.
    DIGEST = "80154b3c4b5927666f44605f0c1237564b5914ea2530a62458c3dd4d3e72cec6"
    SIZE = 32550

    def test_pinned_drive_writes_the_recorded_bytes(self, tmp_path):
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

    @pytest.mark.parametrize("held", ["scans", "block"])
    def test_restore_into_a_router_holding_data_raises(self, tmp_path, held):
        path = tmp_path / "fresh.ckpt"
        with _build_pipeline() as fresh:
            fresh.checkpoint(path)
        with _build_pipeline() as pipeline:
            router = pipeline.router
            if held == "scans":
                router.record_scans(
                    ScanRecord(float(step), "198.51.100.7", "141.142.2.10", 22) for step in range(5)
                )
            else:
                router.block("198.51.100.7", reason="scan", now=5.0)
            before = (dict(router.scan_counter), router.history)
            with pytest.raises(RuntimeError, match="freshly constructed"):
                pipeline.restore(path)
            assert (dict(router.scan_counter), router.history) == before

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


def _tagger_pipeline(tagger: AttackTagger, **options) -> TestbedPipeline:
    return TestbedPipeline(detectors={"factor_graph": tagger}, **options)


#: Benign names: a long stream of them never fires, so the entity keeps
#: its decode state across the whole window.
_BACKGROUND = [spec.name for spec in DEFAULT_VOCABULARY if spec.stage is AttackStage.BACKGROUND]


class TestRestoreRunsThisPipelinesModel:
    """A checkpoint carries per-entity tracks and the digest of the
    model they were decoded with; a restore adopts the tracks into
    replicas of *its own* templates, and refuses any other model."""

    @pytest.mark.parametrize(
        "changed",
        [
            {"max_window": 32},
            {"detection_threshold": 0.7},
            {"engine": "naive"},
            {"parameters": dataclasses.replace(
                default_parameters(DEFAULT_VOCABULARY), pattern_weights={_PATTERNS[0].name: 3.0}
            )},
        ],
        ids=["max_window", "detection_threshold", "engine", "parameters"],
    )
    def test_a_different_model_is_refused_before_any_state_moves(self, tmp_path, changed):
        path = tmp_path / "model.ckpt"
        with _build_pipeline(n_shards=2) as writer:
            writer.ingest_alerts(_mixed_stream(length=120))
            writer.checkpoint(path)
        other = AttackTagger(**{"patterns": _PATTERNS, **changed})
        with _tagger_pipeline(other, n_shards=2) as reader:
            with pytest.raises(CheckpointError, match="does not match"):
                reader.restore(path)
            # Untouched: nothing restored, still pristine, still usable.
            assert reader.detections == [] and reader.stats.raw_records == 0
            assert not reader._restored
            assert [shard.entities() for shard in reader.detector_pools["factor_graph"].shards] == [[], []]
            reader.ingest_alerts(_mixed_stream(length=20))
        # The same model restores.
        with _build_pipeline(n_shards=2) as again:
            again.restore(path)

    def test_a_window_64_checkpoint_never_runs_in_a_window_32_pipeline(self, tmp_path):
        # One entity, 50 alerts 4 000 s apart at threshold 0.7 / W 64.
        # Adopted into W 32 replicas after a reshard, its 50-alert track
        # overflowed the W 32 fill storage on the next alert.
        alerts = [
            Alert(4000.0 * step, _BACKGROUND[step % len(_BACKGROUND)], "user:slow")
            for step in range(51)
        ]
        path = tmp_path / "w64.ckpt"

        def pipeline(window: int) -> TestbedPipeline:
            tagger = AttackTagger(patterns=_PATTERNS, detection_threshold=0.7, max_window=window)
            return _tagger_pipeline(tagger)

        with pipeline(64) as writer:
            assert writer.ingest_alerts(alerts[:50]) == []
            writer.checkpoint(path)
        with pipeline(32) as reader:
            with pytest.raises(CheckpointError, match="does not match"):
                reader.restore(path)
            reader.reshard(2)
            assert reader.ingest_alerts(alerts[50:]) == []

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_restore_then_reshard_continues_bit_identically(self, tmp_path, backend):
        stream = _mixed_stream(length=240)
        path = tmp_path / "mid.ckpt"
        with _build_pipeline(n_shards=2, backend=backend) as reference:
            reference.ingest_alerts(stream[:120])
            reference.checkpoint(path)
            tail = reference.ingest_alerts(stream[120:])
            expected = (_counters(reference), list(reference.detections))
        with _build_pipeline(n_shards=2, backend=backend) as restored:
            restored.restore(path)
            restored.reshard(3)
            assert restored.ingest_alerts(stream[120:]) == tail
            assert (_counters(restored), list(restored.detections)) == expected

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_no_pool_verb_pickles_a_detector_or_builds_one_in_the_parent(self, monkeypatch, backend):
        # Serial replicas live in this process, so none may be pickled;
        # process replicas live in the workers, so none may be built here
        # (a spawned worker's template crossing its pipe is no verb).
        from repro.testbed import ShardedDetectorPool

        stream = _mixed_stream(length=120)
        touched = []
        resolve, getstate = AttackTagger._resolve, AttackTagger.__getstate__
        monkeypatch.setattr(AttackTagger, "_resolve", lambda self: touched.append("built") or resolve(self))
        monkeypatch.setattr(AttackTagger, "__getstate__", lambda self: touched.append("pickled") or getstate(self))
        forbidden = "pickled" if backend == "serial" else "built"

        def pool():
            return ShardedDetectorPool.from_template(AttackTagger(patterns=_PATTERNS), n_shards=2, backend=backend)

        with pool() as moved, pool() as reference:
            for each in (moved, reference):
                each.observe_batch(stream[:60])
            touched.clear()
            state = moved.snapshot_state()
            moved.reshard(3)
            moved.reshard(2)
            moved.restore_state(state)
            assert forbidden not in touched
            assert moved.observe_batch(stream[60:]) == reference.observe_batch(stream[60:])


#: One drive's checkpoint, written in a subprocess: a tagger and a
#: rule engine (whose per-entity state includes a set) over 2 shards.
_HASH_SEED_DRIVE = """
import sys
import numpy as np
from repro.core import AttackTagger
from repro.core.alerts import Alert
from repro.core.rule_based import RuleBasedDetector
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import TestbedPipeline

patterns = list(DEFAULT_CATALOGUE)
rng = np.random.default_rng(5)
stream = [
    Alert(float(step), name, f"user:u{entity:02d}")
    for step, entity in enumerate(rng.integers(0, 16, size=48))
    for name in patterns[int(entity) % len(patterns)].names[:2]
]
detectors = {"factor_graph": AttackTagger(patterns=patterns), "rules": RuleBasedDetector()}
with TestbedPipeline(detectors=detectors, n_shards=2) as pipeline:
    pipeline.ingest_alerts(sorted(stream, key=lambda alert: alert.timestamp))
    assert pipeline.detections_by("rules"), "the rule engine must hold detected entities"
    pipeline.checkpoint(sys.argv[1])
"""


class TestCheckpointBytesDoNotDependOnTheProcess:
    def test_two_hash_seeds_write_the_same_bytes(self, tmp_path):
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parent.parent
        blobs = []
        for seed in ("0", "4242"):
            path = tmp_path / f"seed-{seed}.ckpt"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
            subprocess.run(
                [sys.executable, "-c", _HASH_SEED_DRIVE, str(path)], env=env, check=True, timeout=120
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


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
            # and leave shard 2 pristine under the source's telemetry.
            for shards in (state["shards"][:2], state["shards"] + state["shards"][:1]):
                with pytest.raises(ValueError, match="shard blob"):
                    target.restore_state(dict(state, shards=shards))
                assert target.snapshot_state() == pristine
            target.restore_state(state)
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
