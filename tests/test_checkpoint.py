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

import copy
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
from repro.core.attack_tagger import Detection
from repro.core.factors import default_parameters
from repro.core.states import HiddenState
from repro.incidents import DEFAULT_CATALOGUE
from repro.telemetry import ZeekMonitor
from repro.telemetry.logsource import MonitorKind, RawLogRecord
from repro.testbed.bhr import ScanRecord
from repro.testbed import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    Honeypot,
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
        with pytest.raises(CheckpointError, match="version 1; this build reads version 7"):
            read_checkpoint(path)

    def test_version_2_file_is_refused_before_unpickling(self, tmp_path):
        # Version 3 tracks carry no ``decoder`` key; there is no migration.
        path = tmp_path / "v2.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 2; this build reads version 7"):
            read_checkpoint(path)

    def test_version_3_file_is_refused_before_unpickling(self, tmp_path):
        # Version 4 shards carry exported tracks, not pickled replicas
        # (whose model a version-3 restore ran); there is no migration.
        path = tmp_path / "v3.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 3) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 3; this build reads version 7"):
            read_checkpoint(path)

    def test_version_4_file_is_refused_before_unpickling(self, tmp_path):
        # Version 5 groups the payload by declared component, carries the
        # normaliser's counters and no honeypot; there is no migration.
        path = tmp_path / "v4.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 4) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 4; this build reads version 7"):
            read_checkpoint(path)

    def test_version_5_file_is_refused_before_unpickling(self, tmp_path):
        # Version 6 carries the sanitiser's audit report; there is no
        # migration.
        path = tmp_path / "v5.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 5) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 5; this build reads version 7"):
            read_checkpoint(path)

    def test_version_6_file_is_refused_before_unpickling(self, tmp_path):
        # Version 7 tracks hold alert names, not ``Alert`` objects; there
        # is no migration.
        path = tmp_path / "v6.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 6) + b"not a pickle")
        with pytest.raises(CheckpointError, match="version 6; this build reads version 7"):
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
            with pytest.raises(CheckpointError, match="version 1; this build reads version 7"):
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
    #:
    #: Version 5 was re-derived from that drive's version-4 checkpoint
    #: (80154b3c..., 32 550 bytes, written by the version-4 code of
    #: commit 1104323) in four steps:
    #:
    #: 1. regroup the payload by component, in the order ``config``,
    #:    ``stats`` (unchanged), ``normalizer``, ``pipeline``
    #:    (``{"detections": payload["detections"]}``), ``responder``,
    #:    ``router``, ``pools`` (unchanged): the responder's
    #:    ``quarantined_entities`` list becomes a set, and the router's
    #:    ``blocks``/``history``/``scan_counter``/``scan_watches`` become
    #:    ``_blocks``/``_history``/``scan_counter`` (a ``Counter``)/
    #:    ``_scan_watches`` (each pending list a set);
    #: 2. delete ``payload["honeypot"]`` (``None``; ``config`` keeps
    #:    ``has_honeypot``);
    #: 3. set ``normalizer`` to ``{"dropped": 42, "malformed": 0}``, the
    #:    counters that code's normaliser held at the end of the drive;
    #: 4. frame the canonical pickle of the payload, its sets written
    #:    sorted by ``save_set``, as version 5.
    #:
    #: Version 6 was re-derived from that drive's version-5 checkpoint
    #: (6ae24a27..., 32 651 bytes, written by the version-5 code of
    #: commit 391d185) in two steps:
    #:
    #: 1. insert ``sanitizer`` right after ``normalizer``:
    #:    ``{"report": SanitizationReport(emails=4, ssns=1, phones=3,
    #:    ips_truncated=5, home_paths=5)}``, the report that code's
    #:    sanitiser held at the end of the drive;
    #: 2. frame the canonical pickle of the payload as version 6.
    #:
    #: Version 7 was re-derived from that drive's version-6 checkpoint
    #: (311de31f..., 32 810 bytes, written by the version-6 code of
    #: commit ca16e06) in three steps:
    #:
    #: 1. unpickle each shard's tracks blob and, in every track's
    #:    ``__dict__``, replace ``alerts`` by ``names``, a deque of its
    #:    alerts' names with the same ``maxlen`` (keys in the order
    #:    ``entity``, ``names``, ``detected``);
    #: 2. re-intern the detection triggers' ``attributes`` keys (as in
    #:    version 2's step 3) and replace the blob by
    #:    ``pickle.dumps(tracks, pickle.HIGHEST_PROTOCOL)``;
    #: 3. frame the canonical pickle of the payload as version 7.
    #:
    #: Detection became final within version 7 (a detected entity stops
    #: recording names), so the file moved through its detected tracks'
    #: names only.  It was re-derived from that drive's earlier
    #: version-7 checkpoint (ecee71a7..., 9 615 bytes, written by the
    #: code of commit ba3a71d) in three steps:
    #:
    #: 1. unpickle each shard's tracks blob and, for every detected
    #:    track, replace ``names`` by a deque with the same ``maxlen`` of
    #:    the names of the entity's alerts the detector observed up to
    #:    and including its detection's trigger, the newest
    #:    ``alert_index + 1`` of them (the window it was detected on),
    #:    each the string object of an equal name already in the blob --
    #:    a track's name first, else a trigger's -- as the arena's
    #:    interning shares them;
    #: 2. re-intern the detection triggers' ``attributes`` keys (as in
    #:    version 2's step 3) and replace the blob by
    #:    ``pickle.dumps(tracks, pickle.HIGHEST_PROTOCOL)``;
    #: 3. frame the canonical pickle of the payload as version 7.
    DIGEST = "fc9dd61b861ef9c5cfec2dfced85b77ee3ff0bd68d63ebba5a184c28c36f5de7"
    SIZE = 9437

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


class TestAnEarlierVersion7FileStillRestores:
    """Version 7 kept its fields and types when detection became final."""

    #: Written by the code of commit ba3a71d, whose detected tracks kept
    #: recording names: ``_mixed_stream(length=160)``, then 20 alerts
    #: each to ``user:steady-0`` .. ``-5`` (background names in turn, one
    #: every 1 000 s), through ``_build_pipeline(n_shards=2,
    #: max_window=8)``.  Its 12 detected tracks hold names that came
    #: after their detections, and its 6 live ones hold windows.
    FILE = Path(__file__).parent / "data" / "checkpoint-v7-e07a368f.ckpt"
    DIGEST = "e07a368f180e276ffd5a50e39b17fadbf74f092a5b880b5ffe76da0048ac1ed0"

    def test_it_restores_and_rewrites_byte_identically(self, tmp_path):
        blob = self.FILE.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.DIGEST
        again = tmp_path / "again.ckpt"
        with _build_pipeline(n_shards=2, max_window=8) as pipeline:
            pipeline.restore(self.FILE)
            assert len(pipeline.detections) == 12
            pipeline.checkpoint(again)
        assert again.read_bytes() == blob


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


def _honeypot_pipeline() -> TestbedPipeline:
    return TestbedPipeline(
        detectors={"factor_graph": AttackTagger(patterns=_PATTERNS)}, honeypot=Honeypot()
    )


def _connections_seen(pipeline: TestbedPipeline) -> int:
    return sum(entry.connections_seen for entry in pipeline.honeypot.entry_points.values())


def _probe_five_times(pipeline: TestbedPipeline) -> None:
    address = pipeline.honeypot.addresses()[0]
    for step in range(5):
        pipeline.honeypot.probe(float(step), "198.51.100.7", address)


#: A record no rule matches (no known monitor), and one whose field
#: makes the Zeek conn matcher raise.
_UNPARSEABLE = RawLogRecord(1.0, None, "h", "", {})
_MALFORMED = RawLogRecord(2.0, MonitorKind.ZEEK, "z", "", {"stream": "conn", "resp_p": "http"})

#: case -> (expectation, drive, read).  ``drive`` leaves one kind of
#: state in a pipeline, ``read`` reads it back.  "kept": restore into
#: the driven pipeline succeeds and leaves the state as it was;
#: "refused": restore into it raises and leaves the state as it was;
#: "carried": a checkpoint of the driven pipeline restores it.
_HELD_STATE = {
    "honeypot_probes": ("kept", _probe_five_times, _connections_seen),
    "dropped_raw": (
        "refused",
        lambda pipeline: setattr(pipeline.stats, "dropped_raw", 3),
        lambda pipeline: pipeline.stats.dropped_raw,
    ),
    "quarantined_entity": (
        "refused",
        lambda pipeline: pipeline.responder.quarantined_entities.add("user:q"),
        lambda pipeline: set(pipeline.responder.quarantined_entities),
    ),
    "pending_scan_watch": (
        "refused",
        lambda pipeline: pipeline.router.requeue_crossed_scanners(1000, ["198.51.100.7"]),
        lambda pipeline: copy.deepcopy(pipeline.router._scan_watches),
    ),
    "normalizer_dropped": (
        "carried",
        lambda pipeline: pipeline.ingest_raw([_UNPARSEABLE] * 3),
        lambda pipeline: pipeline.normalizer.dropped,
    ),
    "normalizer_malformed": (
        "carried",
        lambda pipeline: pipeline.ingest_raw([_MALFORMED] * 2),
        lambda pipeline: pipeline.normalizer.malformed,
    ),
}


class TestRestoreKeepsEveryKindOfState:
    """Each kind of state a restore used to wipe without a word: held
    in the target, it stays (the honeypot) or refuses the restore;
    held in the source, it travels."""

    @pytest.mark.parametrize("case", list(_HELD_STATE))
    def test_state_is_kept_refused_or_carried(self, tmp_path, case):
        expectation, drive, read = _HELD_STATE[case]
        path = tmp_path / "state.ckpt"
        if expectation == "carried":
            with _honeypot_pipeline() as source:
                drive(source)
                held = read(source)
                assert held
                source.checkpoint(path)
            with _honeypot_pipeline() as restored:
                restored.restore(path)
                assert read(restored) == held
            return
        with _honeypot_pipeline() as fresh:
            fresh.checkpoint(path)
        with _honeypot_pipeline() as target:
            drive(target)
            held = read(target)
            assert held
            if expectation == "refused":
                with pytest.raises(RuntimeError, match="freshly constructed"):
                    target.restore(path)
            else:
                target.restore(path)
            assert read(target) == held

    def test_the_sanitizer_report_of_the_ingest_corpus_is_carried(self, tmp_path):
        path = tmp_path / "report.ckpt"
        expected = {"emails": 4, "ssns": 1, "phones": 3, "ips_truncated": 5, "home_paths": 5}
        with _build_pipeline() as source:
            source.ingest_raw(ingest_corpus.build_corpus())
            held = dataclasses.asdict(source.normalizer.sanitizer.report)
            assert held == {**expected, "secrets": 0}
            source.checkpoint(path)
        with _build_pipeline() as restored:
            restored.restore(path)
            assert dataclasses.asdict(restored.normalizer.sanitizer.report) == held
        with _build_pipeline() as fresh:
            assert not fresh.normalizer.sanitizer.report  # all zero: pristine


#: Every attribute a checkpointed component holds besides its declared
#: ``stream_state``: wiring and configuration that an equal-config
#: pipeline rebuilds, the wall clock, the sanitiser's memo of clean
#: texts (it changes no output), and the restore-once flag.
_UNDECLARED = {
    "stats": {"stage_seconds"},
    "normalizer": {"vocabulary", "sanitizer", "rules"},
    "sanitizer": {"_ip_octets_kept", "_truncate_ips", "_clean"},
    "pipeline": {
        "vocabulary", "honeypot", "router", "bhr_client", "normalizer", "scan_filter",
        "n_shards", "shard_backend", "max_restarts", "max_inflight", "ring_capacity",
        "primary_detector", "detector_pools", "responder", "stats", "normalizer_stage",
        "filter_stage", "detection_stage", "response_stage", "_restored",
    },
    "responder": {"bhr", "honeypot", "policy"},
    "router": {"protected"},
}


#: Undeclared attributes an operation may move without moving state.
_UNTRACKED = {("stats", "stage_seconds"), ("sanitizer", "_clean")}


def _attributes(component) -> dict:
    """``vars(component)``, or its slots' values for a slotted class."""
    if hasattr(component, "__dict__"):
        return vars(component)
    return {slot: getattr(component, slot) for slot in type(component).__slots__}


def _component_state(pipeline: TestbedPipeline) -> dict:
    """Every component attribute: declared ones by deep value, the rest
    by identity and (for containers) shallow value; no wall clock and
    no memo."""
    state = {}
    for name, component in pipeline._stateful().items():
        for attribute, value in _attributes(component).items():
            if attribute in component.stream_state:
                state[name, attribute] = copy.deepcopy(value)
            elif (name, attribute) not in _UNTRACKED:
                shallow = copy.copy(value) if isinstance(value, (list, dict, set)) else value
                state[name, attribute] = (id(value), shallow)
    return state


_IPS = st.sampled_from(["198.51.100.7", "203.0.113.9", "192.0.2.1"])
_ALERTS = st.lists(
    st.builds(
        lambda step, name, entity: Alert(float(step), name, entity, source_ip="198.51.100.7"),
        st.integers(0, 100),
        st.sampled_from(_ALL_NAMES),
        st.sampled_from(["user:a", "user:β", "host:c"]),
    ),
    min_size=1,
    max_size=8,
).map(lambda alerts: sorted(alerts, key=lambda alert: alert.timestamp))
_RECORDS = st.lists(st.sampled_from([_UNPARSEABLE, _MALFORMED]), min_size=1, max_size=4)
_DETECTION = st.builds(
    lambda entity, ip: Detection(
        entity, 5.0, 0, Alert(5.0, _ATTACK_NAMES[0], entity, source_ip=ip), HiddenState.MALICIOUS, 0.9
    ),
    st.sampled_from(["user:a", "host:c"]),
    _IPS,
)
_THRESHOLD = st.integers(1, 2000)

#: Every public mutating operation of every checkpointed component, as
#: ``(component, operation, argument strategy)``.
_OPERATIONS = [
    ("pipeline", lambda p, alerts: p.ingest_alerts(alerts), _ALERTS),
    ("pipeline", lambda p, records: p.ingest_raw(records), _RECORDS),
    ("pipeline", lambda p, alerts: p.submit_alerts(alerts), _ALERTS),
    ("pipeline", lambda p, k: p.block_top_scanners(10.0, min_scans=k), _THRESHOLD),
    # The service's admission controller charging what it shed.
    ("stats", lambda p, k: setattr(p.stats, "dropped_raw", p.stats.dropped_raw + k), st.integers(1, 9)),
    ("stats", lambda p, k: setattr(p.stats, "dropped_alerts", p.stats.dropped_alerts + k), st.integers(1, 9)),
    ("normalizer", lambda p, records: p.normalizer.normalize_batch(records), _RECORDS),
    ("normalizer", lambda p, record: p.normalizer.normalize_record(record), st.just(_MALFORMED)),
    (
        "sanitizer",
        lambda p, text: p.normalizer.sanitizer.sanitize_text(text),
        st.sampled_from(["mail alice@example.org", "from 103.102.166.28", "read /home/alice/x"]),
    ),
    ("responder", lambda p, detection: p.responder.handle_detection(detection), _DETECTION),
    ("responder", lambda p, ip: p.responder.handle_mass_scanner(5.0, ip, 1200), _IPS),
    ("router", lambda p, ip: p.router.block(ip, reason="r", now=5.0), _IPS),
    ("router", lambda p, ip: p.bhr_client.block(ip, reason="r", now=5.0), _IPS),
    ("router", lambda p, ip: p.router.record_scan(ScanRecord(1.0, ip, "141.142.2.10", 22)), _IPS),
    (
        "router",
        lambda p, ips: p.router.record_scans(ScanRecord(1.0, ip, "141.142.2.10", 22) for ip in ips),
        st.lists(_IPS, min_size=1, max_size=4),
    ),
    ("router", lambda p, k: p.router.watch_scan_threshold(k), _THRESHOLD),
    ("router", lambda p, k: p.router.drain_crossed_scanners(k), _THRESHOLD),
    ("router", lambda p, ips: p.router.requeue_crossed_scanners(7, ips), st.lists(_IPS, max_size=3)),
]


class TestDeclaredStateIsComplete:
    """What a checkpoint carries is exactly each component's declared
    ``stream_state``: a new field is declared or listed above as wiring,
    and no operation moves anything else."""

    def test_every_attribute_is_declared_state_or_listed_wiring(self):
        with _honeypot_pipeline() as pipeline:
            components = pipeline._stateful()
            assert set(components) == set(_UNDECLARED)
            for name, component in components.items():
                declared = set(component.stream_state)
                assert len(declared) == len(component.stream_state), name
                assert not declared & _UNDECLARED[name], name
                assert set(_attributes(component)) == declared | _UNDECLARED[name], name
                assert not any(getattr(component, attribute) for attribute in declared), name

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), index=st.integers(0, len(_OPERATIONS) - 1))
    def test_an_operation_moves_only_declared_state_and_refuses_restore(self, data, index):
        name, operation, arguments = _OPERATIONS[index]
        with tempfile.TemporaryDirectory() as workdir, _honeypot_pipeline() as pipeline:
            fresh = Path(workdir) / "fresh.ckpt"
            pipeline.checkpoint(fresh)
            before = _component_state(pipeline)
            operation(pipeline, data.draw(arguments))
            after = _component_state(pipeline)
            assert set(after) == set(before), "an attribute appeared or vanished"
            changed = {key for key in before if before[key] != after[key]}
            assert changed, name
            assert all(
                attribute in pipeline._stateful()[component].stream_state
                for component, attribute in changed
            ), changed
            with pytest.raises(RuntimeError, match="freshly constructed"):
                pipeline.restore(fresh)
            assert _component_state(pipeline) == after
            pipeline.drain_inflight()


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
