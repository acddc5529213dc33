"""Overlapped-driver equivalence suite and the pipeline's one way in.

The pipeline's overlapped (double-buffered) drivers
(:meth:`TestbedPipeline.ingest_raw_stream` /
:meth:`TestbedPipeline.ingest_alert_batches`) normalise and filter
batch N+1 while the detection stage's shard workers hold batch N.  No
stage feeds state back into an earlier one, so the overlapped schedule
must be *bit-identical* to the batch-synchronous reference: same
detections (every field), same response records, same stats counters
-- for both sharding backends, at several shard counts.

This module also pins the single entry: detector controls need a
quiesced pipeline (they raise with a ticket in flight, so a stream is
split at them), and a raw record published straight onto the mirror
is counted and forwarded but never reaches detection.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core import AttackTagger
from repro.core.alerts import Alert
from repro.incidents import DEFAULT_CATALOGUE
from repro.telemetry import SyslogMonitor
from repro.testbed import (
    DetectionStage,
    ShardedDetectorPool,
    ShardWorkerError,
    TestbedPipeline,
)

from test_sharding import COUNTER_KEYS, PoisonDetector, build_mixed_stream

SHARD_COUNTS = (1, 2, 4)


def fresh_pipeline(n_shards: int, backend: str) -> TestbedPipeline:
    return TestbedPipeline(
        detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))},
        n_shards=n_shards,
        shard_backend=backend,
    )


def split_batches(stream: list, n_batches: int) -> list[list]:
    bounds = np.linspace(0, len(stream), n_batches + 1).astype(int)
    return [stream[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def run_batch_synchronous(batches, *, n_shards: int, backend: str):
    """The reference: one blocking ``ingest_alerts`` call per batch."""
    with fresh_pipeline(n_shards, backend) as pipeline:
        detections = []
        for batch in batches:
            detections.extend(pipeline.ingest_alerts(batch))
        return (
            detections,
            pipeline.summary(),
            list(pipeline.detections),
            list(pipeline.responder.notifications),
            list(pipeline.responder.actions),
        )


def run_overlapped(batches, *, n_shards: int, backend: str):
    with fresh_pipeline(n_shards, backend) as pipeline:
        detections = pipeline.ingest_alert_batches(batches)
        return (
            detections,
            pipeline.summary(),
            list(pipeline.detections),
            list(pipeline.responder.notifications),
            list(pipeline.responder.actions),
        )


@pytest.fixture(scope="module")
def mixed_batches():
    """Randomized multi-entity attack/benign stream, split into 6 batches."""
    return split_batches(
        build_mixed_stream(seed=31, n_entities=80, length=4_000), 6
    )


@pytest.fixture(scope="module")
def baseline(mixed_batches):
    """Unsharded batch-synchronous reference run."""
    return run_batch_synchronous(mixed_batches, n_shards=1, backend="serial")


class TestOverlapEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_overlapped_driver_is_bit_identical(
        self, mixed_batches, baseline, n_shards, backend
    ):
        base_detections, base_summary, base_log, base_notes, base_records = baseline
        detections, summary, log, notes, records = run_overlapped(
            mixed_batches, n_shards=n_shards, backend=backend
        )
        assert detections, "the mixed stream must produce detections"
        assert detections == base_detections
        assert log == base_log
        # Response path: same notifications and same response records.
        assert notes == base_notes
        assert records == base_records
        for key in COUNTER_KEYS:
            assert summary[key] == base_summary[key], key

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_overlap_matches_batch_sync_at_same_shard_count(
        self, mixed_batches, backend
    ):
        """Sharded sync vs sharded overlapped: identical, per config."""
        sync = run_batch_synchronous(mixed_batches, n_shards=2, backend=backend)
        overlapped = run_overlapped(mixed_batches, n_shards=2, backend=backend)
        assert overlapped[0] == sync[0]
        assert overlapped[2:] == sync[2:]
        for key in COUNTER_KEYS:
            assert overlapped[1][key] == sync[1][key], key

    def test_raw_stream_driver_matches_ingest_raw(self):
        """Overlapped raw-record driver == looped ``ingest_raw``."""

        def raw_batches():
            monitor = SyslogMonitor("internal-host")
            for index in range(120):
                monitor.sshd_accepted(
                    float(index), f"user{index % 9}", f"10.0.0.{index % 17}"
                )
                if index % 5 == 0:
                    monitor.wget_download(
                        float(index) + 0.5,
                        f"user{index % 9}",
                        "http://64.215.33.18/abs.c",
                    )
            return split_batches(monitor.records, 5)

        with fresh_pipeline(2, "process") as sync:
            sync_detections = []
            for batch in raw_batches():
                sync_detections.extend(sync.ingest_raw(batch))
            sync_summary = sync.summary()
        with fresh_pipeline(2, "process") as overlapped:
            detections = overlapped.ingest_raw_stream(raw_batches())
            summary = overlapped.summary()
        assert detections == sync_detections
        for key in COUNTER_KEYS:
            assert summary[key] == sync_summary[key], key
        assert summary["raw_records"] > 0
        assert summary["normalized_alerts"] > 0

    def test_overlapped_driver_keeps_per_stage_timing(self, mixed_batches):
        with fresh_pipeline(2, "process") as pipeline:
            pipeline.ingest_alert_batches(mixed_batches)
            stats = pipeline.stats
        assert set(stats.stage_seconds) >= {"filter", "detect", "respond"}
        assert stats.detection_seconds == stats.stage_seconds["detect"]
        assert stats.detection_seconds > 0.0
        assert stats.response_seconds == stats.stage_seconds["respond"]

    @pytest.mark.parametrize("backend, depth", [("serial", 1), ("process", 2)])
    def test_default_depth_follows_the_backend(self, backend, depth):
        """The depth rule lives in the constructor: a process shard
        earns a second batch in flight, a serial one computes inside
        the submit.  An explicit value is honoured on either backend."""
        with fresh_pipeline(2, backend) as pipeline:
            assert pipeline.max_inflight == depth
            assert pipeline.detector_pools["factor_graph"].max_inflight == depth
        with TestbedPipeline(n_shards=2, shard_backend=backend, max_inflight=3) as deep:
            assert deep.max_inflight == 3

    @pytest.mark.parametrize("backend, depth", [("serial", 1), ("process", 2), ("process", 3)])
    def test_prepare_then_collect_then_submit(self, mixed_batches, backend, depth):
        """The schedule, pinned by the tickets outstanding at each step:
        batch N+1 is prepared with the window full, older batches are
        collected while ``max_inflight`` tickets are out, then N+1 is
        submitted."""
        with TestbedPipeline(
            n_shards=2, shard_backend=backend, max_inflight=depth
        ) as pipeline:
            at_prepare, at_submit = [], []
            stage = pipeline.detection_stage
            submit = stage.submit

            def counting_submit(batch):
                at_submit.append(stage.pending_batches)
                submit(batch)

            stage.submit = counting_submit

            def source():
                for batch in mixed_batches:
                    at_prepare.append(stage.pending_batches)
                    yield batch

            pipeline.ingest_alert_batches(source())
            assert stage.pending_batches == 0
        indices = range(len(mixed_batches))
        assert at_prepare == [min(i, depth) for i in indices]
        assert at_submit == [min(i, depth - 1) for i in indices]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_empty_and_single_batch_streams(self, backend):
        with fresh_pipeline(2, backend) as pipeline:
            assert pipeline.ingest_alert_batches([]) == []
            batch = build_mixed_stream(seed=2, n_entities=6, length=60)
            sync = run_batch_synchronous([batch], n_shards=2, backend=backend)
            assert pipeline.ingest_alert_batches([batch]) == sync[0]


class TestOverlapFailureRecovery:
    """Failures mid-stream must not leave stale batches in flight."""

    def test_prep_exception_does_not_leak_inflight_batch(self):
        stream = build_mixed_stream(seed=41, n_entities=20, length=600)
        batch1, batch2 = stream[:300], stream[300:]
        with fresh_pipeline(2, "process") as reference:
            ref_d1 = reference.ingest_alerts(batch1)
            ref_d2 = reference.ingest_alerts(batch2)
            ref_log = list(reference.detections)
            ref_summary = reference.summary()

        with fresh_pipeline(2, "process") as pipeline:
            def poisoned_source():
                yield batch1
                raise RuntimeError("record source failed")

            with pytest.raises(RuntimeError, match="record source failed"):
                pipeline.ingest_alert_batches(poisoned_source())
            # Batch 1 was submitted before the source died; the unwind
            # must have finished it rather than leaving its ticket in
            # flight for the next call to mistake for its own.
            assert pipeline.detection_stage.pending_batches == 0
            assert pipeline.stats.detections == len(ref_d1)
            resumed = pipeline.ingest_alerts(batch2)
            assert resumed == ref_d2, "stale ticket returned for a later batch"
            assert list(pipeline.detections) == ref_log
            summary = pipeline.summary()
        for key in COUNTER_KEYS:
            assert summary[key] == ref_summary[key], key

    def test_shard_crash_mid_stream_surfaces_typed_error(self):
        clean = [Alert(float(i), "alert_port_scan", f"host:p{i}") for i in range(40)]
        poisoned = clean[:20] + [Alert(20.5, "alert_outbound_c2", "host:poison")]
        pipeline = TestbedPipeline(
            detectors={"factor_graph": PoisonDetector()},
            n_shards=2,
            shard_backend="process",
        )
        with pipeline:
            with pytest.raises(ShardWorkerError) as excinfo:
                pipeline.ingest_alert_batches([clean[:10], poisoned, clean[25:]])
            assert "poisoned alert" in excinfo.value.worker_traceback
            assert pipeline.detection_stage.pending_batches == 0
            # Still drivable after the crash.
            assert pipeline.ingest_alerts(clean[30:]) == []
        # close() (context exit) completed cleanly.

    def test_stage_collect_without_submit_raises_runtime_error(self):
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=2)
        stage = DetectionStage({"alpha": pool}, "alpha", sink=[])
        with pytest.raises(RuntimeError, match="no submitted batch"):
            stage.collect()

    def test_sync_path_partial_submit_failure_drains_inflight(self):
        pipeline = TestbedPipeline(
            detectors={
                "alpha": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
                "beta": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            },
            primary_detector="alpha",
            n_shards=2,
            shard_backend="process",
        )
        batch = [Alert(float(i), "alert_port_scan", f"host:p{i}") for i in range(8)]
        with pipeline:
            pipeline.detector_pools["beta"].close()
            for _ in range(2):  # repeated failures must not accumulate tickets
                with pytest.raises(RuntimeError, match="closed"):
                    pipeline.ingest_alerts(batch)
                assert pipeline.detection_stage.pending_batches == 0
                assert pipeline.detector_pools["alpha"].pending_batches == 0

    def test_closed_pool_is_rejected_before_any_pool_receives_the_batch(self):
        pools = {
            name: ShardedDetectorPool.from_template(
                AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
                n_shards=2,
                backend="process",
            )
            for name in ("alpha", "beta")
        }
        stage = DetectionStage(pools, "alpha", sink=[])
        pools["beta"].close()
        alerts = [Alert(float(i), "alert_port_scan", f"host:p{i}") for i in range(8)]
        with pytest.raises(RuntimeError, match="beta.*closed"):
            stage.submit(alerts)
        # The deterministic rejection fired before any pool received
        # the batch, so a caller retry cannot double-apply it to alpha.
        assert stage.pending_batches == 0
        assert pools["alpha"].pending_batches == 0
        assert pools["alpha"].alerts_routed == [0, 0]
        pools["alpha"].close()


class TestMidStreamEntityReset:
    """``reset_entity`` between runs of the overlapped drivers.

    The pool-level semantics (tagger / ShardedDetectorPool) are covered
    in test_detectors.py / test_sharding.py; this class pins the
    end-to-end behaviour: a control needs a quiesced pipeline, so a
    stream carrying one is split at it -- which lands the reset at
    exactly the stream position a batch-synchronous caller issuing it
    between the two batches gets -- and a control requested with a
    ticket in flight raises without touching any pool.
    """

    ENTITY = "user:eve"

    def _chain_batches(self):
        # This chain fires only once complete (neither half alone
        # crosses the threshold), so a reset between the halves must
        # prevent the detection.
        names = [
            "alert_db_default_password_login",
            "alert_db_largeobject_payload",
            "alert_tmp_executable_created",
            "alert_outbound_c2",
        ]
        chain = [
            Alert(float(i) * 300.0, name, self.ENTITY, source_ip="203.0.113.9")
            for i, name in enumerate(names)
        ]
        noise = build_mixed_stream(seed=13, n_entities=12, length=120)
        return [chain[:2] + noise[:60], chain[2:] + noise[60:]]

    def _run_sync_with_reset(self, batches, *, n_shards, backend, reset=True):
        with fresh_pipeline(n_shards, backend) as pipeline:
            detections = list(pipeline.ingest_alerts(batches[0]))
            if reset:
                pipeline.reset_entity(self.ENTITY)
            detections.extend(pipeline.ingest_alerts(batches[1]))
            return detections, pipeline.summary(), list(pipeline.detections)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_overlapped_reset_matches_batch_sync(self, n_shards, backend):
        batches = self._chain_batches()
        reference = self._run_sync_with_reset(
            batches, n_shards=n_shards, backend=backend
        )
        # Two batches on each side of the reset, so each run overlaps.
        halves = [split_batches(batch, 2) for batch in batches]
        with fresh_pipeline(n_shards, backend) as pipeline:
            detections = pipeline.ingest_alert_batches(halves[0])
            pipeline.reset_entity(self.ENTITY)
            detections.extend(pipeline.ingest_alert_batches(halves[1]))
            summary = pipeline.summary()
            log = list(pipeline.detections)
        assert detections == reference[0]
        assert log == reference[2]
        for key in COUNTER_KEYS:
            assert summary[key] == reference[1][key], key

    def test_controls_raise_with_a_ticket_in_flight(self):
        """Each control refuses an in-flight ticket before any pool moves."""
        controls = {
            "reset_entity": lambda p: p.reset_entity(self.ENTITY),
            "reset": lambda p: p.reset_detectors(),
            "reopen": lambda p: p.reopen_detectors(),
            "reshard": lambda p: p.reshard(3),
        }
        with TestbedPipeline(
            detectors={
                "alpha": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
                "beta": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            },
            n_shards=2,
        ) as pipeline:
            touched = []
            for pool in pipeline.detector_pools.values():
                for verb in controls:
                    setattr(pool, verb, lambda *args, verb=verb: touched.append(verb))
            pipeline.submit_alerts(self._chain_batches()[0])
            for verb, control in controls.items():
                with pytest.raises(RuntimeError, match="in flight"):
                    control(pipeline)
                assert touched == [], verb
            assert pipeline.n_shards == 2
            pipeline.collect_detections()
            for control in controls.values():
                control(pipeline)
            assert touched == [verb for verb in controls for _pool in range(2)]
            assert pipeline.n_shards == 3

    def test_reset_actually_changes_the_outcome(self):
        """The injected reset must prevent the chain's detection."""
        batches = self._chain_batches()
        with_reset = self._run_sync_with_reset(batches, n_shards=2, backend="serial")
        without = self._run_sync_with_reset(
            batches, n_shards=2, backend="serial", reset=False
        )
        fired_without = {d.entity for d in without[0]}
        fired_with = {d.entity for d in with_reset[0]}
        assert self.ENTITY in fired_without
        assert self.ENTITY not in fired_with

    def test_reset_inside_a_stream_raises_and_unwinds(self):
        """A control from inside a batch source meets a ticket in flight.

        It raises instead of being queued, the driver unwinds (the
        submitted batch is collected, nothing stays in flight), and the
        reset never happened: the entity keeps its history, so the
        chain's tail still completes the detection.
        """
        batches = self._chain_batches()
        reference = self._run_sync_with_reset(
            batches, n_shards=2, backend="serial", reset=False
        )
        with fresh_pipeline(2, "serial") as pipeline:
            def stream():
                yield batches[0]
                pipeline.reset_entity(self.ENTITY)  # batch 1 is in flight
                yield batches[1]  # pragma: no cover

            with pytest.raises(RuntimeError, match="in flight"):
                pipeline.ingest_alert_batches(stream())
            assert pipeline.inflight_detection_batches == 0
            pool = pipeline.detector_pools["factor_graph"]
            assert any(self.ENTITY in shard.entities() for shard in pool.shards)
            pipeline.ingest_alerts(batches[1])
            assert list(pipeline.detections) == reference[2]

    def test_control_reaches_every_pool_even_if_one_fails(self):
        """A failing pool must not starve the other detectors of a control."""
        pipeline = TestbedPipeline(
            detectors={
                "alpha": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
                "beta": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            },
            primary_detector="alpha",
            n_shards=2,
            shard_backend="serial",
        )
        with pipeline:
            batches = self._chain_batches()
            pipeline.ingest_alerts(batches[0])
            # "alpha" iterates first; its failure must not stop the
            # reset from reaching "beta".
            failing = pipeline.detector_pools["alpha"]
            original = failing.reset_entity
            failing.reset_entity = lambda entity: (_ for _ in ()).throw(
                RuntimeError("alpha pool broken")
            )
            try:
                with pytest.raises(RuntimeError, match="alpha pool broken"):
                    pipeline.reset_entity(self.ENTITY)
            finally:
                failing.reset_entity = original
            beta = pipeline.detector_pools["beta"]
            assert all(
                self.ENTITY not in shard.entities() for shard in beta.shards
            )


class TestOneWayIn:
    """Raw records reach detection only through ``ingest_raw*``/``submit_raw``."""

    def _record(self, timestamp: float = 10.0):
        monitor = SyslogMonitor("internal-host")
        monitor.wget_download(timestamp, "alice", "http://64.215.33.18/abs.c")
        return monitor.records[0]

    def test_directly_published_record_is_never_ingested(self):
        pipeline = TestbedPipeline()
        seen = []
        pipeline.mirror.subscribe_raw(seen.append)
        pipeline.mirror.publish_raw(self._record(10.0))
        # The mirror counts it and delivers it to subscribers ...
        assert pipeline.mirror.stats.raw_records == 1
        assert seen == [self._record(10.0)]
        # ... but no ingestion call of any kind picks it up.
        pipeline.ingest_alerts([])
        pipeline.ingest_alert_batches([])
        pipeline.ingest_raw_stream([])
        assert pipeline.stats.raw_records == 0
        assert pipeline.stats.normalized_alerts == 0
        pipeline.ingest_raw([self._record(20.0)])
        assert pipeline.stats.raw_records == 1
        assert pipeline.mirror.stats.raw_records == 2
        assert seen == [self._record(10.0), self._record(20.0)]

    def test_unknown_primary_detector_is_refused(self):
        with pytest.raises(ValueError, match="'typo' not among"):
            TestbedPipeline(primary_detector="typo")

    def test_default_primary_prefers_factor_graph(self):
        tagger = AttackTagger()
        assert TestbedPipeline().primary_detector == "factor_graph"
        pipeline = TestbedPipeline(detectors={"alpha": tagger, "factor_graph": tagger})
        assert pipeline.primary_detector == "factor_graph"
        assert TestbedPipeline(detectors={"beta": tagger}).primary_detector == "beta"
