"""Shard equivalence suite: sharded detection must be bit-identical.

The staged pipeline's detection layer partitions alerts by entity
across independent detector shards (serial or process backends).  All
detector state is per-entity, so the sharded runs must reproduce the
unsharded pipeline exactly -- same detections (every field, including
floating-point confidences and state trajectories), same counters.
This suite asserts that on a randomized mixed attack/benign stream,
for both backends and several shard counts.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.core import (
    AttackTagger,
    CriticalAlertDetector,
    Detector,
    NaiveBayesDetector,
    RuleBasedDetector,
)
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.states import AttackStage
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import (
    PoolCloseResult,
    ShardRecoveryError,
    ShardedDetectorPool,
    ShardWorkerError,
    TestbedPipeline,
    shard_of,
)

from test_shm_transport import _ring_segments_on_disk

SHARD_COUNTS = (1, 2, 4, 8)

#: Benign-ish alert names that keep an entity undetected.
BENIGN_NAMES = [
    spec.name
    for spec in DEFAULT_VOCABULARY
    if spec.stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE)
]

#: Timing-free keys of ``TestbedPipeline.summary()`` (wall-clock keys
#: legitimately differ between runs).
COUNTER_KEYS = (
    "raw_records",
    "normalized_alerts",
    "filtered_alerts",
    "detections",
    "responses",
    "notifications",
    "blocked_sources",
    "normalization_drop_rate",
    "filter_reduction",
)


def build_mixed_stream(
    *, seed: int, n_entities: int, length: int
) -> list[Alert]:
    """Randomized multi-entity mix of benign noise and attack chains.

    Every fourth entity is fed one catalogue attack pattern's alert
    sequence, interleaved with benign noise; the rest see noise only.
    Entity order is shuffled per step so shards receive interleaved
    sub-streams, and timestamps strictly increase so batches stay
    time-sorted.
    """
    rng = np.random.default_rng(seed)
    patterns = list(DEFAULT_CATALOGUE)
    pending: dict[str, list[str]] = {}
    for index in range(0, n_entities, 4):
        pattern = patterns[int(rng.integers(0, len(patterns)))]
        pending[f"user:u{index:03d}"] = list(pattern.names)
    entities = [f"user:u{index:03d}" for index in range(n_entities)]
    alerts: list[Alert] = []
    step = 0
    while len(alerts) < length:
        entity = entities[int(rng.integers(0, n_entities))]
        chain = pending.get(entity)
        if chain and rng.random() < 0.5:
            name = chain.pop(0)
            if not chain:
                del pending[entity]
        else:
            name = BENIGN_NAMES[int(rng.integers(0, len(BENIGN_NAMES)))]
        host = f"node{int(entity[6:]) % 16:02d}"
        alerts.append(
            Alert(
                timestamp=float(step) * 431.0,
                name=name,
                entity=entity,
                source_ip=f"198.51.{int(entity[6:]) % 200}.7",
                host=host,
            )
        )
        step += 1
    return alerts


def run_pipeline(
    stream: list[Alert], *, n_shards: int, backend: str, batches: int = 4
) -> tuple[list, dict, "TestbedPipeline"]:
    """Run the stream through a fresh pipeline in several batches."""
    pipeline = TestbedPipeline(
        detectors={
            "factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        },
        n_shards=n_shards,
        shard_backend=backend,
    )
    detections = []
    bounds = np.linspace(0, len(stream), batches + 1).astype(int)
    with pipeline:
        for start, stop in zip(bounds[:-1], bounds[1:]):
            detections.extend(pipeline.ingest_alerts(stream[start:stop]))
        summary = pipeline.summary()
        log = list(pipeline.detections)
    return detections, summary, log


@pytest.fixture(scope="module")
def mixed_stream():
    """The randomized 10k-alert mixed attack/benign stream.

    200 entities keep every per-entity history inside the default
    ``max_window`` so the parametrized equivalence grid stays fast; the
    window-eviction decode path gets its own dedicated test below.
    """
    return build_mixed_stream(seed=23, n_entities=200, length=10_000)


@pytest.fixture(scope="module")
def baseline(mixed_stream):
    """Unsharded reference run (single serial shard = seed behaviour)."""
    return run_pipeline(mixed_stream, n_shards=1, backend="serial")


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        for n_shards in (1, 2, 8, 13):
            for entity in ("user:alice", "host:node01", "user:u042"):
                shard = shard_of(entity, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_of(entity, n_shards)

    def test_routing_spreads_entities(self):
        shards = {shard_of(f"user:u{index:03d}", 8) for index in range(96)}
        assert len(shards) > 4, "96 entities should spread over >4 of 8 shards"

    def test_pool_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ShardedDetectorPool.from_template(AttackTagger(), n_shards=0)
        with pytest.raises(ValueError):
            ShardedDetectorPool.from_template(AttackTagger(), backend="threads")


class TestShardEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_run_is_bit_identical(self, mixed_stream, baseline, n_shards, backend):
        base_detections, base_summary, base_log = baseline
        detections, summary, log = run_pipeline(
            mixed_stream, n_shards=n_shards, backend=backend
        )
        assert detections, "the mixed stream must produce detections"
        # Full dataclass equality: entities, timestamps, confidences,
        # matched patterns, state trajectories -- all bit-identical.
        assert detections == base_detections
        assert log == base_log
        for key in COUNTER_KEYS:
            assert summary[key] == base_summary[key], key

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_equivalence_survives_window_eviction(self, backend):
        """Long per-entity histories (window slides + rebuilds) stay exact."""
        stream = build_mixed_stream(seed=5, n_entities=8, length=900)
        base_detections, base_summary, base_log = run_pipeline(
            stream, n_shards=1, backend="serial"
        )
        detections, summary, log = run_pipeline(stream, n_shards=3, backend=backend)
        assert detections == base_detections
        assert log == base_log
        for key in COUNTER_KEYS:
            assert summary[key] == base_summary[key], key

    def test_alerts_actually_route_to_every_shard(self, mixed_stream):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=8
        )
        pool.observe_batch(mixed_stream[:2_000])
        assert sum(1 for routed in pool.alerts_routed if routed) > 4


class TestShardedDetectorPool:
    def _chain_alerts(self, entity="user:eve"):
        names = [
            "alert_db_default_password_login",
            "alert_service_version_probe",
            "alert_db_largeobject_payload",
            "alert_tmp_executable_created",
            "alert_outbound_c2",
        ]
        return [
            Alert(float(i) * 300.0, name, entity, source_ip="203.0.113.9")
            for i, name in enumerate(names)
        ]

    def test_template_pool_never_drives_the_given_instance(self):
        detector = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        pool = ShardedDetectorPool.from_template(detector)
        fired = pool.observe_batch(self._chain_alerts())
        (replica,) = pool.shards
        assert replica is not detector
        assert fired and fired == pool.detections == replica.detections
        assert detector.detections == [] and detector.entities() == []

    def test_single_observe_routes_and_fires(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=4
        )
        results = [pool.observe(alert) for alert in self._chain_alerts()]
        fired = [r for r in results if r is not None]
        assert len(fired) == 1 and fired == pool.detections

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reset_entity_forgets_only_that_entity(self, backend):
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=4, backend=backend
        ) as pool:
            pool.observe_batch(self._chain_alerts("user:eve"))
            pool.observe_batch(self._chain_alerts("user:mallory"))
            assert len(pool.detections) == 2
            pool.reset_entity("user:eve")
            # Eve detects again after the reset; Mallory stays detected
            # (her shard still remembers her).
            assert len(pool.observe_batch(self._chain_alerts("user:eve"))) == 1
            assert len(pool.observe_batch(self._chain_alerts("user:mallory"))) == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_pool_reset_clears_all_shards(self, backend):
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend=backend,
        ) as pool:
            assert len(pool.observe_batch(self._chain_alerts())) == 1
            pool.reset()
            assert pool.detections == []
            assert len(pool.observe_batch(self._chain_alerts())) == 1

    def test_closed_process_pool_rejects_batches(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.observe_batch(self._chain_alerts())

    def test_serial_pool_survives_close(self):
        # close() is a true no-op without worker processes: the default
        # pipeline stays usable after a `with` block.
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        )
        pool.close()
        assert len(pool.observe_batch(self._chain_alerts())) == 1


class TestDetectorProtocol:
    def test_all_detectors_satisfy_the_protocol(self):
        for detector in (
            AttackTagger(),
            RuleBasedDetector(),
            CriticalAlertDetector(),
            NaiveBayesDetector(),
        ):
            assert isinstance(detector, Detector), type(detector).__name__

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_pool_facade_matches_an_unsharded_detector(self, backend):
        """The pool is a container, not a Detector, but its facade --
        observe / observe_batch / detections / reset_entity / reset --
        answers like the one detector it shards."""
        stream = build_mixed_stream(seed=3, n_entities=12, length=240)
        alone = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=2, backend=backend
        ) as pool:
            assert not isinstance(pool, Detector)
            assert pool.observe_batch(stream[:200]) == alone.observe_batch(stream[:200])
            singles = [pool.observe(alert) for alert in stream[200:]]
            assert singles == [alone.observe(alert) for alert in stream[200:]]
            assert pool.detections == alone.detections and pool.detections
            entity = pool.detections[0].entity
            pool.reset_entity(entity)
            alone.reset_entity(entity)
            assert pool.observe_batch(stream) == alone.observe_batch(stream)
            pool.reset()
            alone.reset()
            assert pool.detections == alone.detections == []


class PoisonDetector(Detector):
    """Detector that raises on a chosen alert name.

    Module-level (hence picklable) so the process backend can clone it
    into worker processes; used to assert crash propagation semantics.
    """

    def __init__(self, poison_name: str = "alert_outbound_c2") -> None:
        self.poison_name = poison_name
        self._detections: list = []
        self.observed = 0

    def observe(self, alert):
        if alert.name == self.poison_name:
            raise ValueError(f"poisoned alert: {alert.name}")
        self.observed += 1
        return None

    def reset(self) -> None:
        self.observed = 0
        self._detections.clear()

    def reset_entity(self, entity: str) -> None:
        pass

    def clone(self) -> "PoisonDetector":
        return PoisonDetector(self.poison_name)


def _exploding_factory():
    """Module-level (picklable) detector factory that always fails."""
    raise RuntimeError("factory exploded")


class BrokenResetDetector(PoisonDetector):
    """Observes fine, but every reset path raises."""

    def reset(self) -> None:
        raise ValueError("reset failed")

    def reset_entity(self, entity: str) -> None:
        raise ValueError("reset_entity failed")

    def clone(self) -> "BrokenResetDetector":
        return BrokenResetDetector(self.poison_name)


def _benign_alerts(count: int = 24, *, entities: int = 7) -> list[Alert]:
    return [
        Alert(float(i), "alert_port_scan", f"host:h{i % entities}")
        for i in range(count)
    ]


class TestWorkerCrashPropagation:
    """A detector exception in a shard surfaces as a typed error."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_poisoned_batch_raises_typed_error_with_traceback(self, backend):
        clean = _benign_alerts()
        poisoned = clean[:12] + [Alert(99.0, "alert_outbound_c2", "host:h3")] + clean[12:]
        with ShardedDetectorPool(PoisonDetector, n_shards=3, backend=backend) as pool:
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.observe_batch(poisoned)
            error = excinfo.value
            # The typed error names the shard and carries the worker
            # traceback (root cause preserved across the pipe).
            assert error.shard == shard_of("host:h3", 3)
            assert "ValueError: poisoned alert: alert_outbound_c2" in error.worker_traceback
            assert f"shard {error.shard}" in str(error)
            # No unread replies: the pool stays consistent and drivable.
            assert pool.pending_batches == 0
            assert pool.observe_batch(clean) == []
            assert pool.detections == []
        # close() (via the context manager) completed cleanly.

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failed_batch_detections_are_discarded(self, backend):
        poisoned = [Alert(0.0, "alert_outbound_c2", "host:h0")]
        with ShardedDetectorPool(PoisonDetector, n_shards=2, backend=backend) as pool:
            with pytest.raises(ShardWorkerError):
                pool.observe_batch(poisoned)
            assert pool.detections == []

    def test_dead_worker_surfaces_as_typed_error_not_eoferror(self):
        pool = ShardedDetectorPool(PoisonDetector, n_shards=2, backend="process")
        try:
            # Kill one worker out from under the pool: the parent must
            # report a typed error naming the shard, not a bare EOFError.
            victim = pool._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            alerts = _benign_alerts(16, entities=8)  # hits both shards
            routed_before = list(pool.alerts_routed)
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.observe_batch(alerts)
            assert excinfo.value.shard == 0
            assert "died without replying" in excinfo.value.worker_traceback
            assert pool.pending_batches == 0
            # The dead shard's sub-batch never left the parent, so it
            # is not counted as routed; the live shard's is.
            assert pool.alerts_routed[0] == routed_before[0]
            assert pool.alerts_routed[1] > routed_before[1]
        finally:
            pool.close()

    def test_unpicklable_alert_mid_submit_leaves_pool_consistent(self):
        # Entities owned by shard 0 and shard 1 respectively, so the
        # clean sub-batch is sent before the unpicklable one fails.
        entity_for = {shard_of(f"host:h{i}", 2): f"host:h{i}" for i in range(8)}
        batch = [
            Alert(0.0, "alert_port_scan", entity_for[0]),
            Alert(
                1.0,
                "alert_port_scan",
                entity_for[1],
                attributes={"callback": lambda: 1},  # defeats pickle
            ),
        ]
        with ShardedDetectorPool(PoisonDetector, n_shards=2, backend="process") as pool:
            with pytest.raises(Exception):
                pool.submit_batch(batch)
            # The already-sent shard's reply was drained: no stale
            # replies, no phantom pending batch, pool still drivable.
            assert pool.pending_batches == 0
            # Telemetry stays truthful: only the shard whose sub-batch
            # actually went out is counted as routed.
            assert pool.alerts_routed == [1, 0]
            assert pool.observe_batch(_benign_alerts(8)) == []

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reset_failures_raise_the_same_typed_error_on_both_backends(self, backend):
        with ShardedDetectorPool(BrokenResetDetector, n_shards=2, backend=backend) as pool:
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.reset()
            assert "ValueError: reset failed" in excinfo.value.worker_traceback
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.reset_entity("host:h0")
            assert "ValueError: reset_entity failed" in excinfo.value.worker_traceback
            # Still drivable: observe never touches the broken paths.
            assert pool.observe_batch(_benign_alerts(6)) == []

    def test_factory_failure_is_reported_not_wedged(self):
        pool = ShardedDetectorPool(_exploding_factory, n_shards=1, backend="process")
        try:
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.observe_batch(_benign_alerts(4))
            assert "factory exploded" in excinfo.value.worker_traceback
        finally:
            pool.close()


def _poisonable_tagger():
    """Module-level (picklable) factory: a tagger that raises on port scans."""
    from repro.fuzz.chaos import ChaosPoisonDetector

    return ChaosPoisonDetector(
        AttackTagger(patterns=list(DEFAULT_CATALOGUE)), "alert_port_scan"
    )


class TestCarrierConformance:
    """The two carriers answer one scripted verb sequence identically."""

    CHAIN = (
        "alert_db_default_password_login",
        "alert_service_version_probe",
        "alert_db_largeobject_payload",
        "alert_tmp_executable_created",
        "alert_outbound_c2",
    )

    def _chain(self, start: float, entity: str = "user:eve") -> list[Alert]:
        return [
            Alert(start + i * 300.0, name, entity, source_ip="203.0.113.9")
            for i, name in enumerate(self.CHAIN)
        ]

    def _script(self, carrier_class) -> list:
        """Drive the script; return every reply in comparable form."""
        transcript = []

        def ask(carrier, verb, payload=None):
            assert carrier.send(verb, payload) is True
            status, result = carrier.receive()
            if status == "error":
                # Same exception, same message; frames may differ.
                shown = str(result).strip().splitlines()[-1]
            elif verb == "observe":
                hits, busy, kernel = result
                assert busy >= 0.0 and kernel >= 0.0
                shown = hits
            elif verb == "snapshot":
                assert result[:2] == bytes([0x80, pickle.HIGHEST_PROTOCOL])
                shown = pickle.loads(result).detections
            else:
                shown = result
            transcript.append((verb, status, shown))
            return status, result

        carrier = carrier_class(0, _poisonable_tagger)
        fresh = carrier_class(1, _poisonable_tagger)
        broken = carrier_class(2, _exploding_factory)
        try:
            ask(carrier, "observe", self._chain(0.0)[:2])  # no hit yet
            ask(carrier, "observe", self._chain(0.0)[2:])  # the chain fires
            ask(
                carrier,
                "observe",
                [
                    Alert(5000.0, "alert_login_normal", "user:bob"),
                    Alert(5001.0, "alert_port_scan", "user:bob"),  # raises
                    Alert(5002.0, "alert_login_normal", "user:bob"),
                ],
            )
            ask(carrier, "reset_entity", "user:eve")
            ask(carrier, "observe", self._chain(10_000.0))  # fires again
            _, blob = ask(carrier, "snapshot")
            ask(fresh, "restore", blob)
            ask(fresh, "observe", self._chain(20_000.0))  # eve already detected
            ask(fresh, "observe", self._chain(20_000.0, "user:mallory"))
            ask(carrier, "reset")
            ask(carrier, "snapshot")  # pristine again
            ask(carrier, "frobnicate", 7)  # unknown verbs are errors
            ask(carrier, "observe", self._chain(30_000.0))  # still drivable
            ask(broken, "observe", self._chain(0.0))  # factory failure,
            ask(broken, "snapshot")  # replayed per command,
            ask(broken, "restore", blob)  # until a restore installs a replica
            ask(broken, "observe", self._chain(40_000.0, "user:mallory"))
        finally:
            outcomes = [c.close() for c in (carrier, fresh, broken)]
        assert outcomes == ["clean"] * 3
        return transcript

    def test_local_and_process_carriers_reply_alike(self):
        from repro.testbed.sharding import _LocalShard, _ProcessShard

        local = self._script(_LocalShard)
        process = self._script(_ProcessShard)
        assert local == process
        by_verb = [(verb, status) for verb, status, _ in local]
        assert by_verb == [
            ("observe", "ok"),
            ("observe", "ok"),
            ("observe", "error"),
            ("reset_entity", "ok"),
            ("observe", "ok"),
            ("snapshot", "ok"),
            ("restore", "ok"),
            ("observe", "ok"),
            ("observe", "ok"),
            ("reset", "ok"),
            ("snapshot", "ok"),
            ("frobnicate", "error"),
            ("observe", "ok"),
            ("observe", "error"),
            ("snapshot", "error"),
            ("restore", "ok"),
            ("observe", "ok"),
        ]
        shown = [entry[2] for entry in local]
        assert shown[0] == [] and [position for position, _ in shown[1]] == [0]
        assert "chaos poison" in shown[2]
        assert len(shown[4]) == 1  # reset_entity let eve fire again
        assert len(shown[5]) == 2 and shown[7] == []  # snapshot carried her over
        assert len(shown[8]) == 1 and shown[10] == []
        assert shown[11] == "ValueError: unknown shard verb 'frobnicate'"
        assert shown[13] == shown[14] == "RuntimeError: factory exploded"
        assert len(shown[16]) == 1

    def test_error_replies_keep_the_exception_in_process_only(self):
        from repro.testbed.sharding import _LocalShard, _ProcessShard

        poison = [Alert(1.0, "alert_port_scan", "user:bob")]
        causes = {}
        for carrier_class in (_LocalShard, _ProcessShard):
            carrier = carrier_class(0, _poisonable_tagger)
            try:
                carrier.send("observe", poison)
                status, detail = carrier.receive()
            finally:
                carrier.close()
            assert status == "error" and "chaos poison" in detail
            causes[carrier_class] = getattr(detail, "cause", None)
        assert isinstance(causes[_LocalShard], RuntimeError)
        assert causes[_ProcessShard] is None  # text only crosses the pipe


class TestBackendUniformity:
    """What the serial pool used to do its own way now goes one way."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_factory_failure_is_replayed_per_command(self, backend):
        with ShardedDetectorPool(_exploding_factory, n_shards=2, backend=backend) as pool:
            for _ in range(2):
                with pytest.raises(ShardWorkerError) as excinfo:
                    pool.observe_batch(_benign_alerts(4))
                assert "factory exploded" in excinfo.value.worker_traceback
            with pytest.raises(ShardWorkerError, match="factory exploded"):
                pool.snapshot_state()
            assert pool.pending_batches == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shard_errors_chain_the_exception_only_in_process(self, backend):
        poisoned = [Alert(0.0, "alert_outbound_c2", "host:h0")]
        with ShardedDetectorPool(PoisonDetector, n_shards=2, backend=backend) as pool:
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.observe_batch(poisoned)
        cause = excinfo.value.__cause__
        if backend == "serial":
            assert isinstance(cause, ValueError) and "poisoned alert" in str(cause)
        else:
            assert cause is None
        pickle.loads(pickle.dumps(excinfo.value))  # either way it pickles

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reopen_hands_back_pristine_replicas(self, backend):
        chain = TestShardedDetectorPool()._chain_alerts()
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=2, backend=backend
        ) as pool:
            assert len(pool.observe_batch(chain)) == 1
            pool.reopen()
            assert pool.detections == [] and pool.alerts_routed == [0, 0]
            assert len(pool.observe_batch(chain)) == 1

    def test_reopen_builds_a_fresh_serial_replica(self):
        detector = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        pool = ShardedDetectorPool.from_template(detector)
        chain = TestShardedDetectorPool()._chain_alerts()
        assert len(pool.observe_batch(chain)) == 1
        (before,) = pool.shards
        pool.reopen()
        (after,) = pool.shards
        assert after is not before and after is not detector
        assert after.detections == [] and after.entities() == []
        assert len(pool.observe_batch(chain)) == 1
        assert after.detections == pool.detections
        assert detector.entities() == []

    def test_the_transport_option_is_gone(self):
        with pytest.raises(TypeError):
            ShardedDetectorPool(PoisonDetector, transport="shm")
        with pytest.raises(TypeError):
            ShardedDetectorPool.from_template(AttackTagger(), transport="pickle")
        with pytest.raises(ValueError, match="pickle transport was removed"):
            TestbedPipeline(transport="pickle")
        assert not hasattr(TestbedPipeline(transport="shm"), "transport")


class TestClosedPoolLifecycle:
    """Every operation on a closed process pool raises the same error."""

    def _closed_pool(self) -> ShardedDetectorPool:
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        pool.close()
        return pool

    def test_closed_pool_rejects_reset(self):
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_pool().reset()

    def test_closed_pool_rejects_reset_entity(self):
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_pool().reset_entity("user:eve")

    def test_closed_pool_rejects_submit_and_collect(self):
        pool = self._closed_pool()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_batch(_benign_alerts(4))
        with pytest.raises(RuntimeError, match="closed"):
            pool.collect()

    def test_closed_pool_reopens_into_a_working_pool(self):
        pool = self._closed_pool()
        pool.reopen()
        try:
            assert not pool.closed
            assert pool.observe_batch(_benign_alerts(4)) == []
            assert sum(pool.alerts_routed) == 4
        finally:
            pool.close()

    def test_failed_reopen_leaves_the_pool_closed_not_half_dead(self, monkeypatch):
        """A worker-spawn failure mid-reopen must not pose as open."""
        import repro.testbed.sharding as sharding_module

        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        spawned = []
        real_shard = sharding_module._ProcessShard

        def failing_spawn(index, factory, *ring):
            if index == 1:
                raise OSError("spawn failed")
            shard = real_shard(index, factory, *ring)
            spawned.append(shard)
            return shard

        monkeypatch.setattr(sharding_module, "_ProcessShard", failing_spawn)
        with pytest.raises(OSError, match="spawn failed"):
            pool.reopen()
        # The pool is cleanly closed (no dead worker handles posing as
        # live), rejects batches with the lifecycle error, and the
        # partially spawned replacement worker was shut down.
        assert pool.closed
        assert pool._workers == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_batch(_benign_alerts(2))
        assert all(not shard.process.is_alive() for shard in spawned)
        monkeypatch.undo()
        pool.reopen()  # recoverable once spawning works again
        try:
            assert pool.observe_batch(_benign_alerts(2)) == []
        finally:
            pool.close()


class TestNonBlockingFanOut:
    """submit_batch()/collect() semantics shared by both backends."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_submit_collect_matches_observe_batch(self, backend):
        stream = build_mixed_stream(seed=3, n_entities=24, length=600)
        reference = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=3
        )
        expected = reference.observe_batch(stream)
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=3,
            backend=backend,
        ) as pool:
            ticket = pool.submit_batch(stream)
            assert pool.pending_batches == 1
            found = pool.collect(ticket)
            assert pool.pending_batches == 0
        assert found == expected

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_multiple_batches_in_flight_collect_in_fifo_order(self, backend):
        stream = build_mixed_stream(seed=9, n_entities=16, length=400)
        batches = [stream[i : i + 100] for i in range(0, 400, 100)]
        reference = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=2
        )
        expected = [reference.observe_batch(batch) for batch in batches]
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend=backend,
        ) as pool:
            tickets = [pool.submit_batch(batch) for batch in batches]
            assert pool.pending_batches == len(batches)
            # Collecting a newer ticket before the oldest is an error.
            with pytest.raises(ValueError, match="submission order"):
                pool.collect(tickets[-1])
            collected = [pool.collect(ticket) for ticket in tickets]
        assert collected == expected
        assert reference.detections == [d for found in expected for d in found]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_collect_without_submit_raises(self, backend):
        with ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend=backend
        ) as pool:
            with pytest.raises(RuntimeError, match="no submitted batch"):
                pool.collect()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reset_with_pending_batches_raises(self, backend):
        with ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend=backend
        ) as pool:
            pool.submit_batch(_benign_alerts(8))
            with pytest.raises(RuntimeError, match="pending"):
                pool.reset()
            with pytest.raises(RuntimeError, match="pending"):
                pool.reset_entity("host:h0")
            pool.collect()  # drain so close() is exercised on an idle pool

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_observe_batch_with_pending_batches_raises_before_submitting(self, backend):
        with ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend=backend,
        ) as pool:
            ticket = pool.submit_batch(_benign_alerts(8))
            routed_before = list(pool.alerts_routed)
            # The blocking wrapper must refuse up front -- shipping the
            # batch and then failing on the out-of-order ticket would
            # double-apply it on retry.
            with pytest.raises(RuntimeError, match="pending"):
                pool.observe_batch(_benign_alerts(8))
            assert pool.alerts_routed == routed_before, "batch must not be shipped"
            assert pool.pending_batches == 1
            pool.collect(ticket)

    def test_close_drains_uncollected_batches(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend="process",
        )
        pool.submit_batch(_benign_alerts(12))
        pool.submit_batch(_benign_alerts(12))
        assert pool.pending_batches == 2
        pool.close()  # must not wedge on the unread replies
        assert pool.pending_batches == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.observe_batch(_benign_alerts(4))


class SleepingDetector(PoisonDetector):
    """Wedges (sleeps) instead of raising on the poison alert.

    Simulates a worker stuck in a detector -- the case ``close()``'s
    join-timeout escalation exists for.
    """

    def observe(self, alert):
        if alert.name == self.poison_name:
            time.sleep(60.0)
        self.observed += 1
        return None

    def clone(self) -> "SleepingDetector":
        return SleepingDetector(self.poison_name)


class TestErrorPickleRoundTrip:
    """Shard errors must survive pickling (pipes, repro files) exactly."""

    def test_shard_worker_error_round_trips(self):
        original = ShardWorkerError(5, "Traceback ...\nValueError: boom")
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is ShardWorkerError
        assert clone.shard == original.shard
        assert clone.worker_traceback == original.worker_traceback
        assert str(clone) == str(original)

    def test_shard_recovery_error_round_trips(self):
        original = ShardRecoveryError(2, "worker process died (exitcode -9)", 3)
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is ShardRecoveryError
        assert clone.shard == 2
        assert clone.worker_traceback == "worker process died (exitcode -9)"
        assert clone.attempts == 3
        assert str(clone) == str(original)

    def test_live_crash_error_round_trips(self):
        """An error raised by a real worker crash survives pickling."""
        with ShardedDetectorPool(
            lambda: PoisonDetector("alert_outbound_c2"), n_shards=2
        ) as pool:
            poisoned = _benign_alerts(4) + [
                Alert(99.0, "alert_outbound_c2", "host:h0")
            ]
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.observe_batch(poisoned)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.shard == excinfo.value.shard
        assert clone.worker_traceback == excinfo.value.worker_traceback


class TestSerialReopenAfterCrash:
    def test_serial_pool_reopens_pristine_after_detector_crash(self):
        pool = ShardedDetectorPool(
            lambda: PoisonDetector("alert_outbound_c2"), n_shards=2
        )
        benign = _benign_alerts(8)
        pool.observe_batch(benign)
        with pytest.raises(ShardWorkerError):
            pool.observe_batch([Alert(50.0, "alert_outbound_c2", "host:h0")])
        pool.reopen()
        assert not pool.closed
        assert pool.alerts_routed == [0] * 2, "telemetry zeroed by reopen"
        assert pool.observe_batch(benign) == []
        observed = sum(shard.observed for shard in pool.shards)
        assert observed == len(benign), "replicas are pristine, not resumed"


class TestCloseEscalation:
    """close() reports exactly how shutdown went (satellite: timeouts)."""

    def test_serial_close_is_a_reported_noop(self):
        pool = ShardedDetectorPool(lambda: PoisonDetector(), n_shards=2)
        result = pool.close()
        assert isinstance(result, PoolCloseResult)
        assert result.backend == "serial"
        assert result.escalations == ()
        assert result.clean

    def test_process_close_reports_one_clean_outcome_per_worker(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=3, backend="process"
        )
        result = pool.close()
        assert result.backend == "process"
        assert result.escalations == ("clean",) * 3
        assert result.clean
        assert result.drained_batches == 0
        assert not result.already_closed

    def test_double_close_reports_already_closed(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        assert not pool.close().already_closed
        again = pool.close()
        assert again.already_closed
        assert again.escalations == ()

    def test_close_counts_drained_batches(self):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend="process",
        )
        pool.submit_batch(_benign_alerts(8))
        pool.submit_batch(_benign_alerts(8))
        result = pool.close()
        assert result.drained_batches == 2
        assert result.clean

    def test_wedged_worker_is_escalated_not_waited_for(self):
        """A worker stuck in a detector must be terminated, not joined
        for the full sleep -- and the escalation must be surfaced."""
        pool = ShardedDetectorPool.from_template(
            SleepingDetector("alert_outbound_c2"), n_shards=2, backend="process"
        )
        pool.submit_batch(
            _benign_alerts(4) + [Alert(99.0, "alert_outbound_c2", "host:h0")]
        )
        started = time.perf_counter()
        result = pool.close(timeout=0.3)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, "close() must not wait out the wedged detector"
        assert not result.clean
        assert any(
            outcome in ("terminated", "killed") for outcome in result.escalations
        )


class TestPickleSafeShardState:
    def test_mid_stream_tagger_pickles_and_continues_identically(self, mixed_stream):
        original = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        stream = [a for a in mixed_stream[:400]]
        for alert in stream[:200]:
            original.observe(alert)
        migrated = pickle.loads(pickle.dumps(original))
        for alert in stream[200:]:
            assert original.observe(alert) == migrated.observe(alert)
        assert original.detections == migrated.detections
        for entity in original.entities():
            assert original.posterior(entity) == migrated.posterior(entity)


#: The five calls that can meet an idle-killed worker's corpse.
DEAD_SHARD_CALLS = (
    "checkpoint",
    "reset_entity",
    "reset_detectors",
    "reshard",
    "ingest_alerts",
)


class TestCarrierOwnedRecovery:
    """``restart_policy`` means the same thing for every verb.

    The process carrier heals (``restore``) or reports (``raise``) a
    dead worker inside ``receive``, so whichever pool operation reads
    the dead shard's reply gets the same treatment -- not only
    ``collect``.
    """

    VICTIM = 1

    def _pipeline(self, backend: str, restart_policy: str = "raise") -> TestbedPipeline:
        return TestbedPipeline(
            detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))},
            n_shards=2,
            shard_backend=backend,
            restart_policy=restart_policy,
            backoff_base=0.001,
        )

    def _batches(self, count: int = 4, size: int = 100) -> list[list[Alert]]:
        stream = build_mixed_stream(seed=31, n_entities=24, length=count * size)
        return [stream[start : start + size] for start in range(0, len(stream), size)]

    def _kill_idle_worker(self, pipeline: TestbedPipeline) -> ShardedDetectorPool:
        pool = pipeline.detector_pools["factor_graph"]
        assert pool.pending_batches == 0
        victim = pool._workers[self.VICTIM]
        victim.process.kill()
        victim.process.join(timeout=5.0)
        return pool

    def _call(self, pipeline, call: str, batches, tmp_path) -> TestbedPipeline:
        """Make ``call`` after two batches; return the pipeline to continue on."""
        if call == "checkpoint":
            path = tmp_path / f"{pipeline.shard_backend}.ckpt"
            pipeline.checkpoint(path)
            resumed = self._pipeline(pipeline.shard_backend)
            resumed.restore(path)
            return resumed
        if call == "reset_entity":
            entity = next(
                alert.entity
                for alert in batches[0]
                if shard_of(alert.entity, 2) == self.VICTIM
            )
            pipeline.reset_entity(entity)
        elif call == "reset_detectors":
            pipeline.reset_detectors()
        elif call == "reshard":
            pipeline.reshard(3)
        else:
            pipeline.ingest_alerts(batches[2])
        return pipeline

    def _continuation(self, pipeline, call: str, batches) -> tuple:
        rest = batches[3:] if call == "ingest_alerts" else batches[2:]
        for batch in rest:
            pipeline.ingest_alerts(batch)
        summary = pipeline.summary()
        return list(pipeline.detections), {key: summary[key] for key in COUNTER_KEYS}

    @pytest.mark.parametrize("call", DEAD_SHARD_CALLS)
    def test_restore_heals_an_idle_killed_worker_on_every_call(self, call, tmp_path):
        batches = self._batches()
        with self._pipeline("serial") as reference:
            for batch in batches[:2]:
                reference.ingest_alerts(batch)
            with self._call(reference, call, batches, tmp_path) as resumed:
                expected = self._continuation(resumed, call, batches)
        assert expected[0], "the stream must produce detections"
        with self._pipeline("process", "restore") as pipeline:
            for batch in batches[:2]:
                pipeline.ingest_alerts(batch)
            pool = self._kill_idle_worker(pipeline)
            with self._call(pipeline, call, batches, tmp_path) as resumed:
                events = list(pool.recovery_log)
                assert [(event.shard, event.healed) for event in events] == [
                    (self.VICTIM, True)
                ]
                assert self._continuation(resumed, call, batches) == expected
            assert len(pool.recovery_log) == 1

    @pytest.mark.parametrize("call", DEAD_SHARD_CALLS)
    def test_raise_surfaces_a_plain_worker_error_on_every_call(self, call, tmp_path):
        batches = self._batches()
        segments_before = _ring_segments_on_disk()
        pipeline = self._pipeline("process", "raise")
        try:
            for batch in batches[:2]:
                pipeline.ingest_alerts(batch)
            pool = self._kill_idle_worker(pipeline)
            with pytest.raises(ShardWorkerError) as excinfo:
                self._call(pipeline, call, batches, tmp_path)
            assert type(excinfo.value) is ShardWorkerError
            assert excinfo.value.shard == self.VICTIM
            assert len(pool.recovery_log) == 0
        finally:
            results = pipeline.close()
        assert all(result.clean for result in results.values()), results
        assert _ring_segments_on_disk() == segments_before

    @pytest.mark.parametrize("shutdown", ["close", "reopen"])
    def test_draining_for_shutdown_never_respawns(self, shutdown):
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            n_shards=2,
            backend="process",
            restart_policy="restore",
            backoff_base=0.001,
        )
        try:
            pool.observe_batch(_benign_alerts(16, entities=8))
            victim = pool._workers[self.VICTIM]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            pool.submit_batch(_benign_alerts(16, entities=8))  # hits both shards
            assert pool.pending_batches == 1
            started = time.perf_counter()
            if shutdown == "close":
                assert pool.close(timeout=5.0).drained_batches == 1
            else:
                pool.reopen()
                assert pool.observe_batch(_benign_alerts(16, entities=8)) == []
            assert time.perf_counter() - started < 5.0
            assert pool.pending_batches == 0
            assert len(pool.recovery_log) == 0
        finally:
            pool.close()

    def test_replay_log_is_bounded_under_a_deep_window(self):
        """At the process backend's default depth the worker always owes
        a reply at collect time, so "snapshot when it owes nothing"
        alone never trims the log; the limit must."""
        from repro.testbed.sharding import REPLAY_LOG_LIMIT  # new with the bound

        n_batches, kill_at = 200, 150
        # 16 alerts over 12 entities: every batch reaches both shards.
        stream = build_mixed_stream(seed=37, n_entities=12, length=n_batches * 16)
        batches = [stream[start : start + 16] for start in range(0, len(stream), 16)]
        assert n_batches > REPLAY_LOG_LIMIT
        with self._pipeline("serial") as reference:
            expected = reference.ingest_alert_batches(batches)
            expected_summary = reference.summary()
        assert expected
        samples: list[int] = []
        with self._pipeline("process", "restore") as pipeline:
            assert pipeline.max_inflight == 2
            pool = pipeline.detector_pools["factor_graph"]

            def source():
                for index, batch in enumerate(batches):
                    samples.append(max(len(worker._log) for worker in pool._workers))
                    if index == kill_at:
                        pool._workers[self.VICTIM].process.kill()
                    yield batch

            detections = pipeline.ingest_alert_batches(source())
            summary = pipeline.summary()
            healed = [event for event in pool.recovery_log if event.healed]
        assert max(samples) <= REPLAY_LOG_LIMIT
        # The bound was what trimmed it: the log got most of the way
        # there and came back down.
        assert max(samples) > REPLAY_LOG_LIMIT // 2 and samples[-1] < max(samples)
        assert [event.shard for event in healed] == [self.VICTIM]
        assert detections == expected
        for key in COUNTER_KEYS:
            assert summary[key] == expected_summary[key], key
