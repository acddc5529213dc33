"""Live N->M resharding: bit-identity, fault interleavings, LRU routing.

The reshard contract (PR 8): because all detector state is per-entity
and routing is a pure function of the entity, migrating every entity's
state wholesale to its owner under the new shard count must leave the
output stream bit-identical -- detections, logs, counters -- to a pool
(or pipeline) that ran at the new count from the start, and to one
that never resharded at all.  This suite drives that across backends,
through the pipeline's control (which needs a quiesced pipeline, so
stream runs are split at it), through checkpoint/restore, and
interleaved with worker SIGKILLs (the reshard harvest must heal
corpses parent-side).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AttackTagger
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.states import AttackStage
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import (
    ReshardEvent,
    ShardRecoveryError,
    ShardWorkerError,
    ShardedDetectorPool,
    TestbedPipeline,
    shard_of,
)

#: Benign-ish names for noise traffic.
BENIGN_NAMES = [
    spec.name
    for spec in DEFAULT_VOCABULARY
    if spec.stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE)
]


def _tagger():
    return AttackTagger(patterns=list(DEFAULT_CATALOGUE))


def build_stream(*, seed: int = 7, n_entities: int = 12, length: int = 160):
    """Mixed attack/benign multi-entity stream with increasing time."""
    rng = np.random.default_rng(seed)
    patterns = list(DEFAULT_CATALOGUE)
    pending = {}
    for index in range(0, n_entities, 3):
        pattern = patterns[int(rng.integers(0, len(patterns)))]
        pending[f"user:u{index:03d}"] = list(pattern.names)
    entities = [f"user:u{index:03d}" for index in range(n_entities)]
    alerts = []
    step = 0
    while len(alerts) < length:
        entity = entities[int(rng.integers(0, n_entities))]
        chain = pending.get(entity)
        if chain and rng.random() < 0.6:
            name = chain.pop(0)
            if not chain:
                del pending[entity]
        else:
            name = BENIGN_NAMES[int(rng.integers(0, len(BENIGN_NAMES)))]
        step += 1
        alerts.append(Alert(timestamp=float(step), name=name, entity=entity))
    return alerts


def _batches(alerts, size=20):
    return [alerts[i : i + size] for i in range(0, len(alerts), size)]


def _detection_key(detections):
    return [
        (d.entity, d.timestamp, d.alert_index, d.trigger, d.state, d.confidence,
         d.matched_patterns, d.state_trajectory)
        for d in detections
    ]


class _Opaque:
    """A detector without the migration extension (module-level: a
    reshard snapshots every replica, so it must pickle)."""

    detections: list = []

    def observe(self, alert):
        return None

    def observe_batch(self, alerts):
        return []

    def reset(self):
        pass

    def reset_entity(self, entity):
        pass

    def clone(self):
        return _Opaque()


class TestPoolReshard:
    """ShardedDetectorPool.reshard at the pool level."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("old_n,new_n", [(2, 4), (4, 2), (3, 1), (1, 3)])
    def test_reshard_bit_identity(self, backend, old_n, new_n):
        alerts = build_stream()
        batches = _batches(alerts)
        cut = len(batches) // 2

        reference = ShardedDetectorPool.from_template(_tagger(), n_shards=1)
        for batch in batches:
            reference.observe_batch(batch)

        pool = ShardedDetectorPool.from_template(
            _tagger(), n_shards=old_n, backend=backend
        )
        try:
            for batch in batches[:cut]:
                pool.observe_batch(batch)
            event = pool.reshard(new_n)
            assert isinstance(event, ReshardEvent)
            assert event.old_n_shards == old_n
            assert event.new_n_shards == new_n
            assert pool.n_shards == new_n
            for batch in batches[cut:]:
                pool.observe_batch(batch)
            assert _detection_key(pool.detections) == _detection_key(
                reference.detections
            )
        finally:
            pool.close()
            reference.close()

    def test_reshard_preserves_merged_log_and_telemetry_totals(self):
        alerts = build_stream(seed=11)
        batches = _batches(alerts)
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        for batch in batches[:3]:
            pool.observe_batch(batch)
        before = list(pool.detections)
        routed_before = sum(pool.alerts_routed)
        event = pool.reshard(3)
        # The merged pool-level log survives the transition verbatim...
        assert _detection_key(pool.detections) == _detection_key(before)
        # ...and the retired telemetry keeps pre-reshard routing totals.
        assert event.alerts_routed_before == routed_before
        assert pool.alerts_routed_retired == routed_before
        assert len(pool.alerts_routed) == 3
        assert len(pool.reshard_log) == 1
        pool.close()

    def test_facade_pool_resharded_via_template_conversion(self):
        """wrap()'s identity factory converts to a clone-based template."""
        detector = _tagger()
        pool = ShardedDetectorPool.wrap(detector)
        alerts = build_stream(seed=3, length=80)
        pool.observe_batch(alerts[:40])
        pool.reshard(4)
        assert pool.n_shards == 4
        pool.observe_batch(alerts[40:])

        reference = ShardedDetectorPool.wrap(_tagger())
        reference.observe_batch(alerts)
        assert _detection_key(pool.detections) == _detection_key(
            reference.detections
        )
        pool.close()
        reference.close()

    def test_reshard_requires_migration_capable_detector(self):
        pool = ShardedDetectorPool.from_template(_Opaque(), n_shards=2)
        with pytest.raises(TypeError):
            pool.reshard(3)
        pool.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reshard_rejects_bad_count_and_inflight(self, backend):
        pool = ShardedDetectorPool.from_template(
            _tagger(), n_shards=2, backend=backend
        )
        try:
            with pytest.raises(ValueError):
                pool.reshard(0)
            pool.submit_batch(build_stream(length=10))
            with pytest.raises(RuntimeError):
                pool.reshard(3)
            pool.collect()
            assert pool.n_shards == 2 and not pool.closed  # refusals changed nothing
        finally:
            pool.close()


def _pin_memory_stream():
    return build_stream(seed=23, n_entities=16, length=120)


class TestReshardUnderKill:
    """Kill -> heal -> reshard interleavings (the harvest heals corpses)."""

    def test_reshard_heals_sigkilled_worker_mid_transition(self):
        alerts = build_stream(seed=17)
        batches = _batches(alerts)
        cut = len(batches) // 2

        reference = ShardedDetectorPool.from_template(_tagger(), n_shards=1)
        for batch in batches:
            reference.observe_batch(batch)

        pool = ShardedDetectorPool.from_template(
            _tagger(),
            n_shards=3,
            backend="process",
            restart_policy="restore",
            backoff_base=0.001,
        )
        try:
            for batch in batches[:cut]:
                pool.observe_batch(batch)
            # SIGKILL one worker, then reshard while it is dead: the
            # harvest round's ``snapshot`` meets the corpse and the
            # carrier heals it like any other verb.
            victim = pool._workers[1]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            event = pool.reshard(2)
            assert 1 in event.rebuilt_shards
            healed = [e for e in pool.recovery_log.for_shard(1) if e.healed]
            assert healed, "harvest heal must be audited in the RecoveryLog"
            for batch in batches[cut:]:
                pool.observe_batch(batch)
            assert _detection_key(pool.detections) == _detection_key(
                reference.detections
            )
        finally:
            pool.close()
            reference.close()

    def test_reshard_dead_worker_raise_policy_surfaces_typed_error(self):
        pool = ShardedDetectorPool.from_template(
            _tagger(), n_shards=2, backend="process", restart_policy="raise"
        )
        try:
            pool.observe_batch(build_stream(length=20))
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.reshard(3)
            assert not isinstance(excinfo.value, ShardRecoveryError)
            assert excinfo.value.shard == 0
        finally:
            pool.close()

    def test_reshard_preserves_consumed_restart_budget(self):
        # Regression: reshard() reset _restarts_used, so a service
        # resharding periodically would refresh a crash-looping
        # worker's budget forever and ShardRecoveryError could never
        # surface.  Shards that keep their index must carry their
        # consumed budget across the transition.
        pool = ShardedDetectorPool.from_template(
            _tagger(),
            n_shards=2,
            backend="process",
            restart_policy="restore",
            max_restarts=1,
            backoff_base=0.001,
        )
        try:
            pool.observe_batch(build_stream(length=20))
            victim = pool._workers[1]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            # The next batch heals the corpse, consuming the budget.
            pool.observe_batch(build_stream(seed=9, length=20))
            assert pool._restarts_used[1] == 1
            pool.reshard(2)
            assert pool._restarts_used == [0, 1]
            # A wider reshard starts brand-new shards at zero but
            # keeps index-stable shards' consumed attempts.
            pool.reshard(3)
            assert pool._restarts_used == [0, 1, 0]
            # The carried budget is live: the next death of shard 1
            # finds it exhausted and surfaces the typed error.
            victim = pool._workers[1]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(ShardRecoveryError):
                pool.observe_batch(build_stream(seed=11, length=40))
        finally:
            pool.close()

    def test_reshard_exhausted_budget_is_recovery_error(self):
        pool = ShardedDetectorPool.from_template(
            _tagger(),
            n_shards=2,
            backend="process",
            restart_policy="restore",
            max_restarts=0,
            backoff_base=0.001,
        )
        try:
            pool.observe_batch(build_stream(length=20))
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            with pytest.raises(ShardRecoveryError):
                pool.reshard(3)
        finally:
            pool.close()


class TestPipelineReshard:
    """TestbedPipeline.reshard: quiesced-only, checkpoint-aware."""

    def _pipeline(self, n_shards, backend="serial"):
        return TestbedPipeline(
            detectors={"factor_graph": _tagger()},
            n_shards=n_shards,
            shard_backend=backend,
        )

    def test_sync_reshard_matches_unsharded_reference(self):
        alerts = build_stream(seed=29)
        batches = _batches(alerts)
        with self._pipeline(1) as reference:
            expected = []
            for batch in batches:
                expected.extend(reference.ingest_alerts(batch))
            expected_summary = reference.summary()
        with self._pipeline(2) as pipeline:
            got = []
            for index, batch in enumerate(batches):
                if index == len(batches) // 2:
                    pipeline.reshard(3)
                    assert pipeline.n_shards == 3
                got.extend(pipeline.ingest_alerts(batch))
            got_summary = pipeline.summary()
            assert got_summary["reshard_events"] == 1.0
        assert _detection_key(got) == _detection_key(expected)
        for key in ("raw_records", "filtered_alerts", "detections", "responses"):
            assert got_summary[key] == expected_summary[key]

    def test_overlapped_driver_split_at_a_reshard_matches_reference(self):
        alerts = build_stream(seed=31)
        batches = _batches(alerts)
        with self._pipeline(1) as reference:
            expected = []
            for index, batch in enumerate(batches):
                expected.extend(reference.ingest_alerts(batch))
        with self._pipeline(2, backend="process") as pipeline:
            def feed(part):
                for batch in part:
                    if pipeline.inflight_detection_batches:
                        # From inside a run a ticket is in flight.
                        with pytest.raises(RuntimeError, match="in flight"):
                            pipeline.reshard(4)
                    yield batch

            got = pipeline.ingest_alert_batches(feed(batches[:2]))
            assert pipeline.n_shards == 2
            pipeline.reshard(4)
            got.extend(pipeline.ingest_alert_batches(feed(batches[2:])))
            assert pipeline.n_shards == 4
            pool = pipeline.detector_pools["factor_graph"]
            assert pool.n_shards == 4
        assert _detection_key(got) == _detection_key(expected)

    def test_checkpoint_after_reshard_records_new_count(self, tmp_path):
        alerts = build_stream(seed=37)
        batches = _batches(alerts)
        cut = len(batches) // 2
        path = tmp_path / "resharded.ckpt"
        with self._pipeline(1) as reference:
            expected = []
            for batch in batches:
                expected.extend(reference.ingest_alerts(batch))

        with self._pipeline(2) as pipeline:
            for batch in batches[:cut]:
                pipeline.ingest_alerts(batch)
            pipeline.reshard(3)
            pipeline.checkpoint(path)
            prefix = list(pipeline.detections)

        # Restore must be into a pipeline built at the NEW count.
        with self._pipeline(3) as restored:
            restored.restore(path)
            assert list(restored.detections) == prefix
            got = [d for _, d in restored.detections]
            for batch in batches[cut:]:
                got.extend(restored.ingest_alerts(batch))
        assert _detection_key(got) == _detection_key(expected)

    def test_facade_mapping_refreshed_after_reshard(self):
        detector = _tagger()
        with TestbedPipeline(detectors={"factor_graph": detector}) as pipeline:
            assert pipeline.detectors["factor_graph"] is detector
            pipeline.reshard(2)
            pool = pipeline.detector_pools["factor_graph"]
            assert pipeline.detectors["factor_graph"] is pool
            pipeline.reshard(1)
            # Back to a single serial shard: the facade exposes the
            # replica itself again (a clone, not the original object).
            assert pipeline.detectors["factor_graph"] is (
                pipeline.detector_pools["factor_graph"].shards[0]
            )

    def test_summary_surfaces_drop_and_recovery_counters(self):
        with self._pipeline(2) as pipeline:
            summary = pipeline.summary()
            for key in (
                "dropped_raw",
                "dropped_alerts",
                "recovery_attempts",
                "recoveries_healed",
                "reshard_events",
            ):
                assert key in summary
                assert summary[key] == 0.0


class TestShardRoutingLRU:
    """The entity->shard memo is bounded with cheap LRU eviction."""

    def test_cache_is_bounded_and_evicts_least_recent(self, monkeypatch):
        monkeypatch.setattr(ShardedDetectorPool, "_SHARD_CACHE_LIMIT", 4)
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=4)
        for index in range(4):
            pool.shard_of(f"user:u{index}")
        assert list(pool._shard_cache) == [f"user:u{i}" for i in range(4)]
        # A hit refreshes recency: u0 moves to the back...
        pool.shard_of("user:u0")
        assert list(pool._shard_cache)[-1] == "user:u0"
        # ...so the next miss evicts u1 (now least recent), not u0.
        pool.shard_of("user:u9")
        assert "user:u1" not in pool._shard_cache
        assert "user:u0" in pool._shard_cache
        assert len(pool._shard_cache) == 4
        pool.close()

    def test_routing_stays_correct_across_eviction(self, monkeypatch):
        monkeypatch.setattr(ShardedDetectorPool, "_SHARD_CACHE_LIMIT", 8)
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=8)
        entities = [f"host:h{index}" for index in range(64)]
        for _ in range(3):
            for entity in entities:
                assert pool.shard_of(entity) == shard_of(entity, 8)
            assert len(pool._shard_cache) <= 8
        pool.close()

    def test_default_limit_is_large(self):
        assert ShardedDetectorPool._SHARD_CACHE_LIMIT == 1 << 17

    def test_reshard_invalidates_routing_memo(self):
        pool = ShardedDetectorPool.from_template(_tagger(), n_shards=2)
        entities = [f"user:u{index}" for index in range(16)]
        for entity in entities:
            pool.shard_of(entity)
        pool.reshard(5)
        assert not pool._shard_cache
        for entity in entities:
            assert pool.shard_of(entity) == shard_of(entity, 5)
        pool.close()
