"""Chaos suite: crash semantics under injected faults.

Two layers of coverage:

* the :mod:`repro.fuzz.chaos` oracle itself -- the plan streams are
  pinned, pinned seeded campaigns must pass every fault row, and a
  sabotaged plan must make *its* row fail (the oracle is sensitive,
  not vacuous), the ``kill``/``heal`` worker dies inside the batch it
  targets, and a leg answers only for the ring segments it made;
* direct supervised-recovery semantics on :class:`ShardedDetectorPool`
  -- a SIGKILLed worker in a pool with a restart budget heals with
  bit-identical detections and an audit trail in the recovery log,
  while a worker that dies deterministically on replay exhausts its
  restart budget and surfaces :class:`ShardRecoveryError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os

import pytest

from repro.core import AttackTagger, Detector
from repro.core.alerts import Alert
from repro.incidents import DEFAULT_CATALOGUE
from repro.fuzz import (
    FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    SMOKE_KINDS,
    ChaosComposer,
    ChaosOracle,
    smoke_legs,
)
from repro.fuzz.chaos import ROWS, ChaosPoisonDetector, campaign_batches
from repro.testbed import (
    ShardRecoveryError,
    ShardWorkerError,
    ShardedDetectorPool,
    TestbedPipeline,
    shard_of,
)
from repro.testbed.shm_ring import ShardRing

_PATTERNS = list(DEFAULT_CATALOGUE)


def _tagger_factory():
    """Module-level (picklable) factory for process shard workers."""
    return AttackTagger(patterns=list(DEFAULT_CATALOGUE))


class ExitingDetector(Detector):
    """Dies with ``os._exit`` on a chosen alert name: a hard crash that
    recurs on every replay, so supervised recovery can never succeed."""

    def __init__(self, poison_name: str = "alert_outbound_c2") -> None:
        self.poison_name = poison_name
        self.observed = 0

    def observe(self, alert):
        if alert.name == self.poison_name:
            os._exit(3)
        self.observed += 1
        return None

    def reset(self) -> None:
        self.observed = 0

    def reset_entity(self, entity: str) -> None:
        pass

    def clone(self) -> "ExitingDetector":
        return ExitingDetector(self.poison_name)


def _exiting_factory():
    return ExitingDetector()


def _attack_stream(*, length: int = 96, entities: int = 8) -> list[Alert]:
    """Deterministic interleaved attack chains over several entities."""
    queues = {
        f"user:u{index:02d}": list(_PATTERNS[index % len(_PATTERNS)].names)
        for index in range(entities)
    }
    names = list(queues)
    stream: list[Alert] = []
    for step in range(length):
        entity = names[step % len(names)]
        queue = queues[entity]
        if not queue:
            queue.extend(_PATTERNS[(step // len(names)) % len(_PATTERNS)].names)
        stream.append(Alert(float(step), queue.pop(0), entity))
    return stream


def _never_fires(plan, **_):
    return dataclasses.replace(plan, kill_batch=10**6)


def _no_restart_budget(plan, *, monkeypatch, **_):
    row = dataclasses.replace(ROWS[plan.kind], max_restarts=0)
    monkeypatch.setitem(ROWS, plan.kind, row)
    return plan


def _name_never_sent(plan, **_):
    return dataclasses.replace(plan, poison_name="alert_never_sent")


def _rings_bypassed(plan, *, monkeypatch, **_):
    """Every sub-batch takes the pipe: the ring never holds a payload."""
    monkeypatch.setattr(ShardRing, "write", lambda self, payload: None)
    return plan


def _restore_from_the_wrong_cut(plan, *, campaign, oracle, monkeypatch):
    """Leave an early cut's checkpoint behind, then stop writing new ones."""
    last = len(campaign.events) - 1
    assert any(event.alerts for event in campaign.events[1:last])
    early = dataclasses.replace(plan, split_points=(1,))
    assert oracle.run(campaign, [early]).ok
    monkeypatch.setattr(TestbedPipeline, "checkpoint", lambda self, path: 0)
    return dataclasses.replace(plan, split_points=(last,))


#: (fault kind, sabotage, what the row must report).
SABOTAGED_ROWS = [
    ("split", _restore_from_the_wrong_cut, "counter:raw_records"),
    ("kill", _never_fires, "never surfaced"),
    ("heal", _no_restart_budget, "surfaced as an error"),
    ("heal", _never_fires, "no healed recovery"),
    ("heal", _rings_bypassed, "never exercised"),
    ("poison", _name_never_sent, "never surfaced"),
]


class TestChaosOracleGate:
    """The pinned seeded campaigns the CI quick-chaos gate replays."""

    def test_plan_streams_are_pinned(self):
        """Both composer rng streams, every ``FaultPlan`` field, for the
        CI gate's indices, so the rows run the plans the legs ran.

        The pipeline digest was re-recorded (from ``2b9c34c7...5c38``)
        when the worker death moved inside the batch it targets: a
        ``kill``/``heal`` target is now any (batch, shard) pair the
        batch routes to, not one a later batch would notice, so the
        same rng draw picks a different pair, and the ``shm-kill``
        plans (the 25 at the end of each campaign's list) are gone.
        The service digest is unchanged."""
        composer = ChaosComposer(0, target_alerts=120)
        pipeline = [composer.compose(index)[1] for index in range(25)]
        service = [composer.compose_service(index)[1] for index in range(5)]
        assert [plan.label for plan in pipeline[0]] == [
            "split[4:process cuts=[2, 3]]",
            "kill[4:process batch=1 shard=3]",
            "heal[4:process batch=1 shard=3]",
            "poison[2:serial name=alert_login_normal]",
            "poison[2:process name=alert_login_normal]",
        ]
        assert [plan.label for plan in service[0]] == [
            "disconnect[2:serial event=5]",
            "reshard-kill[3:process batch=2 shard=0 ->4]",
            "shed[2:serial batch=4]",
        ]
        assert (
            hashlib.sha256(repr(pipeline).encode()).hexdigest()
            == "c4ecba3702b6e2f2fa54db506e458daaadd5e0bb349a41a51d7c9234c2b4827e"
        )
        assert (
            hashlib.sha256(repr(service).encode()).hexdigest()
            == "1ff9191bb0307f1645a5e72c5e3e6829858bb9a08d0b210f7b6df6c3a8e7be95"
        )

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_pinned_campaign_passes_every_leg(self, index, tmp_path):
        composer = ChaosComposer(0, target_alerts=100)
        campaign, plans = composer.compose(index)
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, plans)
        assert verdict.legs_run == len(plans) > 0
        assert verdict.ok, [str(f) for f in verdict.failures]

    @pytest.mark.parametrize("index", [0, 1])
    def test_pinned_service_campaign_passes_every_leg(self, index, tmp_path):
        """Socket-level fault legs: disconnect / reshard-kill / shed.

        The service analogue of the pinned pipeline campaigns above:
        each leg starts a real in-process server, streams the campaign
        over TCP while injecting its fault (a mid-batch client
        disconnect, a SIGKILL'd shard worker healed during a live
        N->M reshard, a forced shed-then-replay), and requires the
        ``results`` surface bit-identical to the offline reference.
        """
        composer = ChaosComposer(0, target_alerts=100)
        campaign, plans = composer.compose_service(index)
        assert plans, "service campaign must carry at least one fault leg"
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, plans)
        assert verdict.legs_run == len(plans) > 0
        assert verdict.ok, [str(f) for f in verdict.failures]

    def test_service_campaigns_cover_every_fault_kind(self):
        """Across the pinned gate window, all three service legs occur."""
        composer = ChaosComposer(0, target_alerts=100)
        kinds = set()
        for _, _, plans in composer.service_campaigns(3):
            kinds.update(plan.kind for plan in plans)
        assert kinds >= set(SERVICE_FAULT_KINDS)

    def test_every_pipeline_row_has_a_sabotage(self):
        assert {kind for kind, _, _ in SABOTAGED_ROWS} == set(FAULT_KINDS) - set(
            SERVICE_FAULT_KINDS
        ) - set(SMOKE_KINDS)
        assert set(ROWS) == set(FAULT_KINDS)

    @pytest.mark.parametrize(
        "kind, sabotage, complaint",
        SABOTAGED_ROWS,
        ids=[f"{kind}-{sabotage.__name__.strip('_')}" for kind, sabotage, _ in SABOTAGED_ROWS],
    )
    def test_a_sabotaged_plan_fails_its_row(
        self, kind, sabotage, complaint, tmp_path, monkeypatch
    ):
        """Negative controls: a fault that never fires, a zero restart
        budget, a restore from the wrong cut must each make that row
        FAIL, with the expectation that caught it named."""
        campaign, plans = ChaosComposer(0, target_alerts=100).compose(0)
        plan = next(plan for plan in plans if plan.kind == kind)
        oracle = ChaosOracle(workdir=tmp_path)
        broken = sabotage(plan, campaign=campaign, oracle=oracle, monkeypatch=monkeypatch)
        verdict = oracle.run(campaign, [broken])
        assert not verdict.ok
        assert any(complaint in str(f) for f in verdict.failures), [
            str(f) for f in verdict.failures
        ]

    def test_default_workdir_is_removed_with_the_oracle(self):
        """``ChaosOracle()`` owns its checkpoint directory: nothing of a
        default-constructed run may outlive it."""
        campaign, plans = ChaosComposer(0, target_alerts=100).compose(0)
        split = [plan for plan in plans if plan.kind == "split"]
        with ChaosOracle() as oracle:
            workdir = oracle.workdir
            assert oracle.run(campaign, split).ok
            assert list(workdir.glob("split-*.ckpt"))
        assert not workdir.exists()


def _routed(batch, shard: int, n_shards: int) -> bool:
    return any(shard_of(alert.entity, n_shards) == shard for alert in batch)


class TestNamedPointDeath:
    """A ``kill``/``heal`` worker dies inside the ``observe`` of its batch."""

    def _plan(self, kind: str):
        campaign, plans = ChaosComposer(0, target_alerts=100).compose(0)
        return campaign, next(plan for plan in plans if plan.kind == kind)

    def test_the_crash_fires_once_and_the_respawned_worker_answers(self, tmp_path):
        stream = _attack_stream()
        batches = [stream[start : start + 24] for start in range(0, 96, 24)]
        target = batches[1][5]
        armed = tmp_path / "armed"
        wrapper = ChaosPoisonDetector(
            AttackTagger(patterns=_PATTERNS),
            crash_on=(target.entity, target.name, target.timestamp),
            armed=str(armed),
        )
        reference = ShardedDetectorPool(_tagger_factory, n_shards=2)
        pool = ShardedDetectorPool.from_template(
            wrapper, n_shards=2, backend="process", max_restarts=1
        )
        try:
            expected = [reference.observe_batch(batch) for batch in batches]
            got = []
            for index, batch in enumerate(batches):
                if index == 1:
                    armed.touch()
                got.append(pool.observe_batch(batch))
            log = list(pool.recovery_log)
        finally:
            result = pool.close()
        assert result.clean, result
        assert not armed.exists()
        # One death, healed by the first respawn: the replayed batch was
        # answered, and the batches after it too.
        assert [(event.shard, event.attempt, event.healed) for event in log] == [
            (shard_of(target.entity, 2), 1, True)
        ]
        assert got == expected and any(got)

    def test_the_kill_row_raises_at_the_chosen_batchs_own_collect(
        self, tmp_path, monkeypatch
    ):
        campaign, plan = self._plan("kill")
        arm = ROWS["kill"].hook
        points = []

        def spy(leg, point, index):
            points.append((point, index))
            return arm(leg, point, index)

        monkeypatch.setitem(ROWS, "kill", dataclasses.replace(ROWS["kill"], hook=spy))
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, [plan])
        assert verdict.ok, [str(f) for f in verdict.failures]
        # Under ``sync`` a batch's "after" is its collect: the drive
        # stopped inside the chosen batch, and not before it.
        assert ("after", plan.kill_batch - 1) in points
        assert points[-1] == ("before", plan.kill_batch)
        assert not (tmp_path / "armed").exists()

    def test_the_heal_row_resubmits_the_chosen_batch(self, tmp_path, monkeypatch):
        campaign, plan = self._plan("heal")
        seen = []

        def capture(leg):
            seen.append(list(leg.sink.detector_pools["factor_graph"].recovery_log))
            return iter(())

        row = ROWS["heal"]
        monkeypatch.setitem(
            ROWS, "heal", dataclasses.replace(row, expects=row.expects + (capture,))
        )
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, [plan])
        assert verdict.ok, [str(f) for f in verdict.failures]
        (log,) = seen
        k, shard, n = plan.kill_batch, plan.shard, plan.n_shards
        events = campaign.events
        at = [i for i, event in enumerate(events) if event.kind == "batch" and event.alerts][k]
        # The log replays every sub-batch the shard answered before the
        # chosen one (no reopen or checkpoint reset it); the worker died
        # owing the chosen batch and, at depth 2, the next one if it is
        # in the same run of batches: submitted before the chosen one's
        # collect.
        assert not any(event.kind == "reopen" for event in events[:at])
        answered = sum(_routed(batch, shard, n) for batch in campaign_batches(campaign)[:k])
        follower = events[at + 1 : at + 2]
        owed = 1 + any(e.kind == "batch" and _routed(e.alerts, shard, n) for e in follower)
        assert [(event.shard, event.healed) for event in log] == [(shard, True)]
        assert log[0].resubmitted_batches == answered + owed
        assert not (tmp_path / "armed").exists()


def _foreign_ring(ready, release) -> None:
    """Another process's ring: made, announced, kept until released."""
    ring = ShardRing.create(4096)
    ready.send(ring.name)
    release.recv()
    ring.close()


class TestRingLeakAccounting:
    """A leg is charged only with the ring segments this process made."""

    def _poison_leg(self):
        campaign, plans = ChaosComposer(0, target_alerts=100).compose(0)
        return campaign, next(plan for plan in plans if plan.backend == "serial")

    def _with_hook(self, monkeypatch, hook) -> None:
        monkeypatch.setitem(ROWS, "poison", dataclasses.replace(ROWS["poison"], hook=hook))

    def test_another_process_ring_made_during_a_leg_is_not_a_leak(
        self, tmp_path, monkeypatch
    ):
        campaign, plan = self._poison_leg()
        context = multiprocessing.get_context()
        ready, child_ready = context.Pipe()
        release, child_release = context.Pipe()
        other = context.Process(target=_foreign_ring, args=(child_ready, child_release))
        names = []

        def start_the_other(leg, point, index):
            if not names:
                other.start()
                names.append(ready.recv())

        self._with_hook(monkeypatch, start_the_other)
        try:
            verdict = ChaosOracle(workdir=tmp_path).run(campaign, [plan])
            assert names and os.path.exists(f"/dev/shm/{names[0]}")
        finally:
            release.send(None)
            other.join(timeout=5.0)
        assert verdict.ok, [str(f) for f in verdict.failures]

    def test_a_ring_the_leg_leaves_behind_is_still_a_leak(self, tmp_path, monkeypatch):
        campaign, plan = self._poison_leg()
        rings, names = [], []

        def leave_a_ring(leg, point, index):
            if not rings:
                rings.append(ShardRing.create(4096))
                names.append(rings[0].name)

        self._with_hook(monkeypatch, leave_a_ring)
        try:
            verdict = ChaosOracle(workdir=tmp_path).run(campaign, [plan])
        finally:
            for ring in rings:
                ring.close()
        assert [str(f) for f in verdict.failures] == [
            f"[{plan.label}] leaked /dev/shm ring segment(s): {names}"
        ]


class TestServiceSmokeRows:
    """``python -m repro.service --smoke``: the three pinned socket rows."""

    def test_the_smoke_legs_are_pinned(self):
        legs = smoke_legs()
        assert [(campaign.label, plan.label) for campaign, plan in legs] == [
            ("seed0-c0", "smoke-alerts[2:process]"),
            ("seed0-c1", f"smoke-reshard[2:process event={len(legs[1][0].events) // 2} ->3]"),
            ("seed0-c2-raw", "smoke-raw[2:serial]"),
        ]
        assert tuple(plan.kind for _, plan in legs) == SMOKE_KINDS

    def test_every_smoke_leg_reads_back_the_reference(self, tmp_path):
        oracle = ChaosOracle(workdir=tmp_path)
        for campaign, plan in smoke_legs():
            verdict = oracle.run(campaign, [plan])
            assert verdict.legs_run == 1
            assert verdict.ok, [str(f) for f in verdict.failures]

    def test_a_stream_sent_one_batch_per_ack_fails_the_alert_row(self, tmp_path, monkeypatch):
        """The alert row checks a grouped stream: sent batch by batch,
        no group forms and the row says so."""
        campaign, plan = smoke_legs()[0]
        monkeypatch.setitem(
            ROWS, "smoke-alerts", dataclasses.replace(ROWS["smoke-alerts"], driver="sync")
        )
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, [plan])
        assert any("no group formed" in str(failure) for failure in verdict.failures)

    def test_a_reshard_that_never_happens_fails_its_row(self, tmp_path):
        campaign, plan = smoke_legs()[1]
        never = dataclasses.replace(plan, fault_event=len(campaign.events))
        verdict = ChaosOracle(workdir=tmp_path).run(campaign, [never])
        assert {str(f) for f in verdict.failures} == {
            "[smoke-reshard[2:process event=%d ->3]] 0 ReshardEvent(s) recorded, "
            "expected one" % len(campaign.events),
            "[smoke-reshard[2:process event=%d ->3]] service reports n_shards=2, "
            "resharded to 3" % len(campaign.events),
        }


class TestSupervisedHealing:
    def test_sigkilled_worker_heals_bit_identically(self):
        stream = _attack_stream()
        routed = {shard_of(alert.entity, 2) for alert in stream}
        assert routed == {0, 1}, "stream must exercise both shards"

        reference_pool = ShardedDetectorPool(_tagger_factory, n_shards=2)
        supervised = ShardedDetectorPool(
            _tagger_factory,
            n_shards=2,
            backend="process",
            max_restarts=3,
        )
        try:
            expected, healed = [], []
            batches = [stream[start : start + 24] for start in range(0, 96, 24)]
            for index, batch in enumerate(batches):
                expected.extend(reference_pool.observe_batch(batch))
                healed.extend(supervised.observe_batch(batch))
                if index == 1:
                    worker = supervised._workers[1]
                    worker.process.kill()
                    worker.process.join(5.0)
            assert healed == expected
            recoveries = [e for e in supervised.recovery_log if e.shard == 1]
            assert recoveries, "the SIGKILL restart must be audited"
            assert recoveries[-1].healed
            assert recoveries[-1].attempt >= 1
        finally:
            result = supervised.close()
        assert result.clean, result

    def test_restart_budget_exhaustion_raises_recovery_error(self):
        pool = ShardedDetectorPool(
            _exiting_factory,
            n_shards=1,
            backend="process",
            max_restarts=2,
        )
        try:
            benign = [Alert(float(i), "alert_port_scan", "host:h0") for i in range(6)]
            pool.observe_batch(benign)
            poison = benign + [Alert(9.0, "alert_outbound_c2", "host:h0")]
            with pytest.raises(ShardRecoveryError) as excinfo:
                pool.observe_batch(poison)
            error = excinfo.value
            assert error.shard == 0
            assert error.attempts == 2
            assert "died without replying" in error.worker_traceback
            attempts = [e for e in pool.recovery_log if e.shard == 0]
            assert len(attempts) == 2
            assert not any(event.healed for event in attempts)
        finally:
            pool.close()

    def test_recovery_error_is_still_a_shard_worker_error(self):
        error = ShardRecoveryError(3, "detail text", 2)
        assert isinstance(error, ShardWorkerError)
        assert isinstance(error, RuntimeError)
        assert "unrecovered after 2" in str(error)
