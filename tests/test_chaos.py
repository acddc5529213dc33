"""Chaos suite: crash semantics under injected faults.

Two layers of coverage:

* the :mod:`repro.fuzz.chaos` oracle itself -- the plan streams are
  pinned, pinned seeded campaigns must pass every fault row, and a
  sabotaged plan must make *its* row fail (the oracle is sensitive,
  not vacuous);
* direct supervised-recovery semantics on :class:`ShardedDetectorPool`
  -- a SIGKILLed worker in a pool with a restart budget heals with
  bit-identical detections and an audit trail in the recovery log,
  while a worker that dies deterministically on replay exhausts its
  restart budget and surfaces :class:`ShardRecoveryError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
from repro.fuzz.chaos import ROWS
from repro.testbed import (
    ShardRecoveryError,
    ShardWorkerError,
    ShardedDetectorPool,
    TestbedPipeline,
    shard_of,
)

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
    ("poison", _name_never_sent, "never surfaced"),
    ("shm-kill", _no_restart_budget, "surfaced as an error"),
    ("shm-kill", _never_fires, "no healed recovery"),
]


class TestChaosOracleGate:
    """The pinned seeded campaigns the CI quick-chaos gate replays."""

    def test_plan_streams_are_pinned(self):
        """Both composer rng streams, every ``FaultPlan`` field, for the
        CI gate's indices, so the rows run the plans the legs ran.

        Derived, not re-recorded, when ``FaultPlan`` lost its
        ``max_restarts``/``backoff_base`` fields (every plan carried
        ``(3, 0.001)``; the budget moved to the row): each digest is
        the sha256 of the earlier ``repr(plans)`` -- pinned as
        ``fc685fe7...5e7590`` (pipeline) and ``7137cc42...85f435b0``
        (service) -- with ``", max_restarts=3, backoff_base=0.001"``
        removed from each of its 150 and 15 plans.  The labels are
        unchanged."""
        composer = ChaosComposer(0, target_alerts=120)
        pipeline = [composer.compose(index)[1] for index in range(25)]
        service = [composer.compose_service(index)[1] for index in range(5)]
        assert [plan.label for plan in pipeline[0]] == [
            "split[4:process cuts=[2, 3]]",
            "kill[4:process batch=1 shard=1]",
            "heal[4:process batch=1 shard=1]",
            "poison[2:serial name=alert_login_normal]",
            "poison[2:process name=alert_login_normal]",
            "shm-kill[4:process batch=1 shard=1]",
        ]
        assert [plan.label for plan in service[0]] == [
            "disconnect[2:serial event=5]",
            "reshard-kill[3:process batch=2 shard=0 ->4]",
            "shed[2:serial batch=4]",
        ]
        assert (
            hashlib.sha256(repr(pipeline).encode()).hexdigest()
            == "2b9c34c7f9a943ae603c4478fd7b509e55236e11f540c1a7504d68b3683c5c38"
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
