"""Chaos oracle: seeded fault campaigns against the crash-safety contract.

PR 5's :class:`~repro.fuzz.oracle.DifferentialOracle` proves happy-path
equivalence across the engine x shards x backend x driver matrix; this
module proves the *crash semantics* the robustness layer (checkpoint/
restore, supervised self-healing shards, close escalation) promises.
Each chaos campaign is a regular fuzzer campaign plus a seeded
:class:`FaultPlan` set, replayed through four fault legs:

``split``
    The checkpoint/kill/restore/replay contract: the campaign is cut at
    fuzzer-chosen stream positions; at each cut the pipeline is
    checkpointed, its shard workers are SIGKILLed (a crash, not a
    shutdown), and a *fresh* pipeline restored from the checkpoint
    carries on.  The stitched run must be **bit-identical** --
    detections, cross-detector log, notifications, actions, and stats
    counters -- to an uninterrupted replay of the same configuration.
``kill``
    The default ``restart_policy="raise"`` contract: a worker SIGKILLed
    at a chosen batch index surfaces as a typed
    :class:`~repro.testbed.sharding.ShardWorkerError` naming the killed
    shard and carrying the death detail, with no stale in-flight
    tickets left behind and a clean bounded close afterwards.
``heal``
    The ``restart_policy="restore"`` contract: the same SIGKILL is
    *absorbed* -- the stream completes with no error, output
    bit-identical to an uninterrupted run, and the recovery recorded in
    the pool's :class:`~repro.testbed.sharding.RecoveryLog`.
``poison``
    A detector raising mid-batch (on a fuzzer-chosen alert name) is not
    a death: both backends surface the same typed error with the
    worker-side traceback preserved, and the pipeline stays drivable.
``shm-kill``
    The ring hop's supervised-heal contract: a process-backed pipeline
    with two batches pipelined per shard has a
    worker SIGKILLed while shared-memory ring descriptors are genuinely
    in flight; the heal must replay the ring payloads FIFO so output is
    bit-identical to an uninterrupted serial run, and no ``/dev/shm``
    segment may outlive any leg (checked for every fault kind).

PR 8 adds three *service-level* legs (composed separately by
:meth:`ChaosComposer.compose_service`, so the pinned pipeline plans
above stay byte-identical), which replay the same campaigns through a
live :mod:`repro.service` socket front-end:

``disconnect``
    A client vanishes mid JSON frame; acked work survives, the partial
    frame is discarded, and a second client finishing the stream sees
    bit-identical results.
``reshard-kill``
    A shard worker is SIGKILLed, then a live N->M reshard is requested
    over the socket: the harvest heals the corpse parent-side and the
    stream stays bit-identical across the transition.
``shed``
    Admission is forced to ``reject``; the client's replay after
    reopening delivers the stream complete and in order (lossless).

Everything is deterministic in ``(seed, index)`` -- campaigns via
:class:`~repro.fuzz.campaign.CampaignComposer`, fault plans via this
module's :class:`ChaosComposer` -- so CI replays pinned fault
campaigns, and any failure reproduces from its seed alone.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import signal
import tempfile
import traceback
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.alerts import Alert
from ..core.attack_tagger import AttackTagger, Detection
from ..core.detector import Detector
from ..incidents import DEFAULT_CATALOGUE
from ..testbed.pipeline import TestbedPipeline
from ..testbed.sharding import ShardRecoveryError, ShardWorkerError, shard_of
from ..testbed.shm_ring import SEGMENT_PREFIX
from .campaign import Campaign, CampaignComposer
from .oracle import DifferentialOracle, OracleConfig, ReplayResult

#: Fault leg kinds a plan may request.  The first four target the
#: pipeline directly; the service kinds (PR 8) drive the same faults
#: through a live :mod:`repro.service` socket front-end; ``shm-kill``
#: targets the shared-memory rings' heal-replay path.
FAULT_KINDS = (
    "split",
    "kill",
    "heal",
    "poison",
    "disconnect",
    "reshard-kill",
    "shed",
    "shm-kill",
)

#: The socket-level legs, composed by :meth:`ChaosComposer.compose_service`.
SERVICE_FAULT_KINDS = ("disconnect", "reshard-kill", "shed")

#: Salt mixed into the fault-plan rng so plans are independent of the
#: campaign composition stream drawn from the same ``(seed, index)``.
_PLAN_SALT = 0xC4A05

#: Separate salt for service-leg plans: ``compose_service`` must not
#: perturb (or depend on) the pinned ``compose`` plan stream.
_SERVICE_SALT = 0x5EC41

#: Separate salt for the shm-kill leg's draws: appending the leg must
#: not perturb the pinned plan streams above (same reasoning).
_SHM_SALT = 0x54A11


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One seeded fault injection against one campaign."""

    kind: str
    n_shards: int = 2
    backend: str = "process"
    #: ``kill``/``heal``: SIGKILL the worker after this batch collects.
    kill_batch: int = 0
    #: ``kill``/``heal``/``poison``: the shard the fault targets.
    shard: int = 0
    #: ``split``: event indices where the stream is cut (sorted).
    split_points: Tuple[int, ...] = ()
    #: ``poison``: alert name the poisoned detector raises on.
    poison_name: str = ""
    max_restarts: int = 3
    backoff_base: float = 0.001
    #: ``disconnect``: event index at which the first client vanishes
    #: mid-write; ``shed``: batch index sent while admission rejects.
    fault_event: int = 0
    #: ``reshard-kill``: the live reshard's target shard count.
    reshard_to: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def label(self) -> str:
        """Compact spec string for reporting."""
        detail = {
            "split": f"cuts={list(self.split_points)}",
            "kill": f"batch={self.kill_batch} shard={self.shard}",
            "heal": f"batch={self.kill_batch} shard={self.shard}",
            "poison": f"name={self.poison_name}",
            "disconnect": f"event={self.fault_event}",
            "reshard-kill": (
                f"batch={self.kill_batch} shard={self.shard} ->{self.reshard_to}"
            ),
            "shed": f"batch={self.fault_event}",
            "shm-kill": f"batch={self.kill_batch} shard={self.shard}",
        }[self.kind]
        return f"{self.kind}[{self.n_shards}:{self.backend} {detail}]"


class ChaosPoisonDetector:
    """Detector wrapper that raises on a chosen alert name.

    Satisfies the :class:`~repro.core.detector.Detector` protocol by
    delegating to the wrapped detector; ``observe``-ing an alert named
    ``poison_name`` raises ``RuntimeError`` *before* the alert reaches
    the wrapped detector (the poisoned alert is the first casualty, as
    with a real mid-batch inference crash).  Module-level and built
    from picklable parts, so it crosses into process-backend workers.
    """

    def __init__(self, wrapped: Detector, poison_name: str) -> None:
        self.wrapped = wrapped
        self.poison_name = poison_name

    @property
    def detections(self) -> list[Detection]:
        return self.wrapped.detections

    def observe(self, alert: Alert) -> Optional[Detection]:
        if alert.name == self.poison_name:
            raise RuntimeError(f"chaos poison on {alert.name!r}")
        return self.wrapped.observe(alert)

    def observe_batch(self, alerts) -> list[Detection]:
        out = []
        for alert in alerts:
            detection = self.observe(alert)
            if detection is not None:
                out.append(detection)
        return out

    def reset(self) -> None:
        self.wrapped.reset()

    def reset_entity(self, entity: str) -> None:
        self.wrapped.reset_entity(entity)

    def clone(self) -> "ChaosPoisonDetector":
        clone = getattr(self.wrapped, "clone", None)
        inner = clone() if callable(clone) else copy.deepcopy(self.wrapped)
        return ChaosPoisonDetector(inner, self.poison_name)


@dataclasses.dataclass(frozen=True)
class ChaosFailure:
    """One violated crash-semantics assertion."""

    leg: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.leg}] {self.detail}"


@dataclasses.dataclass
class ChaosVerdict:
    """The chaos oracle's verdict for one campaign's fault plans."""

    campaign: Campaign
    plans: List[FaultPlan]
    legs_run: int = 0
    failures: List[ChaosFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All legs ran and every crash-semantics assertion held."""
        return self.legs_run > 0 and not self.failures


def campaign_batches(campaign: Campaign) -> list[list[Alert]]:
    """The campaign's non-empty alert batches, in stream order."""
    return [
        list(event.alerts)
        for event in campaign.events
        if event.kind == "batch" and event.alerts
    ]


def _batches_only(campaign: Campaign) -> Campaign:
    """The campaign with its detector-control events stripped.

    The ``kill``/``heal`` legs target raw worker death: a mid-stream
    ``reopen`` would resurrect the killed worker (making the fault
    unobservable) and a ``reset`` would race it.  Stripping the
    controls from *both* the faulted run and its reference keeps the
    comparison apples-to-apples.
    """
    return dataclasses.replace(
        campaign,
        events=tuple(
            event
            for event in campaign.events
            if event.kind == "batch" and event.alerts
        ),
    )


def _kill_target(
    campaign: Campaign, n_shards: int, rng: np.random.Generator
) -> Optional[Tuple[int, int]]:
    """Pick ``(kill_batch, shard)`` with a guaranteed later observation.

    The worker is SIGKILLed *between* batches (after ``kill_batch``
    collects), so the death only surfaces when a later batch routes an
    alert to the dead shard.  Candidates are therefore restricted to
    pairs where some batch after ``kill_batch`` touches the shard --
    without this, a kill landing on a shard the rest of the stream
    never uses would be silently unobservable and the leg vacuous.
    """
    batches = campaign_batches(campaign)
    if len(batches) < 2:
        return None
    shard_sets = [
        {shard_of(alert.entity, n_shards) for alert in batch} for batch in batches
    ]
    candidates: list[Tuple[int, int]] = []
    suffix: set = set()
    later: list[set] = [set()] * len(batches)
    for index in range(len(batches) - 1, -1, -1):
        later[index] = set(suffix)
        suffix |= shard_sets[index]
    for index in range(len(batches) - 1):
        for shard in sorted(later[index]):
            candidates.append((index, shard))
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


class ChaosComposer:
    """Seeded fault campaigns: a campaign plus its fault plans.

    Deterministic in ``(seed, index)``: the campaign comes from
    :class:`~repro.fuzz.campaign.CampaignComposer` with the same seed,
    the plans from an independently salted ``numpy`` generator, so the
    chaos CI gate replays pinned fault campaigns byte-for-byte.
    """

    def __init__(self, seed: int = 0, *, target_alerts: int = 300) -> None:
        self.seed = int(seed)
        self.composer = CampaignComposer(seed, target_alerts=target_alerts)

    def compose(self, index: int = 0) -> Tuple[Campaign, List[FaultPlan]]:
        """Compose chaos campaign ``index``: ``(campaign, fault plans)``."""
        campaign = self.composer.compose(index)
        rng = np.random.default_rng((self.seed, int(index), _PLAN_SALT))
        plans: List[FaultPlan] = []
        n_events = len(campaign.events)

        # Split leg: cut the stream at 1-2 event positions.
        if n_events >= 2:
            n_cuts = int(rng.integers(1, 3))
            cuts = sorted(
                int(c) for c in rng.choice(range(1, n_events), size=min(n_cuts, n_events - 1), replace=False)
            )
            plans.append(
                FaultPlan(
                    kind="split",
                    n_shards=int(rng.choice([1, 2, 4])),
                    backend=str(rng.choice(["serial", "process"])),
                    split_points=tuple(cuts),
                )
            )

        # Kill + heal legs share a target so the two policies are
        # compared on the same fault.
        n_shards = int(rng.choice([2, 4]))
        target = _kill_target(campaign, n_shards, rng)
        if target is not None:
            kill_batch, shard = target
            for kind in ("kill", "heal"):
                plans.append(
                    FaultPlan(
                        kind=kind,
                        n_shards=n_shards,
                        backend="process",
                        kill_batch=kill_batch,
                        shard=shard,
                    )
                )

        # Poison leg: a mid-stream alert name, both backends.
        alerts = campaign.alerts()
        if alerts:
            poison = alerts[len(alerts) // 2].name
            for backend in ("serial", "process"):
                plans.append(
                    FaultPlan(
                        kind="poison",
                        n_shards=2,
                        backend=backend,
                        poison_name=poison,
                        shard=0,
                    )
                )

        # Shm-kill leg: SIGKILL a worker while shared-memory ring
        # descriptors are genuinely in flight to it.  Targets are pairs
        # where batch ``kill_batch`` itself routes an alert to the
        # shard, so the descriptor for that batch is sitting in the
        # ring (uncollected, depth-2 window) at the moment of death and
        # the heal must replay the ring payload.  Drawn from an
        # independent salt so the pinned plan streams above stay
        # byte-identical.
        shm_rng = np.random.default_rng((self.seed, int(index), _SHM_SALT))
        batches = campaign_batches(campaign)
        shm_shards = int(shm_rng.choice([2, 4]))
        shm_candidates = [
            (batch_index, shard)
            for batch_index, batch in enumerate(batches)
            for shard in sorted(
                {shard_of(alert.entity, shm_shards) for alert in batch}
            )
        ]
        if shm_candidates:
            kill_batch, shard = shm_candidates[
                int(shm_rng.integers(0, len(shm_candidates)))
            ]
            plans.append(
                FaultPlan(
                    kind="shm-kill",
                    n_shards=shm_shards,
                    backend="process",
                    kill_batch=kill_batch,
                    shard=shard,
                )
            )
        return campaign, plans

    def compose_service(self, index: int = 0) -> Tuple[Campaign, List[FaultPlan]]:
        """Compose the socket-level fault plans for campaign ``index``.

        Independent of :meth:`compose`'s plan stream (its own salt):
        the pinned pipeline-level chaos campaigns stay byte-identical
        while the service legs evolve.  Plans:

        ``disconnect``
            A client streams the campaign's prefix, then vanishes mid
            JSON line (an abrupt TCP close inside a request frame).
            Acked work must survive, the partial frame must be
            discarded, the server must keep serving, and a second
            client finishing the stream must observe bit-identical
            results.
        ``reshard-kill``
            A shard worker is SIGKILLed between batches, then a live
            N->M reshard is requested over the socket: the harvest
            phase must heal the dead worker parent-side (snapshot +
            replay-log rebuild), the reshard completes, and the full
            stream stays bit-identical.
        ``shed``
            Admission is forced to ``reject`` just before a chosen
            batch; the client's backoff/retry (after admission
            reopens) must deliver the stream complete and in order --
            shed-then-replay with zero loss.
        """
        campaign = self.composer.compose(index)
        rng = np.random.default_rng((self.seed, int(index), _SERVICE_SALT))
        plans: List[FaultPlan] = []
        n_events = len(campaign.events)
        n_batches = len(campaign_batches(campaign))
        if n_events >= 2:
            plans.append(
                FaultPlan(
                    kind="disconnect",
                    n_shards=int(rng.choice([1, 2])),
                    backend="serial",
                    fault_event=int(rng.integers(1, n_events)),
                )
            )
        if n_batches >= 2:
            n_shards = int(rng.choice([2, 3]))
            reshard_to = int(rng.choice([c for c in (1, 2, 4) if c != n_shards]))
            plans.append(
                FaultPlan(
                    kind="reshard-kill",
                    n_shards=n_shards,
                    backend="process",
                    kill_batch=int(rng.integers(0, n_batches - 1)),
                    shard=int(rng.integers(0, n_shards)),
                    reshard_to=reshard_to,
                )
            )
        if n_batches >= 1:
            plans.append(
                FaultPlan(
                    kind="shed",
                    n_shards=2,
                    backend="serial",
                    fault_event=int(rng.integers(0, n_batches)),
                )
            )
        return campaign, plans

    def chaos_campaigns(
        self, count: int
    ) -> Iterator[Tuple[int, Campaign, List[FaultPlan]]]:
        """Yield ``(index, campaign, plans)`` for ``count`` campaigns."""
        for index in range(count):
            campaign, plans = self.compose(index)
            yield index, campaign, plans

    def service_campaigns(
        self, count: int
    ) -> Iterator[Tuple[int, Campaign, List[FaultPlan]]]:
        """Yield ``(index, campaign, service plans)`` for ``count`` campaigns."""
        for index in range(count):
            campaign, plans = self.compose_service(index)
            yield index, campaign, plans


class ChaosOracle:
    """Replays fault plans against a campaign and checks crash semantics."""

    def __init__(self, workdir: Optional[Path] = None) -> None:
        self.workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="chaos-"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._replayer = DifferentialOracle([])

    # -- top level -------------------------------------------------------
    def run(self, campaign: Campaign, plans: Sequence[FaultPlan]) -> ChaosVerdict:
        """Run every fault leg; collect crash-semantics violations."""
        verdict = ChaosVerdict(campaign=campaign, plans=list(plans))
        runners = {
            "split": self._run_split,
            "kill": self._run_kill,
            "heal": self._run_heal,
            "poison": self._run_poison,
            "disconnect": self._run_disconnect,
            "reshard-kill": self._run_reshard_kill,
            "shed": self._run_shed,
            "shm-kill": self._run_shm_kill,
        }
        for plan in plans:
            verdict.legs_run += 1
            rings_before = self._ring_segments()
            try:
                failures = runners[plan.kind](campaign, plan)
            except Exception:
                failures = [
                    ChaosFailure(plan.label, f"oracle crashed:\n{traceback.format_exc()}")
                ]
            # Every leg — not just shm-kill — must tear its rings down:
            # a segment surviving the leg is a /dev/shm leak.
            leaked = self._ring_segments() - rings_before
            if leaked:
                failures = list(failures) + [
                    ChaosFailure(
                        plan.label,
                        f"leaked /dev/shm ring segment(s): {sorted(leaked)}",
                    )
                ]
            verdict.failures.extend(failures)
        return verdict

    @staticmethod
    def _ring_segments() -> Set[str]:
        """Names of live ``/dev/shm`` ring segments (leak detection)."""
        try:
            return {
                name
                for name in os.listdir("/dev/shm")
                if name.startswith(SEGMENT_PREFIX)
            }
        except OSError:  # pragma: no cover - non-POSIX /dev/shm layout
            return set()

    # -- shared helpers --------------------------------------------------
    def _build_pipeline(
        self, campaign: Campaign, plan: FaultPlan, *, restart_policy: str = "raise"
    ) -> TestbedPipeline:
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE),
            max_window=campaign.max_window,
            detection_threshold=campaign.detection_threshold,
        )
        return TestbedPipeline(
            detectors={"factor_graph": tagger},
            n_shards=plan.n_shards,
            shard_backend=plan.backend,
            # shm-kill needs a second batch in flight at the kill.
            max_inflight=2 if plan.kind == "shm-kill" else 1,
            restart_policy=restart_policy,
            max_restarts=plan.max_restarts,
            backoff_base=plan.backoff_base,
        )

    @staticmethod
    def _kill_workers(pipeline: TestbedPipeline) -> None:
        """SIGKILL every shard worker (a crash, not a shutdown)."""
        for pool in pipeline.detector_pools.values():
            for worker in pool._workers:
                worker.process.kill()
                worker.process.join(timeout=5.0)

    @staticmethod
    def _kill_shard(pipeline: TestbedPipeline, shard: int) -> None:
        pool = pipeline.detector_pools["factor_graph"]
        worker = pool._workers[shard]
        worker.process.kill()
        worker.process.join(timeout=5.0)

    @staticmethod
    def _freeze_shard(pipeline: TestbedPipeline, shard: int) -> None:
        """SIGSTOP a shard worker so it cannot consume its next submit.

        Freezing *before* the kill batch is submitted makes the shm-kill
        leg deterministic: a merely-SIGKILLed worker can race the signal
        and answer the batch first, and if no later batch routes to the
        shard the death would go unobserved (no heal to assert on).  A
        frozen worker can never reply, so the collect for the kill batch
        is guaranteed to detect the death.  SIGKILL terminates stopped
        processes, so no resume is needed.
        """
        pool = pipeline.detector_pools["factor_graph"]
        os.kill(pool._workers[shard].process.pid, signal.SIGSTOP)

    def _reference(self, campaign: Campaign, config: OracleConfig) -> ReplayResult:
        """Uninterrupted replay of the campaign under ``config``."""
        return self._replayer.replay(campaign, config)

    # -- split: checkpoint / kill / restore / replay ---------------------
    def _run_split(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        config = OracleConfig(n_shards=plan.n_shards, backend=plan.backend)
        reference = self._reference(campaign, config)
        cuts = [c for c in plan.split_points if 0 < c < len(campaign.events)]
        segments: list = []
        previous = 0
        for cut in sorted(set(cuts)):
            segments.append(campaign.events[previous:cut])
            previous = cut
        segments.append(campaign.events[previous:])

        detections: list[Detection] = []
        checkpoint_path = self.workdir / f"split-{campaign.label}.ckpt"
        pipeline = self._build_pipeline(campaign, plan)
        try:
            for index, segment in enumerate(segments):
                for event in segment:
                    if event.kind == "batch":
                        detections.extend(pipeline.ingest_alerts(list(event.alerts)))
                    else:
                        DifferentialOracle._apply_control(pipeline, event)
                if index == len(segments) - 1:
                    break
                # Cut: checkpoint, crash the workers, restore fresh.
                pipeline.checkpoint(checkpoint_path)
                if plan.backend == "process":
                    self._kill_workers(pipeline)
                pipeline.close()
                pipeline = self._build_pipeline(campaign, plan)
                pipeline.restore(checkpoint_path)
            result = ReplayResult(
                config=config,
                detections=detections,
                detection_log=list(pipeline.detections),
                notifications=list(pipeline.responder.notifications),
                actions=list(pipeline.responder.actions),
                counters={
                    key: pipeline.summary()[key]
                    for key in reference.counters
                },
            )
        finally:
            pipeline.close()
        return [
            ChaosFailure(plan.label, str(divergence))
            for divergence in DifferentialOracle._compare(reference, result)
        ]

    # -- kill: raise-policy contract -------------------------------------
    def _run_kill(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        failures: List[ChaosFailure] = []
        pipeline = self._build_pipeline(campaign, plan, restart_policy="raise")
        pool = pipeline.detector_pools["factor_graph"]
        error: Optional[BaseException] = None
        try:
            for batch_index, batch in enumerate(campaign_batches(campaign)):
                try:
                    pipeline.ingest_alerts(batch)
                except ShardWorkerError as exc:
                    error = exc
                    break
                if batch_index == plan.kill_batch:
                    self._kill_shard(pipeline, plan.shard)
            if error is None:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        "worker SIGKILL was never surfaced as ShardWorkerError",
                    )
                )
            else:
                if not isinstance(error, ShardWorkerError) or isinstance(
                    error, ShardRecoveryError
                ):
                    failures.append(
                        ChaosFailure(plan.label, f"wrong error type: {type(error)}")
                    )
                if getattr(error, "shard", None) != plan.shard:
                    failures.append(
                        ChaosFailure(
                            plan.label,
                            f"error names shard {getattr(error, 'shard', None)}, "
                            f"killed {plan.shard}",
                        )
                    )
                if "died without replying" not in getattr(error, "worker_traceback", ""):
                    failures.append(
                        ChaosFailure(
                            plan.label, "death detail lost from worker_traceback"
                        )
                    )
            if pipeline.detection_stage.pending_batches:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"{pipeline.detection_stage.pending_batches} stale "
                        "in-flight ticket(s) after the error",
                    )
                )
            if pool._pending:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"{len(pool._pending)} stale pool ticket(s) after the error",
                    )
                )
        finally:
            close_results = pipeline.close()
        for name, close_result in close_results.items():
            if not close_result.clean:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"pool {name!r} close escalated: {close_result.escalations}",
                    )
                )
        return failures

    # -- heal: restore-policy contract -----------------------------------
    def _run_heal(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        failures: List[ChaosFailure] = []
        stripped = _batches_only(campaign)
        reference = self._reference(
            stripped,
            OracleConfig(n_shards=plan.n_shards, backend="serial"),
        )
        pipeline = self._build_pipeline(campaign, plan, restart_policy="restore")
        pool = pipeline.detector_pools["factor_graph"]
        detections: list[Detection] = []
        try:
            for batch_index, batch in enumerate(campaign_batches(stripped)):
                try:
                    detections.extend(pipeline.ingest_alerts(batch))
                except ShardWorkerError:
                    failures.append(
                        ChaosFailure(
                            plan.label,
                            f"restore policy surfaced an error:\n"
                            f"{traceback.format_exc()}",
                        )
                    )
                    return failures
                if batch_index == plan.kill_batch:
                    self._kill_shard(pipeline, plan.shard)
            result = ReplayResult(
                config=OracleConfig(n_shards=plan.n_shards, backend=plan.backend),
                detections=detections,
                detection_log=list(pipeline.detections),
                notifications=list(pipeline.responder.notifications),
                actions=list(pipeline.responder.actions),
                counters={
                    key: pipeline.summary()[key] for key in reference.counters
                },
            )
            failures.extend(
                ChaosFailure(plan.label, str(divergence))
                for divergence in DifferentialOracle._compare(reference, result)
            )
            healed = [
                event
                for event in pool.recovery_log.for_shard(plan.shard)
                if event.healed
            ]
            if not healed:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"no healed recovery for shard {plan.shard} in RecoveryLog "
                        f"({len(pool.recovery_log)} event(s) total)",
                    )
                )
        finally:
            close_results = pipeline.close()
        for name, close_result in close_results.items():
            if not close_result.clean:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"pool {name!r} close escalated: {close_result.escalations}",
                    )
                )
        return failures

    # -- shm-kill: ring descriptors in flight at the moment of death -----
    def _run_shm_kill(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        """SIGKILL with uncollected shared-memory descriptors in flight.

        The pipeline runs process shards with a depth-2 window
        driven two-phase (submit, then collect lagging one batch), and
        the worker is frozen (SIGSTOP) just before batch ``kill_batch``
        is submitted and SIGKILLed right after -- before its collect --
        so the ring descriptor for that batch is genuinely outstanding.  The supervised heal must
        rebuild the replica and replay the ring payloads FIFO; the
        stream must stay bit-identical to a serial reference and no
        ring segment may survive the leg (checked by :meth:`run`).
        """
        failures: List[ChaosFailure] = []
        stripped = _batches_only(campaign)
        reference = self._reference(
            stripped,
            OracleConfig(n_shards=plan.n_shards, backend="serial"),
        )
        pipeline = self._build_pipeline(campaign, plan, restart_policy="restore")
        pool = pipeline.detector_pools["factor_graph"]
        detections: list[Detection] = []
        window = pipeline.max_inflight
        inflight = 0
        try:
            try:
                for batch_index, batch in enumerate(campaign_batches(stripped)):
                    while inflight >= window:
                        detections.extend(pipeline.collect_detections())
                        inflight -= 1
                    if batch_index == plan.kill_batch:
                        # Freeze first so the worker cannot answer the
                        # kill batch before the SIGKILL lands — the
                        # descriptor stays in the ring and the heal is
                        # guaranteed to be observed at collect time.
                        self._freeze_shard(pipeline, plan.shard)
                    pipeline.submit_alerts(batch)
                    inflight += 1
                    if batch_index == plan.kill_batch:
                        self._kill_shard(pipeline, plan.shard)
                while inflight:
                    detections.extend(pipeline.collect_detections())
                    inflight -= 1
            except ShardWorkerError:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"restore policy surfaced an error:\n"
                        f"{traceback.format_exc()}",
                    )
                )
                return failures
            result = ReplayResult(
                config=OracleConfig(n_shards=plan.n_shards, backend=plan.backend),
                detections=detections,
                detection_log=list(pipeline.detections),
                notifications=list(pipeline.responder.notifications),
                actions=list(pipeline.responder.actions),
                counters={
                    key: pipeline.summary()[key] for key in reference.counters
                },
            )
            failures.extend(
                ChaosFailure(plan.label, str(divergence))
                for divergence in DifferentialOracle._compare(reference, result)
            )
            if not pool.shm_batches:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        "the rings were never exercised "
                        f"(shm_batches=0, shm_fallbacks={pool.shm_fallbacks})",
                    )
                )
            healed = [
                event
                for event in pool.recovery_log.for_shard(plan.shard)
                if event.healed
            ]
            if not healed:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"no healed recovery for shard {plan.shard} in RecoveryLog "
                        f"({len(pool.recovery_log)} event(s) total)",
                    )
                )
        finally:
            close_results = pipeline.close()
        for name, close_result in close_results.items():
            if not close_result.clean:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"pool {name!r} close escalated: {close_result.escalations}",
                    )
                )
        return failures

    # -- service legs: the same faults through a live socket -------------
    # repro.service imports repro.fuzz.oracle, so these imports stay
    # local to keep the package import graph acyclic.
    @staticmethod
    def _drive_event(client, event) -> None:
        if event.kind == "batch":
            client.send_alerts(list(event.alerts))
        elif event.kind == "reset_entity":
            client.control("reset_entity", entity=event.entity)
        elif event.kind == "reset":
            client.control("reset")
        elif event.kind == "reopen":
            client.control("reopen")

    @staticmethod
    def _service_results(client) -> dict:
        reply = client.results()
        return {
            key: reply[key]
            for key in (
                "detections",
                "detection_log",
                "notifications",
                "actions",
                "counters",
            )
        }

    def _run_disconnect(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        """Abrupt client death mid-frame: acked work survives, server lives."""
        from ..service.server import ServiceConfig, start_service_in_thread
        from ..service.smoke import (
            build_service_pipeline,
            compare_results,
            reference_results,
        )

        failures: List[ChaosFailure] = []
        expected = reference_results(campaign)
        cut = max(1, plan.fault_event % len(campaign.events))
        handle = start_service_in_thread(
            lambda: build_service_pipeline(
                campaign,
                n_shards=plan.n_shards,
                backend=plan.backend,
            ),
            ServiceConfig(),
        )
        try:
            first = handle.client()
            for event in campaign.events[:cut]:
                self._drive_event(first, event)
            # Vanish inside a request frame: a partial JSON line, then
            # a hard close with the reply unread.
            first._sock.sendall(b'{"op":"batch","alerts":[')
            first._sock.close()
            with handle.client() as second:
                if not second.ping().get("pong"):
                    failures.append(
                        ChaosFailure(plan.label, "server unresponsive after disconnect")
                    )
                for event in campaign.events[cut:]:
                    self._drive_event(second, event)
                second.drain()
                got = self._service_results(second)
        finally:
            handle.stop()
        failures.extend(
            ChaosFailure(plan.label, difference)
            for difference in compare_results(expected, got)
        )
        return failures

    def _run_reshard_kill(
        self, campaign: Campaign, plan: FaultPlan
    ) -> List[ChaosFailure]:
        """SIGKILL a worker, then reshard live: harvest must heal it."""
        from ..service.server import ServiceConfig, start_service_in_thread
        from ..service.smoke import (
            build_service_pipeline,
            compare_results,
            reference_results,
        )

        failures: List[ChaosFailure] = []
        expected = reference_results(campaign)
        handle = start_service_in_thread(
            lambda: build_service_pipeline(
                campaign,
                n_shards=plan.n_shards,
                backend="process",
                restart_policy="restore",
            ),
            ServiceConfig(),
        )
        try:
            with handle.client() as client:
                batch_index = -1
                for event in campaign.events:
                    self._drive_event(client, event)
                    if event.kind == "batch" and event.alerts:
                        batch_index += 1
                        if batch_index == plan.kill_batch:
                            # Quiesce so the kill lands between batches,
                            # then crash the worker and reshard over the
                            # socket: the harvest phase finds the corpse
                            # and must rebuild its replica parent-side.
                            client.drain()
                            pool = handle.pipeline.detector_pools["factor_graph"]
                            worker = pool._workers[plan.shard]
                            worker.process.kill()
                            worker.process.join(timeout=5.0)
                            reply = client.reshard(plan.reshard_to)
                            if reply["reshard"]["to"] != plan.reshard_to:
                                failures.append(
                                    ChaosFailure(plan.label, f"bad reshard reply {reply!r}")
                                )
                client.drain()
                got = self._service_results(client)
                stats = client.stats()
        finally:
            handle.stop()
        failures.extend(
            ChaosFailure(plan.label, difference)
            for difference in compare_results(expected, got)
        )
        if stats["pipeline"]["reshard_events"] < 1:
            failures.append(ChaosFailure(plan.label, "no ReshardEvent recorded"))
        if stats["pipeline"]["recoveries_healed"] < 1:
            failures.append(
                ChaosFailure(
                    plan.label, "dead worker was not healed during the reshard harvest"
                )
            )
        if stats["n_shards"] != plan.reshard_to:
            failures.append(
                ChaosFailure(
                    plan.label,
                    f"service reports n_shards={stats['n_shards']}, "
                    f"resharded to {plan.reshard_to}",
                )
            )
        return failures

    def _run_shed(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        """Forced rejection, then client replay: zero loss, full order."""
        from ..service.admission import ServiceOverloadedError
        from ..service.server import ServiceConfig, start_service_in_thread
        from ..service.smoke import (
            build_service_pipeline,
            compare_results,
            reference_results,
        )

        failures: List[ChaosFailure] = []
        expected = reference_results(campaign)
        handle = start_service_in_thread(
            lambda: build_service_pipeline(
                campaign,
                n_shards=plan.n_shards,
                backend=plan.backend,
            ),
            ServiceConfig(),
        )
        try:
            with handle.client() as client:
                batch_index = -1
                for event in campaign.events:
                    if event.kind == "batch" and event.alerts:
                        batch_index += 1
                        if batch_index == plan.fault_event:
                            # Admission slams shut; the un-retried probe
                            # must be refused (nothing half-enqueued)...
                            client.throttle("reject")
                            try:
                                client.request(
                                    {
                                        "op": "batch",
                                        "alerts": [a.to_dict() for a in event.alerts],
                                    }
                                )
                            except ServiceOverloadedError:
                                pass
                            else:
                                failures.append(
                                    ChaosFailure(
                                        plan.label, "forced reject admitted a batch"
                                    )
                                )
                            # ...and once reopened, the client replays
                            # the same batch at the same stream position.
                            client.throttle("open")
                    self._drive_event(client, event)
                client.drain()
                got = self._service_results(client)
                stats = client.stats()
        finally:
            handle.stop()
        failures.extend(
            ChaosFailure(plan.label, difference)
            for difference in compare_results(expected, got)
        )
        if stats["admission"]["rejected_batches"] < 1:
            failures.append(
                ChaosFailure(plan.label, "no rejection recorded by admission control")
            )
        if stats["pipeline"]["dropped_raw"] or stats["pipeline"]["dropped_alerts"]:
            failures.append(
                ChaosFailure(
                    plan.label,
                    "reject tier must be lossless, but drop counters moved",
                )
            )
        return failures

    # -- poison: typed mid-batch detector crash --------------------------
    def _run_poison(self, campaign: Campaign, plan: FaultPlan) -> List[ChaosFailure]:
        failures: List[ChaosFailure] = []
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE),
            max_window=campaign.max_window,
            detection_threshold=campaign.detection_threshold,
        )
        pipeline = TestbedPipeline(
            detectors={
                "factor_graph": ChaosPoisonDetector(tagger, plan.poison_name)
            },
            n_shards=plan.n_shards,
            shard_backend=plan.backend,
        )
        error: Optional[BaseException] = None
        last_timestamp = 0.0
        probe_name = next(
            (a.name for a in campaign.alerts() if a.name != plan.poison_name), None
        )
        try:
            for batch in campaign_batches(campaign):
                last_timestamp = max(last_timestamp, batch[-1].timestamp)
                try:
                    pipeline.ingest_alerts(batch)
                except ShardWorkerError as exc:
                    error = exc
                    break
            if error is None:
                failures.append(
                    ChaosFailure(plan.label, "poisoned detector never surfaced")
                )
            else:
                if "chaos poison" not in getattr(error, "worker_traceback", ""):
                    failures.append(
                        ChaosFailure(
                            plan.label,
                            "worker-side traceback lost (no 'chaos poison' in "
                            f"{getattr(error, 'worker_traceback', '')[:200]!r})",
                        )
                    )
                # Shards are driven (serial) / collected (process) in
                # index order, so the surfaced error belongs to the
                # lowest shard holding a poison alert in the first
                # batch that contains the name.
                expected_shard = None
                for batch in campaign_batches(campaign):
                    shards = [
                        shard_of(alert.entity, plan.n_shards)
                        for alert in batch
                        if alert.name == plan.poison_name
                    ]
                    if shards:
                        expected_shard = min(shards)
                        break
                if expected_shard is not None and error.shard != expected_shard:
                    failures.append(
                        ChaosFailure(
                            plan.label,
                            f"error names shard {error.shard}, poisoned alert "
                            f"routes to {expected_shard}",
                        )
                    )
                # The pool must stay drivable after a detector crash.
                if probe_name is not None:
                    probe = Alert(
                        timestamp=last_timestamp + 1.0,
                        name=probe_name,
                        entity="chaos-probe",
                    )
                    try:
                        pipeline.ingest_alerts([probe])
                    except Exception:
                        failures.append(
                            ChaosFailure(
                                plan.label,
                                f"pipeline not drivable after poison:\n"
                                f"{traceback.format_exc()}",
                            )
                        )
        finally:
            close_results = pipeline.close()
        for name, close_result in close_results.items():
            if not close_result.clean:
                failures.append(
                    ChaosFailure(
                        plan.label,
                        f"pool {name!r} close escalated: {close_result.escalations}",
                    )
                )
        return failures


__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "FaultPlan",
    "ChaosPoisonDetector",
    "ChaosFailure",
    "ChaosVerdict",
    "ChaosComposer",
    "ChaosOracle",
    "campaign_batches",
]
