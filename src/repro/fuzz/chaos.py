"""Chaos oracle: seeded fault campaigns against the crash-safety contract.

:class:`~repro.fuzz.oracle.DifferentialOracle` proves happy-path
equivalence across the configuration matrix; this module proves the
*crash semantics* the robustness layer (checkpoint/restore, supervised
self-healing shards, close escalation, the socket front-end) promises.
A chaos campaign is a regular fuzzer campaign plus a seeded
:class:`FaultPlan` list.  Every plan is one **row** of :data:`ROWS`
run through the shared runner in :mod:`repro.fuzz.oracle`
(``build_pipeline`` / ``drive`` / ``snapshot``): a row names the sink
(a pipeline, or a client of a live :mod:`repro.service` server), the
driver, the hook that injects its fault at a named stream position,
and the expectations -- each written once -- its outcome must meet.

Pipeline rows (:meth:`ChaosComposer.compose`):

``split``
    At fuzzer-chosen event positions the pipeline is checkpointed, its
    shard workers are SIGKILLed (a crash, not a shutdown), and a
    *fresh* pipeline restored from the checkpoint carries on.  The
    stitched run must be bit-identical to an uninterrupted one.
``kill``
    ``restart_policy="raise"``: a worker SIGKILLed after a chosen
    batch surfaces as a typed
    :class:`~repro.testbed.sharding.ShardWorkerError` naming the shard
    and carrying the death detail.
``heal``
    ``restart_policy="restore"``: the same SIGKILL is absorbed -- no
    error, bit-identical output, the recovery in the pool's
    :class:`~repro.testbed.sharding.RecoveryLog`.
``poison``
    A detector raising mid-batch is not a death: both backends surface
    the same typed error with the worker-side traceback preserved, and
    the pipeline stays drivable.
``shm-kill``
    Driven through ``alert_stream`` at depth 2, the worker is frozen
    (SIGSTOP) just before the kill batch is submitted and SIGKILLed
    right after, so its shared-memory ring descriptor is genuinely
    outstanding; the heal must replay the ring payloads FIFO.

Service rows (:meth:`ChaosComposer.compose_service`, an independent
plan stream):

``disconnect``
    A client vanishes mid JSON frame; acked work survives, the partial
    frame is discarded, and a second client finishes the stream.
``reshard-kill``
    A shard worker is SIGKILLed, then a live N->M reshard is requested
    over the socket: the harvest round heals the corpse on the way.
``shed``
    Admission is forced to ``reject``; the client's replay after
    reopening delivers the stream complete and in order (lossless).

Every pipeline row must also leave no stale ticket in the detection
stage or the pool and close cleanly; every service row must read back
results bit-identical to the offline reference; no row may leave a
``/dev/shm`` ring segment behind.

Everything is deterministic in ``(seed, index)`` -- campaigns via
:class:`~repro.fuzz.campaign.CampaignComposer`, fault plans via this
module's :class:`ChaosComposer` -- so CI replays pinned fault
campaigns, and any failure reproduces from its seed alone.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import os
import signal
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.alerts import Alert
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from ..testbed.sharding import ShardRecoveryError, ShardWorkerError, shard_of
from ..testbed.shm_ring import SEGMENT_PREFIX
from .campaign import Campaign, CampaignComposer
from .oracle import (
    DifferentialOracle,
    OracleConfig,
    ReplayResult,
    build_pipeline,
    drive,
    snapshot,
)

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
            round must heal the dead worker (its carrier respawns
            and replays it), the reshard completes, and the full
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


def _ring_segments() -> Set[str]:
    """Names of live ``/dev/shm`` ring segments (leak detection)."""
    try:
        return {
            name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)
        }
    except OSError:  # pragma: no cover - non-POSIX /dev/shm layout
        return set()


def _carrier(pipeline, shard: int):
    return pipeline.detector_pools["factor_graph"]._workers[shard]


def _sigkill(pipeline, shard: int) -> None:
    """SIGKILL one shard worker (a crash, not a shutdown)."""
    _carrier(pipeline, shard).process.kill()
    _carrier(pipeline, shard).process.join(timeout=5.0)


@dataclasses.dataclass
class _Leg:
    """One fault plan being run: what hooks and expectations share."""

    campaign: Campaign
    plan: FaultPlan
    row: "_Row"
    workdir: Path
    #: The sink being driven (hooks may replace it).
    sink: object = None
    #: Service rows: the live server's handle, and its final ``stats``.
    handle: object = None
    stats: Optional[dict] = None
    #: The ``ShardWorkerError`` that ended the drive, with its traceback.
    error: Optional[ShardWorkerError] = None
    trace: str = ""
    #: Pipeline rows: the compared surface of a drive that completed.
    result: Optional[ReplayResult] = None
    #: Violations found by hooks while the stream was still running.
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def config(self) -> OracleConfig:
        """The plan's shape (production engine) as the runner spells it."""
        return OracleConfig(n_shards=self.plan.n_shards, backend=self.plan.backend)

    def build(self):
        """A fresh pipeline of the plan's shape under the row's policy."""
        plan = self.plan
        wrap = None
        if plan.poison_name:
            wrap = functools.partial(ChaosPoisonDetector, poison_name=plan.poison_name)
        return build_pipeline(
            self.campaign,
            self.config,
            wrap=wrap,
            restart_policy=self.row.restart_policy,
            max_restarts=plan.max_restarts,
            backoff_base=plan.backoff_base,
            **self.row.options,
        )

    def hook(self, point: str, index: int):
        replacement = self.row.hook(self, point, index) if self.row.hook else None
        if replacement is not None:
            self.sink = replacement
        return replacement

    def check(self) -> None:
        for expect in self.row.expects:
            self.failures.extend(expect(self))


# -- hooks: where each fault is injected ---------------------------------
def _kill_after_batch(leg: _Leg, point: str, index: int) -> None:
    """SIGKILL the target worker between batches (after one collects)."""
    if (point, index) == ("after", leg.plan.kill_batch):
        _sigkill(leg.sink, leg.plan.shard)


def _freeze_then_kill(leg: _Leg, point: str, index: int) -> None:
    """SIGSTOP before the kill batch is submitted, SIGKILL right after.

    A merely-SIGKILLed worker can race the signal and answer the batch
    first, and if no later batch routes to the shard the death would go
    unobserved.  A frozen worker can never reply, so the batch's ring
    descriptor is outstanding at the kill and its collect is guaranteed
    to see the death.  SIGKILL terminates stopped processes, so no
    resume is needed.

    The stream driver prepares the kill batch before it collects the
    oldest batch in flight, so that collect falls between the freeze
    and the kill.  The carrier is folded first -- its owed replies are
    read and kept for the collects that own them -- or that collect
    would wait forever on a stopped process.
    """
    if (point, index) == ("before", leg.plan.kill_batch):
        carrier = _carrier(leg.sink, leg.plan.shard)
        carrier._fold()
        os.kill(carrier.process.pid, signal.SIGSTOP)
    elif (point, index) == ("after", leg.plan.kill_batch):
        _sigkill(leg.sink, leg.plan.shard)


def _checkpoint_kill_restore(leg: _Leg, point: str, index: int):
    """At a cut: checkpoint, crash every worker, restore a fresh pipeline."""
    if point != "event" or index not in leg.plan.split_points:
        return None
    path = leg.workdir / f"split-{leg.campaign.label}.ckpt"
    leg.sink.checkpoint(path)
    if leg.plan.backend == "process":
        for shard in range(leg.plan.n_shards):
            _sigkill(leg.sink, shard)
    leg.sink.close()
    fresh = leg.build()
    fresh.restore(path)
    return fresh


def _disconnect_mid_frame(leg: _Leg, point: str, index: int):
    """The client vanishes inside a request frame; a second one carries on."""
    cut = max(1, leg.plan.fault_event % len(leg.campaign.events))
    if (point, index) != ("event", cut):
        return None
    # A partial JSON line, then a hard close with the reply unread.
    leg.sink._sock.sendall(b'{"op":"batch","alerts":[')
    leg.sink._sock.close()
    second = leg.handle.client()
    if not second.ping().get("pong"):
        leg.failures.append("server unresponsive after disconnect")
    return second


def _kill_then_reshard(leg: _Leg, point: str, index: int) -> None:
    """Quiesce, crash a worker, reshard over the socket.

    The drain makes the kill land between batches; the reshard's
    harvest round then finds the corpse and its carrier must heal it.
    """
    if (point, index) != ("after", leg.plan.kill_batch):
        return
    leg.sink.drain()
    _sigkill(leg.handle.pipeline, leg.plan.shard)
    reply = leg.sink.reshard(leg.plan.reshard_to)
    if reply["reshard"]["to"] != leg.plan.reshard_to:
        leg.failures.append(f"bad reshard reply {reply!r}")


def _reject_then_reopen(leg: _Leg, point: str, index: int) -> None:
    """Admission slams shut before a batch, then reopens.

    The un-retried probe must be refused (nothing half-enqueued); once
    reopened, the driver delivers the same batch at the same position.
    """
    from ..service.admission import ServiceOverloadedError

    if (point, index) != ("before", leg.plan.fault_event):
        return
    probe = campaign_batches(leg.campaign)[index]
    leg.sink.throttle("reject")
    try:
        leg.sink.request({"op": "batch", "alerts": [a.to_dict() for a in probe]})
    except ServiceOverloadedError:
        pass
    else:
        leg.failures.append("forced reject admitted a batch")
    leg.sink.throttle("open")


# -- expectations: each crash-semantics assertion, written once ----------
def _no_error(leg: _Leg) -> Iterator[str]:
    if leg.error is not None:
        yield f"the fault surfaced as an error:\n{leg.trace}"


def _bit_identical(leg: _Leg) -> Iterator[str]:
    """Equal to an uninterrupted serial replay of the same campaign."""
    if leg.result is None:
        return
    reference = DifferentialOracle([]).replay(
        leg.campaign, dataclasses.replace(leg.config, backend="serial")
    )
    for divergence in DifferentialOracle._compare(reference, leg.result):
        yield str(divergence)


def _healed(leg: _Leg) -> Iterator[str]:
    log = leg.sink.detector_pools["factor_graph"].recovery_log
    if not any(event.healed for event in log.for_shard(leg.plan.shard)):
        yield (
            f"no healed recovery for shard {leg.plan.shard} in RecoveryLog "
            f"({len(log)} event(s) total)"
        )


def _rings_exercised(leg: _Leg) -> Iterator[str]:
    pool = leg.sink.detector_pools["factor_graph"]
    if not pool.shm_batches:
        yield (
            "the rings were never exercised "
            f"(shm_batches=0, shm_fallbacks={pool.shm_fallbacks})"
        )


def _typed_death(leg: _Leg) -> Iterator[str]:
    """A plain ``ShardWorkerError`` naming the shard, death detail kept."""
    error = leg.error
    if error is None:
        yield "the fault never surfaced as ShardWorkerError"
        return
    if isinstance(error, ShardRecoveryError):
        yield f"wrong error type: {type(error)}"
    if error.shard != leg.plan.shard:
        yield f"error names shard {error.shard}, killed {leg.plan.shard}"
    if "died without replying" not in error.worker_traceback:
        yield "death detail lost from worker_traceback"


def _poison_surfaced(leg: _Leg) -> Iterator[str]:
    """Worker traceback kept, poisoned shard named, pipeline still drivable."""
    error, name = leg.error, leg.plan.poison_name
    if error is None:
        yield "the fault never surfaced as ShardWorkerError"
        return
    if "chaos poison" not in error.worker_traceback:
        yield (
            "worker-side traceback lost (no 'chaos poison' in "
            f"{error.worker_traceback[:200]!r})"
        )
    # Shards are driven (serial) / collected (process) in index order,
    # so the error belongs to the lowest shard holding a poison alert
    # in the first batch that contains the name.
    poisoned = next(
        [a for a in batch if a.name == name]
        for batch in campaign_batches(leg.campaign)
        if any(a.name == name for a in batch)
    )
    expected = min(shard_of(a.entity, leg.plan.n_shards) for a in poisoned)
    if error.shard != expected:
        yield f"error names shard {error.shard}, poisoned alert routes to {expected}"
    alerts = leg.campaign.alerts()
    probe_name = next((a.name for a in alerts if a.name != name), None)
    if probe_name is not None:
        probe = Alert(
            timestamp=max(a.timestamp for a in alerts) + 1.0,
            name=probe_name,
            entity="chaos-probe",
        )
        try:
            leg.sink.ingest_alerts([probe])
        except Exception:
            yield f"pipeline not drivable after poison:\n{traceback.format_exc()}"


def _resharded(leg: _Leg) -> Iterator[str]:
    if leg.stats["pipeline"]["reshard_events"] < 1:
        yield "no ReshardEvent recorded"
    if leg.stats["pipeline"]["recoveries_healed"] < 1:
        yield "dead worker was not healed during the reshard harvest"
    if leg.stats["n_shards"] != leg.plan.reshard_to:
        yield (
            f"service reports n_shards={leg.stats['n_shards']}, "
            f"resharded to {leg.plan.reshard_to}"
        )


def _shed_lossless(leg: _Leg) -> Iterator[str]:
    if leg.stats["admission"]["rejected_batches"] < 1:
        yield "no rejection recorded by admission control"
    if leg.stats["pipeline"]["dropped_raw"] or leg.stats["pipeline"]["dropped_alerts"]:
        yield "reject tier must be lossless, but drop counters moved"


@dataclasses.dataclass(frozen=True)
class _Row:
    """How one fault kind is run: sink, driver, hook, expectations."""

    hook: Optional[Callable] = None
    expects: Tuple[Callable[[_Leg], Iterator[str]], ...] = ()
    #: Drive a client of a live service instead of a pipeline.
    service: bool = False
    driver: str = "sync"
    restart_policy: str = "raise"
    #: Raw worker-death rows strip the campaign's detector controls: a
    #: mid-stream ``reopen`` would resurrect the killed worker (making
    #: the fault unobservable) and a ``reset`` would race it.
    batches_only: bool = False
    options: dict = dataclasses.field(default_factory=dict)


#: The fault table: every :data:`FAULT_KINDS` member is one row.
ROWS = {
    "split": _Row(_checkpoint_kill_restore, (_no_error, _bit_identical)),
    "kill": _Row(_kill_after_batch, (_typed_death,), batches_only=True),
    "heal": _Row(
        _kill_after_batch,
        (_no_error, _bit_identical, _healed),
        restart_policy="restore",
        batches_only=True,
    ),
    "poison": _Row(None, (_poison_surfaced,), batches_only=True),
    "shm-kill": _Row(
        _freeze_then_kill,
        (_no_error, _bit_identical, _healed, _rings_exercised),
        driver="alert_stream",
        restart_policy="restore",
        batches_only=True,
        # The kill needs a second batch in flight.
        options={"max_inflight": 2},
    ),
    "disconnect": _Row(_disconnect_mid_frame, service=True, restart_policy="restore"),
    "reshard-kill": _Row(
        _kill_then_reshard, (_resharded,), service=True, restart_policy="restore"
    ),
    "shed": _Row(_reject_then_reopen, (_shed_lossless,), service=True, restart_policy="restore"),
}


class ChaosOracle:
    """Runs fault plans against a campaign and checks crash semantics.

    ``workdir`` holds the split row's checkpoints.  A caller-supplied
    directory is left alone; without one the oracle owns a temporary
    directory that :meth:`close` (or leaving the ``with`` block)
    removes.
    """

    def __init__(self, workdir: Optional[Path] = None) -> None:
        self._owned = None if workdir else tempfile.TemporaryDirectory(prefix="chaos-")
        self.workdir = Path(workdir or self._owned.name)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        if self._owned is not None:
            self._owned.cleanup()

    def __enter__(self) -> "ChaosOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, campaign: Campaign, plans: Sequence[FaultPlan]) -> ChaosVerdict:
        """Run every fault plan's row; collect crash-semantics violations."""
        verdict = ChaosVerdict(campaign=campaign, plans=list(plans))
        for plan in plans:
            verdict.legs_run += 1
            rings_before = _ring_segments()
            try:
                failures = self._run_leg(campaign, plan)
            except Exception:
                failures = [f"oracle crashed:\n{traceback.format_exc()}"]
            # Every row must tear its rings down: a segment surviving
            # the leg is a /dev/shm leak.
            leaked = _ring_segments() - rings_before
            if leaked:
                failures.append(f"leaked /dev/shm ring segment(s): {sorted(leaked)}")
            verdict.failures.extend(ChaosFailure(plan.label, detail) for detail in failures)
        return verdict

    def _run_leg(self, campaign: Campaign, plan: FaultPlan) -> List[str]:
        row = ROWS[plan.kind]
        if row.batches_only:
            campaign = _batches_only(campaign)
        leg = _Leg(campaign, plan, row, self.workdir)
        (self._drive_service if row.service else self._drive_pipeline)(leg)
        return leg.failures

    @staticmethod
    def _drive_pipeline(leg: _Leg) -> None:
        leg.sink = leg.build()
        try:
            try:
                detections = drive(leg.campaign, leg.sink, leg.row.driver, leg.hook)
            except ShardWorkerError as error:
                leg.error, leg.trace = error, traceback.format_exc()
            else:
                leg.result = snapshot(leg.sink, leg.config, detections)
            pool = leg.sink.detector_pools["factor_graph"]
            stale = leg.sink.detection_stage.pending_batches, len(pool._pending)
            if any(stale):
                leg.failures.append(
                    f"stale in-flight ticket(s) after the drive: {stale[0]} in the "
                    f"detection stage, {stale[1]} in the pool"
                )
            leg.check()
        finally:
            close_results = leg.sink.close()
        for name, close_result in close_results.items():
            if not close_result.clean:
                leg.failures.append(
                    f"pool {name!r} close escalated: {close_result.escalations}"
                )

    @staticmethod
    def _drive_service(leg: _Leg) -> None:
        # repro.service imports repro.fuzz.oracle, so these imports stay
        # local to keep the package import graph acyclic.
        from ..service.server import ServiceConfig, start_service_in_thread
        from ..service.smoke import compare_results, read_results, reference_results

        expected = reference_results(leg.campaign)
        leg.handle = start_service_in_thread(leg.build, ServiceConfig())
        try:
            leg.sink = leg.handle.client()
            drive(leg.campaign, leg.sink, hook=leg.hook)
            got = read_results(leg.sink)
            leg.stats = leg.sink.stats()
            leg.sink.close()
        finally:
            leg.handle.stop()
        leg.failures.extend(compare_results(expected, got))
        leg.check()


__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "FaultPlan",
    "ChaosPoisonDetector",
    "ChaosFailure",
    "ChaosVerdict",
    "ChaosComposer",
    "ChaosOracle",
    "ROWS",
    "campaign_batches",
]
