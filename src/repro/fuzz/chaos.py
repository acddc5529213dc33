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
This table is also the service's socket smoke gate.

Pipeline rows (:meth:`ChaosComposer.compose`):

``split``
    At fuzzer-chosen event positions the pipeline is checkpointed, its
    shard workers are SIGKILLed (a crash, not a shutdown), and a
    *fresh* pipeline restored from the checkpoint carries on.  The
    stitched run must be bit-identical to an uninterrupted one.
``kill``
    With no restart budget (``max_restarts=0``) a worker dies inside the
    ``observe`` of a chosen batch and that batch's own collect raises a
    typed :class:`~repro.testbed.sharding.ShardWorkerError` naming the
    shard and carrying the death detail.
``heal``
    With the service's budget
    (:data:`~repro.service.protocol.SERVICE_MAX_RESTARTS`) the same
    death, driven through ``alert_stream`` at depth 2 so the worker dies
    holding that batch's ring descriptor, is absorbed -- no error,
    bit-identical output, the recovery in the pool's ``recovery_log``,
    the payloads replayed from the rings.
``poison``
    A detector raising mid-batch is not a death: both backends surface
    the same typed error with the worker-side traceback preserved, and
    the pipeline stays drivable.

A worker death lands at one named point, inside the verb the worker
answers: :class:`ChaosPoisonDetector` calls ``os._exit`` in the
``observe`` of the sub-batch carrying the plan's chosen alert, once the
row's hook has armed it (an ``armed`` file in the leg's workdir, which
the dying worker consumes, so the respawned worker that replays the
batch lives).  No signal races a reply, so every row replays the whole
campaign, its detector controls included.  ``split`` and
``reshard-kill`` still SIGKILL workers, but only idle ones: after a
durable checkpoint, after a ``drain``.

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

Smoke rows (:func:`smoke_legs`, three pinned legs that no composer
draws; ``python -m repro.service --smoke`` runs them):

``smoke-alerts``
    A fault-free alert stream over the socket, each run of batches
    pipelined: the service must submit at least one group of several
    batches.
``smoke-reshard``
    A live N->M reshard requested over the socket mid-stream: one
    ``ReshardEvent``, the service serving at M shards.
``smoke-raw``
    The stream sent as raw Zeek records through the ``raw`` op, also
    pipelined.

Every pipeline row must also leave no stale ticket in the detection
stage or the pool and close cleanly; every socket row must read back a
``results`` surface bit-identical to the offline reference replay
(:data:`~repro.fuzz.oracle.REFERENCE_CONFIG`); no row may leave behind
a ``/dev/shm`` ring segment this process created.

Everything is deterministic in ``(seed, index)`` -- campaigns via
:class:`~repro.fuzz.campaign.CampaignComposer`, fault plans via this
module's :class:`ChaosComposer` -- so CI replays pinned fault
campaigns, and any failure reproduces from its seed alone.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import os
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.alerts import Alert, NormalizedBatch
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from ..service.admission import ServiceOverloadedError
from ..service.protocol import SERVICE_MAX_RESTARTS
from ..service.server import ServiceConfig, start_service_in_thread
from ..testbed.sharding import ShardRecoveryError, ShardWorkerError, shard_of
from ..testbed.shm_ring import owned_segment_prefix
from .campaign import Campaign, CampaignComposer
from .oracle import (
    REFERENCE_CONFIG,
    DifferentialOracle,
    OracleConfig,
    ReplayResult,
    build_pipeline,
    divergences,
    drive,
    snapshot,
)

#: Leg kinds a plan may request.  The first four target the pipeline
#: directly; the service kinds drive faults through a live
#: :mod:`repro.service` socket front-end; the smoke kinds are the
#: fault-free socket legs of the service smoke gate.
FAULT_KINDS = (
    "split",
    "kill",
    "heal",
    "poison",
    "disconnect",
    "reshard-kill",
    "shed",
    "smoke-alerts",
    "smoke-reshard",
    "smoke-raw",
)

#: The socket-level fault legs, composed by
#: :meth:`ChaosComposer.compose_service`.
SERVICE_FAULT_KINDS = ("disconnect", "reshard-kill", "shed")

#: The socket smoke legs, pinned by :func:`smoke_legs`.
SMOKE_KINDS = ("smoke-alerts", "smoke-reshard", "smoke-raw")

#: Salt mixed into the fault-plan rng so plans are independent of the
#: campaign composition stream drawn from the same ``(seed, index)``.
_PLAN_SALT = 0xC4A05

#: Separate salt for service-leg plans: ``compose_service`` must not
#: perturb (or depend on) the pinned ``compose`` plan stream.
_SERVICE_SALT = 0x5EC41


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One seeded fault injection against one campaign."""

    kind: str
    n_shards: int = 2
    backend: str = "process"
    #: ``kill``/``heal``: the worker dies inside this batch's ``observe``;
    #: ``reshard-kill``: it is SIGKILLed after this batch is acknowledged.
    kill_batch: int = 0
    #: ``kill``/``heal``/``poison``: the shard the fault targets.
    shard: int = 0
    #: ``split``: event indices where the stream is cut (sorted).
    split_points: Tuple[int, ...] = ()
    #: ``poison``: alert name the poisoned detector raises on.
    poison_name: str = ""
    #: ``disconnect``: event index at which the first client vanishes
    #: mid-write; ``shed``: batch index sent while admission rejects;
    #: ``smoke-reshard``: event index the live reshard precedes.
    fault_event: int = 0
    #: ``reshard-kill``/``smoke-reshard``: the live reshard's target
    #: shard count.
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
            "smoke-reshard": f"event={self.fault_event} ->{self.reshard_to}",
        }.get(self.kind)
        shape = f"{self.n_shards}:{self.backend}"
        return f"{self.kind}[{shape} {detail}]" if detail else f"{self.kind}[{shape}]"


#: Exit status of a worker the chaos crash ends.
_CRASH_EXIT = 70


class ChaosPoisonDetector(Detector):
    """The chaos table's fault wrapper: a poison or a crash, mid-batch.

    With a ``poison_name``, ``observe``-ing an alert of that name raises
    ``RuntimeError`` *before* the alert reaches the wrapped detector
    (the poisoned alert is the first casualty, as with a real mid-batch
    inference crash); the batch runs alert by alert.  Otherwise a batch
    goes to the wrapped detector's ``observe_batch_indexed`` (the
    production kernel path), except that a sub-batch holding the
    ``crash_on`` alert (``(entity, name, timestamp)``) ends the process
    with ``os._exit`` if the ``armed`` file can be unlinked first: the
    crash fires once per arming, so a respawned worker replaying the
    batch lives.  Module-level and built from picklable parts, so it
    crosses into process-backend workers.
    """

    def __init__(
        self,
        wrapped: Detector,
        poison_name: str = "",
        crash_on: Optional[Tuple[str, str, float]] = None,
        armed: str = "",
    ) -> None:
        self.wrapped = wrapped
        self.poison_name = poison_name
        self.crash_on = crash_on
        self.armed = armed

    def observe(self, alert: Alert) -> Optional[Detection]:
        if alert.name == self.poison_name:
            raise RuntimeError(f"chaos poison on {alert.name!r}")
        return self.wrapped.observe(alert)

    def observe_batch_indexed(self, alerts: NormalizedBatch):
        if self.poison_name:
            return super().observe_batch_indexed(alerts)
        rows = zip(alerts.entities, alerts.names, alerts.timestamps)
        if self.crash_on is not None and self.crash_on in rows:
            try:
                os.unlink(self.armed)
            except FileNotFoundError:
                pass
            else:
                os._exit(_CRASH_EXIT)
        return self.wrapped.observe_batch_indexed(alerts)

    def reset(self) -> None:
        self.wrapped.reset()

    def reset_entity(self, entity: str) -> None:
        self.wrapped.reset_entity(entity)

    def export_entity_tracks(self) -> dict:
        return self.wrapped.export_entity_tracks()

    def adopt_entity_track(self, entity: str, track: object) -> None:
        self.wrapped.adopt_entity_track(entity, track)

    def clone(self) -> "ChaosPoisonDetector":
        clone = getattr(self.wrapped, "clone", None)
        inner = clone() if callable(clone) else copy.deepcopy(self.wrapped)
        return ChaosPoisonDetector(inner, self.poison_name, self.crash_on, self.armed)


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
        # compared on the same fault: any (batch, shard) pair the batch
        # routes to, since the death lands inside that batch.
        n_shards = int(rng.choice([2, 4]))
        targets = [
            (batch_index, shard)
            for batch_index, batch in enumerate(campaign_batches(campaign))
            for shard in sorted({shard_of(alert.entity, n_shards) for alert in batch})
        ]
        if targets:
            kill_batch, shard = targets[int(rng.integers(0, len(targets)))]
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


def smoke_legs() -> List[Tuple[Campaign, FaultPlan]]:
    """The service smoke gate: three pinned socket legs, one per smoke row.

    Campaigns 0-2 of seed 0 at ~120 alerts: an alert stream at
    ``2:process``, one resharded 2->3 halfway through its events, and a
    raw-capable one sent as Zeek records to ``2:serial`` shards.
    """
    composer = CampaignComposer(0, target_alerts=120)
    resharded = composer.compose(1)
    return [
        (composer.compose(0), FaultPlan("smoke-alerts")),
        (
            resharded,
            FaultPlan(
                "smoke-reshard", fault_event=len(resharded.events) // 2, reshard_to=3
            ),
        ),
        (composer.compose(2, raw_capable=True), FaultPlan("smoke-raw", backend="serial")),
    ]


def _ring_segments() -> Set[str]:
    """Names of the live ``/dev/shm`` ring segments this process created.

    Another process's rings (a concurrent test run, a service) are not
    this oracle's to count as leaked.
    """
    prefix = owned_segment_prefix()
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except OSError:  # pragma: no cover - non-POSIX /dev/shm layout
        return set()


def _carrier(pipeline, shard: int):
    return pipeline.detector_pools["factor_graph"]._workers[shard]


def _sigkill(pipeline, shard: int) -> None:
    """SIGKILL one shard worker (a crash, not a shutdown)."""
    _carrier(pipeline, shard).process.kill()
    _carrier(pipeline, shard).process.join(timeout=5.0)


def _crash_target(campaign: Campaign, plan: FaultPlan) -> Optional[Tuple[str, str, float]]:
    """``(entity, name, timestamp)`` of the alert a ``kill``/``heal`` worker dies on.

    The first alert of batch ``kill_batch`` that routes to the plan's
    shard; ``None`` for a batch past the stream's end.
    """
    for batch in campaign_batches(campaign)[plan.kill_batch : plan.kill_batch + 1]:
        for alert in batch:
            if shard_of(alert.entity, plan.n_shards) == plan.shard:
                return alert.entity, alert.name, alert.timestamp
    return None


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
    #: The compared surface of a drive that completed (a socket row's
    #: is the ``results`` op's reply).
    result: Optional[ReplayResult] = None
    #: Violations found by hooks while the stream was still running.
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def config(self) -> OracleConfig:
        """The plan's shape and the row's driver (production engine)."""
        return OracleConfig(
            n_shards=self.plan.n_shards, backend=self.plan.backend, driver=self.row.driver
        )

    @property
    def armed(self) -> Path:
        """The file that arms a ``kill``/``heal`` crash (the dying worker unlinks it)."""
        return self.workdir / "armed"

    def build(self):
        """A fresh pipeline of the plan's shape under the row's restart budget."""
        plan = self.plan
        crash_on = None
        if plan.kind in ("kill", "heal"):
            crash_on = _crash_target(self.campaign, plan)
        wrap = None
        if plan.poison_name or crash_on:
            wrap = functools.partial(
                ChaosPoisonDetector,
                poison_name=plan.poison_name,
                crash_on=crash_on,
                armed=str(self.armed),
            )
        return build_pipeline(
            self.campaign, self.config, wrap=wrap, max_restarts=self.row.max_restarts
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
def _arm_crash(leg: _Leg, point: str, index: int) -> None:
    """Arm the worker's crash just before the target batch is handed over."""
    if (point, index) == ("before", leg.plan.kill_batch):
        leg.armed.touch()


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


def _reshard_before_event(leg: _Leg, point: str, index: int) -> None:
    """A live reshard over the socket before the plan's event."""
    if (point, index) == ("event", leg.plan.fault_event):
        leg.sink.reshard(leg.plan.reshard_to)


# -- expectations: each crash-semantics assertion, written once ----------
def _no_error(leg: _Leg) -> Iterator[str]:
    if leg.error is not None:
        yield f"the fault surfaced as an error:\n{leg.trace}"


def _bit_identical(leg: _Leg) -> Iterator[str]:
    """Equal to an uninterrupted serial replay of the same campaign."""
    if leg.result is None:
        return
    reference = DifferentialOracle([]).replay(
        leg.campaign, dataclasses.replace(leg.config, backend="serial", driver="sync")
    )
    for divergence in divergences(reference, leg.result):
        yield str(divergence)


def _healed(leg: _Leg) -> Iterator[str]:
    log = leg.sink.detector_pools["factor_graph"].recovery_log
    if not any(event.healed and event.shard == leg.plan.shard for event in log):
        yield (
            f"no healed recovery for shard {leg.plan.shard} in the recovery log "
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
    """One ``ReshardEvent``, and the service serving at the target count."""
    events = leg.stats["pipeline"]["reshard_events"]
    if events != 1:
        yield f"{events:g} ReshardEvent(s) recorded, expected one"
    if leg.stats["n_shards"] != leg.plan.reshard_to:
        yield (
            f"service reports n_shards={leg.stats['n_shards']}, "
            f"resharded to {leg.plan.reshard_to}"
        )


def _healed_in_harvest(leg: _Leg) -> Iterator[str]:
    if leg.stats["pipeline"]["recoveries_healed"] < 1:
        yield "dead worker was not healed during the reshard harvest"


def _grouped(leg: _Leg) -> Iterator[str]:
    """The pipelined stream reached detection in groups, not one by one."""
    if leg.stats["group_size"]["max"] < 2:
        yield (
            f"no group formed: {leg.stats['batches_processed']} batch(es) in "
            f"{leg.stats['detection_submissions']} detection submission(s)"
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
    #: The pool's per-shard restart budget (0: a death surfaces).
    max_restarts: int = 0


#: The fault table: every :data:`FAULT_KINDS` member is one row.
ROWS = {
    "split": _Row(_checkpoint_kill_restore, (_no_error, _bit_identical)),
    "kill": _Row(_arm_crash, (_typed_death,)),
    # At the process backend's depth 2 the next batch of the run is
    # submitted before this one is collected: the worker dies owing both.
    "heal": _Row(
        _arm_crash,
        (_no_error, _bit_identical, _healed, _rings_exercised),
        driver="alert_stream",
        max_restarts=SERVICE_MAX_RESTARTS,
    ),
    "poison": _Row(None, (_poison_surfaced,)),
    "disconnect": _Row(
        _disconnect_mid_frame, service=True, max_restarts=SERVICE_MAX_RESTARTS
    ),
    "reshard-kill": _Row(
        _kill_then_reshard,
        (_resharded, _healed_in_harvest),
        service=True,
        max_restarts=SERVICE_MAX_RESTARTS,
    ),
    "shed": _Row(
        _reject_then_reopen,
        (_shed_lossless,),
        service=True,
        max_restarts=SERVICE_MAX_RESTARTS,
    ),
    "smoke-alerts": _Row(
        expects=(_grouped,),
        service=True,
        driver="alert_stream",
        max_restarts=SERVICE_MAX_RESTARTS,
    ),
    "smoke-reshard": _Row(
        _reshard_before_event,
        (_resharded,),
        service=True,
        max_restarts=SERVICE_MAX_RESTARTS,
    ),
    "smoke-raw": _Row(
        service=True, driver="raw_stream", max_restarts=SERVICE_MAX_RESTARTS
    ),
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
        reference = DifferentialOracle([]).replay(leg.campaign, REFERENCE_CONFIG)
        # The socket hands the surface back as JSON; one round trip
        # gives the reference the same representation.
        reference.surface = json.loads(json.dumps(reference.surface))
        leg.handle = start_service_in_thread(leg.build, ServiceConfig())
        try:
            leg.sink = leg.handle.client()
            drive(leg.campaign, leg.sink, leg.row.driver, leg.hook)
            leg.sink.drain()
            leg.result = ReplayResult(leg.config, leg.sink.results())
            leg.stats = leg.sink.stats()
            leg.sink.close()
        finally:
            leg.handle.stop()
        leg.failures.extend(str(d) for d in divergences(reference, leg.result))
        leg.check()


__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "SMOKE_KINDS",
    "FaultPlan",
    "ChaosPoisonDetector",
    "ChaosFailure",
    "ChaosVerdict",
    "ChaosComposer",
    "ChaosOracle",
    "ROWS",
    "campaign_batches",
    "smoke_legs",
]
