"""The end-to-end testbed pipeline (Fig. 4), as composable stages.

This module wires the whole workflow together::

    mixture of attack + benign traffic
        -> monitors (Zeek / syslog / auditd / osquery) produce raw records
        -> traffic mirror
        -> normalisation (raw record -> symbolic alert)
        -> alert filtering (scan suppression, dedup)
        -> detection models (factor graph, rule-based, ...)
        -> response & remediation (operator notification, BHR block,
           honeypot recycling)

Normalise, filter and respond are :class:`repro.testbed.stages
.PipelineStage`\\ s -- batch-in/batch-out components with per-stage
timing -- and detection is the :class:`~repro.testbed.stages
.DetectionStage`'s submit/collect pair; :class:`TestbedPipeline` is the
assembly: it owns the stage chain, routes ingested batches through it,
and keeps the per-stage counters.  The detection stage holds a
:class:`repro.testbed.sharding.ShardedDetectorPool` per attached
detector (``detector_pools``), built from a private copy of it: the
instance passed in is a template and is never driven, so one detector
attached under two names is two detectors.  Alert batches are
partitioned by entity across
independent shards (``n_shards``) and, with the ``process`` backend,
across worker processes -- bit-identical to the unsharded path because
detector state is strictly per-entity.  The two backends are two
carriers of one shard protocol; how a sub-batch reaches a worker is
the pool's business and not an option here.

There is one way into the chain.  Batches enter through
``ingest_*`` (the overlapped stream drivers and their one-batch forms)
or ``submit_*`` / :meth:`TestbedPipeline.collect_detections`; a raw
record published straight onto ``pipeline.mirror`` is counted and
forwarded to the mirror's subscribers but never reaches detection.
:meth:`~TestbedPipeline.checkpoint` and every detector control
(:meth:`~TestbedPipeline.reset_entity`,
:meth:`~TestbedPipeline.reset_detectors`,
:meth:`~TestbedPipeline.reopen_detectors`,
:meth:`~TestbedPipeline.reshard`) need a quiesced pipeline: they apply
at once, and raise ``RuntimeError`` while a detection batch is in
flight.  A caller that interleaves controls with a stream therefore
splits the stream at them, which is the stream position a
batch-synchronous caller applies them at.

The pre-stage constructor and methods are kept: the examples and the
Fig. 4 / Fig. 5 benchmarks drive raw records (or pre-normalised
alerts) in batches exactly as before, and the pipeline
reports per-stage statistics so the 25 M -> 191 K reduction and the
detection/response latency can be measured on the same run.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Iterable, Optional, Sequence, Sized

from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from ..core.attack_tagger import AttackTagger, Detection
from ..core.detector import Detector
from ..telemetry.filtering import ScanFilter, ScanFilterStage
from ..telemetry.logsource import RawLogRecord
from ..telemetry.normalizer import AlertNormalizer, NormalizerStage
from .bhr import BHRClient, BlackHoleRouter
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .honeypot import Honeypot
from .mirror import TrafficMirror
from .responder import ResponseOrchestrator, ResponsePolicy
from .sharding import PoolCloseResult, ShardedDetectorPool
from .stages import DetectionStage, PipelineStage, ResponseStage


@dataclasses.dataclass
class PipelineStats:
    """Per-stage counters and timings for one pipeline run."""

    raw_records: int = 0
    normalized_alerts: int = 0
    filtered_alerts: int = 0
    detections: int = 0
    responses: int = 0
    #: Seconds spent in the detection stage only (response time is
    #: accounted separately in :attr:`response_seconds`).
    detection_seconds: float = 0.0
    response_seconds: float = 0.0
    #: Cumulative wall seconds per stage name (normalize/filter/detect/respond).
    stage_seconds: dict[str, float] = dataclasses.field(default_factory=dict)

    def add_stage_seconds(self, stage_name: str, seconds: float) -> None:
        """Accumulate one stage run's wall time."""
        self.stage_seconds[stage_name] = self.stage_seconds.get(stage_name, 0.0) + seconds
        if stage_name == DetectionStage.name:
            self.detection_seconds += seconds
        elif stage_name == ResponseStage.name:
            self.response_seconds += seconds

    @property
    def detection_throughput(self) -> float:
        """Filtered alerts consumed per second spent in the detection stage."""
        if self.detection_seconds <= 0.0:
            return 0.0
        return self.filtered_alerts / self.detection_seconds

    @property
    def normalization_drop_rate(self) -> float:
        """Fraction of raw records that produced no symbolic alert."""
        if self.raw_records == 0:
            return 0.0
        return 1.0 - self.normalized_alerts / self.raw_records

    @property
    def filter_reduction(self) -> float:
        """Alert volume reduction achieved by the scan filter.

        An empty input is no reduction (1.0); a filter that drops
        *every* alert is an infinite reduction, kept distinguishable
        from "no reduction" by reporting ``float("inf")``.
        """
        if self.normalized_alerts == 0:
            return 1.0
        if self.filtered_alerts == 0:
            return float("inf")
        return self.normalized_alerts / self.filtered_alerts


class TestbedPipeline:
    """The assembled testbed: mirror -> normalise -> filter -> detect -> respond.

    Parameters beyond the seed API:

    primary_detector:
        The attached detector whose detections are returned and
        responded to.  ``None`` (default) means ``"factor_graph"`` if it
        is attached and otherwise the first detector; a name that is
        not attached raises ``ValueError``.
    n_shards:
        Number of per-entity detector shards in the detection stage
        (default 1).  Every shard, at any count and on either backend,
        is an independent clone of the attached (pristine) detector,
        and ``pipeline.detector_pools[name]`` is the
        :class:`~repro.testbed.sharding.ShardedDetectorPool` running
        them: the instances passed in are templates, never driven.
    shard_backend:
        ``"serial"`` (deterministic, in-process; default) or
        ``"process"`` (one worker process per shard).  Both produce
        bit-identical detections; see :mod:`repro.testbed.sharding`.
        Call :meth:`close` (or use the pipeline as a context manager)
        to shut worker processes down.
    restart_policy / max_restarts / backoff_base:
        Worker-death supervision for process-backed pools, passed
        through to :class:`~repro.testbed.sharding.ShardedDetectorPool`
        -- ``"raise"`` (default) surfaces deaths as typed errors;
        ``"restore"`` self-heals them from per-shard snapshots.
    max_inflight:
        Pipelining depth of the overlapped drivers: how many detection
        batches may be submitted-but-uncollected at once.  ``None``
        (default) picks the depth the backend earns: 2 for
        ``"process"`` (measured on ``sharded_replay``: two process
        shards run 1.45x one process at depth 2 and 0.95x at depth 1),
        1 for ``"serial"`` (an in-process shard computes inside the
        submit, so a deeper window buys it nothing).  An explicit value
        is honoured unchanged.  Deeper windows hide fan-out latency
        behind worker compute; detector controls and checkpoints need
        a quiesced pipeline, so detections and counters stay
        bit-identical at any depth.
    ring_capacity:
        Per-shard shared-memory ring size in bytes for process-backed
        pools (default: the pool's
        :data:`~repro.testbed.shm_ring.DEFAULT_RING_CAPACITY`).  Size
        it to hold ``max_inflight`` encoded sub-batches; batches that
        do not fit travel on the worker pipe instead (counted in
        ``shm_fallbacks``), so undersizing costs throughput, never
        correctness.
    """

    #: Not a pytest test class (the name merely starts with "Test").
    __test__ = False

    def __init__(
        self,
        *,
        detectors: Optional[dict[str, Detector]] = None,
        vocabulary: Optional[AlertVocabulary] = None,
        honeypot: Optional[Honeypot] = None,
        router: Optional[BlackHoleRouter] = None,
        scan_filter: Optional[ScanFilter] = None,
        normalizer: Optional[AlertNormalizer] = None,
        response_policy: Optional[ResponsePolicy] = None,
        primary_detector: Optional[str] = None,
        n_shards: int = 1,
        shard_backend: str = "serial",
        restart_policy: str = "raise",
        max_restarts: int = 3,
        backoff_base: float = 0.05,
        transport: str = "shm",
        max_inflight: Optional[int] = None,
        ring_capacity: Optional[int] = None,
    ) -> None:
        if transport != "shm":
            # Accepted only because benchmarks/e2e still spells it out.
            raise ValueError(
                f"transport={transport!r}: the pickle transport was removed; "
                "process shards always ship sub-batches through their rings"
            )
        if max_inflight is None:
            max_inflight = 2 if shard_backend == "process" else 1
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.honeypot = honeypot
        self.router = router or BlackHoleRouter()
        self.bhr_client = BHRClient(self.router)
        self.mirror = TrafficMirror()
        self.normalizer = normalizer or AlertNormalizer(self.vocabulary)
        self.scan_filter = scan_filter or ScanFilter(self.vocabulary)
        self.n_shards = int(n_shards)
        self.shard_backend = shard_backend
        self.restart_policy = restart_policy
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.max_inflight = int(max_inflight)
        self.ring_capacity = ring_capacity
        templates: dict[str, Detector] = detectors or {
            "factor_graph": AttackTagger(vocabulary=self.vocabulary)
        }
        if primary_detector is None:
            primary_detector = (
                "factor_graph" if "factor_graph" in templates else next(iter(templates))
            )
        elif primary_detector not in templates:
            # Refused before any pool (and its worker processes) exists.
            raise ValueError(
                f"primary detector {primary_detector!r} not among {list(templates)}"
            )
        self.primary_detector = primary_detector
        #: The detection layer per attached name.  Each pool runs its
        #: own clones of the detector passed in; the caller's object is
        #: never driven, so read results from the pipeline or here.
        self.detector_pools: dict[str, ShardedDetectorPool] = {
            name: self._build_pool(detector) for name, detector in templates.items()
        }
        self.responder = ResponseOrchestrator(
            self.bhr_client, honeypot=self.honeypot, policy=response_policy
        )
        self.stats = PipelineStats()
        self.detections: list[tuple[str, Detection]] = []
        # The stage chain (Fig. 4 left to right).
        self.normalizer_stage = NormalizerStage(self.normalizer)
        self.filter_stage = ScanFilterStage(self.scan_filter)
        self.detection_stage = DetectionStage(
            self.detector_pools, self.primary_detector, self.detections
        )
        self.response_stage = ResponseStage(self.responder)
        # Set by restore(): a pipeline restores at most once, and only
        # while pristine (see _require_pristine_for_restore).
        self._restored = False

    def _build_pool(self, detector: Detector) -> ShardedDetectorPool:
        extra: dict = {}
        if self.ring_capacity is not None:
            extra["ring_capacity"] = self.ring_capacity
        return ShardedDetectorPool.from_template(
            detector,
            n_shards=self.n_shards,
            backend=self.shard_backend,
            restart_policy=self.restart_policy,
            max_restarts=self.max_restarts,
            backoff_base=self.backoff_base,
            **extra,
        )

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _run_stage(self, stage: PipelineStage, batch: Sized) -> Sized:
        """Run one stage over a batch, accumulating its wall time."""
        started = time.perf_counter()
        out = stage.process(batch)
        self.stats.add_stage_seconds(stage.name, time.perf_counter() - started)
        return out

    # ------------------------------------------------------------------
    # Ingestion (batch-synchronous: the overlapped schedule, one batch)
    # ------------------------------------------------------------------
    def ingest_raw(self, records: Iterable[RawLogRecord]) -> list[Detection]:
        """Mirror raw monitor records and process them through every stage.

        A one-batch :meth:`ingest_raw_stream`: the overlapped schedule
        with nothing to overlap -- submit, then immediately collect and
        respond -- so the two paths' accounting and failure unwind are
        identical by construction.
        """
        return self.ingest_raw_stream([records])

    def ingest_alerts(self, alerts: Iterable[Alert]) -> list[Detection]:
        """Ingest pre-normalised alerts (replayed incidents skip monitors).

        A one-batch :meth:`ingest_alert_batches`.
        """
        return self.ingest_alert_batches([alerts])

    def _prep_raw(self, records: Iterable[RawLogRecord]) -> list[Alert]:
        """Mirror one raw batch, then normalise (counted) and filter it.

        The normaliser hands the filter columns; only the survivors
        become :class:`Alert` objects.
        """
        records = tuple(records)
        self.mirror.publish_raw_many(records)
        self.stats.raw_records += len(records)
        normalized = self._run_stage(self.normalizer_stage, records)
        self.stats.normalized_alerts += len(normalized)
        return self._prep_filtered(normalized)

    def _prep_alerts(self, alerts: Iterable[Alert]) -> list[Alert]:
        """Count one pre-normalised batch and filter it."""
        alerts = list(alerts)
        self.stats.raw_records += len(alerts)
        self.stats.normalized_alerts += len(alerts)
        return self._prep_filtered(alerts)

    def _prep_filtered(self, alerts: Sized) -> list[Alert]:
        """Filter one normalised batch and publish the survivors."""
        filtered = self._run_stage(self.filter_stage, alerts)
        self.stats.filtered_alerts += len(filtered)
        self.mirror.publish_alerts(filtered)
        return filtered

    # ------------------------------------------------------------------
    # Ingestion (overlapped / double-buffered driver)
    # ------------------------------------------------------------------
    def ingest_raw_stream(
        self, batches: Iterable[Iterable[RawLogRecord]]
    ) -> list[Detection]:
        """Process a stream of raw-record batches with stage overlap.

        While the detection stage's (process-backed) shard workers chew
        batch N, the calling thread already normalises and filters
        batch N+1 (double buffering), so normalize/filter latency adds
        once per stream instead of once per batch.  Detections,
        responses, and all stats counters are bit-identical to looping
        :meth:`ingest_raw` over the same batches -- the normalize,
        filter, and detection stages each still see the batches in
        stream order, and no stage feeds state back into an earlier
        one.  Per-stage timings stay attributed to their stage: the
        parent's wait inside ``collect`` counts as detection time, the
        overlapped prep counts as normalize/filter time.
        """
        return self._drive_overlapped(map(self._prep_raw, batches))

    def ingest_alert_batches(
        self, batches: Iterable[Iterable[Alert]]
    ) -> list[Detection]:
        """Overlapped driver over pre-normalised alert batches.

        The double-buffered counterpart of looping
        :meth:`ingest_alerts` (see :meth:`ingest_raw_stream`), with
        bit-identical detections, responses, and counters.
        """
        return self._drive_overlapped(map(self._prep_alerts, batches))

    def _drive_overlapped(self, filtered_batches) -> list[Detection]:
        """Pipelined schedule over prepped (filtered) batches.

        Advancing the ``filtered_batches`` iterator (a lazy ``map`` of
        :meth:`_prep_raw` / :meth:`_prep_alerts`) preps the next batch;
        the loop keeps up to ``max_inflight`` detection batches
        submitted-but-uncollected, so prep *and* older batches' worker
        compute hide behind each other.  At depth 1 this is the classic
        double-buffered schedule::

            prep 1, submit 1, [prep 2, collect 1, respond 1, submit 2],
            [prep 3, collect 2, respond 2, submit 3], ..., collect B,
            respond B

        At depth ``k`` the window ramps up to ``k`` submits before the
        first collect, which lets shard workers desynchronise across
        batches (shard 0 may be two batches ahead of shard 1) -- the
        per-shard FIFO descriptor protocol and position-merge keep the
        output order identical.  A control or checkpoint requested from
        inside the batch source while a ticket is in flight raises (see
        :meth:`reset_entity`), and the driver unwinds.
        """
        detections: list[Detection] = []
        depth = self.max_inflight
        try:
            inflight = 0
            for filtered in filtered_batches:
                while inflight >= depth:
                    inflight -= 1
                    detections.extend(self._collect_and_respond())
                self._submit_detection(filtered)
                inflight += 1
            while inflight:
                inflight -= 1
                detections.extend(self._collect_and_respond())
            return detections
        except BaseException:
            self.drain_inflight()
            raise

    def drain_inflight(self) -> None:
        """Finish every submitted-but-uncollected detection batch.

        The failure unwind of every driver -- the stream drivers here,
        the service's consumer loop: a prep/submit/collect failure must
        not leave a batch in flight, or a later collect would return
        the wrong batch's detections.  Whatever was already submitted
        is finished normally (its detections land in the logs and
        counters); its errors are swallowed, because the caller is
        already handling one.
        """
        while self.detection_stage.pending_batches:
            try:
                self._collect_and_respond()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Detector control (entity reset / full reset / tier reopen / reshard)
    # ------------------------------------------------------------------
    def _require_quiesced(self, action: str) -> None:
        """Checkpoint and every control need no detection batch in flight."""
        pending = self.detection_stage.pending_batches
        if pending:
            raise RuntimeError(
                f"cannot {action} with {pending} detection batch(es) in "
                "flight; collect them first"
            )

    def _control(
        self, action: str, apply: Callable[[ShardedDetectorPool], object]
    ) -> None:
        """Apply one control to every detector pool of a quiesced pipeline.

        Every pool is driven even if one fails (mirroring
        ``ShardedDetectorPool.reset`` across shards): side-by-side
        detectors must never end up with a half-applied control.  The
        first error is re-raised after all pools were driven.
        """
        self._require_quiesced(action)
        error: Optional[Exception] = None
        for pool in self.detector_pools.values():
            try:
                apply(pool)
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def reset_entity(self, entity: str) -> None:
        """Forget one entity across every attached detector pool.

        Models remediation (the host was re-imaged, the account was
        re-credentialed): the detectors must stop carrying the entity's
        history.  Applies at once.  Like :meth:`checkpoint` and every
        other control, it raises ``RuntimeError`` while a detection
        batch is in flight: a stream that carries controls is split at
        them, so each lands at the position a batch-synchronous caller
        issuing it between two batches observes.
        """
        self._control("reset an entity", lambda pool: pool.reset_entity(entity))

    def reset_detectors(self) -> None:
        """Forget all detector state (every pool); needs a quiesced pipeline.

        The pipeline's cumulative detection log and stats counters are
        kept -- only the detectors' per-entity state and their own
        detection records are cleared.
        """
        self._control("reset detectors", lambda pool: pool.reset())

    def reopen_detectors(self) -> None:
        """Restart the detection tier (fresh state, fresh workers).

        Drives :meth:`repro.testbed.sharding.ShardedDetectorPool
        .reopen` on every pool: every shard gets a fresh replica from
        the pool's template, and process-backed pools fresh workers.
        Needs a quiesced pipeline like :meth:`reset_entity`.
        """
        self._control("reopen detectors", lambda pool: pool.reopen())

    def reshard(self, n_shards: int) -> None:
        """Live N→M reshard of every detector pool; needs a quiesced pipeline.

        Drives :meth:`repro.testbed.sharding.ShardedDetectorPool
        .reshard` on every pool: per-entity detector state is migrated
        wholesale to the shards that own it under the new count, so
        detections after the transition are bit-identical to a pipeline
        constructed with ``n_shards=M`` fed the same stream.  Like the
        other detector controls it raises ``RuntimeError`` while a
        detection batch is in flight, which keeps tickets and the
        migration strictly ordered.

        On success ``pipeline.n_shards`` is updated; a checkpoint taken
        afterwards records (and restore requires) the *new* shard count.
        ``shard_backend`` is unchanged -- resharding moves state across
        shards, not across backends.
        """
        count = int(n_shards)
        if count < 1:
            raise ValueError("n_shards must be >= 1")
        self._control("reshard", lambda pool: pool.reshard(count))
        self.n_shards = count

    def _submit_detection(self, filtered: Sequence[Alert]) -> None:
        """Ship one filtered batch to the detection stage (timed)."""
        started = time.perf_counter()
        self.detection_stage.submit(filtered)
        self.stats.add_stage_seconds(
            self.detection_stage.name, time.perf_counter() - started
        )

    def _collect_and_respond(self) -> list[Detection]:
        """Finish the in-flight detection batch and run the response stage."""
        started = time.perf_counter()
        new_detections = self.detection_stage.collect()
        self.stats.add_stage_seconds(
            self.detection_stage.name, time.perf_counter() - started
        )
        self.stats.detections += len(new_detections)
        actions = self._run_stage(self.response_stage, new_detections)
        self.stats.responses += len(actions)
        return new_detections

    # ------------------------------------------------------------------
    # Two-phase ingestion (the always-on service driver)
    # ------------------------------------------------------------------
    @property
    def inflight_detection_batches(self) -> int:
        """Submitted-but-uncollected detection batches."""
        return self.detection_stage.pending_batches

    def submit_alerts(self, alerts: Iterable[Alert]) -> None:
        """Phase 1: normalise-count, filter, and submit one alert batch.

        The public face of the overlapped schedule for callers that own
        the event loop themselves (the asyncio service in
        :mod:`repro.service`): ``submit_alerts`` ships the batch to the
        detection stage and returns; :meth:`collect_detections`
        finishes it.  Interleaving exactly one in-flight batch with
        other work reproduces the double-buffered driver's schedule, so
        detections, responses, and counters are bit-identical to
        :meth:`ingest_alerts` over the same batches.
        """
        self._submit_detection(self._prep_alerts(alerts))

    def submit_raw(self, records: Iterable[RawLogRecord]) -> None:
        """Phase 1 for raw monitor records: mirror, normalise, filter, submit."""
        self._submit_detection(self._prep_raw(records))

    def collect_detections(self) -> list[Detection]:
        """Phase 2: finish the oldest in-flight batch and respond.

        Returns the batch's detections (empty list when nothing is in
        flight, so drain loops can call it unconditionally).
        """
        if not self.detection_stage.pending_batches:
            return []
        return self._collect_and_respond()

    # ------------------------------------------------------------------
    # Scanner handling (black-hole path, separate from the model path)
    # ------------------------------------------------------------------
    def block_top_scanners(self, now: float, *, min_scans: int = 1000) -> int:
        """Automatically null-route sources that scanned heavily.

        Returns the number of sources blocked.  This is the BHR's
        automated mass-scanner handling; it never pages an operator.
        The sweep is incremental: the router feeds it only sources
        whose scan count is at/above ``min_scans`` *and* that scanned
        since the last sweep, instead of rescanning the full counter.
        A source that was blocked and went quiet is not revisited until
        it scans again; one that kept scanning while blocked is
        re-queued and re-blocked once its block expires.
        """
        blocked = 0
        still_blocked: list[str] = []
        for source_ip in sorted(self.router.drain_crossed_scanners(min_scans)):
            if self.router.is_blocked(source_ip, now):
                # Already blocked: keep the crossing signal so the source
                # is revisited (and re-blocked) once the block expires.
                still_blocked.append(source_ip)
                continue
            self.responder.handle_mass_scanner(
                now, source_ip, self.router.scan_counter[source_ip]
            )
            blocked += 1
        if still_blocked:
            self.router.requeue_crossed_scanners(min_scans, still_blocked)
        return blocked

    # ------------------------------------------------------------------
    def detections_by(self, detector_name: str) -> list[Detection]:
        """Detections emitted by one of the attached detectors."""
        return [d for name, d in self.detections if name == detector_name]

    def summary(self) -> dict[str, object]:
        """Flat summary used by the Fig. 4 benchmark table.

        All values are floats except ``stage_seconds``, the per-stage
        timing dict (stage name -> cumulative wall seconds).
        """
        return {
            "raw_records": float(self.stats.raw_records),
            "normalized_alerts": float(self.stats.normalized_alerts),
            "filtered_alerts": float(self.stats.filtered_alerts),
            "detections": float(self.stats.detections),
            "responses": float(self.stats.responses),
            "notifications": float(len(self.responder.notifications)),
            "blocked_sources": float(len(self.router.history)),
            "normalization_drop_rate": self.stats.normalization_drop_rate,
            "filter_reduction": self.stats.filter_reduction,
            "detection_throughput": self.stats.detection_throughput,
            "detection_seconds": self.stats.detection_seconds,
            # The slice of detection time spent inside vectorised decode
            # kernels, summed across pools and shards; 0.0 for per-alert
            # detectors.  Timing, so excluded from the
            # differential oracle's compared counters.
            "detect_kernel_seconds": sum(
                sum(pool.kernel_seconds) + pool.kernel_seconds_retired
                for pool in self.detector_pools.values()
            ),
            "response_seconds": self.stats.response_seconds,
            # Load-shedding and fault-domain accounting: the one place
            # admission control and operators read drop/recovery state.
            # The dropped counters move only when the service's
            # admission controller sheds before publication, so they are
            # deterministic for an offline replay (zero) and compared by
            # the differential oracle; the recovery/reshard ops counters
            # are run-dependent and excluded.
            "dropped_raw": float(self.mirror.stats.dropped_raw),
            "dropped_alerts": float(self.mirror.stats.dropped_alerts),
            "recovery_attempts": float(
                sum(len(pool.recovery_log) for pool in self.detector_pools.values())
            ),
            "recoveries_healed": float(
                sum(
                    len(pool.recovery_log.healed)
                    for pool in self.detector_pools.values()
                )
            ),
            "reshard_events": float(
                sum(len(pool.reshard_log) for pool in self.detector_pools.values())
            ),
            # Shard-hop accounting: sub-batches shipped via the
            # shared-memory rings vs. batches that went over the worker
            # pipe instead (codec miss or ring full).  Run-dependent plumbing
            # telemetry (ring occupancy varies with scheduling), so
            # excluded from the oracle's compared counters.
            "shm_batches": float(
                sum(pool.shm_batches for pool in self.detector_pools.values())
            ),
            "shm_fallbacks": float(
                sum(pool.shm_fallbacks for pool in self.detector_pools.values())
            ),
            "stage_seconds": dict(self.stats.stage_seconds),
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _checkpoint_config(self) -> dict[str, object]:
        """The structural fingerprint a checkpoint must match to restore."""
        return {
            "n_shards": self.n_shards,
            "shard_backend": self.shard_backend,
            "primary_detector": self.primary_detector,
            "pools": sorted(self.detector_pools),
            "has_honeypot": self.honeypot is not None,
        }

    def _checkpoint_payload(self) -> dict[str, object]:
        """Everything a pristine equal-config pipeline needs to continue.

        Sets are serialised as *sorted lists* so the payload bytes are a
        pure function of the pipeline state (checkpoint -> restore ->
        checkpoint is byte-identical); they are rebuilt as sets on
        restore.
        """
        return {
            "config": self._checkpoint_config(),
            "stats": self.stats,
            "detections": list(self.detections),
            "responder": {
                "notifications": list(self.responder.notifications),
                "actions": list(self.responder.actions),
                "quarantined_entities": sorted(self.responder.quarantined_entities),
            },
            "router": {
                "blocks": dict(self.router._blocks),
                "history": list(self.router._history),
                "scans": list(self.router._scans),
                "scan_counter": dict(self.router.scan_counter),
                "scan_watches": {
                    threshold: sorted(pending)
                    for threshold, pending in self.router._scan_watches.items()
                },
            },
            "audit_log": list(self.bhr_client.audit_log),
            "mirror": self.mirror.snapshot_state(),
            "filter_stats": self.scan_filter.stats,
            "honeypot": self.honeypot,
            "pools": {
                name: self.detector_pools[name].snapshot_state()
                for name in sorted(self.detector_pools)
            },
        }

    def checkpoint(self, path) -> int:
        """Atomically persist the pipeline's full state to ``path``.

        Snapshots every detector pool's per-entity state (pickled via
        the detectors' own ``__getstate__``), the response/BHR records
        and mirror counters and ``PipelineStats``, such that a pristine
        equal-config pipeline :meth:`restore`\\ d from the file replays
        the remaining stream to bit-identical detections, logs, and
        counters.
        Returns the checkpoint size in bytes.  Like every detector
        control it refuses to run with detection batches in flight (the
        snapshot would be neither before nor after them).
        """
        self._require_quiesced("checkpoint")
        return write_checkpoint(path, self._checkpoint_payload())

    def _require_pristine_for_restore(self) -> None:
        """A restore target must be freshly constructed (and equal-config).

        Restoring over live state would silently merge two histories;
        every divergence fails loudly with ``RuntimeError`` *before*
        any state is touched, so a refused restore leaves the pipeline
        exactly as it was.
        """
        if self._restored:
            raise RuntimeError("pipeline was already restored once")
        driven = (
            self.stats.raw_records
            or self.stats.normalized_alerts
            or self.stats.filtered_alerts
            or self.stats.detections
            or self.stats.responses
            or self.detections
            or self.detection_stage.pending_batches
            or self.mirror.stats.raw_records
            or self.mirror.stats.alerts
            or self.responder.notifications
            or self.responder.actions
        )
        if driven:
            raise RuntimeError(
                "cannot restore into a pipeline that has already processed "
                "traffic; restore() requires a freshly constructed pipeline"
            )

    def restore(self, path) -> None:
        """Load a :meth:`checkpoint` file into this (pristine) pipeline.

        The pipeline must be freshly constructed with the same
        structural configuration (shard count, backend, attached
        detector names, primary, honeypot presence) as the one that
        checkpointed -- a mismatch raises
        :class:`~repro.testbed.checkpoint.CheckpointError`; a pipeline
        that already processed traffic (or was already restored) raises
        ``RuntimeError``.  Both checks run before any state is touched.
        """
        payload = read_checkpoint(path)
        self._require_pristine_for_restore()
        config = self._checkpoint_config()
        if payload["config"] != config:
            raise CheckpointError(
                f"checkpoint config {payload['config']!r} does not match "
                f"this pipeline's config {config!r}"
            )
        # Written before raw records could only enter through
        # ingest_raw/submit_raw: an empty list is accepted, while records
        # still owed to detection have no way in any more.
        if payload.get("pending_raw"):
            raise CheckpointError(
                f"checkpoint carries {len(payload['pending_raw'])} raw record(s) "
                "published outside ingest_raw/submit_raw; they cannot be restored"
            )
        # All validation passed: apply in place, preserving the object
        # identities the stages and external callers already hold (the
        # detections list is the detection stage's sink).
        self.stats = payload["stats"]
        self.detections[:] = payload["detections"]
        responder_state = payload["responder"]
        self.responder.notifications[:] = responder_state["notifications"]
        self.responder.actions[:] = responder_state["actions"]
        self.responder.quarantined_entities.clear()
        self.responder.quarantined_entities.update(
            responder_state["quarantined_entities"]
        )
        router_state = payload["router"]
        self.router._blocks.clear()
        self.router._blocks.update(router_state["blocks"])
        self.router._history[:] = router_state["history"]
        self.router._scans[:] = router_state["scans"]
        self.router.scan_counter.clear()
        self.router.scan_counter.update(router_state["scan_counter"])
        self.router._scan_watches.clear()
        self.router._scan_watches.update(
            {
                threshold: set(pending)
                for threshold, pending in router_state["scan_watches"].items()
            }
        )
        self.bhr_client.audit_log[:] = payload["audit_log"]
        self.mirror.restore_state(payload["mirror"])
        self.scan_filter.stats = payload["filter_stats"]
        if self.honeypot is not None and payload["honeypot"] is not None:
            self.honeypot.__dict__.clear()
            self.honeypot.__dict__.update(payload["honeypot"].__dict__)
        for name, pool_state in payload["pools"].items():
            self.detector_pools[name].restore_state(pool_state)
        self._restored = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 5.0) -> dict[str, PoolCloseResult]:
        """Shut down detector pools (worker processes, if any).

        Returns the per-pool :class:`~repro.testbed.sharding
        .PoolCloseResult` so callers can observe terminate/kill
        escalations; every wait is bounded by ``timeout`` seconds.
        """
        return {
            name: pool.close(timeout=timeout)
            for name, pool in self.detector_pools.items()
        }

    def __enter__(self) -> "TestbedPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["PipelineStats", "TestbedPipeline"]
