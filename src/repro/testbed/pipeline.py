"""The end-to-end testbed pipeline (Fig. 4), as composable stages.

This module wires the whole workflow together::

    mixture of attack + benign traffic
        -> monitors (Zeek / syslog / auditd / osquery) produce raw records
        -> traffic mirror (``ingest_*`` / ``submit_*``)
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
or ``submit_*`` / :meth:`TestbedPipeline.collect_detections`.  There is
one ledger per fact: ``pipeline.detections`` is the only detection log
(detectors and pools return what fired and keep no copy), and
:class:`PipelineStats` is the only traffic and drop ledger -- the
service's admission controller charges the records and alerts it sheds
to its ``dropped_raw`` / ``dropped_alerts``.
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

from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY, NormalizedBatch
from ..core.attack_tagger import AttackTagger, Detection
from ..core.detector import Detector
from ..telemetry.filtering import ScanFilter, ScanFilterStage
from ..telemetry.logsource import RawLogRecord
from ..telemetry.normalizer import AlertNormalizer, NormalizerStage
from .bhr import BHRClient, BlackHoleRouter
from .checkpoint import CheckpointError, model_digest, read_checkpoint, write_checkpoint
from .honeypot import Honeypot
from .responder import ResponseOrchestrator, ResponsePolicy
from .sharding import PoolCloseResult, ShardedDetectorPool
from .stages import DetectionStage, PipelineStage, ResponseStage


@dataclasses.dataclass
class PipelineStats:
    """Per-stage counters and timings for one pipeline run.

    The pipeline's one traffic and drop ledger; :meth:`TestbedPipeline
    .restore` loads a checkpoint's counters into this object in place,
    so a holder of it (the service's admission controller) keeps
    charging the live ledger.
    """

    #: Checkpointed stream state (``TestbedPipeline._stateful``): the counters.
    stream_state = (
        "raw_records",
        "normalized_alerts",
        "filtered_alerts",
        "detections",
        "responses",
        "dropped_raw",
        "dropped_alerts",
    )

    raw_records: int = 0
    normalized_alerts: int = 0
    filtered_alerts: int = 0
    detections: int = 0
    responses: int = 0
    #: Raw records / alerts the service's admission controller shed
    #: before they reached the pipeline.
    dropped_raw: int = 0
    dropped_alerts: int = 0
    #: Cumulative wall seconds per stage name (normalize/filter/detect/
    #: respond).  A wall clock, so never checkpointed.
    stage_seconds: dict[str, float] = dataclasses.field(default_factory=dict)

    def add_stage_seconds(self, stage_name: str, seconds: float) -> None:
        """Accumulate one stage run's wall time."""
        self.stage_seconds[stage_name] = self.stage_seconds.get(stage_name, 0.0) + seconds

    @property
    def detection_throughput(self) -> float:
        """Filtered alerts consumed per second spent in the detection stage."""
        seconds = self.stage_seconds.get(DetectionStage.name, 0.0)
        if seconds <= 0.0:
            return 0.0
        return self.filtered_alerts / seconds

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


#: The :meth:`TestbedPipeline.summary` keys a replay reproduces
#: bit-for-bit, whatever the engine, shard count, backend or driver.
#: The timing, recovery, reshard and ring keys are run-dependent and
#: left out.  The drop counters move only when the service's admission
#: control sheds, so an offline replay reports zero for both.  The
#: ``results`` op serves exactly these.
DETERMINISTIC_COUNTERS = (
    "raw_records",
    "normalized_alerts",
    "filtered_alerts",
    "detections",
    "responses",
    "notifications",
    "blocked_sources",
    "normalization_drop_rate",
    "filter_reduction",
    "dropped_raw",
    "dropped_alerts",
)


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
    max_restarts:
        Per-shard restart budget of process-backed pools, passed
        through to :class:`~repro.testbed.sharding.ShardedDetectorPool`
        -- ``0`` (default) surfaces a worker death as a typed error and
        keeps no recovery image; above 0 the shards self-heal from
        per-shard snapshots, that many times each.
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
    #: Checkpointed stream state (:meth:`_stateful`): the detection log.
    stream_state = ("detections",)

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
        max_restarts: int = 0,
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
        self.normalizer = normalizer or AlertNormalizer(self.vocabulary)
        self.scan_filter = scan_filter or ScanFilter(self.vocabulary)
        self.n_shards = int(n_shards)
        self.shard_backend = shard_backend
        self.max_restarts = int(max_restarts)
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
        # while pristine.
        self._restored = False

    def _build_pool(self, detector: Detector) -> ShardedDetectorPool:
        extra: dict = {}
        if self.ring_capacity is not None:
            extra["ring_capacity"] = self.ring_capacity
        return ShardedDetectorPool.from_template(
            detector,
            n_shards=self.n_shards,
            backend=self.shard_backend,
            max_restarts=self.max_restarts,
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
        """Process mirrored raw monitor records through every stage.

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

    def _prep_raw(self, records: Iterable[RawLogRecord]) -> NormalizedBatch:
        """Count one raw batch, then normalise (counted) and filter it.

        The normaliser hands the filter columns and the filter hands
        its survivors on as columns: no :class:`Alert` is built here.
        """
        records = tuple(records)
        self.stats.raw_records += len(records)
        normalized = self._run_stage(self.normalizer_stage, records)
        self.stats.normalized_alerts += len(normalized)
        return self._prep_filtered(normalized)

    def _prep_alerts(self, alerts: NormalizedBatch | Iterable[Alert]) -> NormalizedBatch:
        """Count one pre-normalised batch and filter it: a
        :class:`NormalizedBatch` (the service's parsed ``batch``) as it
        is, other alerts through their column view."""
        if isinstance(alerts, NormalizedBatch):
            batch = alerts
        else:
            batch = NormalizedBatch.of_alerts(alerts)
        self.stats.raw_records += len(batch)
        self.stats.normalized_alerts += len(batch)
        return self._prep_filtered(batch)

    def _prep_filtered(self, alerts: Sized) -> NormalizedBatch:
        """Filter one normalised batch (counted)."""
        filtered = self._run_stage(self.filter_stage, alerts)
        self.stats.filtered_alerts += len(filtered)
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
        kept -- only the detectors' per-entity state is cleared.
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

    def _submit_detection(self, filtered: NormalizedBatch, parts: Sequence[int] = ()) -> None:
        """Ship one filtered batch, which joins ``parts`` (row counts,
        :meth:`submit_alerts`), to the detection stage (timed)."""
        started = time.perf_counter()
        self.detection_stage.submit(filtered, parts)
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

    def submit_alerts(
        self, alerts: NormalizedBatch | Iterable[Alert], *more: NormalizedBatch | Iterable[Alert]
    ) -> None:
        """Phase 1: count, filter, and submit alert batches as one group.

        The public face of the overlapped schedule for callers that own
        the event loop themselves (the asyncio service in
        :mod:`repro.service`): ``submit_alerts`` ships the batches to
        the detection stage and returns; one
        :meth:`collect_detections` finishes them.  Each batch is
        counted and filtered on its own, exactly as :meth:`ingest_alerts`
        would; the survivors are joined (:meth:`NormalizedBatch.concat`)
        into one detection batch, so the detectors' per-call costs are
        paid once per group.  Detectors keep strictly per-entity state
        and see the rows in stream order, so detections, responses, the
        detection log and counters are bit-identical to one
        submit/collect pair per batch, and to :meth:`ingest_alerts` over
        the same batches.  The group is the failure unit: a detection
        failure loses every batch in it.
        """
        self._submit_group([self._prep_alerts(batch) for batch in (alerts, *more)])

    def submit_raw(
        self, records: Iterable[RawLogRecord], *more: Iterable[RawLogRecord]
    ) -> None:
        """Phase 1 for raw monitor records: count, normalise and filter
        each batch, then submit the group (see :meth:`submit_alerts`)."""
        self._submit_group([self._prep_raw(batch) for batch in (records, *more)])

    def _submit_group(self, filtered: list[NormalizedBatch]) -> None:
        """Submit prepped batches as one detection batch (one batch: itself)."""
        self._submit_detection(
            NormalizedBatch.concat(filtered), [len(batch) for batch in filtered]
        )

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
        timing dict (stage name -> cumulative wall seconds), and
        ``kernel_steps``, per detector the windowed steps its decode
        kernel advanced in chunks, through its pattern pass and through
        the per-entity path (``{"stacked", "patterned", "scalar"}``,
        summed across shards).  Only the :data:`DETERMINISTIC_COUNTERS`
        keys are bit-identical across runs (the engines split their
        steps differently).
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
            "detection_seconds": self.stats.stage_seconds.get(DetectionStage.name, 0.0),
            # The slice of detection time spent inside vectorised decode
            # kernels, summed across pools and shards; 0.0 for per-alert
            # detectors.  Timing, so not deterministic.
            "detect_kernel_seconds": sum(
                sum(pool.kernel_seconds) + pool.kernel_seconds_retired
                for pool in self.detector_pools.values()
            ),
            "kernel_steps": {
                name: dict(zip(("stacked", "patterned", "scalar"), pool.kernel_steps))
                for name, pool in self.detector_pools.items()
            },
            "response_seconds": self.stats.stage_seconds.get(ResponseStage.name, 0.0),
            # Load-shedding and fault-domain accounting: the one place
            # admission control and operators read drop/recovery state.
            # The dropped counters move only when the service's
            # admission controller sheds before ingestion, so they are
            # deterministic for an offline replay (zero); the
            # recovery/reshard ops counters are run-dependent.
            "dropped_raw": float(self.stats.dropped_raw),
            "dropped_alerts": float(self.stats.dropped_alerts),
            "recovery_attempts": float(
                sum(len(pool.recovery_log) for pool in self.detector_pools.values())
            ),
            "recoveries_healed": float(
                sum(
                    event.healed
                    for pool in self.detector_pools.values()
                    for event in pool.recovery_log
                )
            ),
            "reshard_events": float(
                sum(len(pool.reshard_log) for pool in self.detector_pools.values())
            ),
            # Shard-hop accounting: sub-batches shipped via the
            # shared-memory rings vs. batches that went over the worker
            # pipe instead (codec miss or ring full).  Run-dependent plumbing
            # telemetry (ring occupancy varies with scheduling), so not
            # deterministic.
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
        """The fingerprint a checkpoint must match to restore: the
        structure and each pool's template :func:`~repro.testbed.checkpoint
        .model_digest` (shards adopt tracks into replicas of *these*
        templates, so another model is refused, never run)."""
        return {
            "n_shards": self.n_shards,
            "shard_backend": self.shard_backend,
            "primary_detector": self.primary_detector,
            "pools": {
                name: model_digest(self.detector_pools[name].detector_factory.template)
                for name in sorted(self.detector_pools)
            },
            "has_honeypot": self.honeypot is not None,
        }

    def _stateful(self) -> dict[str, object]:
        """Every checkpointed component by payload key.  Each declares its
        stream state as a ``stream_state`` tuple of attribute names; what
        it does not declare is wiring that an equal-config pipeline
        rebuilds.  The honeypot is none: it is the caller's environment."""
        return {
            "stats": self.stats,
            "normalizer": self.normalizer,
            "sanitizer": self.normalizer.sanitizer,
            "pipeline": self,
            "responder": self.responder,
            "router": self.router,
        }

    def _checkpoint_payload(self) -> dict[str, object]:
        """``{component: {attribute: value}}`` over :meth:`_stateful`, and
        every pool's tracks: what a pristine equal-config pipeline needs."""
        return {
            "config": self._checkpoint_config(),
            **{
                name: {attribute: getattr(component, attribute) for attribute in component.stream_state}
                for name, component in self._stateful().items()
            },
            "pools": {
                name: self.detector_pools[name].snapshot_state()
                for name in sorted(self.detector_pools)
            },
        }

    def checkpoint(self, path) -> int:
        """Atomically persist the pipeline's full state to ``path``.

        Snapshots every detector pool's per-entity tracks (the
        detectors' ``export_entity_tracks``) and every component's
        declared stream state (see :meth:`_stateful`), such that a
        pristine equal-config pipeline :meth:`restore`\\ d from the file
        replays the remaining stream to bit-identical detections, logs,
        and counters.
        Returns the checkpoint size in bytes.  Like every detector
        control it refuses to run with detection batches in flight (the
        snapshot would be neither before nor after them).
        """
        self._require_quiesced("checkpoint")
        return write_checkpoint(path, self._checkpoint_payload())

    def restore(self, path) -> None:
        """Load a :meth:`checkpoint` file into this (pristine) pipeline.

        The pipeline must be freshly constructed with the same
        configuration (shard count, backend, attached detector names and
        their models, primary, honeypot presence) as the one that
        checkpointed -- a mismatch raises
        :class:`~repro.testbed.checkpoint.CheckpointError`; a pipeline
        that was driven (any declared state of :meth:`_stateful` set, or
        a batch in flight) or already restored raises ``RuntimeError``.
        Both checks run before any state is touched: restoring over live
        state would silently merge two histories.  The honeypot is the
        caller's environment and is never rolled back: whatever it
        holds, it keeps.
        """
        payload = read_checkpoint(path)
        if self._restored:
            raise RuntimeError("pipeline was already restored once")
        if self.detection_stage.pending_batches or any(
            getattr(component, attribute)
            for component in self._stateful().values()
            for attribute in component.stream_state
        ):
            raise RuntimeError(
                "cannot restore into a pipeline that has already processed "
                "traffic; restore() requires a freshly constructed pipeline"
            )
        config = self._checkpoint_config()
        if payload["config"] != config:
            raise CheckpointError(
                f"checkpoint config {payload['config']!r} does not match "
                f"this pipeline's config {config!r}"
            )
        # All validation passed: apply in place, preserving the object
        # identities the stages and external callers already hold (the
        # detections list is the detection stage's sink, the stats the
        # admission controller's drop ledger).
        for name, component in self._stateful().items():
            for attribute in component.stream_state:
                value = payload[name][attribute]
                current = getattr(component, attribute)
                if isinstance(current, list):
                    current[:] = value
                elif isinstance(current, (dict, set)):
                    current.clear()
                    current.update(value)
                else:
                    setattr(component, attribute, value)
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


__all__ = ["DETERMINISTIC_COUNTERS", "PipelineStats", "TestbedPipeline"]
