"""Campaign runner and the cross-configuration differential oracle.

The repo's central correctness claim is that four independent execution
axes never change a detection:

* decode **engine** -- ``streaming`` (production: incremental decoders
  advanced by the stacked cross-entity kernel) / ``naive`` (the
  executable spec),
* shard count -- entity-partitioned detector replicas,
* shard **backend** -- ``serial`` (in-process shards) / ``process``
  (worker processes behind shared-memory rings),
* pipeline **driver** -- the overlapped ``ingest_alert_batches``
  (``alert_stream``) and the raw-record ``ingest_raw_stream``
  (``raw_stream``); per-event ``ingest_alerts`` (``sync``) is a
  one-batch ``alert_stream`` call, so it is the reference's driver and
  not a matrix axis.

:func:`full_matrix` is the reference, every engine x shard count x
backend under ``alert_stream``, and ``raw_stream`` only where raw
preparation meets a distinct detection path: the production engine at
one and two shards on both backends (1 + 12 + 4 = 17 configurations).
The raw driver differs from the alert driver only in what it prepares
before the one shared submit/collect path, so replaying it under the
spec engine or at four shards would prove nothing the rest does not.

Every proof in the repo -- this oracle, the fault rows of
:mod:`repro.fuzz.chaos`, the socket legs of :mod:`repro.service.smoke`
-- replays a :class:`~repro.fuzz.campaign.Campaign` through the same
three-function **runner**:

:func:`build_pipeline`
    campaign + :class:`OracleConfig` -> the campaign-shaped
    :class:`~repro.testbed.pipeline.TestbedPipeline`,
:func:`drive`
    the campaign's events -> a sink (a pipeline or a
    :class:`~repro.service.admission.ServiceClient`), with a hook fired
    at named stream positions -- where every fault is injected,
:func:`snapshot`
    a driven pipeline -> the :class:`ReplayResult` that is compared.

:class:`DifferentialOracle` replays one campaign through every
configuration in the matrix and asserts that detections (every field),
the cross-detector detection log, operator notifications, response
records, and the :class:`~repro.testbed.pipeline.PipelineStats`
counters are bit-identical to the reference configuration (the seed
path: ``naive`` engine, one serial shard, per-event ``sync`` driver).

Campaign control events map onto the pipeline's detector controls
(:meth:`TestbedPipeline.reset_entity` /
:meth:`~TestbedPipeline.reset_detectors` /
:meth:`~TestbedPipeline.reopen_detectors`), which need a quiesced
pipeline: :func:`drive` splits a stream driver's run at every control,
so mid-stream remediation and detection-tier restarts land at the same
stream position under every driver.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import traceback
from typing import Callable, Iterable, Optional, Sequence

from ..core.alerts import Alert
from ..core.attack_tagger import ENGINES, AttackTagger, Detection, UnknownEngineError
from ..incidents import DEFAULT_CATALOGUE
from ..telemetry.logsource import MonitorKind, RawLogRecord
from ..telemetry.normalizer import ZEEK_NOTICE_MAP
from ..testbed.pipeline import TestbedPipeline
from .campaign import Campaign

#: Shard counts under differential test.
SHARD_COUNTS = (1, 2, 4)
#: Sharding backends under differential test.
BACKENDS = ("serial", "process")
#: Legal ``OracleConfig.driver`` values (see :func:`drive`); ``sync`` is
#: the reference's driver, the two stream drivers are the matrix axis.
DRIVERS = ("sync", "alert_stream", "raw_stream")

#: ``PipelineStats``-derived summary keys that must match bit-for-bit
#: (timing-valued keys are excluded: wall time is not deterministic).
COMPARED_COUNTERS = (
    "raw_records",
    "normalized_alerts",
    "filtered_alerts",
    "detections",
    "responses",
    "notifications",
    "blocked_sources",
    "normalization_drop_rate",
    "filter_reduction",
    # Deterministic drop accounting (only admission control sheds, and
    # the oracle pipelines run without it, so both sides must report
    # zero).
    "dropped_raw",
    "dropped_alerts",
)

#: Inverse of the Zeek notice table (alert name -> notice name).
_ZEEK_NOTICE_FOR: dict[str, str] = {}
for _note, _alert_name in ZEEK_NOTICE_MAP.items():
    _ZEEK_NOTICE_FOR.setdefault(_alert_name, _note)


@dataclasses.dataclass(frozen=True)
class OracleConfig:
    """One point of the engine x shards x backend x driver matrix."""

    engine: str = "streaming"
    n_shards: int = 1
    backend: str = "serial"
    driver: str = "sync"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise UnknownEngineError(self.engine)
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.driver not in DRIVERS:
            raise ValueError(f"unknown driver {self.driver!r}")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")

    @property
    def label(self) -> str:
        """Compact ``engine:shards:backend:driver`` spec string."""
        return f"{self.engine}:{self.n_shards}:{self.backend}:{self.driver}"

    @classmethod
    def parse(cls, spec: str) -> "OracleConfig":
        """Inverse of :attr:`label` (``streaming:4:process:sync``)."""
        fields = spec.split(":")
        if len(fields) != 4:
            raise ValueError(f"malformed oracle config spec {spec!r}")
        engine, shards, backend, driver = fields
        return cls(engine=engine, n_shards=int(shards), backend=backend, driver=driver)


#: The reference configuration: the seed execution path.
REFERENCE_CONFIG = OracleConfig(engine="naive", n_shards=1, backend="serial", driver="sync")


def full_matrix() -> list[OracleConfig]:
    """The reference, every ``alert_stream`` config, four ``raw_stream`` ones."""
    return (
        [REFERENCE_CONFIG]
        + [
            OracleConfig(engine=e, n_shards=s, backend=b, driver="alert_stream")
            for e, s, b in itertools.product(ENGINES, SHARD_COUNTS, BACKENDS)
        ]
        + [
            OracleConfig(engine="streaming", n_shards=s, backend=b, driver="raw_stream")
            for s, b in itertools.product((1, 2), BACKENDS)
        ]
    )


def quick_matrix() -> list[OracleConfig]:
    """A small cross-section of :func:`full_matrix` (every axis value twice)."""
    return [
        OracleConfig("streaming", 1, "serial", "alert_stream"),
        OracleConfig("streaming", 4, "process", "alert_stream"),
        OracleConfig("streaming", 2, "serial", "raw_stream"),
        OracleConfig("streaming", 2, "serial", "alert_stream"),
        OracleConfig("streaming", 4, "serial", "alert_stream"),
        OracleConfig("naive", 2, "process", "alert_stream"),
        OracleConfig("naive", 1, "serial", "alert_stream"),
        OracleConfig("streaming", 1, "process", "raw_stream"),
        OracleConfig("streaming", 2, "process", "alert_stream"),
        OracleConfig("naive", 4, "process", "alert_stream"),
    ]


def alert_to_zeek_record(alert: Alert) -> RawLogRecord:
    """Express one raw-capable alert as the Zeek notice producing it.

    The exact inverse of the normaliser's ``zeek_notice`` rule for
    alerts composed with ``raw_capable=True``: normalising the returned
    record yields an alert equal (field-for-field, attributes aside) to
    the input, with no dropped records -- which is what lets the
    ``raw_stream`` driver share counters with the alert drivers.
    """
    note = _ZEEK_NOTICE_FOR.get(alert.name)
    if note is None:
        raise ValueError(f"alert {alert.name!r} is not Zeek-notice expressible")
    if not alert.entity.startswith("host:"):
        raise ValueError(f"raw replay needs host entities, got {alert.entity!r}")
    host = alert.entity.split(":", 1)[1]
    return RawLogRecord(
        timestamp=alert.timestamp,
        monitor=MonitorKind.ZEEK,
        host=host,
        message=f"notice {note} from {alert.source_ip or '-'}",
        fields={"stream": "notice", "note": note, "orig_h": alert.source_ip},
    )


def alerts_to_zeek_records(alerts: Iterable[Alert]) -> list[RawLogRecord]:
    """Batch form of :func:`alert_to_zeek_record`."""
    return [alert_to_zeek_record(alert) for alert in alerts]


@dataclasses.dataclass
class ReplayResult:
    """Everything one configuration's replay produced."""

    config: OracleConfig
    detections: list[Detection]
    detection_log: list[tuple[str, Detection]]
    notifications: list
    actions: list
    counters: dict[str, float]


def build_pipeline(
    campaign: Campaign, config: OracleConfig, *, wrap: Optional[Callable] = None, **options
) -> TestbedPipeline:
    """The pipeline a campaign is replayed through.

    ``config`` supplies the engine, shard count and backend; the
    campaign supplies the detector hyper-parameters.  ``wrap`` decorates
    the detector (the chaos poison row); ``options`` are passed to the
    pipeline unchanged.
    """
    tagger = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE),
        engine=config.engine,
        max_window=campaign.max_window,
        detection_threshold=campaign.detection_threshold,
    )
    return TestbedPipeline(
        detectors={"factor_graph": wrap(tagger) if wrap else tagger},
        n_shards=config.n_shards,
        shard_backend=config.backend,
        **options,
    )


def _apply_control(sink, event) -> None:
    if not isinstance(sink, TestbedPipeline):
        sink.control(event.kind, event.entity)
    elif event.kind == "reset_entity":
        sink.reset_entity(event.entity)
    elif event.kind == "reset":
        sink.reset_detectors()
    elif event.kind == "reopen":
        sink.reopen_detectors()


def drive(
    campaign: Campaign,
    sink,
    driver: str = "sync",
    hook: Optional[Callable[[str, int], object]] = None,
) -> list[Detection]:
    """Walk the campaign's events into ``sink``: the one campaign driver.

    ``sink`` is a :class:`TestbedPipeline` or a connected
    :class:`~repro.service.admission.ServiceClient` (which takes every
    batch as one acknowledged request, ``raw_stream`` only choosing the
    ``raw`` op over ``batch``; its detections are read back with the
    ``results`` op, so the return value is empty).  ``driver`` is how a
    pipeline is fed:

    ``sync``
        one blocking ``ingest_alerts`` per batch event.
    ``alert_stream`` / ``raw_stream``
        each run of consecutive batch events is the batch source of one
        ``ingest_alert_batches`` / ``ingest_raw_stream`` call (batches
        re-expressed as Zeek notices); the run ends at a control event,
        so every control reaches a quiesced pipeline.

    ``hook(point, index)`` is called at three stream positions:
    ``"event"`` before event ``index`` is applied (it may return a
    replacement sink: a pipeline restored from a checkpoint, a second
    client), ``"before"`` / ``"after"`` around the hand-over of the
    ``index``-th *non-empty* batch.  ``"after"`` means collected under
    ``sync``, acknowledged for a client, and merely submitted under a
    stream driver -- the one place a fault lands between a submit and
    its collect.
    """
    if driver not in DRIVERS:
        raise ValueError(f"unknown driver {driver!r}")
    fire = hook or (lambda point, index: None)
    remote = not isinstance(sink, TestbedPipeline)
    as_raw = driver == "raw_stream"
    streamed = not remote and driver != "sync"
    detections: list[Detection] = []
    events = collections.deque(enumerate(campaign.events))
    batch_index = -1

    def batches():
        # The run of batch events up to the next control (left queued).
        nonlocal sink, batch_index
        while events and events[0][1].kind == "batch":
            index, event = events.popleft()
            sink = fire("event", index) or sink
            batch = alerts_to_zeek_records(event.alerts) if as_raw else list(event.alerts)
            if batch:
                batch_index += 1
                fire("before", batch_index)
            yield batch
            if batch:
                fire("after", batch_index)

    while events:
        if events[0][1].kind != "batch":
            index, event = events.popleft()
            sink = fire("event", index) or sink
            _apply_control(sink, event)
        elif streamed:
            ingest = sink.ingest_raw_stream if as_raw else sink.ingest_alert_batches
            detections.extend(ingest(batches()))
        else:
            for batch in batches():
                if remote:
                    (sink.send_raw if as_raw else sink.send_alerts)(batch)
                else:
                    detections.extend(sink.ingest_alerts(batch))
    return detections


def snapshot(
    pipeline: TestbedPipeline, config: OracleConfig, detections: list[Detection]
) -> ReplayResult:
    """The compared surface of a driven pipeline."""
    summary = pipeline.summary()
    return ReplayResult(
        config=config,
        detections=detections,
        detection_log=list(pipeline.detections),
        notifications=list(pipeline.responder.notifications),
        actions=list(pipeline.responder.actions),
        counters={key: summary[key] for key in COMPARED_COUNTERS},
    )


@dataclasses.dataclass(frozen=True)
class Divergence:
    """One field on which a configuration disagreed with the reference."""

    config: OracleConfig
    field: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.config.label}] {self.field}: {self.detail}"


@dataclasses.dataclass
class CampaignVerdict:
    """The oracle's verdict for one campaign across the matrix."""

    campaign: Campaign
    reference: Optional[ReplayResult]
    divergences: list[Divergence]
    configs_run: int = 0
    configs_skipped: int = 0

    @property
    def ok(self) -> bool:
        """Whether every replayed configuration matched the reference."""
        return not self.divergences


class DifferentialOracle:
    """Replays campaigns across the configuration matrix and compares.

    Parameters
    ----------
    configs:
        The matrix to test (default :func:`full_matrix`).  ``raw_stream``
        configurations are skipped for campaigns that are not
        raw-capable (their alerts cannot be expressed as raw records).
    reference:
        The configuration every other one is compared against.
    """

    def __init__(
        self,
        configs: Optional[Sequence[OracleConfig]] = None,
        *,
        reference: OracleConfig = REFERENCE_CONFIG,
    ) -> None:
        self.configs = list(configs) if configs is not None else full_matrix()
        self.reference = reference

    # -- replay ----------------------------------------------------------
    def replay(self, campaign: Campaign, config: OracleConfig) -> ReplayResult:
        """Replay one campaign under one configuration."""
        with build_pipeline(campaign, config) as pipeline:
            return snapshot(pipeline, config, drive(campaign, pipeline, config.driver))

    # -- comparison ------------------------------------------------------
    def run(self, campaign: Campaign) -> CampaignVerdict:
        """Replay the campaign across the matrix; collect divergences."""
        verdict = CampaignVerdict(campaign=campaign, reference=None, divergences=[])
        try:
            reference = self.replay(campaign, self.reference)
        except Exception:
            verdict.divergences.append(
                Divergence(self.reference, "exception", traceback.format_exc())
            )
            return verdict
        verdict.reference = reference
        for config in self.configs:
            if config == self.reference:
                continue
            if config.driver == "raw_stream" and not campaign.raw_capable:
                verdict.configs_skipped += 1
                continue
            verdict.configs_run += 1
            try:
                result = self.replay(campaign, config)
            except Exception:
                verdict.divergences.append(
                    Divergence(config, "exception", traceback.format_exc())
                )
                continue
            verdict.divergences.extend(self._compare(reference, result))
        return verdict

    def check(self, campaign: Campaign) -> bool:
        """Whether the campaign replays identically across the matrix."""
        return self.run(campaign).ok

    @staticmethod
    def _compare(reference: ReplayResult, result: ReplayResult) -> list[Divergence]:
        divergences: list[Divergence] = []

        def diff_list(field: str, expected: list, got: list) -> None:
            if expected == got:
                return
            if len(expected) != len(got):
                detail = f"length {len(got)} != {len(expected)}"
            else:
                position = next(
                    i for i, (a, b) in enumerate(zip(expected, got)) if a != b
                )
                detail = (
                    f"first mismatch at index {position}: "
                    f"{got[position]!r} != {expected[position]!r}"
                )
            divergences.append(Divergence(result.config, field, detail))

        diff_list("detections", reference.detections, result.detections)
        diff_list("detection_log", reference.detection_log, result.detection_log)
        diff_list("notifications", reference.notifications, result.notifications)
        diff_list("actions", reference.actions, result.actions)
        # ``Alert.__eq__`` excludes ``attributes`` (compare=False), so
        # the list comparisons above cannot see attribute corruption --
        # e.g. a columnar wire-format bug in the process backend.
        # Compare the trigger metadata explicitly.  Raw-driver replays
        # are exempt: their alerts are rebuilt by the normaliser, whose
        # attributes come from the Zeek record, not the campaign.
        if result.config.driver != "raw_stream" and len(result.detections) == len(
            reference.detections
        ):
            for position, (expected, got) in enumerate(
                zip(reference.detections, result.detections)
            ):
                if dict(got.trigger.attributes) != dict(expected.trigger.attributes):
                    divergences.append(
                        Divergence(
                            result.config,
                            "detections",
                            f"trigger attributes mismatch at index {position}: "
                            f"{dict(got.trigger.attributes)!r} != "
                            f"{dict(expected.trigger.attributes)!r}",
                        )
                    )
                    break
        for key in COMPARED_COUNTERS:
            if reference.counters[key] != result.counters[key]:
                divergences.append(
                    Divergence(
                        result.config,
                        f"counter:{key}",
                        f"{result.counters[key]!r} != {reference.counters[key]!r}",
                    )
                )
        return divergences


__all__ = [
    "ENGINES",
    "SHARD_COUNTS",
    "BACKENDS",
    "DRIVERS",
    "COMPARED_COUNTERS",
    "OracleConfig",
    "REFERENCE_CONFIG",
    "full_matrix",
    "quick_matrix",
    "alert_to_zeek_record",
    "alerts_to_zeek_records",
    "ReplayResult",
    "build_pipeline",
    "drive",
    "snapshot",
    "Divergence",
    "CampaignVerdict",
    "DifferentialOracle",
]
