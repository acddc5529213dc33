"""Admission control, tiered load shedding, and the retrying client.

The always-on service must bound its memory under a misbehaving or
merely over-eager client: work is admitted against a bounded global
queue (and a per-connection bound, so one connection cannot starve the
rest), and as the queue fills the service degrades in *tiers* rather
than falling over:

``admit``
    Below the shed thresholds everything is accepted verbatim.
``shed-raw``
    From :data:`SHED_RAW_FRACTION` of the global capacity on, raw
    monitor-record batches -- the highest-volume, lowest-value
    input (25 M records reduce to 191 K alerts in the paper's Fig. 4)
    -- are dropped whole; pre-normalised alert batches still flow.
``shed-low``
    From :data:`SHED_LOW_FRACTION` on, additionally, *low-priority*
    alerts (the vocabulary's BACKGROUND lifecycle stage: logins, cron,
    package installs, ...) are dropped from alert batches; attack-stage
    alerts still flow.
``reject``
    The queue is full (or the connection's slice is): the batch is
    refused outright with a :data:`RETRY_AFTER` hint and **nothing** is
    enqueued -- the client owns the retry, so no data is silently
    lost at this tier.

Every shed record/alert is accounted twice: once in the pipeline's
:class:`~repro.testbed.pipeline.PipelineStats` ``dropped_raw``/
``dropped_alerts`` counters (its one drop ledger, surfaced in
``TestbedPipeline.summary()`` and carried across a checkpoint restore)
and once as a full payload in the :class:`DeadLetterJournal`, so shed
traffic can be audited or replayed after the storm passes.

:class:`ServiceClient` is the blocking client half: JSONL over a
socket, with deterministic exponential backoff (:func:`retry_delay`;
no jitter -- retry schedules are reproducible in tests) against
``reject`` responses.  Only the two queue bounds of
:class:`AdmissionLimits` are settable; the shed thresholds, the retry
hint and the client's retry schedule are the module constants below.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import socket
import time
from pathlib import Path
from typing import Any, Deque, Iterable, List, Mapping, Optional, Sequence

from ..core.alerts import (
    Alert,
    AlertVocabulary,
    AttackStage,
    DEFAULT_VOCABULARY,
    NormalizedBatch,
)
from ..telemetry.logsource import RawLogRecord
from ..testbed.pipeline import PipelineStats
from .protocol import (
    ProtocolError,
    decode_line,
    encode_message,
    raw_record_to_dict,
)

#: Load-shedding tiers, least to most degraded.
TIERS = ("admit", "shed-raw", "shed-low", "reject")

#: Queue fill fraction at which raw batches start being shed.
SHED_RAW_FRACTION = 0.5
#: Queue fill fraction at which low-priority alerts are also shed.
SHED_LOW_FRACTION = 0.75
#: Retry hint (seconds) attached to rejections.
RETRY_AFTER = 0.05

#: The client's retry schedule against rejections: at most
#: ``MAX_RETRIES`` retries, the first after ``RETRY_BASE_DELAY``
#: seconds, each further one doubling, capped at ``RETRY_MAX_DELAY``.
MAX_RETRIES = 8
RETRY_BASE_DELAY = 0.02
RETRY_MAX_DELAY = 1.0

#: Requests :meth:`ServiceClient.send_alert_batches` /
#: :meth:`~ServiceClient.send_raw_batches` write before reading their
#: acks: half the default per-connection bound, so one client's window
#: is never rejected and never reaches a shed tier on its own.
PIPELINE_DEPTH = 8

#: Entries a memory-only :class:`DeadLetterJournal` keeps (the newest).
DEAD_LETTER_TAIL = 1024


def retry_delay(attempt: int) -> float:
    """Sleep before client retry ``attempt`` (0-based)."""
    return min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * 2.0**attempt)


@dataclasses.dataclass(frozen=True)
class AdmissionLimits:
    """Queue bounds for the admission controller."""

    #: Maximum batches queued service-wide before outright rejection.
    global_capacity: int = 64
    #: Maximum batches one connection may have queued.
    per_connection: int = 16

    def __post_init__(self) -> None:
        if self.global_capacity < 1:
            raise ValueError("global_capacity must be >= 1")
        if self.per_connection < 1:
            raise ValueError("per_connection must be >= 1")


@dataclasses.dataclass(frozen=True)
class AdmissionOutcome:
    """One admission decision for one incoming batch."""

    accepted: bool
    tier: str
    #: What survives shedding and should be enqueued (possibly empty):
    #: a :class:`~repro.core.alerts.NormalizedBatch` of alerts, or a
    #: tuple of raw records.
    admitted: NormalizedBatch | tuple
    #: How many alerts/records were shed from this batch.
    shed: int
    retry_after: float = 0.0


class DeadLetterJournal:
    """Append-only JSONL journal of shed and failed work.

    Every entry records why (``reason``), what kind of payload
    (``kind``), and the full payload itself, so a post-incident replay
    can reconstruct exactly what the service declined to process.
    A service sheds exactly when memory matters, so it must not hold a
    second copy of everything it declined.  With a path the journal
    writes through to the file and keeps only :attr:`count` (read the
    file back with :meth:`read`).  With no path it is memory-only:
    :attr:`entries` keeps the newest :data:`DEAD_LETTER_TAIL` entries,
    and :attr:`count` still counts every one.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: Deque[dict] = collections.deque(maxlen=DEAD_LETTER_TAIL)
        self.count = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, reason: str, kind: str, payload: Any) -> None:
        """Append one dead-lettered payload."""
        entry = {"reason": reason, "kind": kind, "payload": payload}
        self.count += 1
        if self.path is None:
            self.entries.append(entry)
        else:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")

    @staticmethod
    def read(path: Path) -> List[dict]:
        """Load a journal file back into entry dicts."""
        entries = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
        return entries


class AdmissionController:
    """Tiered admission decisions against queue depth, with accounting.

    The controller is pure bookkeeping -- it never touches the queue
    itself.  The server asks for a decision with the current depths;
    shed payloads are charged to the ``ledger``'s drop counters (the
    pipeline's :class:`~repro.testbed.pipeline.PipelineStats`, which a
    restore refills in place) and written to the dead-letter journal
    here, at the moment of the decision, so the ledgers agree with what
    the pipeline never saw.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        *,
        vocabulary: Optional[AlertVocabulary] = None,
        ledger: Optional[PipelineStats] = None,
        dead_letter: Optional[DeadLetterJournal] = None,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        vocabulary = vocabulary or DEFAULT_VOCABULARY
        #: Alert names shed at the ``shed-low`` tier: the vocabulary's
        #: BACKGROUND lifecycle stage (benign operational noise).
        self.low_priority_names = frozenset(
            vocabulary.names_for_stage(AttackStage.BACKGROUND)
        )
        self.ledger = ledger
        self.dead_letter = dead_letter
        #: ``None`` for depth-driven tiers, or a forced tier (the
        #: ``throttle`` op) for deterministic shedding in tests/ops.
        self.forced_mode: Optional[str] = None
        # Accounting.
        self.admitted_batches = 0
        self.admitted_alerts = 0
        self.admitted_records = 0
        self.rejected_batches = 0
        self.shed_raw_records = 0
        self.shed_low_priority_alerts = 0

    # -- tier selection --------------------------------------------------
    def tier(self, queue_depth: int, connection_depth: int) -> str:
        """The operative tier for the given depths."""
        if self.forced_mode is not None:
            return self.forced_mode
        limits = self.limits
        if (
            queue_depth >= limits.global_capacity
            or connection_depth >= limits.per_connection
        ):
            return "reject"
        if queue_depth >= limits.global_capacity * SHED_LOW_FRACTION:
            return "shed-low"
        if queue_depth >= limits.global_capacity * SHED_RAW_FRACTION:
            return "shed-raw"
        return "admit"

    # -- decisions -------------------------------------------------------
    def admit_alerts(
        self,
        alerts: NormalizedBatch,
        queue_depth: int,
        connection_depth: int,
    ) -> AdmissionOutcome:
        """Decide one pre-normalised alert batch.

        The batch is admitted as it is; ``shed-low`` admits the
        :meth:`~repro.core.alerts.NormalizedBatch.select` of its other
        rows and builds alerts only for the shed ones (their
        dead letters).
        """
        tier = self.tier(queue_depth, connection_depth)
        if tier == "reject":
            self.rejected_batches += 1
            return AdmissionOutcome(False, tier, (), 0, retry_after=RETRY_AFTER)
        admitted = alerts
        shed = 0
        if tier == "shed-low":
            low = self.low_priority_names
            dropped = [row for row, name in enumerate(alerts.names) if name in low]
            if dropped:
                for alert in alerts.select(dropped):
                    self._shed_alert(alert)
                shed = len(dropped)
                admitted = alerts.select(
                    [row for row, name in enumerate(alerts.names) if name not in low]
                )
        self.admitted_batches += 1
        self.admitted_alerts += len(admitted)
        return AdmissionOutcome(True, tier, admitted, shed)

    def admit_raw(
        self,
        records: Sequence[RawLogRecord],
        queue_depth: int,
        connection_depth: int,
    ) -> AdmissionOutcome:
        """Decide one raw monitor-record batch."""
        tier = self.tier(queue_depth, connection_depth)
        if tier == "reject":
            self.rejected_batches += 1
            return AdmissionOutcome(False, tier, (), 0, retry_after=RETRY_AFTER)
        if tier in ("shed-raw", "shed-low"):
            for record in records:
                self._shed_raw(record)
            self.admitted_batches += 1
            return AdmissionOutcome(True, tier, (), len(records))
        self.admitted_batches += 1
        self.admitted_records += len(records)
        return AdmissionOutcome(True, tier, tuple(records), 0)

    # -- shed accounting -------------------------------------------------
    def _shed_alert(self, alert: Alert) -> None:
        self.shed_low_priority_alerts += 1
        if self.ledger is not None:
            self.ledger.dropped_alerts += 1
        if self.dead_letter is not None:
            self.dead_letter.record("shed-low-priority", "alert", alert.to_dict())

    def _shed_raw(self, record: RawLogRecord) -> None:
        self.shed_raw_records += 1
        if self.ledger is not None:
            self.ledger.dropped_raw += 1
        if self.dead_letter is not None:
            self.dead_letter.record("shed-raw", "raw", raw_record_to_dict(record))

    def snapshot(self) -> dict:
        """Counters for the ``stats`` op."""
        return {
            "mode": self.forced_mode or "auto",
            "admitted_batches": self.admitted_batches,
            "admitted_alerts": self.admitted_alerts,
            "admitted_records": self.admitted_records,
            "rejected_batches": self.rejected_batches,
            "shed_raw_records": self.shed_raw_records,
            "shed_low_priority_alerts": self.shed_low_priority_alerts,
        }


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """The service replied with an error."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServiceOverloadedError(ServiceError):
    """An admission ``reject``; carries the server's retry hint."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__("overloaded", message)
        self.retry_after = retry_after


class ServiceClient:
    """Blocking JSONL client with overload retry.

    One request/one reply, in order; ``send_alerts``/``send_raw``
    retry rejected batches with exponential backoff (:func:`retry_delay`,
    at most :data:`MAX_RETRIES` times, never sooner than the server's
    hint): the server sheds or rejects, the client persists, and the
    stream arrives complete and in order once pressure clears -- the
    replay half of the shed-then-replay contract.

    ``send_alert_batches``/``send_raw_batches`` pipeline a stream
    instead: :data:`PIPELINE_DEPTH` request lines in one send, then
    their acks, so batches queue up behind each other at the server
    and its consumer submits them as groups.  They do not retry: a
    rejected line would be overtaken by the lines behind it.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._seq = 0

    # -- plumbing --------------------------------------------------------
    def request(self, payload: Mapping[str, Any]) -> dict:
        """Send one request and return its decoded success reply."""
        return self._checked(self._exchange([payload])[0])

    def _exchange(self, payloads: Sequence[Mapping[str, Any]]) -> List[dict]:
        """Write the requests in one send, then read one reply each."""
        self._seq += len(payloads)
        try:
            self._sock.sendall(b"".join(map(encode_message, payloads)))
            lines = [self._file.readline() for _ in payloads]
        except (ConnectionResetError, BrokenPipeError):
            # A server that closes with a request unread resets the
            # connection instead of ending it cleanly; same outcome.
            lines = [b""]
        replies = []
        for line in lines:
            if not line:
                raise ServiceError("disconnected", "server closed the connection")
            try:
                replies.append(decode_line(line))
            except ProtocolError as exc:
                raise ServiceError("protocol", str(exc)) from exc
        return replies

    @staticmethod
    def _checked(reply: dict) -> dict:
        """``reply`` if it is a success, else its typed error."""
        if reply.get("ok"):
            return reply
        kind = str(reply.get("error", "unknown"))
        message = str(reply.get("message", ""))
        if kind == "overloaded":
            raise ServiceOverloadedError(
                message, float(reply.get("retry_after", 0.0))
            )
        raise ServiceError(kind, message)

    def _request_with_retry(self, payload: Mapping[str, Any]) -> dict:
        attempt = 0
        while True:
            try:
                return self.request(payload)
            except ServiceOverloadedError as exc:
                if attempt >= MAX_RETRIES:
                    raise
                time.sleep(max(exc.retry_after, retry_delay(attempt)))
                attempt += 1

    # -- operations ------------------------------------------------------
    def hello(self) -> dict:
        return self.request({"op": "hello"})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def send_alerts(self, alerts: Sequence[Alert]) -> dict:
        """Ingest one alert batch, retrying through overload."""
        return self._request_with_retry(
            {"op": "batch", "alerts": [alert.to_dict() for alert in alerts]}
        )

    def send_raw(self, records: Sequence[RawLogRecord]) -> dict:
        """Ingest one raw-record batch, retrying through overload."""
        return self._request_with_retry(
            {"op": "raw", "records": [raw_record_to_dict(r) for r in records]}
        )

    def send_alert_batches(self, batches: Iterable[Sequence[Alert]]) -> List[dict]:
        """Ingest alert batches pipelined; return their acks in order."""
        return self._pipelined(
            {"op": "batch", "alerts": [alert.to_dict() for alert in alerts]}
            for alerts in batches
        )

    def send_raw_batches(self, batches: Iterable[Sequence[RawLogRecord]]) -> List[dict]:
        """Ingest raw-record batches pipelined; return their acks in order."""
        return self._pipelined(
            {"op": "raw", "records": [raw_record_to_dict(r) for r in records]}
            for records in batches
        )

    def _pipelined(self, payloads: Iterable[Mapping[str, Any]]) -> List[dict]:
        """:data:`PIPELINE_DEPTH` requests a send, then their replies.

        Every reply of a window is read before the first error is
        raised, so the connection stays in step.
        """
        acks: List[dict] = []
        payloads = iter(payloads)
        while window := list(itertools.islice(payloads, PIPELINE_DEPTH)):
            replies = self._exchange(window)
            acks.extend(map(self._checked, replies))
        return acks

    def control(self, verb: str, entity: str = "") -> dict:
        return self.request({"op": "control", "verb": verb, "entity": entity})

    def reshard(self, n_shards: int) -> dict:
        return self.request({"op": "reshard", "n_shards": int(n_shards)})

    def drain(self) -> dict:
        return self.request({"op": "drain"})

    def checkpoint(self) -> dict:
        return self.request({"op": "checkpoint"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def detections(self, since: int = 0) -> dict:
        return self.request({"op": "detections", "since": int(since)})

    def results(self) -> dict:
        return self.request({"op": "results"})

    def throttle(self, mode: str) -> dict:
        return self.request({"op": "throttle", "mode": mode})

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "TIERS",
    "AdmissionLimits",
    "AdmissionOutcome",
    "AdmissionController",
    "DeadLetterJournal",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClient",
]
