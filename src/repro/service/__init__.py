"""The always-on detection service: asyncio ingestion over JSONL/TCP.

This package turns the batch-oriented :class:`~repro.testbed.pipeline
.TestbedPipeline` into a long-running network service with the three
robustness properties an operator cares about:

* **Admission control & backpressure** (:mod:`repro.service.admission`)
  -- bounded global and per-connection queues, tiered load shedding
  (shed-raw -> shed-low-priority -> reject) charged to the pipeline's
  one drop ledger (``PipelineStats.dropped_raw`` / ``dropped_alerts``)
  and a replayable dead-letter journal, and a client with
  deterministic retry/backoff.  Only the two queue bounds are
  settable; the shed thresholds and the retry schedule are constants.
* **Live resharding** (the ``reshard`` op) -- N->M shard transitions
  of the running detector pools with per-entity state migration,
  quiesced at a batch boundary, bit-identical outputs; the count is
  bounded to [1, 64] at the protocol edge.
* **Graceful degradation & lifecycle** (:mod:`repro.service.server`)
  -- shard workers healed within a per-shard restart budget of
  ``SERVICE_MAX_RESTARTS``, failures beyond it contained to the batch
  that hit them, periodic and SIGTERM-triggered drain-then-checkpoint,
  stats with per-stage latency percentiles.

Wire protocol and serialisers live in :mod:`repro.service.protocol`.
The CI socket bit-identity gate (``python -m repro.service --smoke``)
is the smoke rows of :mod:`repro.fuzz.chaos`; the service itself
imports nothing of :mod:`repro.fuzz`.
"""

from .admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionOutcome,
    DeadLetterJournal,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    TIERS,
)
from .protocol import (
    CONTROL_VERBS,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    SERVICE_MAX_RESTARTS,
    THROTTLE_MODES,
    decode_line,
    detection_from_dict,
    detection_to_dict,
    encode_message,
    error_response,
    notification_to_dict,
    ok_response,
    parse_request,
    raw_record_from_dict,
    raw_record_to_dict,
    response_record_to_dict,
    serialize_results,
)
from .server import (
    DetectionService,
    ServiceConfig,
    ServiceHandle,
    percentile_summary,
    start_service_in_thread,
)

__all__ = [
    # protocol
    "PROTOCOL_VERSION",
    "OPS",
    "CONTROL_VERBS",
    "THROTTLE_MODES",
    "MAX_LINE_BYTES",
    "SERVICE_MAX_RESTARTS",
    "ProtocolError",
    "Request",
    "encode_message",
    "decode_line",
    "parse_request",
    "ok_response",
    "error_response",
    "raw_record_to_dict",
    "raw_record_from_dict",
    "detection_to_dict",
    "detection_from_dict",
    "notification_to_dict",
    "response_record_to_dict",
    "serialize_results",
    # admission
    "TIERS",
    "AdmissionLimits",
    "AdmissionOutcome",
    "AdmissionController",
    "DeadLetterJournal",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClient",
    # server
    "ServiceConfig",
    "DetectionService",
    "ServiceHandle",
    "start_service_in_thread",
    "percentile_summary",
]
