"""JSONL wire protocol for the always-on detection service.

The service speaks newline-delimited JSON over a plain TCP socket: each
request is one JSON object on one line, each reply is one JSON object
on the next line, strictly request/reply in order per connection.  The
framing is deliberately primitive -- any language's socket + JSON
libraries are a complete client -- and deterministic: messages are
encoded with sorted keys and compact separators, so identical payloads
are identical bytes.

Requests carry an ``op`` plus op-specific fields:

=============  ====================================================
``hello``      Service identity / shard shape handshake.
``ping``       Liveness probe.
``batch``      ``alerts``: pre-normalised alert dicts to ingest.
``raw``        ``records``: raw monitor-record dicts to ingest.
``control``    ``verb`` (``reset_entity``/``reset``/``reopen``) and
               optional ``entity`` -- the pipeline's detector
               controls, applied at this position in the stream.
``reshard``    ``n_shards``: live N->M reshard; replies when done.
``drain``      Barrier: replies once everything enqueued before it
               has been fully processed.
``checkpoint`` Barrier + durable checkpoint; replies with the path.
``stats``      Service / pipeline / latency counters snapshot.
``detections`` ``since``: primary-detector detections from index.
``results``    The full bit-identity surface (detections, log,
               notifications, actions, compared counters).
``throttle``   ``mode``: force an admission tier (testing/ops).
=============  ====================================================

Replies are ``{"ok": true, "seq": n, ...}`` or ``{"ok": false,
"seq": n, "error": kind, "message": str}`` (overload rejections add
``retry_after`` seconds).  ``seq`` echoes the 1-based position of the
request on its connection.

This module also owns the JSON serialisers for the pipeline's value
types (alerts, raw records, detections, notifications, response
records): the service and its offline reference serialise through the
same functions, so "bit-identical over the socket" is checkable as
plain ``==`` on the decoded structures.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping, Optional, Sequence, Tuple

from ..core.alerts import Alert
from ..core.attack_tagger import Detection, HiddenState
from ..telemetry.logsource import MonitorKind, RawLogRecord
from ..testbed.responder import OperatorNotification, ResponseAction, ResponseRecord

#: Protocol revision, reported by ``hello`` and checked by clients.
PROTOCOL_VERSION = 1

#: Every operation the server accepts.
OPS = (
    "hello",
    "ping",
    "batch",
    "raw",
    "control",
    "reshard",
    "drain",
    "checkpoint",
    "stats",
    "detections",
    "results",
    "throttle",
)

#: Detector-control verbs the ``control`` op accepts.
CONTROL_VERBS = ("reset_entity", "reset", "reopen")

#: Admission modes the ``throttle`` op accepts (``open`` releases).
THROTTLE_MODES = ("open", "shed-raw", "shed-low", "reject")

#: Hard bound on one request line; longer lines are a protocol error.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed request line / unknown op / bad field."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_message(payload: Mapping[str, Any]) -> bytes:
    """One JSONL frame: compact, key-sorted JSON plus the newline."""
    return (
        json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one received line into a JSON object (dict)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"expected a JSON object, got {type(data).__name__}")
    return data


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Request:
    """A parsed, validated client request."""

    op: str
    alerts: Tuple[Alert, ...] = ()
    records: Tuple[RawLogRecord, ...] = ()
    verb: str = ""
    entity: str = ""
    n_shards: int = 0
    since: int = 0
    mode: str = ""


def parse_request(data: Mapping[str, Any]) -> Request:
    """Validate a decoded request object into a :class:`Request`."""
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")
    try:
        if op == "batch":
            alerts = data.get("alerts")
            if not isinstance(alerts, list):
                raise ProtocolError("batch needs an 'alerts' list")
            return Request(op=op, alerts=tuple([Alert.from_dict(a) for a in alerts]))
        if op == "raw":
            records = data.get("records")
            if not isinstance(records, list):
                raise ProtocolError("raw needs a 'records' list")
            return Request(
                op=op, records=tuple([raw_record_from_dict(r) for r in records])
            )
        if op == "control":
            verb = data.get("verb")
            if verb not in CONTROL_VERBS:
                raise ProtocolError(f"unknown control verb {verb!r}")
            entity = str(data.get("entity", ""))
            if verb == "reset_entity" and not entity:
                raise ProtocolError("reset_entity needs an 'entity'")
            return Request(op=op, verb=verb, entity=entity)
        if op == "reshard":
            count = int(data.get("n_shards", 0))
            if count < 1:
                raise ProtocolError("reshard needs n_shards >= 1")
            return Request(op=op, n_shards=count)
        if op == "detections":
            return Request(op=op, since=max(0, int(data.get("since", 0))))
        if op == "throttle":
            mode = data.get("mode")
            if mode not in THROTTLE_MODES:
                raise ProtocolError(f"unknown throttle mode {mode!r}")
            return Request(op=op, mode=mode)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {op} request: {exc}") from exc
    return Request(op=op)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def ok_response(result: Mapping[str, Any], seq: int) -> dict:
    """A success reply: the result fields plus ``ok``/``seq``."""
    payload = dict(result)
    payload["ok"] = True
    payload["seq"] = seq
    return payload


def error_response(
    kind: str, message: str, seq: int, *, retry_after: Optional[float] = None
) -> dict:
    """A failure reply; ``overloaded`` rejections carry ``retry_after``."""
    payload: dict[str, Any] = {
        "ok": False,
        "seq": seq,
        "error": kind,
        "message": message,
    }
    if retry_after is not None:
        payload["retry_after"] = float(retry_after)
    return payload


# ----------------------------------------------------------------------
# Value-type serialisers (shared by server, client, and offline oracle)
# ----------------------------------------------------------------------
def raw_record_to_dict(record: RawLogRecord) -> dict:
    """JSON form of a raw monitor record (enum carried by value)."""
    return {
        "timestamp": record.timestamp,
        "monitor": record.monitor.value,
        "host": record.host,
        "message": record.message,
        "fields": dict(record.fields),
    }


#: ``MonitorKind`` members by wire value: a dict hit instead of a trip
#: through ``enum.__call__`` for every record.
_MONITOR_BY_VALUE = {kind.value: kind for kind in MonitorKind}


def raw_record_from_dict(data: Mapping[str, Any]) -> RawLogRecord:
    """Inverse of :func:`raw_record_to_dict`.

    A non-finite ``timestamp`` (``json.loads`` accepts ``NaN`` and
    ``Infinity``) or a ``fields`` value that is not an object is a
    :class:`ProtocolError`; so is an unknown ``monitor``, through the
    enum's own ``ValueError``.
    """
    timestamp = float(data["timestamp"])
    fields = data.get("fields", {})
    if not math.isfinite(timestamp):
        raise ProtocolError(f"non-finite timestamp {timestamp!r}")
    if not isinstance(fields, dict):
        raise ProtocolError("'fields' must be an object")
    monitor = str(data["monitor"])
    return RawLogRecord(
        timestamp,
        _MONITOR_BY_VALUE.get(monitor) or MonitorKind(monitor),
        str(data["host"]),
        str(data.get("message", "")),
        dict(fields),
    )


def detection_to_dict(detection: Detection) -> dict:
    """JSON form of a detection; every field, tuples as lists."""
    return {
        "entity": detection.entity,
        "timestamp": detection.timestamp,
        "alert_index": detection.alert_index,
        "trigger": detection.trigger.to_dict(),
        "state": int(detection.state),
        "confidence": detection.confidence,
        "matched_patterns": list(detection.matched_patterns),
        "state_trajectory": list(detection.state_trajectory),
    }


def detection_from_dict(data: Mapping[str, Any]) -> Detection:
    """Inverse of :func:`detection_to_dict`."""
    return Detection(
        entity=str(data["entity"]),
        timestamp=float(data["timestamp"]),
        alert_index=int(data["alert_index"]),
        trigger=Alert.from_dict(data["trigger"]),
        state=HiddenState(int(data["state"])),
        confidence=float(data["confidence"]),
        matched_patterns=tuple(data.get("matched_patterns", ())),
        state_trajectory=tuple(int(s) for s in data.get("state_trajectory", ())),
    )


def notification_to_dict(notification: OperatorNotification) -> dict:
    """JSON form of an operator notification."""
    return {
        "timestamp": notification.timestamp,
        "entity": notification.entity,
        "summary": notification.summary,
        "severity": notification.severity,
        "detection": detection_to_dict(notification.detection),
    }


def response_record_to_dict(record: ResponseRecord) -> dict:
    """JSON form of a response record (action enum by value)."""
    return {
        "timestamp": record.timestamp,
        "action": record.action.value,
        "target": record.target,
        "detail": record.detail,
    }


def serialize_results(
    detections: Sequence[Detection],
    detection_log: Sequence[Tuple[str, Detection]],
    notifications: Sequence[OperatorNotification],
    actions: Sequence[ResponseRecord],
    counters: Mapping[str, float],
) -> dict:
    """The full bit-identity surface, in its canonical JSON shape.

    Both the live service (``results`` op) and the offline reference
    replay are serialised through this one function, so a socket run
    and its offline reference can be compared with plain ``==`` after a
    JSON round-trip (floats round-trip exactly; ``inf`` survives via
    the JSON ``Infinity`` literal both Python codecs accept).
    """
    return {
        "detections": [detection_to_dict(d) for d in detections],
        "detection_log": [[name, detection_to_dict(d)] for name, d in detection_log],
        "notifications": [notification_to_dict(n) for n in notifications],
        "actions": [response_record_to_dict(r) for r in actions],
        "counters": dict(counters),
    }


__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "CONTROL_VERBS",
    "THROTTLE_MODES",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode_message",
    "decode_line",
    "Request",
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
]
