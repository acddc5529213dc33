"""Zeek network-security-monitor log model (conn.log and notice.log).

NCSA runs a Zeek cluster as its primary network monitor; the paper's
Fig. 1 is built from Zeek connection records and the black-hole
router's scan records, and the 25 M alert figure of Table I counts Zeek
notice-log entries.  This module models the two Zeek streams the
reproduction needs:

* :class:`ConnRecord` -- one entry of ``conn.log`` (a network flow),
  with TSV rendering and parsing compatible with Zeek's column layout
  for the fields we use,
* :class:`NoticeRecord` -- one entry of ``notice.log`` (a policy-raised
  notice, rendered as TSV), the precursor of most symbolic alerts.

Both integrate with :class:`repro.telemetry.logsource.LogSource` so the
pipeline can treat every monitor uniformly.
"""

from __future__ import annotations

import dataclasses

from .logsource import LogSource, MonitorKind, RawLogRecord

#: Column order used for conn.log TSV rendering (a subset of Zeek's).
CONN_COLUMNS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "service",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "conn_state",
)

@dataclasses.dataclass(frozen=True)
class ConnRecord:
    """One Zeek connection (flow) record."""

    ts: float
    uid: str
    orig_h: str
    orig_p: int
    resp_h: str
    resp_p: int
    proto: str = "tcp"
    service: str = "-"
    duration: float = 0.0
    orig_bytes: int = 0
    resp_bytes: int = 0
    conn_state: str = "S0"

    def to_tsv(self) -> str:
        """Render as a Zeek-style TSV line."""
        values = (
            f"{self.ts:.6f}",
            self.uid,
            self.orig_h,
            str(self.orig_p),
            self.resp_h,
            str(self.resp_p),
            self.proto,
            self.service,
            f"{self.duration:.6f}",
            str(self.orig_bytes),
            str(self.resp_bytes),
            self.conn_state,
        )
        return "\t".join(values)

    @classmethod
    def from_tsv(cls, line: str) -> "ConnRecord":
        """Parse a TSV line produced by :meth:`to_tsv`."""
        parts = line.rstrip("\n").split("\t")
        if len(parts) != len(CONN_COLUMNS):
            raise ValueError(f"malformed conn.log line ({len(parts)} columns): {line!r}")
        return cls(
            ts=float(parts[0]),
            uid=parts[1],
            orig_h=parts[2],
            orig_p=int(parts[3]),
            resp_h=parts[4],
            resp_p=int(parts[5]),
            proto=parts[6],
            service=parts[7],
            duration=float(parts[8]),
            orig_bytes=int(parts[9]),
            resp_bytes=int(parts[10]),
            conn_state=parts[11],
        )

    def to_raw(self, host: str = "zeek-manager") -> RawLogRecord:
        """Wrap into the common raw-record shape."""
        return RawLogRecord(
            timestamp=self.ts,
            monitor=MonitorKind.ZEEK,
            host=host,
            message=self.to_tsv(),
            fields={
                "stream": "conn",
                "orig_h": self.orig_h,
                "resp_h": self.resp_h,
                "resp_p": self.resp_p,
                "service": self.service,
                "conn_state": self.conn_state,
                "orig_bytes": self.orig_bytes,
                "resp_bytes": self.resp_bytes,
            },
        )


@dataclasses.dataclass(frozen=True)
class NoticeRecord:
    """One Zeek notice.log record (a policy-raised notice)."""

    ts: float
    note: str
    msg: str
    orig_h: str = "-"
    resp_h: str = "-"
    uid: str = "-"
    src: str = "-"
    dst: str = "-"
    port: int = 0
    actions: str = "Notice::ACTION_LOG"

    def to_tsv(self) -> str:
        """Render as a Zeek-style TSV line."""
        values = (
            f"{self.ts:.6f}",
            self.uid,
            self.orig_h,
            self.resp_h,
            self.note,
            self.msg,
            self.src,
            self.dst,
            str(self.port),
            self.actions,
        )
        return "\t".join(values)

    def to_raw(self, host: str = "zeek-manager") -> RawLogRecord:
        """Wrap into the common raw-record shape."""
        return RawLogRecord(
            timestamp=self.ts,
            monitor=MonitorKind.ZEEK,
            host=host,
            message=self.to_tsv(),
            fields={
                "stream": "notice",
                "note": self.note,
                "msg": self.msg,
                "orig_h": self.orig_h,
                "resp_h": self.resp_h,
                "port": self.port,
            },
        )


class ZeekMonitor(LogSource):
    """A Zeek cluster node: buffers conn and notice records."""

    kind = MonitorKind.ZEEK

    def __init__(self, host: str = "zeek-manager") -> None:
        super().__init__(host)
        self._uid_counter = 0

    def _next_uid(self) -> str:
        self._uid_counter += 1
        return f"C{self._uid_counter:08d}"

    # -- conn.log ----------------------------------------------------------
    def record_connection(
        self,
        ts: float,
        orig_h: str,
        orig_p: int,
        resp_h: str,
        resp_p: int,
        *,
        proto: str = "tcp",
        service: str = "-",
        duration: float = 0.0,
        orig_bytes: int = 0,
        resp_bytes: int = 0,
        conn_state: str = "SF",
    ) -> ConnRecord:
        """Record one network flow and return the conn record."""
        record = ConnRecord(
            ts=ts,
            uid=self._next_uid(),
            orig_h=orig_h,
            orig_p=orig_p,
            resp_h=resp_h,
            resp_p=resp_p,
            proto=proto,
            service=service,
            duration=duration,
            orig_bytes=orig_bytes,
            resp_bytes=resp_bytes,
            conn_state=conn_state,
        )
        self.emit(record.to_raw(self.host))
        return record

    # -- notice.log -----------------------------------------------------------
    def raise_notice(
        self,
        ts: float,
        note: str,
        msg: str,
        *,
        orig_h: str = "-",
        resp_h: str = "-",
        port: int = 0,
    ) -> NoticeRecord:
        """Raise a Zeek notice and return the notice record."""
        record = NoticeRecord(
            ts=ts,
            uid=self._next_uid(),
            note=note,
            msg=msg,
            orig_h=orig_h,
            resp_h=resp_h,
            src=orig_h,
            dst=resp_h,
            port=port,
        )
        self.emit(record.to_raw(self.host))
        return record

    # -- views -------------------------------------------------------------------
    def conn_records(self) -> list[ConnRecord]:
        """All connection records recorded so far."""
        return [ConnRecord.from_tsv(r.message) for r in self if r.field("stream") == "conn"]


__all__ = [
    "CONN_COLUMNS",
    "ConnRecord",
    "NoticeRecord",
    "ZeekMonitor",
]
