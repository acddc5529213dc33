"""osquery host-monitor model (scheduled query results).

osquery runs at the kernel/host level on testbed machines and is one of
the "well-protected monitors" the defender model relies on.  It reports
rows from scheduled queries; the reproduction models the query packs
the normaliser consumes: ``process_events``, ``file_events``,
``authorized_keys`` changes, ``listening_ports`` and ``kernel_modules``.
Results are rendered as JSON lines, matching osquery's
``--logger_plugin=filesystem`` output shape.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, Optional

from .logsource import LogSource, MonitorKind, RawLogRecord


@dataclasses.dataclass(frozen=True)
class OsqueryResult:
    """One osquery scheduled-query result row."""

    timestamp: float
    host: str
    query_name: str
    action: str
    columns: Mapping[str, Any]

    def render(self) -> str:
        """Render as an osquery results JSON line."""
        payload = {
            "name": self.query_name,
            "hostIdentifier": self.host,
            "unixTime": int(self.timestamp),
            "action": self.action,
            "columns": dict(self.columns),
        }
        return json.dumps(payload, sort_keys=True)

    def to_raw(self) -> RawLogRecord:
        """Wrap into the common raw-record shape."""
        return RawLogRecord(
            timestamp=self.timestamp,
            monitor=MonitorKind.OSQUERY,
            host=self.host,
            message=self.render(),
            fields={"query_name": self.query_name, "action": self.action, **dict(self.columns)},
        )


class OsqueryMonitor(LogSource):
    """Per-host osquery producer with helpers for the relevant query packs."""

    kind = MonitorKind.OSQUERY

    def __init__(self, host: str) -> None:
        super().__init__(host)

    def _result(
        self, timestamp: float, query_name: str, columns: Mapping[str, Any], *, action: str = "added"
    ) -> OsqueryResult:
        result = OsqueryResult(
            timestamp=timestamp,
            host=self.host,
            query_name=query_name,
            action=action,
            columns=dict(columns),
        )
        self.emit(result.to_raw())
        return result

    # -- query-pack helpers ---------------------------------------------------
    def process_event(
        self,
        timestamp: float,
        user: str,
        path: str,
        cmdline: str,
        *,
        parent: str = "bash",
    ) -> OsqueryResult:
        """A process-execution event."""
        return self._result(
            timestamp,
            "process_events",
            {"username": user, "path": path, "cmdline": cmdline, "parent_name": parent},
        )

    def file_event(
        self, timestamp: float, path: str, *, action: str = "CREATED", sha256: str = ""
    ) -> OsqueryResult:
        """A file-integrity-monitoring event."""
        return self._result(
            timestamp,
            "file_events",
            {"target_path": path, "action": action, "sha256": sha256},
        )

    def authorized_keys_change(self, timestamp: float, user: str, key_comment: str) -> OsqueryResult:
        """A new entry appeared in a user's authorized_keys."""
        return self._result(
            timestamp,
            "authorized_keys",
            {"username": user, "key_comment": key_comment},
        )

    def listening_port(self, timestamp: float, port: int, process: str) -> OsqueryResult:
        """A new listening socket appeared."""
        return self._result(
            timestamp,
            "listening_ports",
            {"port": port, "process_name": process},
        )

    def kernel_module(self, timestamp: float, module: str) -> OsqueryResult:
        """A kernel module was loaded."""
        return self._result(timestamp, "kernel_modules", {"name": module})

    def outbound_connection(
        self, timestamp: float, process: str, remote_address: str, remote_port: int
    ) -> OsqueryResult:
        """An outbound socket was opened by a local process."""
        return self._result(
            timestamp,
            "process_open_sockets",
            {"process_name": process, "remote_address": remote_address, "remote_port": remote_port},
        )


__all__ = ["OsqueryResult", "OsqueryMonitor"]
