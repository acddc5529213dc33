"""Vulnerable service models hosted in the honeypot.

The honeypot's bait is a set of deliberately vulnerable services --
chiefly a semi-open PostgreSQL database whose credentials are
"accidentally" published, plus an SSH service that scanners probe.
The services are modelled as small state machines that accept attacker
actions (connection attempts, queries, command execution) and emit the
corresponding monitor records through the host's Zeek / syslog /
auditd / osquery monitors, which is how attacker behaviour becomes
visible to the detection pipeline.

The PostgreSQL model implements exactly the primitives the ransomware
case study uses: version reconnaissance (``SHOW server_version_num``),
``largeobject`` staging of an ELF payload (hex ``7F454C46...``), and
``lo_export``-style file drops to ``/tmp``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..telemetry.auditd import AuditdMonitor
from ..telemetry.osquery import OsqueryMonitor
from ..telemetry.syslog import SyslogMonitor
from ..telemetry.zeek import ZeekMonitor

#: Magic number of an ELF executable, as it appears in the staged payload.
ELF_MAGIC_HEX = "7f454c46"


class ServiceState(enum.Enum):
    """Lifecycle state of a vulnerable service instance."""

    RUNNING = "running"
    COMPROMISED = "compromised"


@dataclasses.dataclass
class ServiceMonitors:
    """The per-host monitor bundle a service reports through."""

    zeek: ZeekMonitor
    syslog: SyslogMonitor
    auditd: AuditdMonitor
    osquery: OsqueryMonitor

    @classmethod
    def for_host(cls, host: str, *, zeek: Optional[ZeekMonitor] = None) -> "ServiceMonitors":
        """Build a monitor bundle for ``host`` (sharing a Zeek cluster if given)."""
        return cls(
            zeek=zeek or ZeekMonitor(),
            syslog=SyslogMonitor(host),
            auditd=AuditdMonitor(host),
            osquery=OsqueryMonitor(host),
        )


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Result of a database query issued by an attacker or a user."""

    ok: bool
    rows: tuple[str, ...] = ()
    error: str = ""


class VulnerableService:
    """Base class for honeypot services."""

    def __init__(self, host: str, address: str, port: int, monitors: ServiceMonitors) -> None:
        self.host = host
        self.address = address
        self.port = port
        self.monitors = monitors
        self.state = ServiceState.RUNNING
        self.connections = 0

    def record_probe(self, ts: float, source_ip: str) -> None:
        """An unauthenticated probe (half-open connection) hit the service."""
        self.monitors.zeek.record_connection(
            ts, source_ip, 54321, self.address, self.port, conn_state="S0", service=self.name
        )

    @property
    def name(self) -> str:
        """Service protocol name used in Zeek's service column."""
        raise NotImplementedError


class PostgresHoneypotService(VulnerableService):
    """Semi-open PostgreSQL instance with advertised default credentials."""

    def __init__(
        self,
        host: str,
        address: str,
        monitors: ServiceMonitors,
        *,
        port: int = 5432,
        advertised_credentials: tuple[str, str] = ("postgres", "postgres"),
        server_version_num: str = "90624",
    ) -> None:
        super().__init__(host, address, port, monitors)
        self.advertised_credentials = advertised_credentials
        self.server_version_num = server_version_num
        self.large_objects: dict[int, str] = {}
        self.exported_files: list[str] = []
        self.authenticated_sessions: list[str] = []

    @property
    def name(self) -> str:
        return "postgresql"

    # -- attacker-visible primitives ------------------------------------------
    def login(self, ts: float, source_ip: str, user: str, password: str) -> bool:
        """Attempt to authenticate; default credentials always succeed."""
        self.connections += 1
        self.monitors.zeek.record_connection(
            ts, source_ip, 40000 + self.connections, self.address, self.port,
            service=self.name, conn_state="SF", duration=1.2, orig_bytes=320, resp_bytes=1480,
        )
        if (user, password) == self.advertised_credentials:
            self.authenticated_sessions.append(source_ip)
            self.monitors.zeek.raise_notice(
                ts, "DB::Default_Credential",
                f"default credential login user={user}", orig_h=source_ip,
                resp_h=self.address, port=self.port,
            )
            self.state = ServiceState.COMPROMISED
            return True
        self.monitors.syslog.sshd_failed(ts, user, source_ip)
        return False

    def query(self, ts: float, source_ip: str, sql: str) -> QueryResult:
        """Execute a SQL statement issued by an authenticated session."""
        if source_ip not in self.authenticated_sessions:
            return QueryResult(ok=False, error="not authenticated")
        sql_lower = sql.strip().lower()
        if sql_lower.startswith("show server_version_num"):
            self.monitors.zeek.raise_notice(
                ts, "DB::Version_Probe", "SHOW server_version_num",
                orig_h=source_ip, resp_h=self.address, port=self.port,
            )
            return QueryResult(ok=True, rows=(self.server_version_num,))
        if "lo_create" in sql_lower or "lowrite" in sql_lower or "largeobject" in sql_lower:
            object_id = len(self.large_objects) + 16384
            payload_hex = sql.split("'")[-2] if "'" in sql else ""
            self.large_objects[object_id] = payload_hex
            if payload_hex.lower().startswith(ELF_MAGIC_HEX):
                self.monitors.zeek.raise_notice(
                    ts, "DB::LargeObject_Payload",
                    "ELF magic in largeobject write", orig_h=source_ip,
                    resp_h=self.address, port=self.port,
                )
            return QueryResult(ok=True, rows=(str(object_id),))
        if "lo_export" in sql_lower or "io_export" in sql_lower:
            path = sql.split("'")[-2] if "'" in sql else "/tmp/kp"
            self.exported_files.append(path)
            self.monitors.zeek.raise_notice(
                ts, "DB::File_Export", f"largeobject exported to {path}",
                orig_h=source_ip, resp_h=self.address, port=self.port,
            )
            self.monitors.osquery.file_event(ts, path, action="CREATED", sha256="e7945e" + "0" * 58)
            self.monitors.auditd.file_write(ts, "postgres", path)
            return QueryResult(ok=True, rows=(path,))
        if sql_lower.startswith(("drop table", "truncate")):
            self.monitors.zeek.raise_notice(
                ts, "DB::Drop_Burst", "bulk table drop", orig_h=source_ip,
                resp_h=self.address, port=self.port,
            )
            return QueryResult(ok=True)
        if sql_lower.startswith(("select", "insert", "update", "create")):
            return QueryResult(ok=True, rows=("ok",))
        return QueryResult(ok=False, error=f"unsupported statement: {sql[:40]}")

    def execute_exported_payload(self, ts: float, path: str = "/tmp/kp") -> None:
        """The dropped payload is executed on the database host."""
        self.monitors.auditd.execve(ts, "postgres", path, success=True)
        self.monitors.osquery.process_event(ts, "postgres", path, f"{path} --daemon")


class SSHHoneypotService(VulnerableService):
    """SSH service of an entry point: it records the probes that reach it."""

    def __init__(
        self,
        host: str,
        address: str,
        monitors: ServiceMonitors,
        *,
        port: int = 22,
    ) -> None:
        super().__init__(host, address, port, monitors)

    @property
    def name(self) -> str:
        return "ssh"


__all__ = [
    "ELF_MAGIC_HEX",
    "ServiceState",
    "ServiceMonitors",
    "QueryResult",
    "VulnerableService",
    "PostgresHoneypotService",
    "SSHHoneypotService",
]
