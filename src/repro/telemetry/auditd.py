"""auditd system-call audit log model.

The incident archive includes audit logs of system calls generated by
``auditd``.  The reproduction models the two record types the
normaliser and the ransomware case study rely on: ``SYSCALL`` records
(execve, open, chmod) and ``EXECVE`` argument records, in the familiar
``type=... msg=audit(ts:serial): key=value ...`` wire format.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from .logsource import LogSource, MonitorKind, RawLogRecord

@dataclasses.dataclass(frozen=True)
class AuditRecord:
    """One auditd record."""

    timestamp: float
    serial: int
    record_type: str
    fields: Mapping[str, str]
    host: str = "localhost"

    def render(self) -> str:
        """Render in auditd's wire format."""
        body = " ".join(
            f'{key}="{value}"' if " " in str(value) else f"{key}={value}"
            for key, value in self.fields.items()
        )
        return f"type={self.record_type} msg=audit({self.timestamp:.3f}:{self.serial}): {body}"

    def to_raw(self) -> RawLogRecord:
        """Wrap into the common raw-record shape."""
        return RawLogRecord(
            timestamp=self.timestamp,
            monitor=MonitorKind.AUDITD,
            host=self.host,
            message=self.render(),
            fields={"record_type": self.record_type, **dict(self.fields)},
        )


class AuditdMonitor(LogSource):
    """Per-host auditd producer with helpers for the interesting syscalls."""

    kind = MonitorKind.AUDITD

    def __init__(self, host: str) -> None:
        super().__init__(host)
        self._serial = 0

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    def _record(self, timestamp: float, record_type: str, fields: Mapping[str, str]) -> AuditRecord:
        record = AuditRecord(
            timestamp=timestamp,
            serial=self._next_serial(),
            record_type=record_type,
            fields=dict(fields),
            host=self.host,
        )
        self.emit(record.to_raw())
        return record

    # -- helpers -----------------------------------------------------------
    def execve(
        self,
        timestamp: float,
        user: str,
        executable: str,
        args: str = "",
        *,
        uid: int = 1000,
        euid: Optional[int] = None,
        success: bool = True,
    ) -> AuditRecord:
        """Record a process execution."""
        return self._record(
            timestamp,
            "SYSCALL",
            {
                "syscall": "execve",
                "success": "yes" if success else "no",
                "exe": executable,
                "a0": args,
                "auid": str(uid),
                "uid": str(uid),
                "euid": str(uid if euid is None else euid),
                "acct": user,
            },
        )

    def file_write(self, timestamp: float, user: str, path: str, *, uid: int = 1000) -> AuditRecord:
        """Record a file creation / write."""
        return self._record(
            timestamp,
            "SYSCALL",
            {"syscall": "openat", "success": "yes", "name": path, "acct": user, "uid": str(uid)},
        )

    def chmod(self, timestamp: float, user: str, path: str, mode: str) -> AuditRecord:
        """Record a permission change (e.g. chmod 400 on a stolen key)."""
        return self._record(
            timestamp,
            "SYSCALL",
            {"syscall": "fchmodat", "success": "yes", "name": path, "mode": mode, "acct": user},
        )

    def setuid_transition(self, timestamp: float, user: str, *, from_uid: int = 1000) -> AuditRecord:
        """Record a transition to uid 0 (privilege escalation)."""
        return self._record(
            timestamp,
            "SYSCALL",
            {"syscall": "setuid", "success": "yes", "auid": str(from_uid), "uid": "0", "acct": user},
        )

    def module_load(self, timestamp: float, user: str, module: str) -> AuditRecord:
        """Record a kernel module load."""
        return self._record(
            timestamp,
            "SYSCALL",
            {"syscall": "init_module", "success": "yes", "name": module, "acct": user},
        )


__all__ = ["AuditRecord", "AuditdMonitor"]
