"""rsyslog-style host log model (sshd, sudo, cron, shell activity).

NCSA's hosts ship their system logs through rsyslog; the paper's
preprocessing example -- ``23:15:22 [internal-host] wget
64.215.xxx.yyy/abs.c (200 "OK") [7036]`` -- is exactly the kind of line
this module renders.  The model covers the message families
the normaliser needs: SSH authentication, sudo invocations, process
execution (wget / gcc / insmod and friends), and log-truncation events.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt

from .logsource import LogSource, MonitorKind, RawLogRecord

@dataclasses.dataclass(frozen=True)
class SyslogMessage:
    """One rsyslog message."""

    timestamp: float
    host: str
    program: str
    pid: int
    body: str

    def render(self) -> str:
        """Render in the classic RFC 3164 textual form."""
        stamp = _dt.datetime.fromtimestamp(self.timestamp, tz=_dt.timezone.utc)
        return f"{stamp:%b %e %H:%M:%S} {self.host} {self.program}[{self.pid}]: {self.body}"

    def to_raw(self) -> RawLogRecord:
        """Wrap into the common raw-record shape."""
        return RawLogRecord(
            timestamp=self.timestamp,
            monitor=MonitorKind.SYSLOG,
            host=self.host,
            message=self.render(),
            fields={"program": self.program, "pid": self.pid, "body": self.body},
        )


class SyslogMonitor(LogSource):
    """Host-side syslog producer with helpers for the common messages."""

    kind = MonitorKind.SYSLOG

    def __init__(self, host: str) -> None:
        super().__init__(host)
        self._pid = 1000

    def _next_pid(self) -> int:
        self._pid += 1
        return self._pid

    def _log(self, timestamp: float, program: str, body: str) -> SyslogMessage:
        message = SyslogMessage(
            timestamp=timestamp,
            host=self.host,
            program=program,
            pid=self._next_pid(),
            body=body,
        )
        self.emit(message.to_raw())
        return message

    # -- authentication ----------------------------------------------------
    def sshd_accepted(
        self, timestamp: float, user: str, source_ip: str, *, method: str = "password"
    ) -> SyslogMessage:
        """Successful SSH login."""
        return self._log(
            timestamp,
            "sshd",
            f"Accepted {method} for {user} from {source_ip} port 51234 ssh2",
        )

    def sshd_failed(self, timestamp: float, user: str, source_ip: str) -> SyslogMessage:
        """Failed SSH login attempt."""
        return self._log(
            timestamp,
            "sshd",
            f"Failed password for {user} from {source_ip} port 51234 ssh2",
        )

    def sudo_command(
        self, timestamp: float, user: str, command: str, *, target_user: str = "root"
    ) -> SyslogMessage:
        """sudo invocation."""
        return self._log(
            timestamp,
            "sudo",
            f"{user} : TTY=pts/0 ; PWD=/home/{user} ; USER={target_user} ; COMMAND={command}",
        )

    # -- process activity ------------------------------------------------------
    def command_executed(
        self, timestamp: float, user: str, command: str, *, exit_status: int = 0
    ) -> SyslogMessage:
        """Generic command-execution record (shell audit / process acct)."""
        return self._log(
            timestamp,
            "bash",
            f"user={user} cmd=\"{command}\" status={exit_status}",
        )

    def wget_download(
        self, timestamp: float, user: str, url: str, *, status: str = "200 \"OK\"", size: int = 7036
    ) -> SyslogMessage:
        """The paper's canonical raw example: a wget download of a source file."""
        return self._log(timestamp, "wget", f"user={user} {url} ({status}) [{size}]")

    def cron_job(self, timestamp: float, user: str, command: str) -> SyslogMessage:
        """Cron job execution."""
        return self._log(timestamp, "CRON", f"({user}) CMD ({command})")

    def log_truncated(self, timestamp: float, path: str) -> SyslogMessage:
        """A log file was truncated to zero bytes (anti-forensics)."""
        return self._log(timestamp, "kernel", f"audit: file {path} truncated to 0 bytes")


__all__ = ["SyslogMessage", "SyslogMonitor"]
