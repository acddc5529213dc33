"""Raw-log-to-symbolic-alert normalisation.

This is the paper's data pre-processing step: "each log message is
assigned a symbolic name indicating the attacker's intention", specific
information is sanitised, the timestamp is kept, and metadata recording
the log's origin (source IP, hostname) is attached.  The canonical
example from the paper::

    23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036]
        ->  alert_download_sensitive
            {host: internal-host, source-ip: 64.215.xxx.yyy}

The normaliser is a rule table keyed by monitor family.  Each rule
inspects a :class:`RawLogRecord` and either produces a symbolic alert
name plus metadata, or passes.  Records no rule matches are dropped
(they remain in the raw archive but produce no alert).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Callable, Iterable, Optional, Sequence

from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from .logsource import MonitorKind, RawLogRecord
from .sanitizer import Sanitizer

#: Zeek notice names -> symbolic alert names.  Covers both stock Zeek
#: policies and the NCSA-specific notices the paper mentions (including
#: the new lateral-movement notices added after the ransomware case).
ZEEK_NOTICE_MAP: dict[str, str] = {
    "Scan::Port_Scan": "alert_port_scan",
    "Scan::Address_Scan": "alert_address_sweep",
    "Scan::Vuln_Scan": "alert_vuln_scan",
    "SSH::Password_Guessing": "alert_bruteforce_ssh",
    "SSH::Login_Unusual_Hour": "alert_login_unusual_hour",
    "SSH::Login_New_Origin": "alert_login_new_origin",
    "SSH::Stolen_Credential": "alert_login_stolen_credential",
    "SSH::Outbound_Scanning": "alert_ssh_scanning_outbound",
    "SSH::Lateral_Batch": "alert_lateral_ssh_batch",
    "HTTP::Sensitive_Download": "alert_download_sensitive",
    "HTTP::Exploit_Kit_Download": "alert_download_exploit_kit",
    "HTTP::Second_Stage_Download": "alert_download_second_stage",
    "HTTP::PII_Outbound": "alert_pii_in_http",
    "Exfil::Bulk_Upload": "alert_data_exfiltration",
    "Exfil::Credential_Upload": "alert_credential_dump_upload",
    "C2::Beacon": "alert_outbound_c2",
    "C2::IRC": "alert_irc_connection",
    "C2::DNS_Tunnel": "alert_dns_tunnel",
    "C2::ICMP_Tunnel": "alert_icmp_tunnel",
    "DB::Port_Probe": "alert_db_port_probe",
    "DB::Default_Credential": "alert_db_default_password_login",
    "DB::Version_Probe": "alert_service_version_probe",
    "DB::LargeObject_Payload": "alert_db_largeobject_payload",
    "DB::File_Export": "alert_db_file_export",
    "DB::Drop_Burst": "alert_db_table_drop_burst",
    "RCE::Exploit": "alert_remote_code_execution",
    "Auth::Ghost_Account": "alert_ghost_account_login",
    "Auth::Failure_Burst": "alert_login_failure_burst",
    "Mining::Cryptominer": "alert_cryptomining",
}

#: Known command-and-control / payload-distribution networks used by the
#: emulated ransomware family (see the case-study log excerpt).
KNOWN_C2_PREFIXES: tuple[str, ...] = ("194.145.", "111.200.", "45.9.")

_SSH_LOGIN_RE = re.compile(r"for (\S+) from (\S+)")
_WGET_URL_RE = re.compile(r"http://|(\d+\.\d+\.[\w.]+/\S+\.(c|sh|tar|tgz))")
_WGET_SOURCE_RE = re.compile(r"(\d+\.\d+\.[\w\d.]+)/")
_USER_RE = re.compile(r"user=(\S+)")
_COMMAND_RE = re.compile(r'cmd="([^"]*)"')
_KERNEL_BUILD_RE = re.compile(r"\bgcc\b.*-o|\bmake\b")
#: Shell-command patterns -> alert names, first match wins.
_BASH_COMMAND_ALERTS: tuple[tuple[re.Pattern[str], str], ...] = (
    (re.compile(r"\bgcc\b|\bcc\b|\bmake\b"), "alert_suspicious_compile"),
    (re.compile(r"find .*id_rsa|grep -vw\s+pub"), "alert_ssh_key_enumeration"),
    (re.compile(r"known_hosts|\.ssh/config|bash_history.*Host"), "alert_known_hosts_enumeration"),
    (re.compile(r"ssh .*BatchMode=yes"), "alert_lateral_ssh_batch"),
    (re.compile(r">\s*/var/log/(wtmp|secure|cron)|>\s*/var/spool/mail"), "alert_erase_forensic_trace"),
    (re.compile(r"history -c|rm .*\.bash_history"), "alert_erase_forensic_trace"),
)
#: osquery ``process_events`` command lines -> alert names, first match wins.
_PROCESS_EVENT_ALERTS: tuple[tuple[re.Pattern[str], str], ...] = (
    (re.compile(r"find .*id_rsa"), "alert_ssh_key_enumeration"),
    (re.compile(r"known_hosts|\.ssh/config"), "alert_known_hosts_enumeration"),
    (re.compile(r"ssh .*BatchMode=yes"), "alert_lateral_ssh_batch"),
    (re.compile(r"xmrig|minerd|stratum\+tcp"), "alert_cryptomining"),
)


@dataclasses.dataclass(frozen=True)
class NormalizationRule:
    """One normalisation rule: monitor family + matcher function."""

    name: str
    monitor: MonitorKind
    matcher: Callable[[RawLogRecord], Optional[tuple[str, dict]]]


class AlertNormalizer:
    """Turns raw monitor records into symbolic, sanitised alerts.

    :attr:`rules` is the rule table in priority order; ``extra_rules``
    extends it and it may be edited in place.  :meth:`normalize_stream`
    regroups it by monitor at the top of every call (five entries:
    nothing is cached, so nothing needs invalidating) and runs one loop
    over the batch: a record meets only its own monitor's matchers, and
    the first result whose name the vocabulary knows is sanitised and
    becomes the alert.  :meth:`normalize_record` is a one-element call.

    A record no rule matches is counted in :attr:`dropped`.  One whose
    field values make a matcher raise ``ValueError``/``TypeError``
    (``resp_p: "http"``) is dropped alone, counted there and in
    :attr:`malformed`; the records around it are unaffected.
    """

    def __init__(
        self,
        vocabulary: Optional[AlertVocabulary] = None,
        *,
        sanitizer: Optional[Sanitizer] = None,
        extra_rules: Sequence[NormalizationRule] = (),
    ) -> None:
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.sanitizer = sanitizer or Sanitizer()
        self.rules: list[NormalizationRule] = list(self._default_rules())
        self.rules.extend(extra_rules)
        self.dropped = 0
        self.malformed = 0

    # ------------------------------------------------------------------
    # Rule definitions
    # ------------------------------------------------------------------
    def _default_rules(self) -> list[NormalizationRule]:
        return [
            NormalizationRule("zeek_notice", MonitorKind.ZEEK, self._match_zeek_notice),
            NormalizationRule("zeek_conn", MonitorKind.ZEEK, self._match_zeek_conn),
            NormalizationRule("syslog", MonitorKind.SYSLOG, self._match_syslog),
            NormalizationRule("auditd", MonitorKind.AUDITD, self._match_auditd),
            NormalizationRule("osquery", MonitorKind.OSQUERY, self._match_osquery),
        ]

    @staticmethod
    def _match_zeek_notice(record: RawLogRecord) -> Optional[tuple[str, dict]]:
        fields = record.fields
        if fields.get("stream") != "notice":
            return None
        note = str(fields.get("note", ""))
        alert_name = ZEEK_NOTICE_MAP.get(note)
        if alert_name is None:
            return None
        return alert_name, {"source_ip": str(fields.get("orig_h", "")), "note": note}

    @staticmethod
    def _match_zeek_conn(record: RawLogRecord) -> Optional[tuple[str, dict]]:
        fields = record.fields
        if fields.get("stream") != "conn":
            return None
        resp_p = int(fields.get("resp_p", 0))
        state = str(fields.get("conn_state", ""))
        orig_h = str(fields.get("orig_h", ""))
        resp_h = str(fields.get("resp_h", ""))
        # Unanswered / rejected probes against database ports.
        if resp_p == 5432 and state in ("S0", "REJ", "RSTO"):
            return "alert_db_port_probe", {"source_ip": orig_h, "port": resp_p}
        # Outbound connections to known C2 infrastructure.
        if resp_h.startswith(KNOWN_C2_PREFIXES):
            return "alert_outbound_c2", {"source_ip": orig_h, "destination_ip": resp_h}
        # Generic unanswered probes (port scanning).
        if state in ("S0", "REJ"):
            return "alert_port_scan", {"source_ip": orig_h, "port": resp_p}
        return None

    @staticmethod
    def _match_syslog(record: RawLogRecord) -> Optional[tuple[str, dict]]:
        fields = record.fields
        program = str(fields.get("program", ""))
        body = str(fields.get("body", ""))
        meta = {"program": program}
        if program == "sshd" and body.startswith(("Accepted", "Failed")):
            match = _SSH_LOGIN_RE.search(body)
            if match:
                meta.update(user=match.group(1), source_ip=match.group(2))
            if body.startswith("Accepted"):
                return "alert_login_normal", meta
            return "alert_bruteforce_ssh", meta
        if program == "sudo" and "COMMAND=" in body:
            user = body.split(" :", 1)[0].strip()
            meta.update(user=user)
            return "alert_sudo_policy_violation", meta
        if program == "wget" and _WGET_URL_RE.search(body):
            match = _USER_RE.search(body)
            if match:
                meta.update(user=match.group(1))
            source = _WGET_SOURCE_RE.search(body)
            if source:
                meta.update(source_ip=source.group(1))
            return "alert_download_sensitive", meta
        if program == "bash":
            command_match = _COMMAND_RE.search(body)
            command = command_match.group(1) if command_match else ""
            user_match = _USER_RE.search(body)
            if user_match:
                meta.update(user=user_match.group(1))
            meta.update(command=command)
            if _KERNEL_BUILD_RE.search(command) and "module" in command:
                return "alert_compile_kernel_module", meta
            for pattern, alert_name in _BASH_COMMAND_ALERTS:
                if pattern.search(command):
                    return alert_name, meta
            return None
        if program == "kernel" and "truncated to 0 bytes" in body:
            return "alert_erase_forensic_trace", meta
        return None

    @staticmethod
    def _match_auditd(record: RawLogRecord) -> Optional[tuple[str, dict]]:
        fields = record.fields
        if str(fields.get("record_type", "")) != "SYSCALL":
            return None
        syscall = str(fields.get("syscall", ""))
        meta = {"user": str(fields.get("acct", "")), "syscall": syscall}
        if syscall == "setuid" and str(fields.get("uid")) == "0" and str(fields.get("auid")) not in ("0", ""):
            return "alert_privilege_escalation", meta
        if syscall == "init_module":
            meta["module"] = str(fields.get("name", ""))
            return "alert_kernel_module_loaded", meta
        if syscall == "execve":
            exe = str(fields.get("exe", ""))
            meta["exe"] = exe
            if exe.startswith("/tmp/"):
                return "alert_tmp_executable_created", meta
        if syscall == "openat":
            path = str(fields.get("name", ""))
            meta["path"] = path
            if path.startswith("/tmp/"):
                return "alert_tmp_executable_created", meta
        return None

    @staticmethod
    def _match_osquery(record: RawLogRecord) -> Optional[tuple[str, dict]]:
        fields = record.fields
        query = str(fields.get("query_name", ""))
        if query == "authorized_keys":
            return "alert_new_ssh_key_added", {"user": str(fields.get("username", ""))}
        if query == "kernel_modules":
            return "alert_kernel_module_loaded", {"module": str(fields.get("name", ""))}
        if query == "file_events":
            path = str(fields.get("target_path", ""))
            if path.startswith("/tmp/"):
                return "alert_tmp_executable_created", {"path": path}
            if path.endswith(("README_FOR_DECRYPT.txt", "HOW_TO_RECOVER.txt")):
                return "alert_ransom_note_created", {"path": path}
            return None
        if query == "process_events":
            cmdline = str(fields.get("cmdline", ""))
            meta = {"user": str(fields.get("username", "")), "command": cmdline}
            for pattern, alert_name in _PROCESS_EVENT_ALERTS:
                if pattern.search(cmdline):
                    return alert_name, meta
            return None
        if query == "process_open_sockets":
            remote = str(fields.get("remote_address", ""))
            if remote.startswith(KNOWN_C2_PREFIXES):
                return "alert_outbound_c2", {"destination_ip": remote}
        return None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def normalize_record(self, record: RawLogRecord) -> Optional[Alert]:
        """Normalise one raw record into an alert, or ``None`` to drop it."""
        alerts = self.normalize_stream((record,))
        return alerts[0] if alerts else None

    def normalize_stream(self, records: Iterable[RawLogRecord]) -> list[Alert]:
        """Normalise a stream of raw records, dropping unmatched ones."""
        table: dict[MonitorKind, tuple[str, list]] = {}
        for rule in self.rules:
            table.setdefault(rule.monitor, (rule.monitor.value, []))[1].append(rule.matcher)
        vocabulary = self.vocabulary
        sanitize = self.sanitizer.sanitize_metadata
        alerts: list[Alert] = []
        seen = malformed = 0
        monitor, monitor_name, matchers = None, "", ()
        for record in records:
            seen += 1
            if record.monitor is not monitor:  # enum members hash in Python: look up on change
                monitor = record.monitor
                monitor_name, matchers = table.get(monitor, ("", ()))
            try:
                for matcher in matchers:
                    result = matcher(record)
                    if result is not None and result[0] in vocabulary:
                        break
                else:
                    continue
            except (ValueError, TypeError):
                malformed += 1
                continue
            clean = sanitize(result[1])
            user = clean.pop("user", "")
            host = record.host
            alerts.append(
                Alert(
                    record.timestamp,
                    result[0],
                    f"user:{user}" if user else f"host:{host}",
                    str(clean.get("source_ip", "")),
                    host,
                    monitor_name,
                    clean,
                )
            )
        self.dropped += seen - len(alerts)
        self.malformed += malformed
        return alerts


class NormalizerStage:
    """Batch pipeline-stage adapter over :class:`AlertNormalizer`.

    Implements the staged-pipeline contract
    (:class:`repro.testbed.stages.PipelineStage`, matched structurally
    so the telemetry layer carries no testbed import): a batch of
    :class:`RawLogRecord` in, a batch of symbolic :class:`Alert` out.
    """

    name = "normalize"

    def __init__(self, normalizer: AlertNormalizer) -> None:
        self.normalizer = normalizer

    def process(self, batch: Iterable[RawLogRecord]) -> list[Alert]:
        """Normalise one raw-record batch (unmatched records are dropped)."""
        return self.normalizer.normalize_stream(batch)


__all__ = [
    "ZEEK_NOTICE_MAP",
    "KNOWN_C2_PREFIXES",
    "NormalizationRule",
    "AlertNormalizer",
    "NormalizerStage",
]
