"""Telemetry substrate: monitors, normalisation, sanitisation, filtering.

Models the monitoring stack the paper's testbed relies on -- a Zeek
network-monitor cluster plus per-host rsyslog, auditd and osquery --
and the preprocessing pipeline that turns raw records into the
symbolic, sanitised and filtered alerts the detection models
consume.
"""

from .auditd import AuditdMonitor, AuditRecord
from .filtering import FilterStats, ScanFilter, ScanFilterStage, filter_alerts
from .logsource import LogSource, MonitorKind, RawLogRecord, anonymize_ip, merge_records
from .normalizer import (
    AlertNormalizer,
    KNOWN_C2_PREFIXES,
    NormalizationRule,
    NormalizedBatch,
    NormalizerStage,
    ZEEK_NOTICE_MAP,
)
from .osquery import OsqueryMonitor, OsqueryResult
from .sanitizer import SanitizationReport, Sanitizer
from .syslog import SyslogMessage, SyslogMonitor
from .zeek import (
    ConnRecord,
    NoticeRecord,
    ZeekMonitor,
)

__all__ = [
    "MonitorKind",
    "RawLogRecord",
    "LogSource",
    "merge_records",
    "anonymize_ip",
    "ConnRecord",
    "NoticeRecord",
    "ZeekMonitor",
    "SyslogMessage",
    "SyslogMonitor",
    "AuditRecord",
    "AuditdMonitor",
    "OsqueryResult",
    "OsqueryMonitor",
    "AlertNormalizer",
    "NormalizerStage",
    "NormalizationRule",
    "NormalizedBatch",
    "ZEEK_NOTICE_MAP",
    "KNOWN_C2_PREFIXES",
    "Sanitizer",
    "SanitizationReport",
    "ScanFilter",
    "ScanFilterStage",
    "FilterStats",
    "filter_alerts",
]
