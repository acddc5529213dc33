"""Symbolic alert vocabulary and the :class:`Alert` record.

The paper's data pre-processing step maps every raw log message to a
*symbolic name indicating the attacker's intention* plus sanitised
metadata.  For example the raw Zeek/HTTP log line::

    23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036]

becomes the symbol ``alert_download_sensitive`` with metadata
``host=internal-host, source_ip=64.215.xxx.yyy``.

This module defines

* :class:`AlertCategory` and :class:`Severity` -- coarse taxonomy axes,
* :class:`AlertType` -- the registry of symbolic alert names together
  with their category, severity, lifecycle stage and criticality,
* :class:`Alert` -- a single normalised, sanitised alert observation,
  the unit every detector in :mod:`repro.core` consumes.

The vocabulary reproduces (a superset of) the alert families discussed
in the paper: mass scanning and brute-force attempts, the recurrent
download/compile/erase pattern first seen in 2002, credential misuse,
PostgreSQL ransomware behaviour (version probing, ``largeobject`` ELF
staging, ``/tmp/kp`` creation), SSH-key-based lateral movement, C2
beaconing, and the 19 *critical* alerts whose presence indicates that
damage has already occurred (privilege escalation, PII in outbound
HTTP, mass file encryption, forensic-trace wiping, and so on).
"""

from __future__ import annotations

import dataclasses
import enum
import math
import struct
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from .states import AttackStage


class AlertCategory(enum.Enum):
    """Coarse grouping of alert types by the behaviour they describe."""

    BENIGN = "benign"
    SCANNING = "scanning"
    AUTHENTICATION = "authentication"
    DOWNLOAD = "download"
    EXECUTION = "execution"
    PRIVILEGE = "privilege"
    PERSISTENCE = "persistence"
    DATABASE = "database"
    LATERAL_MOVEMENT = "lateral_movement"
    COMMAND_CONTROL = "command_control"
    EXFILTRATION = "exfiltration"
    DESTRUCTION = "destruction"
    ANTI_FORENSICS = "anti_forensics"
    MALWARE = "malware"


class Severity(enum.IntEnum):
    """Operator-facing severity, ordered from informational to critical."""

    INFO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


@dataclasses.dataclass(frozen=True)
class AlertTypeSpec:
    """Static description of one symbolic alert name."""

    name: str
    category: AlertCategory
    severity: Severity
    stage: AttackStage
    critical: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.startswith("alert_"):
            raise ValueError(f"alert type names must start with 'alert_': {self.name!r}")
        if self.critical and self.severity is not Severity.CRITICAL:
            raise ValueError(f"critical alert {self.name!r} must have CRITICAL severity")


class AlertVocabulary:
    """Registry of all symbolic alert types known to the system.

    The vocabulary is the single source of truth that the normaliser
    (:mod:`repro.telemetry.normalizer`), the incident generator
    (:mod:`repro.incidents.generator`) and the detectors share.  It is
    intentionally a plain registry object (not module-level globals
    mutated at import time) so tests can build restricted vocabularies.
    """

    def __init__(self) -> None:
        self._specs: dict[str, AlertTypeSpec] = {}
        self._index: dict[str, int] = {}

    # -- registration ---------------------------------------------------
    def register(self, spec: AlertTypeSpec) -> AlertTypeSpec:
        """Register ``spec``; duplicate names are rejected."""
        if spec.name in self._specs:
            raise ValueError(f"alert type already registered: {spec.name}")
        self._index[spec.name] = len(self._specs)
        self._specs[spec.name] = spec
        return spec

    def define(
        self,
        name: str,
        category: AlertCategory,
        severity: Severity,
        stage: AttackStage,
        *,
        critical: bool = False,
        description: str = "",
    ) -> AlertTypeSpec:
        """Convenience wrapper around :meth:`register`."""
        return self.register(
            AlertTypeSpec(
                name=name,
                category=category,
                severity=severity,
                stage=stage,
                critical=critical,
                description=description,
            )
        )

    # -- lookup ----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[AlertTypeSpec]:
        return iter(self._specs.values())

    def get(self, name: str) -> AlertTypeSpec:
        """Return the spec for ``name``; :class:`KeyError` if unknown."""
        return self._specs[name]

    def index_of(self, name: str) -> int:
        """Stable integer index of an alert type (for vectorised code)."""
        return self._index[name]

    def names(self) -> list[str]:
        """All registered names, in registration order."""
        return list(self._specs)

    def critical_names(self) -> list[str]:
        """Names of all critical alert types."""
        return [s.name for s in self if s.critical]

    def names_for_stage(self, stage: AttackStage) -> list[str]:
        """Names of alert types associated with ``stage``."""
        return [s.name for s in self if s.stage is stage]

    def names_for_category(self, category: AlertCategory) -> list[str]:
        """Names of alert types in ``category``."""
        return [s.name for s in self if s.category is category]


def build_default_vocabulary() -> AlertVocabulary:
    """Build the default vocabulary used throughout the reproduction.

    The set covers every behaviour named in the paper plus the common
    HPC-intrusion behaviours of the referenced AttackTagger studies.
    Exactly 19 alert types are flagged critical, matching the paper's
    Insight 4 ("the entire dataset has 19 such unique critical alerts").
    """
    v = AlertVocabulary()
    C, S, St = AlertCategory, Severity, AttackStage

    # -- benign / background -------------------------------------------
    v.define("alert_login_normal", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Interactive login consistent with the user's history.")
    v.define("alert_job_submission", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Batch job submitted to the scheduler.")
    v.define("alert_file_transfer", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Bulk data transfer (GridFTP/scp) to a known endpoint.")
    v.define("alert_package_install", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Package installation by an administrator.")
    v.define("alert_cron_job", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Scheduled cron job execution.")
    v.define("alert_software_build", C.BENIGN, S.INFO, St.BACKGROUND,
             description="Compilation of user software in a home directory.")
    v.define("alert_ssh_config_change", C.BENIGN, S.LOW, St.BACKGROUND,
             description="User edited their SSH client configuration.")

    # -- scanning / reconnaissance --------------------------------------
    v.define("alert_port_scan", C.SCANNING, S.LOW, St.RECONNAISSANCE,
             description="Horizontal or vertical port scan observed at the border.")
    v.define("alert_vuln_scan", C.SCANNING, S.LOW, St.RECONNAISSANCE,
             description="Web/application vulnerability scanner signature (e.g. Struts probes).")
    v.define("alert_address_sweep", C.SCANNING, S.LOW, St.RECONNAISSANCE,
             description="Sweep across the /16 address space recorded by the black-hole router.")
    v.define("alert_db_port_probe", C.SCANNING, S.LOW, St.RECONNAISSANCE,
             description="Connection probe against a database service port (e.g. 5432/tcp).")
    v.define("alert_service_version_probe", C.DATABASE, S.MEDIUM, St.RECONNAISSANCE,
             description="Service version reconnaissance, e.g. `SHOW server_version_num`.")

    # -- authentication / foothold --------------------------------------
    v.define("alert_bruteforce_ssh", C.AUTHENTICATION, S.LOW, St.RECONNAISSANCE,
             description="SSH password brute-force attempts.")
    v.define("alert_login_failure_burst", C.AUTHENTICATION, S.LOW, St.RECONNAISSANCE,
             description="Burst of failed logins for one account.")
    v.define("alert_login_unusual_hour", C.AUTHENTICATION, S.MEDIUM, St.FOOTHOLD,
             description="Successful login at an hour unusual for the account.")
    v.define("alert_login_new_origin", C.AUTHENTICATION, S.MEDIUM, St.FOOTHOLD,
             description="Successful login from a network the account never used before.")
    v.define("alert_login_stolen_credential", C.AUTHENTICATION, S.HIGH, St.FOOTHOLD,
             description="Login using credentials known to be compromised.")
    v.define("alert_db_default_password_login", C.DATABASE, S.HIGH, St.FOOTHOLD,
             description="Authentication to a database using a default or advertised password.")
    v.define("alert_remote_code_execution", C.EXECUTION, S.HIGH, St.FOOTHOLD,
             description="Exploitation of a remote-command-execution vulnerability.")
    v.define("alert_ghost_account_login", C.AUTHENTICATION, S.HIGH, St.FOOTHOLD,
             description="Login to a decoy (ghost) account planted in a federated identity provider.")

    # -- the recurrent download / compile / erase pattern ----------------
    v.define("alert_download_sensitive", C.DOWNLOAD, S.MEDIUM, St.ESCALATION,
             description="Download of a source/binary file over unsecured HTTP (e.g. wget http://.../abs.c).")
    v.define("alert_download_exploit_kit", C.DOWNLOAD, S.HIGH, St.ESCALATION,
             description="Download of a known exploit kit or rootkit archive.")
    v.define("alert_compile_kernel_module", C.EXECUTION, S.HIGH, St.ESCALATION,
             description="Compilation of a kernel module outside the package system.")
    v.define("alert_suspicious_compile", C.EXECUTION, S.MEDIUM, St.ESCALATION,
             description="Compilation of freshly downloaded source in a temporary directory.")
    v.define("alert_tmp_executable_created", C.EXECUTION, S.MEDIUM, St.ESCALATION,
             description="Executable file created under /tmp (e.g. /tmp/kp).")

    # -- privilege escalation / installation ------------------------------
    v.define("alert_privilege_escalation", C.PRIVILEGE, S.CRITICAL, St.ESCALATION, critical=True,
             description="Unauthorized transition to uid 0 or equivalent.")
    v.define("alert_sudo_policy_violation", C.PRIVILEGE, S.HIGH, St.ESCALATION,
             description="sudo invocation outside the account's authorised command set.")
    v.define("alert_setuid_binary_created", C.PRIVILEGE, S.CRITICAL, St.ESCALATION, critical=True,
             description="New setuid-root binary appeared on a monitored host.")
    v.define("alert_kernel_module_loaded", C.PRIVILEGE, S.CRITICAL, St.ESCALATION, critical=True,
             description="Out-of-tree kernel module loaded into a production kernel.")
    v.define("alert_malicious_binary_installed", C.MALWARE, S.CRITICAL, St.ESCALATION, critical=True,
             description="Installed binary matches an entry in a malware hash database.")

    # -- persistence -------------------------------------------------------
    v.define("alert_new_ssh_key_added", C.PERSISTENCE, S.HIGH, St.PERSISTENCE,
             description="New public key appended to authorized_keys.")
    v.define("alert_backdoor_account_created", C.PERSISTENCE, S.CRITICAL, St.PERSISTENCE, critical=True,
             description="New local account created outside identity management.")
    v.define("alert_cron_implant", C.PERSISTENCE, S.HIGH, St.PERSISTENCE,
             description="Cron entry pointing at a recently created executable.")
    v.define("alert_ssh_daemon_replaced", C.PERSISTENCE, S.CRITICAL, St.PERSISTENCE, critical=True,
             description="sshd binary replaced (SSH keylogger / credential harvester).")
    v.define("alert_keylogger_detected", C.MALWARE, S.CRITICAL, St.PERSISTENCE, critical=True,
             description="SSH keylogger artefacts detected on a login node.")
    v.define("alert_rootkit_detected", C.MALWARE, S.CRITICAL, St.PERSISTENCE, critical=True,
             description="Kernel or userland rootkit signature detected.")

    # -- database-resident ransomware behaviour ---------------------------
    v.define("alert_db_largeobject_payload", C.DATABASE, S.HIGH, St.ESCALATION,
             description="ELF magic (7F 45 4C 46) observed in a PostgreSQL largeobject write.")
    v.define("alert_db_file_export", C.DATABASE, S.HIGH, St.ESCALATION,
             description="Database file-export primitive (lo_export) writing to the filesystem.")
    v.define("alert_db_table_drop_burst", C.DESTRUCTION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Burst of DROP TABLE / TRUNCATE statements.")
    v.define("alert_ransom_note_created", C.DESTRUCTION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Ransom note file created on disk or in a database table.")
    v.define("alert_mass_file_encryption", C.DESTRUCTION, S.CRITICAL, St.ACTIONS, critical=True,
             description="High-rate file rewrite consistent with bulk encryption.")

    # -- lateral movement ---------------------------------------------------
    v.define("alert_ssh_key_enumeration", C.LATERAL_MOVEMENT, S.HIGH, St.LATERAL,
             description="Bulk enumeration of private SSH keys (find ... id_rsa).")
    v.define("alert_known_hosts_enumeration", C.LATERAL_MOVEMENT, S.HIGH, St.LATERAL,
             description="Harvesting of known_hosts / ssh config / bash history for targets.")
    v.define("alert_lateral_ssh_batch", C.LATERAL_MOVEMENT, S.HIGH, St.LATERAL,
             description="Batch-mode SSH fan-out to many historical hosts using stolen keys.")
    v.define("alert_ssh_scanning_outbound", C.LATERAL_MOVEMENT, S.HIGH, St.LATERAL,
             description="Outbound SSH scanning from an internal host.")
    v.define("alert_internal_host_compromise", C.LATERAL_MOVEMENT, S.CRITICAL, St.LATERAL, critical=True,
             description="Confirmed compromise of an additional internal host.")

    # -- command and control -------------------------------------------------
    v.define("alert_outbound_c2", C.COMMAND_CONTROL, S.HIGH, St.COMMAND_CONTROL,
             description="Beaconing to a known or suspected command-and-control server.")
    v.define("alert_irc_connection", C.COMMAND_CONTROL, S.MEDIUM, St.COMMAND_CONTROL,
             description="IRC connection from a compute or service node.")
    v.define("alert_dns_tunnel", C.COMMAND_CONTROL, S.HIGH, St.COMMAND_CONTROL,
             description="DNS tunneling signature in outbound queries.")
    v.define("alert_icmp_tunnel", C.COMMAND_CONTROL, S.HIGH, St.COMMAND_CONTROL,
             description="ICMP tunneling tool traffic.")
    v.define("alert_download_second_stage", C.COMMAND_CONTROL, S.HIGH, St.COMMAND_CONTROL,
             description="Retrieval of a second-stage payload (e.g. ldr.sh, sys.x86_64).")

    # -- exfiltration / damage -----------------------------------------------
    v.define("alert_pii_in_http", C.EXFILTRATION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Personally identifiable information in an outgoing HTTP request.")
    v.define("alert_data_exfiltration", C.EXFILTRATION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Bulk outbound transfer of protected data.")
    v.define("alert_credential_dump_upload", C.EXFILTRATION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Upload of harvested credentials to an external host.")
    v.define("alert_research_data_staging", C.EXFILTRATION, S.HIGH, St.ACTIONS,
             description="Large archive of project data staged in a world-readable path.")
    v.define("alert_cryptomining", C.EXECUTION, S.CRITICAL, St.ACTIONS, critical=True,
             description="Cryptocurrency miner consuming allocation hours.")

    # -- anti-forensics --------------------------------------------------------
    v.define("alert_erase_forensic_trace", C.ANTI_FORENSICS, S.HIGH, St.ACTIONS,
             description="Truncation of wtmp/secure/cron logs or shell history.")
    v.define("alert_log_tamper", C.ANTI_FORENSICS, S.CRITICAL, St.ACTIONS, critical=True,
             description="Modification of audit or syslog configuration to suppress records.")
    v.define("alert_timestomp", C.ANTI_FORENSICS, S.CRITICAL, St.ACTIONS, critical=True,
             description="File timestamps rewritten to hide modification.")
    v.define("alert_monitor_disabled", C.ANTI_FORENSICS, S.CRITICAL, St.ACTIONS, critical=True,
             description="Host monitor (osquery/ossec/auditd) stopped or unloaded.")

    # -- auxiliary notice types -------------------------------------------------
    # A production Zeek/OSSEC deployment raises hundreds of distinct notice
    # types beyond the core attack vocabulary above.  These auxiliary types
    # appear as incident-specific supporting evidence (and as noise in benign
    # traffic); none of them is critical and none participates in the S1..S43
    # catalogue, but they are what makes real attack pairs share only a
    # minority of their alerts (Fig. 3a).
    aux_recon = [
        ("alert_struts_probe", "Apache Struts exploitation probe (CVE-2017-5638 style)."),
        ("alert_sql_injection_attempt", "SQL injection attempt against a web application."),
        ("alert_xss_probe", "Cross-site-scripting probe."),
        ("alert_ftp_anonymous_login", "Anonymous FTP login attempt."),
        ("alert_telnet_login_attempt", "Telnet login attempt on a legacy port."),
        ("alert_smtp_relay_probe", "Open SMTP relay probe."),
        ("alert_dns_amplification_probe", "DNS amplification reflection probe."),
        ("alert_ntp_monlist_probe", "NTP monlist amplification probe."),
        ("alert_snmp_public_query", "SNMP query with the default public community."),
        ("alert_rdp_bruteforce", "RDP password brute-force."),
        ("alert_vnc_open_port", "Exposed VNC service discovered."),
        ("alert_redis_unauth_access", "Unauthenticated Redis access."),
        ("alert_mongodb_unauth_access", "Unauthenticated MongoDB access."),
        ("alert_elasticsearch_open_index", "World-readable Elasticsearch index."),
        ("alert_docker_api_exposed", "Unauthenticated Docker API probe."),
        ("alert_k8s_api_probe", "Kubernetes API server probe."),
        ("alert_jupyter_open_notebook", "Unauthenticated Jupyter notebook reached."),
        ("alert_smb_scan", "SMB share scan."),
        ("alert_ipmi_probe", "IPMI/BMC interface probe."),
        ("alert_password_spray", "Low-and-slow password spraying."),
    ]
    for name, description in aux_recon:
        v.define(name, C.SCANNING, S.LOW, St.RECONNAISSANCE, description=description)
    aux_foothold = [
        ("alert_webshell_upload", "Web shell uploaded to a document root."),
        ("alert_cve_exploit_attempt", "Exploit attempt matching a known CVE signature."),
        ("alert_phishing_landing", "Connection to a known phishing landing page."),
        ("alert_tor_exit_connection", "Session originating from a Tor exit node."),
        ("alert_geoip_anomaly", "Login geolocation inconsistent with travel history."),
        ("alert_useragent_anomaly", "Anomalous client software fingerprint."),
        ("alert_ssh_protocol_mismatch", "Malformed SSH protocol exchange."),
        ("alert_gridftp_anomaly", "Anomalous GridFTP transfer pattern."),
    ]
    for name, description in aux_foothold:
        v.define(name, C.AUTHENTICATION, S.MEDIUM, St.FOOTHOLD, description=description)
    aux_c2 = [
        ("alert_beacon_periodicity", "Periodic outbound beaconing detected."),
        ("alert_certificate_invalid", "Outbound TLS session with an invalid certificate."),
        ("alert_dynamic_dns_lookup", "Lookup of a dynamic-DNS rendezvous domain."),
        ("alert_uncommon_port_egress", "Outbound connection on an uncommon port."),
    ]
    for name, description in aux_c2:
        v.define(name, C.COMMAND_CONTROL, S.MEDIUM, St.COMMAND_CONTROL, description=description)

    expected_critical = 19
    actual_critical = len(v.critical_names())
    if actual_critical != expected_critical:
        raise AssertionError(
            f"default vocabulary must define exactly {expected_critical} critical alerts, "
            f"got {actual_critical}"
        )
    return v


#: Module-level default vocabulary instance shared by library code.
DEFAULT_VOCABULARY: AlertVocabulary = build_default_vocabulary()


@dataclasses.dataclass(frozen=True, order=True)
class Alert:
    """A single normalised, sanitised alert observation.

    Attributes
    ----------
    timestamp:
        POSIX timestamp (seconds) of the underlying log record.  The
        paper keeps timestamps during sanitisation precisely because
        inter-alert timing carries signal (Insight 3).
    name:
        Symbolic alert type name (must exist in the vocabulary used by
        the consuming component).
    entity:
        The monitored entity the alert is attributed to -- a user
        account (``user:alice``) or a host (``host:login1``).  The
        attribution rules in §III.B key detection on this field.
    source_ip / host:
        Sanitised origin metadata retained from the raw log.
    monitor:
        Which monitor produced the raw record (``zeek``, ``syslog``,
        ``auditd``, ``osquery``).
    attributes:
        Any extra sanitised key/value metadata.
    """

    timestamp: float
    name: str
    entity: str
    source_ip: str = ""
    host: str = ""
    monitor: str = ""
    attributes: Mapping[str, Any] = dataclasses.field(default_factory=dict, compare=False)

    def spec(self, vocabulary: Optional[AlertVocabulary] = None) -> AlertTypeSpec:
        """Resolve this alert's type spec against ``vocabulary``."""
        return (vocabulary or DEFAULT_VOCABULARY).get(self.name)

    def is_critical(self, vocabulary: Optional[AlertVocabulary] = None) -> bool:
        """Whether this alert is one of the critical (post-damage) alerts."""
        return self.spec(vocabulary).critical

    def stage(self, vocabulary: Optional[AlertVocabulary] = None) -> AttackStage:
        """Lifecycle stage associated with this alert's type."""
        return self.spec(vocabulary).stage

    def severity(self, vocabulary: Optional[AlertVocabulary] = None) -> Severity:
        """Severity associated with this alert's type."""
        return self.spec(vocabulary).severity

    def with_entity(self, entity: str) -> "Alert":
        """Return a copy attributed to a different entity."""
        return dataclasses.replace(self, entity=entity)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "timestamp": self.timestamp,
            "name": self.name,
            "entity": self.entity,
            "source_ip": self.source_ip,
            "host": self.host,
            "monitor": self.monitor,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Alert":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` for a non-finite ``timestamp`` (JSON
        decoders accept ``NaN``/``Infinity``; the scan filter sorts and
        subtracts timestamps) and for ``attributes`` that is not a dict.
        """
        timestamp = float(data["timestamp"])
        attributes = data.get("attributes", {})
        if not math.isfinite(timestamp):
            raise ValueError(f"non-finite alert timestamp {timestamp!r}")
        if not isinstance(attributes, dict):
            raise ValueError("alert 'attributes' must be a dict")
        return cls(
            timestamp,
            str(data["name"]),
            str(data["entity"]),
            str(data.get("source_ip", "")),
            str(data.get("host", "")),
            str(data.get("monitor", "")),
            dict(attributes),
        )


def sort_alerts(alerts: list[Alert]) -> list[Alert]:
    """Return ``alerts`` sorted by timestamp (stable)."""
    return sorted(alerts, key=lambda a: a.timestamp)


#: Columnar wire representation of an alert batch: parallel tuples of
#: ``(timestamps, names, entities, source_ips, hosts, monitors,
#: attributes)``.  ``attributes`` is ``None`` when every alert in the
#: batch has empty attributes (the common case for replayed incident
#: streams), else a tuple of per-alert dicts.
AlertColumns = tuple


def pack_alert_columns(alerts: Sequence[Alert]) -> AlertColumns:
    """Pack an alert batch into the columnar wire representation.

    Pickling a batch of :class:`Alert` dataclass instances pays a
    per-object reconstruction cost (class reference, field dict) on
    both sides of a process boundary.  Parallel tuples of primitive
    fields pickle as flat buffers instead; the receiving side rebuilds
    the ``Alert`` objects with :func:`unpack_alert_columns`, moving
    that reconstruction cost onto the (parallel) worker.
    """
    attributes: Optional[tuple] = None
    if any(a.attributes for a in alerts):
        attributes = tuple(dict(a.attributes) for a in alerts)
    return (
        tuple(a.timestamp for a in alerts),
        tuple(a.name for a in alerts),
        tuple(a.entity for a in alerts),
        tuple(a.source_ip for a in alerts),
        tuple(a.host for a in alerts),
        tuple(a.monitor for a in alerts),
        attributes,
    )


def unpack_alert_columns(columns: AlertColumns) -> list[Alert]:
    """Rebuild the alert batch packed by :func:`pack_alert_columns`."""
    timestamps, names, entities, source_ips, hosts, monitors, attributes = columns
    if attributes is None:
        return [
            Alert(timestamp, name, entity, source_ip, host, monitor)
            for timestamp, name, entity, source_ip, host, monitor in zip(
                timestamps, names, entities, source_ips, hosts, monitors
            )
        ]
    return [
        Alert(timestamp, name, entity, source_ip, host, monitor, attrs)
        for timestamp, name, entity, source_ip, host, monitor, attrs in zip(
            timestamps, names, entities, source_ips, hosts, monitors, attributes
        )
    ]


class AlertColumnsCodecError(ValueError):
    """A batch the flat binary codec cannot express (or a corrupt buffer).

    Raised by :func:`encode_alert_columns` for values outside the
    codec's closed type set (the transport treats it as "fall back to
    pickle", not as an error) and by :func:`decode_alert_columns` for
    buffers that are not a well-formed encoding.
    """


#: Magic prefix of the flat binary alert-columns layout (versioned).
ALERT_COLUMNS_MAGIC = b"ACB1"

_HEADER = struct.Struct("<4sBI")
_F64 = "<%dd"
_U32S = "<%dI"
_U32 = struct.Struct("<I")
_D = struct.Struct("<d")


def _encode_value(out: bytearray, value: Any, _u32=None, _d=None) -> None:
    """Append one attribute value in the tagged recursive encoding.

    Runs once per attribute element on the parent's per-batch critical
    path; the ``str`` arm leads and appends in one concatenation.
    """
    _u32 = _u32 or _U32.pack
    _d = _d or _D.pack
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += b"s" + _u32(len(raw)) + raw
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif kind is int:
        digits = b"%d" % value
        out += b"i" + _u32(len(digits)) + digits
    elif kind is float:
        out += b"f" + _d(value)
    elif kind is bytes:
        out += b"b" + _u32(len(value)) + value
    elif kind is list or kind is tuple:
        out += (b"l" if kind is list else b"t") + _u32(len(value))
        for item in value:
            _encode_value(out, item, _u32, _d)
    elif kind is dict:
        out += b"d" + _u32(len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise AlertColumnsCodecError(
                    f"attribute keys must be str, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out += _u32(len(raw)) + raw
            _encode_value(out, item, _u32, _d)
    else:
        raise AlertColumnsCodecError(
            f"value of type {type(value).__name__} is outside the flat "
            "binary codec's type set"
        )


# Integer tag constants: ``_decode_value`` runs once per alert on the
# worker's critical path, and ``buf[offset]`` on bytes yields an int --
# integer compares beat one-byte slice allocations there.
_TAG_NONE, _TAG_TRUE, _TAG_FALSE = ord("N"), ord("T"), ord("F")
_TAG_INT, _TAG_FLOAT, _TAG_STR, _TAG_BYTES = ord("i"), ord("f"), ord("s"), ord("b")
_TAG_LIST, _TAG_TUPLE, _TAG_DICT = ord("l"), ord("t"), ord("d")


def _decode_value(
    buf: bytes,
    offset: int,
    _u32=_U32.unpack_from,
    _d=_D.unpack_from,
) -> tuple:
    """Inverse of :func:`_encode_value`; returns ``(value, new_offset)``."""
    if offset >= len(buf):
        raise AlertColumnsCodecError("truncated attribute payload")
    tag = buf[offset]
    offset += 1
    if tag == _TAG_STR or tag == _TAG_BYTES:
        (size,) = _u32(buf, offset)
        offset += 4
        end = offset + size
        raw = buf[offset:end]
        if len(raw) != size:
            raise AlertColumnsCodecError("truncated attribute payload")
        return (raw.decode("utf-8") if tag == _TAG_STR else raw), end
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        (size,) = _u32(buf, offset)
        offset += 4
        return int(buf[offset : offset + size]), offset + size
    if tag == _TAG_FLOAT:
        (value,) = _d(buf, offset)
        return value, offset + 8
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        (count,) = _u32(buf, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_value(buf, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        (count,) = _u32(buf, offset)
        offset += 4
        mapping = {}
        for _ in range(count):
            (size,) = _u32(buf, offset)
            offset += 4
            key = buf[offset : offset + size].decode("utf-8")
            offset += size
            mapping[key], offset = _decode_value(buf, offset)
        return mapping, offset
    raise AlertColumnsCodecError(f"unknown attribute value tag {bytes((tag,))!r}")


def _encode_str_column(out: bytearray, column: Sequence[str], count: int) -> None:
    """Append one string column: u32 lengths, then concatenated UTF-8.

    The length array is built with ``np.fromiter`` rather than
    ``struct.pack(..., *lengths)``: the codec sits on the parent's
    per-batch critical path, and vectorising the length column (here
    and on decode) is what keeps the shm transport's parent-side CPU
    below the pickle path's.
    """
    try:
        raws = [value.encode("utf-8") for value in column]
    except (AttributeError, UnicodeEncodeError) as exc:
        raise AlertColumnsCodecError(str(exc)) from exc
    lengths = np.fromiter(map(len, raws), dtype=np.int64, count=count)
    if count and int(lengths.max()) > 0xFFFFFFFF:
        raise AlertColumnsCodecError("string value exceeds the u32 length prefix")
    out += lengths.astype("<u4").tobytes()
    out += b"".join(raws)


def encode_alert_columns(columns: AlertColumns) -> bytes:
    """Flat binary layout of a :func:`pack_alert_columns` batch.

    Length-prefixed UTF-8 string columns plus fixed-width numeric
    columns -- no pickle opcodes anywhere, so a worker process can
    :func:`decode_alert_columns` straight out of a shared-memory ring
    without deserialising attacker-influenced pickle.  Raises
    :class:`AlertColumnsCodecError` for batches outside the codec's
    closed type set (non-float timestamps, non-string metadata, or
    attribute values beyond ``None``/``bool``/``int``/``float``/
    ``str``/``bytes``/``list``/``tuple``/``dict``); the shard transport
    treats that as "use the pickle fallback path".
    """
    timestamps, names, entities, source_ips, hosts, monitors, attributes = columns
    count = len(names)
    for value in timestamps:
        if type(value) is not float:
            raise AlertColumnsCodecError(
                f"timestamps must be float, got {type(value).__name__}"
            )
    out = bytearray()
    out += _HEADER.pack(ALERT_COLUMNS_MAGIC, 0 if attributes is None else 1, count)
    out += np.fromiter(timestamps, dtype="<f8", count=count).tobytes()
    for column in (names, entities, source_ips, hosts, monitors):
        _encode_str_column(out, column, count)
    if attributes is not None:
        # All blobs go into one bytearray; per-alert lengths come from
        # the boundary offsets (no per-alert bytearray allocations).
        blob = bytearray()
        bounds = [0] * (count + 1)
        for index, mapping in enumerate(attributes):
            _encode_value(
                blob, mapping if type(mapping) is dict else dict(mapping)
            )
            bounds[index + 1] = len(blob)
        ends = np.asarray(bounds, dtype=np.int64)
        blob_lengths = ends[1:] - ends[:-1]
        if count and int(blob_lengths.max()) > 0xFFFFFFFF:
            raise AlertColumnsCodecError(
                "attribute blob exceeds the u32 length prefix"
            )
        out += blob_lengths.astype("<u4").tobytes()
        out += blob
    return bytes(out)


def decode_alert_columns(buffer) -> AlertColumns:
    """Inverse of :func:`encode_alert_columns` (accepts any buffer view).

    Returns the exact :func:`pack_alert_columns` tuple shape, so
    ``unpack_alert_columns(decode_alert_columns(encode_alert_columns(
    pack_alert_columns(batch))))`` rebuilds ``batch`` field-for-field.
    """
    # One bulk copy out of the caller's view (a shared-memory ring
    # window on the worker path): everything below then slices plain
    # bytes, which the per-alert attribute decoder needs anyway and
    # which beats per-element copies out of a memoryview.
    buf = buffer if type(buffer) is bytes else bytes(buffer)
    try:
        magic, flags, count = _HEADER.unpack_from(buf, 0)
    except struct.error as exc:
        raise AlertColumnsCodecError(str(exc)) from exc
    if magic != ALERT_COLUMNS_MAGIC:
        raise AlertColumnsCodecError(f"bad magic {magic!r}")
    offset = _HEADER.size
    try:
        if len(buf) < offset + 8 * count:
            raise AlertColumnsCodecError("truncated timestamp column")
        timestamps = tuple(
            np.frombuffer(buf, dtype="<f8", count=count, offset=offset).tolist()
        )
        offset += 8 * count
        string_columns = []
        for _ in range(5):
            if len(buf) < offset + 4 * count:
                raise AlertColumnsCodecError("truncated string column")
            lengths = np.frombuffer(buf, dtype="<u4", count=count, offset=offset)
            offset += 4 * count
            ends = np.cumsum(lengths, dtype=np.int64)
            total = int(ends[-1]) if count else 0
            blob = buf[offset : offset + total]
            if len(blob) != total:
                raise AlertColumnsCodecError("truncated string column")
            starts = ends - lengths
            string_columns.append(
                tuple(
                    blob[start:end].decode("utf-8")
                    for start, end in zip(starts.tolist(), ends.tolist())
                )
            )
            offset += total
        attributes: Optional[tuple] = None
        if flags & 1:
            if len(buf) < offset + 4 * count:
                raise AlertColumnsCodecError("truncated attribute column")
            lengths = struct.unpack_from(_U32S % count, buf, offset)
            offset += 4 * count
            decoded = []
            for size in lengths:
                value, end = _decode_value(buf, offset)
                if end != offset + size:
                    raise AlertColumnsCodecError("attribute blob length mismatch")
                decoded.append(value)
                offset = end
            attributes = tuple(decoded)
    except (struct.error, UnicodeDecodeError) as exc:
        raise AlertColumnsCodecError(str(exc)) from exc
    if offset != len(buf):
        raise AlertColumnsCodecError(
            f"{len(buf) - offset} trailing byte(s) after a complete batch"
        )
    names, entities, source_ips, hosts, monitors = string_columns
    return (timestamps, names, entities, source_ips, hosts, monitors, attributes)


__all__ = [
    "AlertCategory",
    "Severity",
    "AlertTypeSpec",
    "AlertVocabulary",
    "Alert",
    "build_default_vocabulary",
    "DEFAULT_VOCABULARY",
    "sort_alerts",
    "AlertColumns",
    "pack_alert_columns",
    "unpack_alert_columns",
    "AlertColumnsCodecError",
    "ALERT_COLUMNS_MAGIC",
    "encode_alert_columns",
    "decode_alert_columns",
]
