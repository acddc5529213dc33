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
import itertools
import json
import math
import operator
import struct
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

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
        """Inverse of :meth:`to_dict`: the one-row
        :meth:`NormalizedBatch.from_dicts`, which says what it refuses."""
        return NormalizedBatch.from_dicts((data,))[0]


def sort_alerts(alerts: list[Alert]) -> list[Alert]:
    """Return ``alerts`` sorted by timestamp (stable)."""
    return sorted(alerts, key=lambda a: a.timestamp)


#: Columnar wire representation of an alert batch: parallel tuples of
#: ``(timestamps, names, entities, source_ips, hosts, monitors,
#: attributes)``.  ``attributes`` is ``None`` when every alert in the
#: batch has empty attributes (the common case for replayed incident
#: streams), else a tuple of per-alert dicts.
AlertColumns = tuple


def _picker(rows: Sequence[int]):
    """``column -> tuple of column[row] for row in rows``, at C speed."""
    if len(rows) > 1:
        return operator.itemgetter(*rows)
    if rows:
        row = rows[0]
        return lambda column: (column[row],)
    return lambda column: ()


class NormalizedBatch:
    """One alert batch as parallel columns, from the normaliser to the wire.

    Row ``i`` of :attr:`timestamps`, :attr:`names`, :attr:`entities`,
    :attr:`source_ips`, :attr:`hosts`, :attr:`monitors` and
    :attr:`attributes` holds the fields of the ``i``-th alert; ``len()``
    is the row count.  This is the batch type that crosses the
    pipeline: the normaliser fills one, the scan filter
    (:meth:`select`) cuts it down to its survivors, the detection
    stage hands that on to every pool, a pool splits it per shard, and
    a process shard packs its part (:meth:`columns`) straight into the
    wire and its worker reads them back (:meth:`of_columns`) -- no
    :class:`Alert` is built on the way.  The tagger's kernel reads the
    entity and name columns and builds one row's alert (:meth:`alert`)
    only as a detection's trigger.

    :class:`Alert` objects are built lazily, once, by whatever iterates
    the batch (``iter``, ``[i]``, :meth:`alerts`): a baseline
    detector, or a caller.  The batch keeps them, so everything that
    iterates it later -- another pool, a :meth:`select` of it -- gets
    the very same objects.  A batch made by :meth:`of_alerts` wraps
    alerts that already exist and is never rebuilt: iterating it (or a
    selection of it) yields the caller's objects.
    """

    __slots__ = (
        "timestamps",
        "names",
        "entities",
        "source_ips",
        "hosts",
        "monitors",
        "attributes",
        "_alerts",
    )

    def __init__(self, *columns: Sequence, alerts: Optional[Sequence[Alert]] = None) -> None:
        """Seven columns in :class:`Alert` field order (seven empty lists
        when none are given), and the rows' alerts if they exist."""
        (
            self.timestamps,
            self.names,
            self.entities,
            self.source_ips,
            self.hosts,
            self.monitors,
            self.attributes,
        ) = columns or ([], [], [], [], [], [], [])
        self._alerts = alerts

    @classmethod
    def of_alerts(cls, alerts: Iterable[Alert]) -> "NormalizedBatch":
        """The column view of existing alerts (they are not copied)."""
        batch = cls(alerts=list(alerts))
        timestamps, names, entities = batch.timestamps, batch.names, batch.entities
        sources, hosts, monitors = batch.source_ips, batch.hosts, batch.monitors
        attributes = batch.attributes
        for alert in batch._alerts:
            timestamps.append(alert.timestamp)
            names.append(alert.name)
            entities.append(alert.entity)
            sources.append(alert.source_ip)
            hosts.append(alert.host)
            monitors.append(alert.monitor)
            attributes.append(alert.attributes)
        return batch

    @classmethod
    def of_columns(cls, columns: AlertColumns) -> "NormalizedBatch":
        """The batch of :data:`AlertColumns` (:meth:`columns`' inverse): an
        elided attribute column becomes a fresh ``{}`` per row."""
        *fields, attributes = columns
        return cls(*fields, [{} for _ in fields[0]] if attributes is None else attributes)

    @classmethod
    def from_dicts(cls, rows: Sequence[Mapping[str, Any]]) -> "NormalizedBatch":
        """The batch of :meth:`Alert.to_dict` rows, one column at a time.

        Raises ``ValueError`` for a non-finite ``timestamp`` (JSON
        decoders accept ``NaN``/``Infinity``; the scan filter sorts and
        subtracts timestamps) and for ``attributes`` that is not a dict;
        a missing field is a ``KeyError``, a row that is not a mapping
        a ``TypeError``, and a ``timestamp`` past float range an
        ``OverflowError``.  Text fields go through ``str()`` and every
        attribute dict is copied.
        """
        timestamps = [float(row["timestamp"]) for row in rows]
        attributes = [row.get("attributes", {}) for row in rows]
        if not all(map(math.isfinite, timestamps)):
            bad = next(stamp for stamp in timestamps if not math.isfinite(stamp))
            raise ValueError(f"non-finite alert timestamp {bad!r}")
        if not all(isinstance(attrs, dict) for attrs in attributes):
            raise ValueError("alert 'attributes' must be a dict")
        return cls(
            timestamps,
            [str(row["name"]) for row in rows],
            [str(row["entity"]) for row in rows],
            [str(row.get("source_ip", "")) for row in rows],
            [str(row.get("host", "")) for row in rows],
            [str(row.get("monitor", "")) for row in rows],
            [dict(attrs) for attrs in attributes],
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def _built(self) -> Sequence[Alert]:
        """Every row's alert, built on first use and kept."""
        alerts = self._alerts
        if alerts is None:
            alerts = self._alerts = list(
                map(
                    Alert,
                    self.timestamps,
                    self.names,
                    self.entities,
                    self.source_ips,
                    self.hosts,
                    self.monitors,
                    self.attributes,
                )
            )
        return alerts

    def alert(self, index: int) -> Alert:
        """Row ``index``'s alert, the others left unbuilt: the batch's own
        once built (or wrapped), else a new one the batch does not keep."""
        return self.select((index,))[0]

    def __iter__(self) -> Iterator[Alert]:
        return iter(self._built())

    def __getitem__(self, index):
        return self._built()[index]

    def alerts(self) -> list[Alert]:
        """Every row's alert, in row order (a new list)."""
        return list(self._built())

    def select(self, rows: Sequence[int]) -> "NormalizedBatch":
        """The batch of ``rows``, in that order, picked column by column.

        Alerts already built for this batch are picked too, so the
        selection yields the same objects.
        """
        pick = _picker(rows)
        alerts = self._alerts
        return NormalizedBatch(
            pick(self.timestamps),
            pick(self.names),
            pick(self.entities),
            pick(self.source_ips),
            pick(self.hosts),
            pick(self.monitors),
            pick(self.attributes),
            alerts=None if alerts is None else pick(alerts),
        )

    @classmethod
    def concat(cls, batches: Sequence["NormalizedBatch"]) -> "NormalizedBatch":
        """The rows of ``batches``, one batch after the other.

        Empty batches add nothing; when one batch is left (or every
        batch is empty) that batch itself is returned, not a copy.
        Otherwise each column is copied once, and the parts' alerts are
        carried only when every part holds them.
        """
        parts = [batch for batch in batches if len(batch)] or list(batches[:1])
        if len(parts) == 1:
            return parts[0]

        def join(columns) -> list:
            return list(itertools.chain.from_iterable(columns))

        carried = [part._alerts for part in parts]
        return cls(
            join(part.timestamps for part in parts),
            join(part.names for part in parts),
            join(part.entities for part in parts),
            join(part.source_ips for part in parts),
            join(part.hosts for part in parts),
            join(part.monitors for part in parts),
            join(part.attributes for part in parts),
            alerts=None if any(alerts is None for alerts in carried) else join(carried),
        )

    def columns(self) -> AlertColumns:
        """The :data:`AlertColumns` of the batch.

        An attribute mapping that is not a plain ``dict`` is copied into
        one; plain dicts are shared, since the columns are encoded or
        pickled at once.
        """
        attributes = self.attributes
        if not any(attributes):
            attributes = None
        elif _DICTS.issuperset(map(type, attributes)):
            attributes = tuple(attributes)
        else:
            attributes = tuple(map(dict, attributes))
        return (
            tuple(self.timestamps),
            tuple(self.names),
            tuple(self.entities),
            tuple(self.source_ips),
            tuple(self.hosts),
            tuple(self.monitors),
            attributes,
        )


def pack_alert_columns(alerts: Sequence[Alert]) -> AlertColumns:
    """Pack an alert batch into the columnar wire representation.

    Pickling a batch of :class:`Alert` dataclass instances pays a
    per-object reconstruction cost (class reference, field dict) on
    both sides of a process boundary.  Parallel tuples of primitive
    fields pickle as flat buffers instead; the receiving side reads
    them as a batch with :meth:`NormalizedBatch.of_columns`.  The values of
    :meth:`NormalizedBatch.columns` of ``NormalizedBatch.of_alerts(alerts)``,
    but every attribute dict is a copy, never the alert's own.
    """
    *fields, attributes = NormalizedBatch.of_alerts(alerts).columns()
    return (*fields, None if attributes is None else tuple(map(dict, attributes)))


class AlertColumnsCodecError(ValueError):
    """A batch the flat codec cannot express (or a corrupt buffer).

    Raised by :func:`encode_alert_columns` for batches outside the
    codec's type set (the shard transport treats it as "ship pickled
    columns on the pipe", not as an error) and by
    :func:`decode_alert_columns` for any buffer that is not a
    well-formed encoding.  Neither function raises anything else for
    bad input.
    """


#: Magic prefix of the flat alert-columns layout.  The ring that
#: carries it is never persisted, so a layout change only bumps it.
ALERT_COLUMNS_MAGIC = b"ACB2"

_HEADER = struct.Struct("<4sBI")
_U32 = struct.Struct("<I")
_U32_MAX = 0xFFFFFFFF

#: Attribute values the service's JSON wire carries exactly, by exact
#: type (an ``IntEnum`` or ``str`` subclass would come back as its base).
_SCALARS = frozenset((type(None), bool, int, float, str))
_KEYS = frozenset((str,))
_DICTS = frozenset((dict,))
_FLOATS = frozenset((float,))
#: Deepest attribute nesting the encoder admits, in containers with the
#: alert's attribute dict counted: far below the interpreter's recursion
#: limit, so the worker's ``json.loads`` of a batch cannot run out of stack.
_MAX_DEPTH = 100
#: The bits of the one NaN ``json.loads`` builds; any other NaN would
#: not come back bit-identical.
_JSON_NAN = struct.pack("<d", float("nan"))


def _check_values(values, depth: int) -> None:
    """Raise unless ``values``, held ``depth`` containers deep, are JSON-exact."""
    if depth > _MAX_DEPTH:
        raise AlertColumnsCodecError(f"attributes nest deeper than {_MAX_DEPTH}")
    for value in values:
        kind = type(value)
        if kind is dict:
            if not _KEYS.issuperset(map(type, value)):
                raise AlertColumnsCodecError("attribute keys must be str")
            _check_values(value.values(), depth + 1)
        elif kind is list:
            _check_values(value, depth + 1)
        elif kind is float:
            if value != value and struct.pack("<d", value) != _JSON_NAN:
                raise AlertColumnsCodecError("a NaN payload JSON cannot carry")
        elif kind not in _SCALARS:
            raise AlertColumnsCodecError(
                f"attribute value of type {kind.__name__} is outside the "
                "JSON wire's types"
            )


def _encode_attributes(attributes) -> bytes:
    """One JSON array of the per-alert attribute dicts, as ASCII bytes.

    A batch of flat scalar dicts is admitted by two set checks over all
    its keys and values at once; only a batch holding a container (or
    the text ``NaN``) is walked value by value.
    """
    if not _DICTS.issuperset(map(type, attributes)):
        raise AlertColumnsCodecError("attribute mappings must be dicts")
    if not _KEYS.issuperset(map(type, itertools.chain.from_iterable(attributes))):
        raise AlertColumnsCodecError("attribute keys must be str")
    values = list(itertools.chain.from_iterable(map(dict.values, attributes)))
    if not _SCALARS.issuperset(map(type, values)):
        _check_values(values, 1)
    document = json.dumps(attributes, check_circular=False, separators=(",", ":"))
    if "NaN" in document:
        _check_values(values, 1)
    return document.encode("ascii")


def _encode_str_column(out: bytearray, column: Sequence[str], count: int) -> None:
    """Append one string column: u32 code-point lengths, u32 size, UTF-8."""
    raw = "".join(column).encode("utf-8")
    if len(raw) > _U32_MAX:
        raise AlertColumnsCodecError("string column exceeds the u32 size prefix")
    out += np.fromiter(map(len, column), dtype="<u4", count=count).tobytes()
    out += _U32.pack(len(raw))
    out += raw


def encode_alert_columns(columns: AlertColumns) -> bytes:
    """Flat layout of a :func:`pack_alert_columns` batch.

    A header (magic, flags, count), the timestamps as little-endian
    f8, then each string column as u32 code-point lengths, a u32 byte
    size and one UTF-8 blob, then (flag bit 0) the attribute column as
    a u32 byte size and one JSON array.  No pickle opcodes anywhere, so
    a worker process can :func:`decode_alert_columns` straight out of a
    shared-memory ring without deserialising attacker-influenced pickle,
    and no Python runs per value on the common path.

    Raises :class:`AlertColumnsCodecError` for a batch outside the
    codec's type set: a non-float timestamp, a non-str or surrogate
    string field, or an attribute value beyond what the service's JSON
    wire carries exactly (``None``, ``bool``, ``int``, ``float``,
    ``str``, and lists and str-keyed dicts of these, nested at most
    :data:`_MAX_DEPTH` deep; bytes, tuples, sets, ``complex``, non-str
    keys, ints too long for ``str()`` and NaNs other than the one
    ``json.loads`` builds are out).  The shard transport ships such a
    batch as pickled columns instead.
    """
    timestamps, names, entities, source_ips, hosts, monitors, attributes = columns
    count = len(names)
    if not _FLOATS.issuperset(map(type, timestamps)):
        raise AlertColumnsCodecError("timestamps must be float")
    out = bytearray()
    out += _HEADER.pack(ALERT_COLUMNS_MAGIC, 0 if attributes is None else 1, count)
    try:
        out += np.fromiter(timestamps, dtype="<f8", count=count).tobytes()
        for column in (names, entities, source_ips, hosts, monitors):
            _encode_str_column(out, column, count)
        if attributes is not None:
            document = _encode_attributes(attributes)
            out += _U32.pack(len(document))
            out += document
    except AlertColumnsCodecError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise AlertColumnsCodecError(f"{type(exc).__name__}: {exc}") from exc
    return bytes(out)


def _take(buf: bytes, offset: int, size: int) -> bytes:
    """``size`` bytes of ``buf`` at ``offset``; raises when truncated."""
    chunk = buf[offset : offset + size]
    if len(chunk) != size:
        raise AlertColumnsCodecError("truncated column")
    return chunk


def decode_alert_columns(buffer) -> AlertColumns:
    """Inverse of :func:`encode_alert_columns` (accepts any buffer view).

    Returns the exact :func:`pack_alert_columns` tuple shape, so
    ``NormalizedBatch.of_columns(decode_alert_columns(encode_alert_columns(
    pack_alert_columns(batch)))).alerts()`` rebuilds ``batch`` field-for-field.
    Each string column is decoded once and sliced (a column of one
    repeated value is not sliced at all); the attribute column is one
    ``json.loads``.
    """
    # One bulk copy out of the caller's view (a shared-memory ring
    # window on the worker path); everything below slices plain bytes.
    buf = buffer if type(buffer) is bytes else bytes(buffer)
    try:
        magic, flags, count = _HEADER.unpack_from(buf, 0)
        if magic != ALERT_COLUMNS_MAGIC:
            raise AlertColumnsCodecError(f"bad magic {magic!r}")
        offset = _HEADER.size
        stamps = _take(buf, offset, 8 * count)
        timestamps = tuple(np.frombuffer(stamps, dtype="<f8").tolist())
        offset += 8 * count
        string_columns = []
        for _ in range(5):
            lengths = np.frombuffer(_take(buf, offset, 4 * count), dtype="<u4")
            (size,) = _U32.unpack_from(buf, offset + 4 * count)
            offset += 4 * count + 4
            text = _take(buf, offset, size).decode("utf-8")
            offset += size
            ends = np.cumsum(lengths, dtype=np.int64).tolist()
            if (ends[-1] if count else 0) != len(text):
                raise AlertColumnsCodecError("string lengths disagree with the blob")
            first = text[: ends[0]] if count else ""
            # One value repeated (a sub-batch's monitor or host, often):
            # share it rather than slice ``count`` equal copies.  The
            # length checks come first so the product is never larger
            # than the blob itself.
            if (
                count
                and len(first) * count == len(text)
                and lengths.max() == len(first)
                and text == first * count
            ):
                string_columns.append((first,) * count)
                continue
            # A comprehension slices ~1.5x faster than map(slice, ...).
            string_columns.append(
                tuple([text[start:end] for start, end in zip([0] + ends, ends)])
            )
        attributes: Optional[tuple] = None
        if flags & 1:
            (size,) = _U32.unpack_from(buf, offset)
            offset += 4
            decoded = json.loads(_take(buf, offset, size).decode("ascii"))
            offset += size
            if (
                type(decoded) is not list
                or len(decoded) != count
                or not _DICTS.issuperset(map(type, decoded))
            ):
                raise AlertColumnsCodecError("attribute column is not one dict per alert")
            attributes = tuple(decoded)
    except AlertColumnsCodecError:
        raise
    except (struct.error, ValueError, RecursionError) as exc:
        raise AlertColumnsCodecError(f"{type(exc).__name__}: {exc}") from exc
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
    "NormalizedBatch",
    "pack_alert_columns",
    "AlertColumnsCodecError",
    "ALERT_COLUMNS_MAGIC",
    "encode_alert_columns",
    "decode_alert_columns",
]
