"""Catalogue of recurring attack-alert patterns (S1..S43).

The paper mines the >200-incident corpus for common alert sequences and
names them S1 through S43 (Fig. 3b).  Their key published properties:

* pattern lengths range from two up to fourteen alerts,
* the most frequent pattern (S1) was seen 14 times across the corpus,
* the single most persistent motif -- download a source file over
  unsecured HTTP, compile it as a kernel module, erase the forensic
  trace -- was first observed in 2002 and is present in 60.08 % of all
  incidents (as a motif inside longer sequences),
* patterns mostly describe the *onset* of an attack (gaining access and
  establishing a foothold), which is what makes them usable for
  preemption.

The real catalogue is withheld pending publication, so this module
defines a faithful synthetic stand-in: 43 named patterns over the
default alert vocabulary, organised by attack family, with lengths and
a frequency profile matching Fig. 3b.  The catalogue is consumed by

* :mod:`repro.incidents.generator` -- incidents are built by
  instantiating these patterns (plus noise), so the corpus's Fig. 3b
  histogram is recovered by attributing the generated sequences rather
  than by construction,
* :mod:`repro.core.training` -- pattern factor weights,
* :mod:`repro.core.attack_tagger` -- pattern factors at detection time.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Sequence

from ..core.sequences import is_subsequence


@dataclasses.dataclass(frozen=True)
class AttackPattern:
    """One named, ordered alert-sequence pattern.

    Attributes
    ----------
    name:
        Pattern identifier (``S1`` .. ``S43``).
    names:
        Ordered tuple of symbolic alert names.
    family:
        Attack family the pattern belongs to (rootkit, ransomware,
        credential theft, ...), used by the incident generator.
    first_seen_year:
        Year the pattern first appeared in the (synthetic) corpus;
        mirrors the paper's observation that the download/compile/erase
        pattern dates back to 2002.
    base_frequency:
        Target number of occurrences across a >200-incident corpus;
        drives the generator so the re-mined Fig. 3b histogram matches.
    """

    name: str
    names: tuple[str, ...]
    family: str
    first_seen_year: int = 2002
    base_frequency: int = 1

    def __post_init__(self) -> None:
        if len(self.names) < 2:
            raise ValueError(f"pattern {self.name}: patterns have at least two alerts")
        if len(self.names) > 14:
            raise ValueError(f"pattern {self.name}: patterns have at most fourteen alerts")
        if self.base_frequency < 1:
            raise ValueError(f"pattern {self.name}: base_frequency must be >= 1")

    @property
    def length(self) -> int:
        """Number of alerts in the pattern."""
        return len(self.names)

    def occurs_in(self, names: Sequence[str]) -> bool:
        """Whether the pattern occurs (as an ordered subsequence) in ``names``."""
        return is_subsequence(self.names, names)

    def proper_prefixes(self) -> list[tuple[str, ...]]:
        """Every proper prefix of the backbone (length 1 .. length-1).

        These are the *near-miss* inputs for adversarial workloads: an
        entity that emits a proper prefix walks the detector right up
        to the pattern boundary without completing it, stressing the
        pattern-cursor bookkeeping without (necessarily) firing.
        """
        return [self.names[:length] for length in range(1, len(self.names))]

    def mutated(self, position: int, replacement: str) -> tuple[str, ...]:
        """The backbone with the alert at ``position`` substituted.

        Another near-miss shape: the sequence has the pattern's length
        and all but one of its alerts, so every cursor advances except
        the one crossing the substituted step.
        """
        if not 0 <= position < len(self.names):
            raise IndexError(f"pattern {self.name}: no position {position}")
        names = list(self.names)
        names[position] = replacement
        return tuple(names)


#: The signature motif called out repeatedly in the paper.
DOWNLOAD_COMPILE_ERASE: tuple[str, ...] = (
    "alert_download_sensitive",
    "alert_compile_kernel_module",
    "alert_erase_forensic_trace",
)

#: Alert types accepted for the "compile" step when the motif is matched
#: semantically (the paper describes the behaviour, not an exact symbol).
COMPILE_ALERTS: tuple[str, ...] = (
    "alert_compile_kernel_module",
    "alert_suspicious_compile",
)


def contains_download_compile_erase(names: Sequence[str]) -> bool:
    """Semantic containment test for the download/compile/erase motif.

    The paper describes the motif behaviourally: download a source file
    over unsecured HTTP, compile it, erase the forensic trace.  The
    compile step may surface as either a kernel-module build or a
    generic suspicious compilation, so both symbols are accepted.
    """
    state = 0
    for name in names:
        if state == 0 and name == "alert_download_sensitive":
            state = 1
        elif state == 1 and name in COMPILE_ALERTS:
            state = 2
        elif state == 2 and name == "alert_erase_forensic_trace":
            return True
    return False


class PatternCatalogue:
    """Container for the S1..S43 catalogue with lookup helpers."""

    def __init__(self, patterns: Sequence[AttackPattern]) -> None:
        names = [p.name for p in patterns]
        if len(set(names)) != len(names):
            raise ValueError("pattern names must be unique")
        self._patterns: dict[str, AttackPattern] = {p.name: p for p in patterns}

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[AttackPattern]:
        return iter(self._patterns.values())

    def get(self, name: str) -> AttackPattern:
        """Pattern by name (KeyError if absent)."""
        return self._patterns[name]

    def names(self) -> list[str]:
        """All pattern names in catalogue order."""
        return list(self._patterns)


def _rootkit_patterns() -> list[AttackPattern]:
    """Patterns of the classic credential-theft / rootkit family."""
    return [
        AttackPattern(
            "S1",
            (
                "alert_login_new_origin",
                "alert_download_sensitive",
                "alert_compile_kernel_module",
                "alert_erase_forensic_trace",
            ),
            family="rootkit",
            first_seen_year=2002,
            base_frequency=14,
        ),
        AttackPattern(
            "S2",
            DOWNLOAD_COMPILE_ERASE,
            family="rootkit",
            first_seen_year=2002,
            base_frequency=12,
        ),
        AttackPattern(
            "S3",
            (
                "alert_login_stolen_credential",
                "alert_download_sensitive",
                "alert_suspicious_compile",
                "alert_privilege_escalation",
            ),
            family="rootkit",
            first_seen_year=2004,
            base_frequency=10,
        ),
        AttackPattern(
            "S4",
            (
                "alert_download_exploit_kit",
                "alert_compile_kernel_module",
                "alert_kernel_module_loaded",
                "alert_erase_forensic_trace",
            ),
            family="rootkit",
            first_seen_year=2005,
            base_frequency=8,
        ),
        AttackPattern(
            "S5",
            (
                "alert_login_unusual_hour",
                "alert_download_sensitive",
                "alert_suspicious_compile",
            ),
            family="rootkit",
            first_seen_year=2003,
            base_frequency=9,
        ),
        AttackPattern(
            "S6",
            (
                "alert_download_sensitive",
                "alert_suspicious_compile",
                "alert_setuid_binary_created",
                "alert_erase_forensic_trace",
            ),
            family="rootkit",
            first_seen_year=2006,
            base_frequency=6,
        ),
        AttackPattern(
            "S7",
            (
                "alert_bruteforce_ssh",
                "alert_login_new_origin",
                "alert_download_sensitive",
                "alert_compile_kernel_module",
                "alert_erase_forensic_trace",
            ),
            family="rootkit",
            first_seen_year=2007,
            base_frequency=5,
        ),
    ]


def _credential_theft_patterns() -> list[AttackPattern]:
    """SSH keylogger / credential-stealing family."""
    return [
        AttackPattern(
            "S8",
            (
                "alert_login_stolen_credential",
                "alert_privilege_escalation",
                "alert_ssh_daemon_replaced",
            ),
            family="credential_theft",
            first_seen_year=2008,
            base_frequency=9,
        ),
        AttackPattern(
            "S9",
            (
                "alert_login_stolen_credential",
                "alert_ssh_daemon_replaced",
                "alert_keylogger_detected",
                "alert_credential_dump_upload",
            ),
            family="credential_theft",
            first_seen_year=2008,
            base_frequency=7,
        ),
        AttackPattern(
            "S10",
            (
                "alert_login_new_origin",
                "alert_privilege_escalation",
                "alert_keylogger_detected",
            ),
            family="credential_theft",
            first_seen_year=2009,
            base_frequency=6,
        ),
        AttackPattern(
            "S11",
            (
                "alert_login_unusual_hour",
                "alert_sudo_policy_violation",
                "alert_privilege_escalation",
                "alert_credential_dump_upload",
            ),
            family="credential_theft",
            first_seen_year=2010,
            base_frequency=5,
        ),
        AttackPattern(
            "S12",
            (
                "alert_login_stolen_credential",
                "alert_new_ssh_key_added",
                "alert_lateral_ssh_batch",
            ),
            family="credential_theft",
            first_seen_year=2011,
            base_frequency=6,
        ),
        AttackPattern(
            "S13",
            (
                "alert_bruteforce_ssh",
                "alert_login_stolen_credential",
            ),
            family="credential_theft",
            first_seen_year=2009,
            base_frequency=4,
        ),
    ]


def _ransomware_patterns() -> list[AttackPattern]:
    """Database-resident ransomware family (the §V case study)."""
    return [
        AttackPattern(
            "S14",
            (
                "alert_db_port_probe",
                "alert_db_default_password_login",
                "alert_service_version_probe",
                "alert_db_largeobject_payload",
            ),
            family="ransomware",
            first_seen_year=2019,
            base_frequency=7,
        ),
        AttackPattern(
            "S15",
            (
                "alert_db_default_password_login",
                "alert_service_version_probe",
                "alert_db_largeobject_payload",
                "alert_tmp_executable_created",
                "alert_outbound_c2",
            ),
            family="ransomware",
            first_seen_year=2020,
            base_frequency=5,
        ),
        AttackPattern(
            "S16",
            (
                "alert_db_largeobject_payload",
                "alert_tmp_executable_created",
                "alert_ssh_key_enumeration",
                "alert_lateral_ssh_batch",
            ),
            family="ransomware",
            first_seen_year=2020,
            base_frequency=4,
        ),
        AttackPattern(
            "S17",
            (
                "alert_db_port_probe",
                "alert_db_default_password_login",
                "alert_db_largeobject_payload",
                "alert_tmp_executable_created",
                "alert_download_second_stage",
                "alert_ssh_scanning_outbound",
                "alert_ransom_note_created",
            ),
            family="ransomware",
            first_seen_year=2021,
            base_frequency=3,
        ),
        AttackPattern(
            "S18",
            (
                "alert_service_version_probe",
                "alert_db_file_export",
                "alert_mass_file_encryption",
            ),
            family="ransomware",
            first_seen_year=2021,
            base_frequency=3,
        ),
        AttackPattern(
            "S19",
            (
                "alert_db_default_password_login",
                "alert_db_largeobject_payload",
                "alert_outbound_c2",
                "alert_ransom_note_created",
                "alert_erase_forensic_trace",
            ),
            family="ransomware",
            first_seen_year=2022,
            base_frequency=2,
        ),
    ]


def _lateral_movement_patterns() -> list[AttackPattern]:
    """SSH-key harvesting and lateral-movement family."""
    return [
        AttackPattern(
            "S20",
            (
                "alert_ssh_key_enumeration",
                "alert_known_hosts_enumeration",
                "alert_lateral_ssh_batch",
            ),
            family="lateral_movement",
            first_seen_year=2012,
            base_frequency=8,
        ),
        AttackPattern(
            "S21",
            (
                "alert_login_stolen_credential",
                "alert_ssh_key_enumeration",
                "alert_lateral_ssh_batch",
                "alert_internal_host_compromise",
            ),
            family="lateral_movement",
            first_seen_year=2013,
            base_frequency=5,
        ),
        AttackPattern(
            "S22",
            (
                "alert_known_hosts_enumeration",
                "alert_lateral_ssh_batch",
                "alert_ssh_scanning_outbound",
            ),
            family="lateral_movement",
            first_seen_year=2014,
            base_frequency=4,
        ),
        AttackPattern(
            "S23",
            (
                "alert_ssh_key_enumeration",
                "alert_lateral_ssh_batch",
                "alert_internal_host_compromise",
                "alert_new_ssh_key_added",
                "alert_erase_forensic_trace",
            ),
            family="lateral_movement",
            first_seen_year=2015,
            base_frequency=3,
        ),
        AttackPattern(
            "S24",
            (
                "alert_login_new_origin",
                "alert_known_hosts_enumeration",
                "alert_lateral_ssh_batch",
            ),
            family="lateral_movement",
            first_seen_year=2013,
            base_frequency=4,
        ),
    ]


def _webexploit_patterns() -> list[AttackPattern]:
    """Web/application exploitation family (SQL injection, Struts-style RCE)."""
    return [
        AttackPattern(
            "S25",
            (
                "alert_vuln_scan",
                "alert_remote_code_execution",
                "alert_download_sensitive",
            ),
            family="web_exploit",
            first_seen_year=2010,
            base_frequency=7,
        ),
        AttackPattern(
            "S26",
            (
                "alert_vuln_scan",
                "alert_remote_code_execution",
                "alert_tmp_executable_created",
                "alert_outbound_c2",
            ),
            family="web_exploit",
            first_seen_year=2014,
            base_frequency=5,
        ),
        AttackPattern(
            "S27",
            (
                "alert_remote_code_execution",
                "alert_download_second_stage",
                "alert_cryptomining",
            ),
            family="web_exploit",
            first_seen_year=2017,
            base_frequency=5,
        ),
        AttackPattern(
            "S28",
            (
                "alert_vuln_scan",
                "alert_remote_code_execution",
                "alert_privilege_escalation",
                "alert_data_exfiltration",
            ),
            family="web_exploit",
            first_seen_year=2016,
            base_frequency=3,
        ),
        AttackPattern(
            "S29",
            (
                "alert_port_scan",
                "alert_vuln_scan",
                "alert_remote_code_execution",
                "alert_download_sensitive",
                "alert_suspicious_compile",
                "alert_outbound_c2",
            ),
            family="web_exploit",
            first_seen_year=2018,
            base_frequency=2,
        ),
    ]


def _data_exfiltration_patterns() -> list[AttackPattern]:
    """Data-breach / exfiltration family."""
    return [
        AttackPattern(
            "S30",
            (
                "alert_login_stolen_credential",
                "alert_research_data_staging",
                "alert_data_exfiltration",
            ),
            family="data_exfiltration",
            first_seen_year=2011,
            base_frequency=6,
        ),
        AttackPattern(
            "S31",
            (
                "alert_login_new_origin",
                "alert_research_data_staging",
                "alert_pii_in_http",
            ),
            family="data_exfiltration",
            first_seen_year=2012,
            base_frequency=4,
        ),
        AttackPattern(
            "S32",
            (
                "alert_privilege_escalation",
                "alert_research_data_staging",
                "alert_data_exfiltration",
                "alert_erase_forensic_trace",
            ),
            family="data_exfiltration",
            first_seen_year=2013,
            base_frequency=3,
        ),
        AttackPattern(
            "S33",
            (
                "alert_login_unusual_hour",
                "alert_research_data_staging",
                "alert_data_exfiltration",
            ),
            family="data_exfiltration",
            first_seen_year=2015,
            base_frequency=3,
        ),
        AttackPattern(
            "S34",
            (
                "alert_ghost_account_login",
                "alert_research_data_staging",
                "alert_pii_in_http",
                "alert_erase_forensic_trace",
            ),
            family="data_exfiltration",
            first_seen_year=2019,
            base_frequency=2,
        ),
    ]


def _cryptomining_patterns() -> list[AttackPattern]:
    """Resource-misuse / cryptomining family."""
    return [
        AttackPattern(
            "S35",
            (
                "alert_login_stolen_credential",
                "alert_download_second_stage",
                "alert_cryptomining",
            ),
            family="cryptomining",
            first_seen_year=2017,
            base_frequency=6,
        ),
        AttackPattern(
            "S36",
            (
                "alert_bruteforce_ssh",
                "alert_login_new_origin",
                "alert_download_second_stage",
                "alert_cryptomining",
            ),
            family="cryptomining",
            first_seen_year=2018,
            base_frequency=4,
        ),
        AttackPattern(
            "S37",
            (
                "alert_remote_code_execution",
                "alert_tmp_executable_created",
                "alert_cryptomining",
                "alert_cron_implant",
            ),
            family="cryptomining",
            first_seen_year=2019,
            base_frequency=3,
        ),
        AttackPattern(
            "S38",
            (
                "alert_login_new_origin",
                "alert_cron_implant",
                "alert_cryptomining",
            ),
            family="cryptomining",
            first_seen_year=2020,
            base_frequency=3,
        ),
    ]


def _persistence_patterns() -> list[AttackPattern]:
    """Backdoor / persistence family, including long multi-stage chains."""
    return [
        AttackPattern(
            "S39",
            (
                "alert_login_stolen_credential",
                "alert_backdoor_account_created",
                "alert_new_ssh_key_added",
            ),
            family="persistence",
            first_seen_year=2006,
            base_frequency=5,
        ),
        AttackPattern(
            "S40",
            (
                "alert_login_new_origin",
                "alert_privilege_escalation",
                "alert_backdoor_account_created",
                "alert_monitor_disabled",
            ),
            family="persistence",
            first_seen_year=2010,
            base_frequency=3,
        ),
        AttackPattern(
            "S41",
            (
                "alert_download_sensitive",
                "alert_suspicious_compile",
                "alert_cron_implant",
                "alert_new_ssh_key_added",
                "alert_erase_forensic_trace",
            ),
            family="persistence",
            first_seen_year=2012,
            base_frequency=2,
        ),
        AttackPattern(
            "S42",
            (
                "alert_bruteforce_ssh",
                "alert_login_failure_burst",
                "alert_login_stolen_credential",
                "alert_download_sensitive",
                "alert_suspicious_compile",
                "alert_privilege_escalation",
                "alert_backdoor_account_created",
                "alert_new_ssh_key_added",
                "alert_ssh_key_enumeration",
                "alert_lateral_ssh_batch",
                "alert_internal_host_compromise",
                "alert_research_data_staging",
                "alert_data_exfiltration",
                "alert_erase_forensic_trace",
            ),
            family="persistence",
            first_seen_year=2016,
            base_frequency=1,
        ),
        AttackPattern(
            "S43",
            (
                "alert_ghost_account_login",
                "alert_privilege_escalation",
                "alert_rootkit_detected",
                "alert_monitor_disabled",
                "alert_data_exfiltration",
                "alert_erase_forensic_trace",
            ),
            family="persistence",
            first_seen_year=2021,
            base_frequency=1,
        ),
    ]


def build_default_catalogue() -> PatternCatalogue:
    """Build the default 43-pattern catalogue described in the paper."""
    patterns: list[AttackPattern] = []
    patterns.extend(_rootkit_patterns())
    patterns.extend(_credential_theft_patterns())
    patterns.extend(_ransomware_patterns())
    patterns.extend(_lateral_movement_patterns())
    patterns.extend(_webexploit_patterns())
    patterns.extend(_data_exfiltration_patterns())
    patterns.extend(_cryptomining_patterns())
    patterns.extend(_persistence_patterns())
    if len(patterns) != 43:
        raise AssertionError(f"default catalogue must have 43 patterns, got {len(patterns)}")
    return PatternCatalogue(patterns)


#: Shared default catalogue instance.
DEFAULT_CATALOGUE: PatternCatalogue = build_default_catalogue()


def download_compile_erase_prevalence(sequences: Sequence[Sequence[str]]) -> float:
    """Fraction of sequences containing the download/compile/erase motif.

    The paper reports 60.08 % (137 of 228 incidents).  Matching is
    semantic (see :func:`contains_download_compile_erase`).
    """
    if not sequences:
        return 0.0
    hits = sum(1 for names in sequences if contains_download_compile_erase(names))
    return hits / len(sequences)


__all__ = [
    "AttackPattern",
    "PatternCatalogue",
    "DOWNLOAD_COMPILE_ERASE",
    "COMPILE_ALERTS",
    "contains_download_compile_erase",
    "build_default_catalogue",
    "DEFAULT_CATALOGUE",
    "download_compile_erase_prevalence",
]
