"""Synthetic longitudinal incident corpus generator.

NCSA's real incident archive (2000-2024, ~30 TB, >200 incidents) is
private, so the reproduction generates a synthetic corpus that matches
the *published statistics* of the dataset while exercising exactly the
same analysis and detection code paths:

* 228 incidents spanning 2000-2024 (the paper says "more than 200"; its
  60.08 % = 137/228 figure pins the exact count),
* every incident instantiates one of the S1..S43 catalogue patterns as
  its backbone (plus a handful of one-of-a-kind "sudden" attacks),
  interleaved with benign background alerts,
* the download/compile/erase motif is present -- natively or as
  injected secondary activity -- in 60.08 % of incidents,
* critical alerts are rare, unique-typed, and occur only at or after the
  damage boundary,
* alert timing follows Insight 3: regular, machine-generated gaps during
  reconnaissance and highly variable, human-driven gaps afterwards,
* raw/filtered alert bookkeeping reproduces Table I's 25 M -> 191 K
  reduction and the ~94 K alerts/day volume of Fig. 2.

Everything is driven by an explicit :class:`numpy.random.Generator`, so
corpora are reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from typing import Optional, Sequence

import numpy as np

from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from ..core.sequences import AlertSequence
from ..core.states import AttackStage
from .corpus import IncidentCorpus
from .incident import GroundTruth, Incident
from .patterns import (
    COMPILE_ALERTS,
    DEFAULT_CATALOGUE,
    PatternCatalogue,
    contains_download_compile_erase,
)

#: Number of incidents in the default corpus (137 / 228 = 60.08 %).
DEFAULT_NUM_INCIDENTS = 228

#: Published Table I / Fig. 2 calibration targets.
TARGET_RAW_ALERTS = 25_000_000
TARGET_FILTERED_ALERTS = 191_000
TARGET_DAILY_MEAN = 94_238
TARGET_DAILY_STD = 23_547
TARGET_MOTIF_PREVALENCE = 137 / 228

#: Benign background alert types safe to interleave into attack windows
#: (they never complete a catalogue pattern).
_BENIGN_NOISE = (
    "alert_login_normal",
    "alert_job_submission",
    "alert_file_transfer",
    "alert_cron_job",
    "alert_software_build",
    "alert_package_install",
    "alert_ssh_config_change",
)

#: High-volume attempt alerts that dominate the unfiltered stream.
_SCAN_NOISE = (
    "alert_port_scan",
    "alert_address_sweep",
    "alert_vuln_scan",
    "alert_bruteforce_ssh",
)

#: Auxiliary (incident-specific) attack alerts.  None of these appears in
#: the S1..S43 catalogue, so they never affect pattern mining; their role
#: is to make each incident's alert set partially unique, which is what
#: keeps pairwise attack similarity below 33 % for the vast majority of
#: attack pairs (Fig. 3a).
_AUX_ATTACK_ALERTS = (
    "alert_struts_probe",
    "alert_sql_injection_attempt",
    "alert_xss_probe",
    "alert_ftp_anonymous_login",
    "alert_telnet_login_attempt",
    "alert_smtp_relay_probe",
    "alert_dns_amplification_probe",
    "alert_ntp_monlist_probe",
    "alert_snmp_public_query",
    "alert_rdp_bruteforce",
    "alert_vnc_open_port",
    "alert_redis_unauth_access",
    "alert_mongodb_unauth_access",
    "alert_elasticsearch_open_index",
    "alert_docker_api_exposed",
    "alert_k8s_api_probe",
    "alert_jupyter_open_notebook",
    "alert_smb_scan",
    "alert_ipmi_probe",
    "alert_password_spray",
    "alert_webshell_upload",
    "alert_cve_exploit_attempt",
    "alert_phishing_landing",
    "alert_tor_exit_connection",
    "alert_geoip_anomaly",
    "alert_useragent_anomaly",
    "alert_ssh_protocol_mismatch",
    "alert_gridftp_anomaly",
    "alert_beacon_periodicity",
    "alert_certificate_invalid",
    "alert_dynamic_dns_lookup",
    "alert_uncommon_port_egress",
)

#: Weak variant of the download/compile/erase motif used for injection
#: (suspicious_compile instead of a kernel-module build), chosen so the
#: injection cannot be confused with the S2 catalogue pattern during
#: mining while still satisfying the semantic motif test.
_WEAK_MOTIF = (
    "alert_download_sensitive",
    "alert_suspicious_compile",
    "alert_erase_forensic_trace",
)

#: One-of-a-kind "sudden" attacks (cannot be preempted; §III.C scope).
_SINGLETON_SHAPES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("zero_day_rce", ("alert_remote_code_execution", "alert_data_exfiltration")),
    ("insider_exfil", ("alert_research_data_staging", "alert_pii_in_http")),
    ("instant_wiper", ("alert_remote_code_execution", "alert_mass_file_encryption")),
    ("db_smash", ("alert_db_default_password_login", "alert_db_table_drop_burst")),
    ("malware_drop", ("alert_download_exploit_kit", "alert_malicious_binary_installed")),
    ("audit_kill", ("alert_login_stolen_credential", "alert_monitor_disabled")),
    ("stomp_and_go", ("alert_privilege_escalation", "alert_timestomp")),
    ("log_wipe_only", ("alert_login_new_origin", "alert_log_tamper")),
    ("ghost_probe", ("alert_ghost_account_login", "alert_service_version_probe")),
    ("miner_flash", ("alert_remote_code_execution", "alert_cryptomining")),
    ("scanner_break", ("alert_vuln_scan", "alert_remote_code_execution", "alert_data_exfiltration")),
)


def _contained_in_some_interleaving(
    pattern: Sequence[str],
    backbone: Sequence[str],
    motif: Sequence[str],
) -> bool:
    """Whether ``pattern`` is a subsequence of *some* interleaving of
    ``backbone`` and ``motif`` (each keeping its internal order).

    Equivalent to asking whether ``pattern`` can be partitioned into two
    order-preserving subsequences, one drawn from ``backbone`` and one
    from ``motif``.  Decided with a reachability DP over
    ``(backbone position, motif position)`` pairs after each pattern
    symbol.
    """
    reachable: set[tuple[int, int]] = {(0, 0)}
    for symbol in pattern:
        nxt: set[tuple[int, int]] = set()
        for b_pos, m_pos in reachable:
            # Consume the symbol from the backbone at/after b_pos.
            for i in range(b_pos, len(backbone)):
                if backbone[i] == symbol:
                    nxt.add((i + 1, m_pos))
                    break
            # Or consume it from the motif at/after m_pos.
            for j in range(m_pos, len(motif)):
                if motif[j] == symbol:
                    nxt.add((b_pos, j + 1))
                    break
        if not nxt:
            return False
        reachable = nxt
    return True


@dataclasses.dataclass
class GeneratorConfig:
    """Tunable parameters of the corpus generator."""

    num_incidents: int = DEFAULT_NUM_INCIDENTS
    start_year: int = 2000
    end_year: int = 2024
    motif_prevalence: float = TARGET_MOTIF_PREVALENCE
    benign_noise_per_incident: tuple[int, int] = (1, 4)
    auxiliary_alerts_per_incident: tuple[int, int] = (3, 6)
    raw_alert_target: int = TARGET_RAW_ALERTS
    filtered_alert_target: int = TARGET_FILTERED_ALERTS
    # Archived bytes per recorded alert: the 30 TB archive holds full packet
    # captures, system logs and forensic images, not just the alert lines.
    bytes_per_raw_alert: int = 1_200_000

    def __post_init__(self) -> None:
        if self.num_incidents < 1:
            raise ValueError("num_incidents must be positive")
        if self.end_year < self.start_year:
            raise ValueError("end_year must not precede start_year")
        if not 0.0 <= self.motif_prevalence <= 1.0:
            raise ValueError("motif_prevalence must be a fraction")


class IncidentGenerator:
    """Deterministic generator for the synthetic longitudinal corpus."""

    def __init__(
        self,
        seed: int = 7,
        *,
        catalogue: Optional[PatternCatalogue] = None,
        vocabulary: Optional[AlertVocabulary] = None,
        config: Optional[GeneratorConfig] = None,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.catalogue = catalogue or DEFAULT_CATALOGUE
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.config = config or GeneratorConfig()

    # ------------------------------------------------------------------
    # Timing helpers (Insight 3)
    # ------------------------------------------------------------------
    def _incident_start(self, year: int) -> float:
        """Random start timestamp within ``year`` (UTC)."""
        base = _dt.datetime(year, 1, 1, tzinfo=_dt.timezone.utc).timestamp()
        span = 364 * 86_400
        return float(base + self.rng.integers(0, span) + self.rng.integers(0, 86_400))

    def _next_gap(self, stage: AttackStage) -> float:
        """Gap to the next alert, conditioned on the current stage.

        Reconnaissance alerts are machine-generated and closely spaced;
        once the attacker works interactively the gaps become long and
        highly variable (minutes to many hours).
        """
        if stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE):
            return float(self.rng.gamma(shape=2.0, scale=45.0))  # ~1-3 minutes
        if stage in (AttackStage.FOOTHOLD, AttackStage.ESCALATION):
            return float(self.rng.lognormal(mean=6.0, sigma=1.2))  # minutes to an hour
        return float(self.rng.lognormal(mean=7.5, sigma=1.5))  # tens of minutes to many hours

    # ------------------------------------------------------------------
    # Single-incident construction
    # ------------------------------------------------------------------
    def _attacker_ip(self) -> str:
        """Random external attacker IP (outside the 141.142/16 target space)."""
        first = int(self.rng.choice([45, 62, 77, 91, 103, 111, 132, 185, 194, 216]))
        return f"{first}.{self.rng.integers(1, 255)}.{self.rng.integers(1, 255)}.{self.rng.integers(1, 255)}"

    def _internal_host(self) -> str:
        """Random internal host name in the simulated cluster."""
        return f"node-{int(self.rng.integers(0, 4096)):04d}"

    def _build_incident(
        self,
        index: int,
        year: int,
        family: str,
        backbone: Sequence[str],
        pattern_names: tuple[str, ...],
        *,
        inject_motif: bool,
    ) -> Incident:
        """Assemble one incident from a backbone of alert names."""
        rng = self.rng
        user = f"user{index:03d}"
        entity = f"user:{user}"
        host = self._internal_host()
        attacker_ip = self._attacker_ip()
        vocab = self.vocabulary

        names = list(backbone)
        # Optionally interleave the weak download/compile/erase motif as
        # secondary attacker activity, starting strictly after the first
        # backbone alert so pattern mining still attributes the incident
        # to its backbone pattern.
        if inject_motif and not contains_download_compile_erase(names):
            insert_positions = sorted(
                int(p) for p in rng.integers(1, len(names) + 1, size=len(_WEAK_MOTIF))
            )
            for offset, (pos, symbol) in enumerate(zip(insert_positions, _WEAK_MOTIF)):
                names.insert(pos + offset, symbol)
        # Sprinkle incident-specific auxiliary attack alerts (never at
        # position 0, so the backbone still explains the attack's onset).
        aux_low, aux_high = self.config.auxiliary_alerts_per_incident
        num_aux = int(rng.integers(aux_low, aux_high + 1))
        aux_symbols = rng.choice(_AUX_ATTACK_ALERTS, size=num_aux, replace=False)
        for symbol in aux_symbols:
            position = int(rng.integers(1, len(names) + 1))
            names.insert(position, str(symbol))
        # Interleave benign background noise.
        low, high = self.config.benign_noise_per_incident
        for _ in range(int(rng.integers(low, high + 1))):
            symbol = str(rng.choice(_BENIGN_NOISE))
            position = int(rng.integers(1, len(names) + 1))
            names.insert(position, symbol)

        timestamp = self._incident_start(year)
        alerts: list[Alert] = []
        for symbol in names:
            stage = vocab.get(symbol).stage
            alerts.append(
                Alert(
                    timestamp=timestamp,
                    name=symbol,
                    entity=entity,
                    source_ip=attacker_ip,
                    host=host,
                    monitor="zeek" if stage <= AttackStage.FOOTHOLD else "osquery",
                    attributes={"user": user},
                )
            )
            timestamp += self._next_gap(stage)

        sequence = AlertSequence(tuple(alerts))
        damage = any(
            vocab.get(a.name).stage.is_damage or vocab.get(a.name).critical for a in alerts
        )
        ground_truth = GroundTruth(
            compromised_users=(user,),
            compromised_hosts=(host,),
            attacker_ips=(attacker_ip,),
            entry_point=backbone[0],
            succeeded=True,
            data_breach=damage,
            notes=f"Synthetic incident instantiating {', '.join(pattern_names) or 'a unique sequence'}.",
        )
        raw_count = int(rng.normal(
            self.config.raw_alert_target / self.config.num_incidents,
            self.config.raw_alert_target / self.config.num_incidents * 0.15,
        ))
        return Incident(
            incident_id=f"NCSA-{year}-{index:03d}",
            year=year,
            family=family,
            sequence=sequence,
            ground_truth=ground_truth,
            pattern_names=pattern_names,
            raw_alert_count=max(1_000, raw_count),
        )

    # ------------------------------------------------------------------
    # Corpus-level planning
    # ------------------------------------------------------------------
    def _plan_assignments(self) -> list[tuple[str, tuple[str, ...], str]]:
        """Plan one (family, backbone, pattern-name) triple per incident.

        Each catalogue pattern contributes ``base_frequency`` incidents;
        singleton shapes fill the remainder up to ``num_incidents``.
        """
        plan: list[tuple[str, tuple[str, ...], str]] = []
        for pattern in self.catalogue:
            for _ in range(pattern.base_frequency):
                plan.append((pattern.family, pattern.names, pattern.name))
        singleton_index = 0
        while len(plan) < self.config.num_incidents:
            family, names = _SINGLETON_SHAPES[singleton_index % len(_SINGLETON_SHAPES)]
            plan.append((family, names, ""))
            singleton_index += 1
        if len(plan) > self.config.num_incidents:
            plan = plan[: self.config.num_incidents]
        return plan

    def _plan_years(self, plan: Sequence[tuple[str, tuple[str, ...], str]]) -> list[int]:
        """Assign a year to each planned incident.

        Pattern-backed incidents are placed uniformly between the
        pattern's ``first_seen_year`` and the end of the study period --
        this is what makes "similar alert sequences are repeatedly found
        in old and recent incidents" true of the corpus.
        """
        years: list[int] = []
        for _, _, pattern_name in plan:
            if pattern_name:
                first = max(self.catalogue.get(pattern_name).first_seen_year, self.config.start_year)
            else:
                first = self.config.start_year
            years.append(int(self.rng.integers(first, self.config.end_year + 1)))
        return years

    def _plan_motif_injection(
        self, plan: Sequence[tuple[str, tuple[str, ...], str]]
    ) -> list[bool]:
        """Decide which incidents receive the injected motif.

        Targets the configured prevalence while guaranteeing that the
        injection never creates a catalogue-pattern match longer than
        the incident's own backbone (which would corrupt Fig. 3b).
        """
        total = len(plan)
        target = int(round(self.config.motif_prevalence * total))
        natural = [contains_download_compile_erase(names) for _, names, _ in plan]
        inject = [False] * total
        have = sum(natural)
        if have >= target:
            return inject
        needed = target - have
        # Deterministic candidate order: longest backbones first (they
        # are the safest to inject into), then by plan position.
        candidates = sorted(
            (i for i in range(total) if not natural[i] and plan[i][2]),
            key=lambda i: (-len(plan[i][1]), i),
        )
        for index in candidates:
            if needed == 0:
                break
            family, backbone, pattern_name = plan[index]
            if not self._injection_is_safe(backbone, pattern_name):
                continue
            inject[index] = True
            needed -= 1
        return inject

    def _injection_is_safe(self, backbone: Sequence[str], pattern_name: str) -> bool:
        """Whether injecting the weak motif preserves pattern attribution.

        Safe means: no catalogue pattern at least as long as the backbone
        (other than the backbone's own pattern) can become an ordered
        subsequence of *any* interleaving of the backbone with the weak
        motif.  Containment-in-some-interleaving is decided exactly with
        a small dynamic program over (pattern, backbone, motif) indices,
        so Fig. 3b's pattern-mining attribution is provably unaffected by
        the injection.
        """
        own_length = len(backbone)
        for pattern in self.catalogue:
            if pattern.name == pattern_name:
                continue
            if len(pattern.names) < own_length:
                continue
            if _contained_in_some_interleaving(pattern.names, backbone, _WEAK_MOTIF):
                return False
        return True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate_corpus(self) -> IncidentCorpus:
        """Generate the full longitudinal corpus."""
        plan = self._plan_assignments()
        years = self._plan_years(plan)
        inject = self._plan_motif_injection(plan)
        incidents: list[Incident] = []
        for index, ((family, backbone, pattern_name), year, motif) in enumerate(
            zip(plan, years, inject), start=1
        ):
            pattern_names = (pattern_name,) if pattern_name else ()
            incidents.append(
                self._build_incident(
                    index, year, family, backbone, pattern_names, inject_motif=motif
                )
            )
        incidents.sort(key=lambda inc: inc.start_time)
        return IncidentCorpus(
            incidents=incidents,
            start_year=self.config.start_year,
            end_year=self.config.end_year,
            raw_alert_total=sum(i.raw_alert_count for i in incidents),
            filtered_alert_total=self._filtered_total(incidents),
            bytes_per_raw_alert=self.config.bytes_per_raw_alert,
        )

    def _filtered_total(self, incidents: Sequence[Incident]) -> int:
        """Total filtered (attack-related) alerts, calibrated to Table I.

        The curated sequences carry only the key alerts; the filtered
        count additionally includes the attack-adjacent context alerts
        the 25M->191K filter keeps, modelled proportionally per incident.
        """
        per_incident = self.config.filtered_alert_target / max(1, self.config.num_incidents)
        total = 0
        for incident in incidents:
            context = int(self.rng.normal(per_incident, per_incident * 0.2))
            total += max(incident.num_alerts, context)
        return total

    # ------------------------------------------------------------------
    # Benign traffic and daily volumes
    # ------------------------------------------------------------------
    def generate_benign_sequences(
        self,
        count: int,
        *,
        min_length: int = 3,
        max_length: int = 12,
    ) -> list[AlertSequence]:
        """Benign per-entity alert sequences (legitimate users).

        Benign users occasionally trip low-severity alerts (a login from
        a conference network, a software build), which is what makes the
        false-positive side of the evaluation non-trivial.
        """
        rng = self.rng
        sequences: list[AlertSequence] = []
        benign_pool = _BENIGN_NOISE + (
            "alert_login_new_origin",
            "alert_login_unusual_hour",
            "alert_download_sensitive",
            "alert_suspicious_compile",
            "alert_geoip_anomaly",
            "alert_useragent_anomaly",
            "alert_gridftp_anomaly",
        )
        weights = np.array([8.0] * len(_BENIGN_NOISE) + [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        weights = weights / weights.sum()
        for index in range(count):
            length = int(rng.integers(min_length, max_length + 1))
            names = list(rng.choice(benign_pool, size=length, p=weights))
            start = self._incident_start(int(rng.integers(self.config.start_year, self.config.end_year + 1)))
            timestamp = start
            alerts = []
            user = f"benign{index:04d}"
            for symbol in names:
                alerts.append(
                    Alert(
                        timestamp=timestamp,
                        name=str(symbol),
                        entity=f"user:{user}",
                        host=self._internal_host(),
                        monitor="zeek",
                        attributes={"user": user},
                    )
                )
                timestamp += float(rng.lognormal(mean=8.0, sigma=1.0))
            sequences.append(AlertSequence(tuple(alerts)))
        return sequences

    def daily_alert_volumes(
        self,
        days: int = 60,
        *,
        mean: float = TARGET_DAILY_MEAN,
        std: float = TARGET_DAILY_STD,
    ) -> np.ndarray:
        """Daily alert counts for a sample window (Fig. 2).

        Volumes are dominated by repeated port/vulnerability scans
        (roughly 80 K of the 94 K daily alerts per Insight 3), with the
        remainder produced by legitimate-activity monitors.
        """
        if days < 1:
            raise ValueError("days must be positive")
        volumes = self.rng.normal(loc=mean, scale=std, size=days)
        return np.maximum(1_000, volumes).astype(np.int64)

    def daily_volume_breakdown(self, days: int = 60) -> dict[str, np.ndarray]:
        """Daily volumes split into repeated scans vs. other alerts."""
        totals = self.daily_alert_volumes(days)
        scan_fraction = np.clip(self.rng.normal(80_000 / 94_238, 0.03, size=days), 0.6, 0.95)
        scans = (totals * scan_fraction).astype(np.int64)
        return {"total": totals, "scans": scans, "other": totals - scans}


__all__ = [
    "DEFAULT_NUM_INCIDENTS",
    "TARGET_RAW_ALERTS",
    "TARGET_FILTERED_ALERTS",
    "TARGET_DAILY_MEAN",
    "TARGET_DAILY_STD",
    "TARGET_MOTIF_PREVALENCE",
    "GeneratorConfig",
    "IncidentGenerator",
]
