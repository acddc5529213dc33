"""The PostgreSQL ransomware family (the §V case study).

The emulated scenario reproduces, step by step, the attack the honeypot
attracted and the factor-graph model preempted:

1. **Probing** -- repeated probes of PostgreSQL port 5432 across the
   honeypot /24 during October.
2. **Initial entry** -- on October 30 the ransomware authenticates to a
   semi-open instance using the advertised default credentials.
3. **Reconnaissance** -- ``SHOW server_version_num`` to fingerprint the
   server.
4. **Payload staging** -- the ELF payload (hex ``7F454C46...``) is
   encoded into a PostgreSQL ``largeobject``.
5. **Payload drop** -- ``lo_export``/``io_export`` writes ``/tmp/kp``
   onto the database host's disk, and the file is executed.
6. **Second stage** -- the dropped loader fetches ``sys.x86_64`` and
   ``ldr.sh`` from the distribution server (the 194.145.xxx.yyy host in
   the incident report excerpt).
7. **Command and control** -- the payload beacons to its C2 server;
   inside the honeypot the egress policy drops the packet but the
   attempt is logged -- this is the step at which the preemption model
   detected the family and notified operators.
8. **Lateral movement** -- SSH keys and known hosts are harvested and
   the payload is pushed to every reachable host (``attacks.lateral``).
9. **Impact** -- ransom notes are written and logs are wiped.  In the
   testbed run this stage never executes because the response path
   fired at step 7; in the "production incident" replay twelve days
   later it does, which is the 12-day early-warning the paper reports.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..core.alerts import Alert
from ..testbed.honeypot import Honeypot
from ..testbed.services import ELF_MAGIC_HEX, PostgresHoneypotService
from ..testbed.topology import ClusterTopology
from .base import AttackContext, AttackScenario, AttackStep, ScenarioResult
from .lateral import LateralMovementEngine

#: Payload-distribution and C2 infrastructure from the incident report.
PAYLOAD_SERVER = "194.145.220.11"
C2_SERVER = "194.145.220.12"
INITIAL_ATTACKER = "111.200.45.67"

#: The downloads quoted in the §V.C incident-report excerpt.
SECOND_STAGE_URLS = (
    f"hXXp://{PAYLOAD_SERVER}/sys.x86_64",
    f"hXXp://{PAYLOAD_SERVER}/ldr.sh?e7945e_postgres:postgres",
)

#: Twelve days, in seconds: the early-warning lead the paper reports.
TWELVE_DAYS_SECONDS = 12 * 86_400.0


@dataclasses.dataclass
class RansomwareConfig:
    """Tunable knobs of the scenario."""

    probe_count: int = 6
    probe_interval_seconds: float = 6 * 3600.0
    dwell_before_entry_seconds: float = 12 * 3600.0
    payload_path: str = "/tmp/kp"
    ransom_note_path: str = "/data/README_FOR_DECRYPT.txt"
    lateral_max_hosts: int = 20


class RansomwareScenario(AttackScenario):
    """The full ransomware kill chain against a honeypot entry point."""

    name = "postgres_ransomware"

    #: Step name at which the preemption model detected the family.
    DETECTION_STEP = "c2_beacon"

    def __init__(
        self,
        honeypot: Honeypot,
        *,
        entry_point: Optional[str] = None,
        topology: Optional[ClusterTopology] = None,
        config: Optional[RansomwareConfig] = None,
        seed: int = 30,
    ) -> None:
        super().__init__(seed=seed)
        self.honeypot = honeypot
        self.entry_name = entry_point or next(iter(honeypot.entry_points))
        self.topology = topology
        self.config = config or RansomwareConfig()

    # ------------------------------------------------------------------
    def _entry(self):
        return self.honeypot.entry_point(self.entry_name)

    def _service(self) -> PostgresHoneypotService:
        return self._entry().postgres

    # ------------------------------------------------------------------
    def build_steps(self, context: AttackContext) -> Sequence[AttackStep]:
        cfg = self.config
        entry = self._entry()
        service = self._service()
        hint = self.honeypot.hint_for_entry(self.entry_name)

        def probe(ctx: AttackContext) -> None:
            for index in range(cfg.probe_count):
                ctx.advance(cfg.probe_interval_seconds)
                self.honeypot.probe(ctx.clock, ctx.attacker_ip, entry.address, 5432)
                ctx.emit_alert("alert_db_port_probe", host=entry.container, port=5432)
            ctx.note(f"probed port 5432 on {entry.address} {cfg.probe_count} times")

        def initial_entry(ctx: AttackContext) -> None:
            connected = self.honeypot.connect_postgres(
                ctx.clock, ctx.attacker_ip, entry.address, hint.username, hint.password
            )
            if connected is None:
                raise RuntimeError("honeypot rejected the advertised credentials")
            ctx.artifacts["hint"] = hint
            ctx.emit_alert("alert_db_default_password_login", host=entry.container,
                           username=hint.username)
            ctx.note(f"authenticated to {hint.database_url} using published hint via {hint.channel}")

        def reconnaissance(ctx: AttackContext) -> None:
            result = service.query(ctx.clock, ctx.attacker_ip, "SHOW server_version_num")
            ctx.artifacts["server_version"] = result.rows[0] if result.rows else ""
            ctx.emit_alert("alert_service_version_probe", host=entry.container)
            ctx.note(f"SHOW server_version_num -> {ctx.artifacts['server_version']}")

        def stage_payload(ctx: AttackContext) -> None:
            payload_hex = ELF_MAGIC_HEX + "0201010000" * 24
            result = service.query(
                ctx.clock,
                ctx.attacker_ip,
                f"SELECT lo_create(0); SELECT lowrite(0, '{payload_hex}')",
            )
            ctx.artifacts["largeobject_id"] = result.rows[0] if result.rows else ""
            ctx.emit_alert("alert_db_largeobject_payload", host=entry.container,
                           magic=payload_hex[:8])
            ctx.note("encoded ELF payload (7F454C46...) into a largeobject")

        def drop_payload(ctx: AttackContext) -> None:
            service.query(
                ctx.clock,
                ctx.attacker_ip,
                f"SELECT lo_export({ctx.artifacts.get('largeobject_id', 16384)}, '{cfg.payload_path}')",
            )
            service.execute_exported_payload(ctx.clock, cfg.payload_path)
            ctx.emit_alert("alert_tmp_executable_created", host=entry.container,
                           path=cfg.payload_path)
            ctx.note(f"dropped and executed {cfg.payload_path}")

        def second_stage(ctx: AttackContext) -> None:
            for url in SECOND_STAGE_URLS:
                self.honeypot.attempt_outbound(ctx.clock, entry.container, PAYLOAD_SERVER, 80)
                ctx.emit_alert("alert_download_second_stage", host=entry.container, url=url)
            ctx.note(f"fetched second stage from {PAYLOAD_SERVER} (sys.x86_64, ldr.sh)")

        def c2_beacon(ctx: AttackContext) -> None:
            attempt = self.honeypot.attempt_outbound(ctx.clock, entry.container, C2_SERVER, 443)
            ctx.artifacts["c2_attempt"] = attempt
            ctx.emit_alert("alert_outbound_c2", host=entry.container,
                           destination_ip=C2_SERVER)
            ctx.note(f"beaconed to C2 {C2_SERVER} (egress verdict: {attempt.verdict.value})")

        def lateral_movement(ctx: AttackContext) -> None:
            if self.topology is None:
                ctx.emit_alert("alert_ssh_key_enumeration", host=entry.container)
                ctx.emit_alert("alert_known_hosts_enumeration", host=entry.container)
                ctx.emit_alert("alert_lateral_ssh_batch", host=entry.container)
                ctx.note("enumerated SSH keys and fanned out (no topology attached)")
                return
            engine = LateralMovementEngine(self.topology, max_hosts=cfg.lateral_max_hosts)
            origin = self.topology.hosts()[0].name
            result = engine.run(
                origin,
                entity=ctx.entity,
                attacker_ip=ctx.attacker_ip,
                start_time=ctx.clock,
                wipe_logs=False,
            )
            ctx.alerts.extend(result.alerts)
            ctx.artifacts["lateral"] = result
            if result.alerts:
                ctx.clock = max(ctx.clock, max(a.timestamp for a in result.alerts))
            ctx.note(f"lateral movement infected {result.blast_radius} additional host(s)")

        def impact(ctx: AttackContext) -> None:
            ctx.emit_alert("alert_ransom_note_created", host=entry.container,
                           path=cfg.ransom_note_path)
            ctx.advance(120.0)
            ctx.emit_alert("alert_mass_file_encryption", host=entry.container)
            ctx.advance(60.0)
            ctx.emit_alert("alert_erase_forensic_trace", host=entry.container)
            ctx.note("wrote ransom note, encrypted data, wiped logs")

        return (
            AttackStep("probing", 0.0, probe, "repeated probing of PostgreSQL port 5432"),
            AttackStep("initial_entry", cfg.dwell_before_entry_seconds, initial_entry,
                       "entry through open port 5432 using advertised credentials"),
            AttackStep("reconnaissance", 90.0, reconnaissance, "SHOW server_version_num"),
            AttackStep("stage_payload", 300.0, stage_payload, "ELF payload into largeobject"),
            AttackStep("drop_payload", 180.0, drop_payload, "lo_export to /tmp/kp and execute"),
            AttackStep("second_stage", 240.0, second_stage, "download sys.x86_64 / ldr.sh"),
            AttackStep("c2_beacon", 60.0, c2_beacon, "beacon to the command-and-control server"),
            AttackStep("lateral_movement", 3600.0, lateral_movement, "SSH-key lateral movement"),
            AttackStep("impact", 1800.0, impact, "ransom note, encryption, trace wiping"),
        )

    # ------------------------------------------------------------------
    def run_honeypot_capture(self, *, start_time: float = 0.0) -> ScenarioResult:
        """The testbed run: the family is captured in the honeypot.

        The scenario is executed in full (the honeypot is isolated, so
        letting it run collects the richest trace); what matters for
        preemption is at which alert the detector fires, which the
        Fig. 5 benchmark measures.
        """
        return self.run(
            start_time=start_time,
            attacker_ip=INITIAL_ATTACKER,
            entity=f"host:{self._entry().container}",
        )

    def run_production_incident(self, *, start_time: float) -> ScenarioResult:
        """The later production-side incident (the one recorded on Nov 10).

        Same family, different variant: it targets a production database
        host rather than the honeypot, so the emitted alerts use a
        production entity.  Used to measure the 12-day lead time between
        the testbed detection and the production incident.
        """
        return self.run(
            start_time=start_time,
            attacker_ip=INITIAL_ATTACKER,
            entity="host:db00",
        )


def alerts_to_names(alerts: Sequence[Alert]) -> list[str]:
    """Convenience: symbolic names of a scenario's alerts, in time order."""
    return [a.name for a in sorted(alerts, key=lambda a: a.timestamp)]


__all__ = [
    "PAYLOAD_SERVER",
    "C2_SERVER",
    "INITIAL_ATTACKER",
    "SECOND_STAGE_URLS",
    "TWELVE_DAYS_SECONDS",
    "RansomwareConfig",
    "RansomwareScenario",
    "alerts_to_names",
]
