"""Tests for attack emulation: scanners, credential theft,
lateral movement, the ransomware case study, and replay."""

from __future__ import annotations

import pytest

from repro.attacks import (
    GhostAccountScenario,
    LateralMovementEngine,
    MassScanEmulator,
    RansomwareScenario,
    ReplayEngine,
    StolenCredentialScenario,
    alerts_to_names,
)
from repro.attacks.ransomware import C2_SERVER, INITIAL_ATTACKER
from repro.core import AttackTagger, CriticalAlertDetector, evaluate_preemption
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import BlackHoleRouter, build_default_topology
from repro.testbed.isolation import EgressVerdict


class TestMassScanEmulator:
    def test_profiles_sum_to_total(self):
        emulator = MassScanEmulator(seed=1)
        profiles = emulator.default_profiles(total_scans=10_000, dominant_fraction=0.8)
        assert profiles[0].scans == 8_000
        assert sum(p.scans for p in profiles) <= 10_000

    def test_scan_records_target_production_space(self):
        emulator = MassScanEmulator(seed=1)
        records = emulator.generate_scan_records(
            emulator.default_profiles(total_scans=500), duration_seconds=60.0
        )
        assert len(records) <= 500
        assert all(r.destination_ip.startswith("141.142.") for r in records)
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_sample_most_frequent_takes_dominant_source(self):
        emulator = MassScanEmulator(seed=1)
        records = emulator.generate_scan_records(emulator.default_profiles(total_scans=2_000))
        sample = emulator.sample_most_frequent(records, sample_size=100)
        assert len(sample) == 100
        assert len({r.source_ip for r in sample}) == 1

    def test_feed_router(self):
        router = BlackHoleRouter()
        emulator = MassScanEmulator(seed=2)
        count = emulator.feed_router(router, emulator.default_profiles(total_scans=800))
        assert router.scan_count() == count


class TestCredentialScenarios:
    def test_stolen_credential_chain_contains_motif(self):
        result = StolenCredentialScenario().run(start_time=0.0)
        names = alerts_to_names(result.alerts)
        assert "alert_download_sensitive" in names
        assert "alert_compile_kernel_module" in names
        assert names[-1] == "alert_erase_forensic_trace"
        assert result.duration_seconds > 0

    def test_stop_after_truncates(self):
        result = StolenCredentialScenario().run(start_time=0.0, stop_after="compile")
        names = alerts_to_names(result.alerts)
        assert "alert_privilege_escalation" not in names

    def test_ghost_account_scenario(self, honeypot):
        result = GhostAccountScenario(honeypot).run(start_time=0.0)
        names = alerts_to_names(result.alerts)
        assert names[0] == "alert_ghost_account_login"
        assert "alert_pii_in_http" in names


class TestLateralMovement:
    def test_spread_follows_trust_edges(self, topology):
        engine = LateralMovementEngine(topology, max_hosts=10)
        origin = topology.hosts()[5].name
        result = engine.run(origin, entity="user:mallory", start_time=0.0)
        assert result.blast_radius <= 10
        for event in result.infections:
            assert event.target_host in topology.reachable_via_ssh(origin) or event.source_host != origin
        assert result.logs_wiped
        assert "alert_ssh_key_enumeration" in [a.name for a in result.alerts]

    def test_infected_hosts_marked_compromised(self):
        topology = build_default_topology(num_compute=16, trust_density=0.2, seed=4)
        engine = LateralMovementEngine(topology, max_hosts=5)
        result = engine.run(topology.hosts()[0].name, entity="user:mallory")
        for host in result.infected_hosts:
            assert topology.host(host).compromised

    def test_max_hosts_respected(self, topology):
        engine = LateralMovementEngine(topology, max_hosts=3)
        result = engine.run(topology.hosts(role=None)[0].name, entity="user:m")
        assert result.blast_radius <= 3


class TestRansomwareScenario:
    def test_full_kill_chain_alert_order(self, honeypot, topology):
        scenario = RansomwareScenario(honeypot, topology=topology)
        result = scenario.run_honeypot_capture(start_time=0.0)
        names = alerts_to_names(result.alerts)
        assert names.count("alert_db_port_probe") >= 6
        for expected in (
            "alert_db_default_password_login",
            "alert_service_version_probe",
            "alert_db_largeobject_payload",
            "alert_tmp_executable_created",
            "alert_outbound_c2",
            "alert_ransom_note_created",
        ):
            assert expected in names
        # Staging precedes C2, which precedes impact.
        assert names.index("alert_db_largeobject_payload") < names.index("alert_outbound_c2")
        assert names.index("alert_outbound_c2") < names.index("alert_ransom_note_created")

    def test_c2_beacon_is_contained_by_egress_policy(self, honeypot):
        scenario = RansomwareScenario(honeypot)
        result = scenario.run_honeypot_capture(start_time=0.0)
        attempt = result.context.artifacts["c2_attempt"]
        assert attempt.destination_ip == C2_SERVER
        assert attempt.verdict is EgressVerdict.DROPPED
        assert honeypot.egress.escaped_attempts() == []

    def test_honeypot_service_compromised_and_payload_dropped(self, honeypot):
        scenario = RansomwareScenario(honeypot)
        scenario.run_honeypot_capture(start_time=0.0)
        service = honeypot.entry_point("entry00").postgres
        assert "/tmp/kp" in service.exported_files
        assert service.large_objects

    def test_factor_graph_preempts_before_damage(self, honeypot, topology, trained_parameters):
        scenario = RansomwareScenario(honeypot, topology=topology)
        result = scenario.run_honeypot_capture(start_time=0.0)
        tagger = AttackTagger(trained_parameters, patterns=list(DEFAULT_CATALOGUE))
        sequence = __import__("repro.core.sequences", fromlist=["AlertSequence"]).AlertSequence.from_alerts(result.alerts)
        detection = tagger.run_sequence(sequence, entity="host:honeypot")
        preemption = evaluate_preemption(sequence, detection)
        assert preemption.preempted
        # The critical-only baseline detects only at/after damage.
        late = CriticalAlertDetector().run_sequence(sequence, entity="host:late")
        late_result = evaluate_preemption(sequence, late)
        assert late_result.detected and not late_result.preempted
        assert preemption.lead_time_seconds > (late_result.lead_time_seconds or 0.0)

    def test_attacker_attribution_via_hint(self, honeypot):
        scenario = RansomwareScenario(honeypot)
        result = scenario.run_honeypot_capture(start_time=0.0)
        hint = result.context.artifacts["hint"]
        assert honeypot.trace_attacker(hint.username, hint.password) is hint

    def test_attacker_ip_matches_case_study(self, honeypot):
        result = RansomwareScenario(honeypot).run_honeypot_capture()
        assert result.alerts[0].source_ip == INITIAL_ATTACKER


class TestReplayEngine:
    def test_compression_preserves_order_and_scales_gaps(self):
        result = StolenCredentialScenario().run(start_time=0.0)
        engine = ReplayEngine(time_compression=10.0)
        compressed = engine.compress(result.alerts)
        assert [a.name for a in compressed] == alerts_to_names(result.alerts)
        original_span = result.alerts[-1].timestamp - result.alerts[0].timestamp
        new_span = compressed[-1].timestamp - compressed[0].timestamp
        assert new_span == pytest.approx(original_span / 10.0)

    def test_replay_into_detector(self):
        result = StolenCredentialScenario().run(start_time=0.0)
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        replay = ReplayEngine().replay_into_detector(result.alerts, tagger)
        assert len(replay.events) == len(result.alerts)
        assert replay.detections
        entity = result.alerts[0].entity
        assert any(d.entity == entity for d in replay.detections)

    def test_interleave_is_time_ordered(self):
        a = StolenCredentialScenario().run(start_time=0.0).alerts
        b = StolenCredentialScenario(seed=2).run(start_time=100.0).alerts
        merged = ReplayEngine.interleave(a, b)
        times = [alert.timestamp for alert in merged]
        assert times == sorted(times)

    def test_invalid_compression_rejected(self):
        with pytest.raises(ValueError):
            ReplayEngine(time_compression=0.0)
