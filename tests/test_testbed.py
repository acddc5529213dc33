"""Tests for the testbed architecture: addresses, topology, services,
honeypot, isolation, VRT, BHR, responder, pipeline."""

from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AttackTagger
from repro.core.alerts import Alert
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import (
    AddressAllocator,
    AddressBlock,
    BHRClient,
    BlackHoleRouter,
    EgressVerdict,
    Honeypot,
    HostRole,
    OverlayNetwork,
    PRODUCTION_NETWORK,
    ResponseOrchestrator,
    ScanRecord,
    ServiceMonitors,
    ServiceState,
    SnapshotRepository,
    TestbedPipeline,
    TESTBED_NETWORK,
    VMLifecycleManager,
    VulnerabilityReproductionTool,
    WebApplicationService,
    build_default_topology,
    generate_scan_storm,
    int_to_ip,
    ip_to_int,
)
from repro.testbed.isolation import EgressPolicy


class TestAddresses:
    def test_ip_int_round_trip(self):
        assert int_to_ip(ip_to_int("141.142.23.5")) == "141.142.23.5"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_block_membership_and_size(self):
        assert PRODUCTION_NETWORK.size == 65_536
        assert "141.142.200.7" in PRODUCTION_NETWORK
        assert "143.219.1.1" not in PRODUCTION_NETWORK
        assert TESTBED_NETWORK.size == 256

    def test_block_alignment_enforced(self):
        with pytest.raises(ValueError):
            AddressBlock("141.142.0.1", 16)

    def test_parse_cidr(self):
        block = AddressBlock.parse("10.0.0.0/8")
        assert block.size == 1 << 24

    def test_allocator_sequential_and_exhaustion(self):
        block = AddressBlock("192.168.1.0", 30)
        allocator = AddressAllocator(block)
        first = allocator.allocate("a")
        assert first == "192.168.1.1"
        assert allocator.allocate("a") == first  # idempotent per label
        allocator.allocate("b")
        with pytest.raises(RuntimeError):
            allocator.allocate("c")

    def test_subblock(self):
        sub = PRODUCTION_NETWORK.subblock(230 * 256, 24)
        assert sub.cidr == "141.142.230.0/24"
        with pytest.raises(ValueError):
            PRODUCTION_NETWORK.subblock(0, 8)


class TestTopology:
    def test_default_topology_structure(self, topology):
        assert len(topology.hosts(role=HostRole.LOGIN)) == 4
        assert len(topology.hosts(role=HostRole.DATABASE)) == 4
        assert len(topology) > 70

    def test_trust_closure_contains_direct_edges(self, topology):
        login = topology.hosts(role=HostRole.LOGIN)[0]
        reachable = topology.reachable_via_ssh(login.name)
        assert login.known_hosts <= reachable | {login.name}

    def test_duplicate_host_rejected(self):
        from repro.testbed.topology import ClusterTopology, NetworkSegment

        topo = ClusterTopology()
        topo.add_segment(NetworkSegment("s", AddressBlock("10.1.0.0", 24)))
        topo.add_host("a", HostRole.COMPUTE, "s")
        with pytest.raises(ValueError):
            topo.add_host("a", HostRole.COMPUTE, "s")

    def test_host_lookup_by_address(self, topology):
        host = topology.hosts()[0]
        assert topology.host_by_address(host.address) is host


class TestServicesAndHoneypot:
    def test_postgres_default_credentials(self, honeypot):
        address = honeypot.addresses()[0]
        hint = honeypot.hint_for_entry("entry00")
        service = honeypot.connect_postgres(1.0, "111.200.1.1", address, hint.username, hint.password)
        assert service is not None
        assert service.state is ServiceState.COMPROMISED

    def test_postgres_wrong_credentials_rejected(self, honeypot):
        address = honeypot.addresses()[0]
        assert honeypot.connect_postgres(1.0, "111.200.1.1", address, "postgres", "wrong") is None

    def test_postgres_query_requires_auth(self, honeypot):
        service = honeypot.entry_point("entry00").postgres
        assert not service.query(1.0, "111.200.1.1", "SHOW server_version_num").ok

    def test_postgres_largeobject_and_export(self, honeypot):
        address = honeypot.addresses()[0]
        hint = honeypot.hint_for_entry("entry00")
        service = honeypot.connect_postgres(1.0, "111.200.1.1", address, hint.username, hint.password)
        result = service.query(2.0, "111.200.1.1", "SELECT lowrite(0, '7f454c46aabb')")
        assert result.ok
        export = service.query(3.0, "111.200.1.1", "SELECT lo_export(16384, '/tmp/kp')")
        assert export.ok and service.exported_files == ["/tmp/kp"]
        notices = [n.note for n in service.monitors.zeek.notice_records()]
        assert "DB::LargeObject_Payload" in notices
        assert "DB::File_Export" in notices

    def test_sixteen_entry_points_with_unique_hints(self, honeypot):
        assert len(honeypot.entry_points) == 16
        assert len({h.key for h in honeypot.hints}) == 16

    def test_attacker_traced_by_credential(self, honeypot):
        hint = honeypot.hints[3]
        traced = honeypot.trace_attacker(hint.username, hint.password)
        assert traced is not None and traced.entry_point == hint.entry_point
        assert honeypot.trace_attacker("postgres", "not-advertised") is None

    def test_web_application_exploit(self):
        monitors = ServiceMonitors.for_host("web01")
        service = WebApplicationService("web01", "141.142.230.50", monitors)
        assert service.exploit(1.0, "1.2.3.4", "%{(#cmd='id')}")
        assert service.state is ServiceState.COMPROMISED

    def test_recycle_compromised_instances(self, honeypot):
        address = honeypot.addresses()[0]
        hint = honeypot.hint_for_entry("entry00")
        honeypot.connect_postgres(1.0, "111.200.1.1", address, hint.username, hint.password)
        recycled = honeypot.recycle_compromised(now=2.0)
        assert recycled == 1
        assert len(honeypot.lifecycle.recycled) == 1


class TestIsolation:
    def test_egress_policy_drops_internet_bound(self):
        overlay = OverlayNetwork()
        overlay.join("c1")
        policy = EgressPolicy(overlay)
        attempt = policy.evaluate(1.0, "c1", "194.145.220.12", 443)
        assert attempt.verdict is EgressVerdict.DROPPED
        assert policy.dropped_attempts() == [attempt]
        assert policy.escaped_attempts() == []

    def test_egress_allows_overlay_destinations(self):
        overlay = OverlayNetwork()
        overlay.join("c1")
        address = overlay.join("c2")
        policy = EgressPolicy(overlay)
        assert policy.evaluate(1.0, "c1", address, 22).verdict is EgressVerdict.ALLOWED

    def test_vm_lifecycle_recycling_and_scaling(self):
        manager = VMLifecycleManager(min_instances=2, max_instances=4, max_lifetime_seconds=100.0)
        manager.ensure_capacity(0.0)
        assert len(manager.running_instances()) == 2
        manager.scale_for_load(0.0, concurrent_attacks=5)
        assert len(manager.running_instances()) == 4  # clamped at max
        replacements = manager.recycle_expired(now=200.0)
        assert len(replacements) == 4
        assert len(manager.recycled) == 4

    def test_vm_lifecycle_validation(self):
        with pytest.raises(ValueError):
            VMLifecycleManager(min_instances=3, max_instances=2)


class TestVRT:
    def test_heartbleed_reproduction(self):
        spec = VulnerabilityReproductionTool().reproduce_cve("CVE-2014-0160")
        assert spec.release.codename == "wheezy"
        assert spec.target_package.version.startswith("1.0.1")
        assert spec.is_vulnerable
        assert "snapshot.debian.org" in spec.snapshot_url
        assert "debootstrap" in spec.debootstrap_command()

    def test_post_patch_date_not_vulnerable(self):
        spec = VulnerabilityReproductionTool().build_container("20140601", "openssl")
        assert "CVE-2014-0160" not in spec.reproduced_cves

    def test_date_parsing_and_validation(self):
        tool = VulnerabilityReproductionTool()
        assert tool.parse_date("20140401") == dt.date(2014, 4, 1)
        with pytest.raises(ValueError):
            tool.parse_date("2014-04-01")
        with pytest.raises(LookupError):
            tool.build_container("20040101", "openssl")

    def test_dependency_closure(self):
        repo = SnapshotRepository()
        closure = repo.dependency_closure("openssl", dt.date(2014, 4, 1))
        assert {"openssl", "libc6", "zlib1g"} <= set(closure)

    def test_release_selection_is_latest_before_date(self):
        tool = VulnerabilityReproductionTool()
        assert tool.select_release(dt.date(2014, 4, 1)).codename == "wheezy"
        assert tool.select_release(dt.date(2022, 1, 1)).codename == "bullseye"

    def test_unknown_cve_and_package(self):
        tool = VulnerabilityReproductionTool()
        with pytest.raises(KeyError):
            tool.reproduce_cve("CVE-9999-0001")
        with pytest.raises(KeyError):
            tool.build_container("20200101", "no-such-package")


class TestBHR:
    def test_block_expiry(self):
        router = BlackHoleRouter()
        router.block("1.2.3.4", reason="scan", now=0.0, duration_seconds=100.0)
        assert router.is_blocked("1.2.3.4", now=50.0)
        assert not router.is_blocked("1.2.3.4", now=150.0)

    def test_permanent_block_and_unblock(self):
        router = BlackHoleRouter()
        router.block("1.2.3.4", reason="attack", now=0.0, duration_seconds=None)
        assert router.is_blocked("1.2.3.4", now=1e9)
        assert router.unblock("1.2.3.4")
        assert not router.is_blocked("1.2.3.4", now=0.0)

    def test_client_audit_log(self):
        router = BlackHoleRouter()
        client = BHRClient(router, caller="attacktagger")
        client.block("9.9.9.9", reason="c2", now=0.0)
        client.query("9.9.9.9", now=1.0)
        client.list_blocks(now=1.0)
        actions = [entry["action"] for entry in client.audit_log]
        assert actions == ["block", "query", "list"]

    def test_scan_storm_counts(self):
        router = BlackHoleRouter()
        counts = generate_scan_storm(router, total_scans=2000, dominant_scanner="103.102.1.1",
                                     dominant_fraction=0.8, seed=1)
        assert router.scan_count() == 2000
        assert counts["103.102.1.1"] == 1600
        assert router.top_scanners(1)[0][0] == "103.102.1.1"


class TestResponderAndPipeline:
    def _detection(self, ts=100.0):
        from repro.core.attack_tagger import Detection
        from repro.core.states import HiddenState

        trigger = Alert(ts, "alert_outbound_c2", "host:container-entry00",
                        source_ip="111.200.45.67", host="container-entry00")
        return Detection(entity="host:container-entry00", timestamp=ts, alert_index=5,
                         trigger=trigger, state=HiddenState.MALICIOUS, confidence=0.93)

    def test_response_blocks_and_notifies(self):
        router = BlackHoleRouter()
        responder = ResponseOrchestrator(BHRClient(router))
        actions = responder.handle_detection(self._detection())
        assert len(responder.notifications) == 1
        assert router.is_blocked("111.200.45.67", now=101.0)
        assert responder.is_quarantined("host:container-entry00")
        assert len(actions) >= 3

    def test_mass_scanner_block_is_short(self):
        router = BlackHoleRouter()
        responder = ResponseOrchestrator(BHRClient(router))
        responder.handle_mass_scanner(0.0, "103.102.1.1", 50_000)
        assert router.is_blocked("103.102.1.1", now=1000.0)
        assert not router.is_blocked("103.102.1.1", now=2 * 86_400.0)
        assert len(responder.notifications) == 0

    def test_pipeline_end_to_end_detects_and_responds(self, honeypot):
        pipeline = TestbedPipeline(
            detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))},
            honeypot=honeypot,
        )
        attack_names = [
            "alert_db_default_password_login", "alert_service_version_probe",
            "alert_db_largeobject_payload", "alert_tmp_executable_created", "alert_outbound_c2",
        ]
        alerts = [
            Alert(float(i * 300), name, "host:container-entry00", source_ip="111.200.45.67",
                  host="container-entry00")
            for i, name in enumerate(attack_names)
        ]
        detections = pipeline.ingest_alerts(alerts)
        assert detections, "pipeline should detect the ransomware chain"
        assert pipeline.router.is_blocked("111.200.45.67", now=alerts[-1].timestamp + 1)
        summary = pipeline.summary()
        assert summary["detections"] >= 1
        assert summary["notifications"] >= 1

    def test_pipeline_filters_scan_noise(self):
        pipeline = TestbedPipeline()
        scans = [
            Alert(float(i), "alert_port_scan", f"host:h{i % 30}", source_ip="9.9.9.9", host=f"h{i % 30}")
            for i in range(300)
        ]
        pipeline.ingest_alerts(scans)
        assert pipeline.stats.filtered_alerts < pipeline.stats.normalized_alerts
        assert pipeline.stats.detections == 0

    def test_pipeline_passes_an_unknown_alert_name_to_detection(self):
        # Regression: a name outside the vocabulary on an alert that
        # carried a source_ip made the scan filter raise KeyError.
        pipeline = TestbedPipeline(
            detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))}
        )
        attack_names = [
            "alert_db_default_password_login", "alert_not_in_vocabulary",
            "alert_service_version_probe", "alert_db_largeobject_payload",
            "alert_tmp_executable_created", "alert_outbound_c2",
        ]
        alerts = [
            Alert(float(i * 300), name, "host:container-entry00", source_ip="111.200.45.67",
                  host="container-entry00")
            for i, name in enumerate(attack_names)
        ]
        detections = pipeline.ingest_alerts(alerts)
        assert pipeline.stats.filtered_alerts == len(alerts)
        assert [d.entity for d in detections] == ["host:container-entry00"]

    def test_pipeline_block_top_scanners(self):
        router = BlackHoleRouter()
        generate_scan_storm(router, total_scans=3000, dominant_scanner="103.102.1.1", seed=2)
        pipeline = TestbedPipeline(router=router)
        blocked = pipeline.block_top_scanners(now=3600.0, min_scans=1000)
        assert blocked >= 1
        assert router.is_blocked("103.102.1.1", now=3700.0)

    def test_pipeline_ingest_raw_records(self):
        from repro.telemetry import SyslogMonitor

        syslog = SyslogMonitor("internal-host")
        syslog.wget_download(10.0, "alice", "http://64.215.33.18/abs.c")
        pipeline = TestbedPipeline()
        pipeline.ingest_raw(syslog.records)
        assert pipeline.stats.normalized_alerts == 1
        assert "normalize" in pipeline.stats.stage_seconds

    def test_per_stage_timing_split(self, honeypot):
        pipeline = TestbedPipeline(
            detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))},
            honeypot=honeypot,
        )
        attack_names = [
            "alert_db_default_password_login", "alert_service_version_probe",
            "alert_db_largeobject_payload", "alert_tmp_executable_created", "alert_outbound_c2",
        ]
        alerts = [
            Alert(float(i * 300), name, "host:container-entry00", source_ip="111.200.45.67",
                  host="container-entry00")
            for i, name in enumerate(attack_names)
        ]
        pipeline.ingest_alerts(alerts)
        stats = pipeline.stats
        # Responder time no longer inflates the detection timing.
        assert set(stats.stage_seconds) >= {"filter", "detect", "respond"}
        assert stats.detection_seconds == stats.stage_seconds["detect"]
        assert stats.response_seconds == stats.stage_seconds["respond"]
        assert stats.response_seconds > 0.0
        summary = pipeline.summary()
        assert summary["stage_seconds"] == stats.stage_seconds
        assert summary["response_seconds"] == stats.response_seconds

    def test_filter_reduction_distinguishes_total_drop(self):
        from repro.testbed.pipeline import PipelineStats

        # No alerts at all: vacuously no reduction.
        assert PipelineStats().filter_reduction == 1.0
        # Normal ratio.
        assert PipelineStats(normalized_alerts=100, filtered_alerts=20).filter_reduction == 5.0
        # The filter dropped *everything*: an infinite reduction, not 0.
        assert PipelineStats(normalized_alerts=100, filtered_alerts=0).filter_reduction == float("inf")

    def test_filter_reduction_inf_through_the_pipeline(self):
        pipeline = TestbedPipeline()
        # One mass scanner sweeping 30 hosts: every alert is suppressed.
        scans = [
            Alert(float(i * 4000), "alert_port_scan", f"host:h{i}", source_ip="9.9.9.9",
                  host=f"h{i}")
            for i in range(30)
        ]
        pipeline.ingest_alerts(scans)
        assert pipeline.stats.filtered_alerts == 0
        assert pipeline.summary()["filter_reduction"] == float("inf")

    def test_block_top_scanners_is_incremental(self):
        router = BlackHoleRouter()
        generate_scan_storm(router, total_scans=3000, dominant_scanner="103.102.1.1", seed=2)
        pipeline = TestbedPipeline(router=router)
        assert pipeline.block_top_scanners(now=3600.0, min_scans=1000) == 1
        # No new scans: nothing to revisit (the crossed set drained).
        assert pipeline.block_top_scanners(now=3600.0, min_scans=1000) == 0
        # The scanner keeps scanning after its 24h block expires: its new
        # scans re-surface it and it is re-blocked.
        two_days = 2 * 86_400.0
        assert not router.is_blocked("103.102.1.1", now=two_days)
        router.record_scan(ScanRecord(two_days, "103.102.1.1", "141.142.1.1", 22))
        assert pipeline.block_top_scanners(now=two_days, min_scans=1000) == 1
        assert router.is_blocked("103.102.1.1", now=two_days + 10.0)

    def test_block_top_scanners_requeues_still_blocked_sources(self):
        router = BlackHoleRouter()
        generate_scan_storm(router, total_scans=3000, dominant_scanner="103.102.1.1", seed=2)
        pipeline = TestbedPipeline(router=router)
        assert pipeline.block_top_scanners(now=3600.0, min_scans=1000) == 1
        # The scanner keeps scanning *while blocked*, then goes quiet.
        router.record_scan(ScanRecord(4000.0, "103.102.1.1", "141.142.1.1", 22))
        assert pipeline.block_top_scanners(now=4100.0, min_scans=1000) == 0
        # The crossing signal survives the skipped sweep: once the 24h
        # block expires, the next sweep re-blocks without new scans.
        two_days = 2 * 86_400.0
        assert not router.is_blocked("103.102.1.1", now=two_days)
        assert pipeline.block_top_scanners(now=two_days, min_scans=1000) == 1
        assert router.is_blocked("103.102.1.1", now=two_days + 10.0)

    def test_block_top_scanners_with_lower_threshold_registers_new_watch(self):
        router = BlackHoleRouter()
        generate_scan_storm(router, total_scans=3000, dominant_scanner="103.102.1.1",
                            dominant_fraction=0.5, other_scanners=3, seed=3)
        pipeline = TestbedPipeline(router=router)
        assert pipeline.block_top_scanners(now=3600.0, min_scans=1400) == 1
        # A lower threshold walks the counter once and catches the tail.
        assert pipeline.block_top_scanners(now=3600.0, min_scans=100) >= 3

    def test_default_pipeline_never_drives_the_given_instance(self):
        detector = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        pipeline = TestbedPipeline(detectors={"factor_graph": detector})
        chain = [
            Alert(float(i) * 300.0, name, "user:eve", source_ip="203.0.113.9")
            for i, name in enumerate(
                [
                    "alert_db_default_password_login",
                    "alert_service_version_probe",
                    "alert_db_largeobject_payload",
                    "alert_tmp_executable_created",
                    "alert_outbound_c2",
                ]
            )
        ]
        fired = pipeline.ingest_alerts(chain)
        # The default single serial shard is a clone like any other:
        # results live on the pipeline and its pool, never on the
        # instance passed in.
        (replica,) = pipeline.detector_pools["factor_graph"].shards
        assert replica is not detector
        assert fired and fired == pipeline.detections_by("factor_graph")
        assert replica.detections == fired
        assert detector.detections == [] and detector.entities() == []
        with pytest.raises(AttributeError):
            pipeline.detectors


class TestTrafficMirrorBuffers:
    """The mirror is a bus: it counts, delivers, and keeps nothing."""

    def _raw_record(self, timestamp: float):
        from repro.telemetry import SyslogMonitor

        monitor = SyslogMonitor("internal-host")
        monitor.sshd_accepted(timestamp, "alice", "10.0.0.1")
        return monitor.records[0]

    def test_unbounded_mirror_never_drops(self):
        # Publishing never moves dropped_*: those are the ledger the
        # service's admission controller writes when it sheds.
        from repro.testbed import TrafficMirror

        mirror = TrafficMirror()
        for index in range(100):
            mirror.publish_alert(Alert(float(index), "alert_port_scan", "host:h0"))
            mirror.publish_raw(self._raw_record(float(index)))
        assert dataclasses.asdict(mirror.stats) == {
            "raw_records": 100, "alerts": 100, "dropped_raw": 0, "dropped_alerts": 0,
        }

    def test_the_mirror_has_no_store(self):
        from repro.testbed import TrafficMirror

        with pytest.raises(TypeError):
            TrafficMirror(max_buffer=1)
        mirror = TrafficMirror()
        mirror.publish_alert(Alert(0.0, "alert_port_scan", "host:h0"))
        for name in ("raw_buffer", "alert_buffer", "max_buffer"):
            assert not hasattr(mirror, name)
        assert set(mirror.snapshot_state()) == {"stats"}

    def test_subscribers_see_dropped_items(self):
        # Every subscriber sees every item, record-major: an item
        # reaches all subscribers before the next item reaches any.
        from repro.testbed import TrafficMirror

        mirror = TrafficMirror()
        seen: list[tuple[str, float]] = []
        mirror.subscribe_alerts(lambda alert: seen.append(("first", alert.timestamp)))
        mirror.subscribe_alerts(lambda alert: seen.append(("second", alert.timestamp)))
        mirror.publish_alerts(
            Alert(float(index), "alert_port_scan", "host:h0") for index in range(3)
        )
        assert seen == [
            (who, float(index)) for index in range(3) for who in ("first", "second")
        ]

    @pytest.mark.parametrize("kind", ["raw", "alerts"])
    def test_bulk_publish_equals_a_single_publish_loop(self, kind):
        from repro.testbed import TrafficMirror

        n = 7
        if kind == "raw":
            items = [self._raw_record(float(i)) for i in range(2 * n + 3)]
        else:
            items = [Alert(float(i), "alert_port_scan", f"host:h{i}") for i in range(2 * n + 3)]

        def drive(bulk: bool):
            mirror = TrafficMirror()
            one, many, subscribe = (
                (mirror.publish_raw, mirror.publish_raw_many, mirror.subscribe_raw)
                if kind == "raw"
                else (mirror.publish_alert, mirror.publish_alerts, mirror.subscribe_alerts)
            )
            calls: list[tuple[str, float]] = []
            subscribe(lambda item: calls.append(("first", item.timestamp)))
            subscribe(lambda item: calls.append(("second", item.timestamp)))
            # Three publishes: a sequence, an iterator, and an empty batch.
            for chunk in (items[:n], iter(items[n:]), []):
                if bulk:
                    many(chunk)
                else:
                    for item in chunk:
                        one(item)
            return dataclasses.asdict(mirror.stats), calls

        looped, bulk = drive(bulk=False), drive(bulk=True)
        assert bulk == looped
        assert looped[1][:4] == [("first", 0.0), ("second", 0.0), ("first", 1.0), ("second", 1.0)]
        assert len(looped[1]) == 2 * len(items)
        published = looped[0]["raw_records" if kind == "raw" else "alerts"]
        assert published == len(items)
        assert looped[0]["dropped_raw"] == looped[0]["dropped_alerts"] == 0
