"""Tests for the telemetry substrate: log models, normaliser, sanitizer,
filtering, and annotation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.telemetry import (
    AlertNormalizer,
    AuditdMonitor,
    AuditRecord,
    ConnRecord,
    GroundTruthAnnotator,
    MonitorKind,
    NoticeRecord,
    OsqueryMonitor,
    OsqueryResult,
    Sanitizer,
    ScanFilter,
    SyslogMessage,
    SyslogMonitor,
    ZeekMonitor,
    anonymize_ip,
    filter_alerts,
    merge_records,
    parse_conn_log,
    write_conn_log,
)
from repro.telemetry import sanitizer as sanitizer_module
from repro.telemetry.annotator import AnnotationLabel, AnnotationMethod
from repro.telemetry.logsource import RawLogRecord
from repro.telemetry.normalizer import ZEEK_NOTICE_MAP, NormalizationRule
from repro.telemetry.sanitizer import SanitizationReport

import ingest_corpus


class TestZeek:
    def test_conn_record_tsv_round_trip(self):
        record = ConnRecord(ts=100.5, uid="C1", orig_h="1.2.3.4", orig_p=1234,
                            resp_h="141.142.1.1", resp_p=5432, service="postgresql")
        assert ConnRecord.from_tsv(record.to_tsv()) == record

    def test_notice_record_tsv_round_trip(self):
        record = NoticeRecord(ts=5.0, note="DB::Version_Probe", msg="probe",
                              orig_h="1.2.3.4", resp_h="141.142.1.1", port=5432)
        assert NoticeRecord.from_tsv(record.to_tsv()) == record

    def test_conn_log_file_round_trip(self):
        monitor = ZeekMonitor()
        monitor.record_connection(1.0, "1.1.1.1", 1, "2.2.2.2", 22)
        monitor.record_connection(2.0, "1.1.1.1", 2, "2.2.2.2", 80)
        text = write_conn_log(monitor.conn_records())
        assert len(parse_conn_log(text)) == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            ConnRecord.from_tsv("not\ta\tvalid\tline")

    def test_monitor_separates_streams(self):
        monitor = ZeekMonitor()
        monitor.record_connection(1.0, "1.1.1.1", 1, "2.2.2.2", 22)
        monitor.raise_notice(2.0, "C2::Beacon", "beacon", orig_h="2.2.2.2")
        assert len(monitor.conn_records()) == 1
        assert len(monitor.notice_records()) == 1


class TestSyslogAndAudit:
    def test_syslog_render_parse_round_trip(self):
        message = SyslogMessage(timestamp=3600.0, host="login00", program="sshd",
                                pid=999, body="Accepted password for alice from 1.2.3.4 port 22 ssh2")
        parsed = SyslogMessage.parse(message.render())
        assert parsed.program == "sshd" and parsed.host == "login00"
        assert "alice" in parsed.body

    def test_syslog_monitor_helpers(self):
        monitor = SyslogMonitor("login00")
        monitor.sshd_accepted(1.0, "alice", "1.2.3.4")
        monitor.wget_download(2.0, "alice", "http://64.215.1.2/abs.c")
        monitor.log_truncated(3.0, "/var/log/wtmp")
        assert len(monitor.records) == 3
        assert all(r.monitor is MonitorKind.SYSLOG for r in monitor)

    def test_audit_record_round_trip(self):
        monitor = AuditdMonitor("node-1")
        record = monitor.setuid_transition(10.0, "alice")
        parsed = AuditRecord.parse(record.render(), host="node-1")
        assert parsed.record_type == "SYSCALL"
        assert parsed.fields["syscall"] == "setuid"

    def test_osquery_round_trip(self):
        monitor = OsqueryMonitor("node-1")
        result = monitor.authorized_keys_change(5.0, "alice", "attacker@evil")
        parsed = OsqueryResult.parse(result.render())
        assert parsed.query_name == "authorized_keys"
        assert parsed.columns["username"] == "alice"

    def test_merge_records_time_ordered(self):
        syslog = SyslogMonitor("a")
        syslog.sshd_accepted(5.0, "x", "1.1.1.1")
        audit = AuditdMonitor("a")
        audit.execve(2.0, "x", "/bin/ls")
        merged = merge_records(syslog, audit)
        assert [r.timestamp for r in merged] == [2.0, 5.0]

    def test_wrong_monitor_kind_rejected(self):
        syslog = SyslogMonitor("a")
        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "1.1.1.1", 1, "2.2.2.2", 22)
        with pytest.raises(ValueError):
            syslog.emit(zeek.records[0])


class TestNormalizer:
    def test_paper_wget_example(self):
        """The canonical example from §II.A maps to alert_download_sensitive."""
        syslog = SyslogMonitor("internal-host")
        syslog.wget_download(83722.0, "alice", "http://64.215.33.18/abs.c")
        normalizer = AlertNormalizer()
        alerts = normalizer.normalize_stream(syslog.records)
        assert len(alerts) == 1
        assert alerts[0].name == "alert_download_sensitive"
        assert alerts[0].entity == "user:alice"
        assert alerts[0].host == "internal-host"
        assert alerts[0].timestamp == 83722.0

    def test_zeek_notice_mapping(self):
        zeek = ZeekMonitor()
        zeek.raise_notice(1.0, "DB::LargeObject_Payload", "ELF magic", orig_h="111.200.1.1")
        alerts = AlertNormalizer().normalize_stream(zeek.records)
        assert alerts[0].name == "alert_db_largeobject_payload"
        assert alerts[0].source_ip == "111.200.1.1"

    def test_db_port_probe_from_conn(self):
        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "1.2.3.4", 5555, "141.142.230.1", 5432, conn_state="S0")
        alerts = AlertNormalizer().normalize_stream(zeek.records)
        assert alerts[0].name == "alert_db_port_probe"

    def test_c2_connection_from_conn(self):
        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "141.142.230.5", 5555, "194.145.220.12", 443, conn_state="SF")
        alerts = AlertNormalizer().normalize_stream(zeek.records)
        assert alerts[0].name == "alert_outbound_c2"

    def test_audit_privilege_escalation(self):
        audit = AuditdMonitor("node-1")
        audit.setuid_transition(4.0, "alice")
        alerts = AlertNormalizer().normalize_stream(audit.records)
        assert alerts[0].name == "alert_privilege_escalation"

    def test_osquery_lateral_movement_commands(self):
        osq = OsqueryMonitor("node-1")
        osq.process_event(1.0, "root", "/usr/bin/find", "find / -name id_rsa*")
        osq.process_event(2.0, "root", "/usr/bin/ssh", "ssh -oBatchMode=yes root@other ./kp")
        alerts = AlertNormalizer().normalize_stream(osq.records)
        assert [a.name for a in alerts] == ["alert_ssh_key_enumeration", "alert_lateral_ssh_batch"]

    def test_unmatched_records_dropped_and_counted(self):
        osq = OsqueryMonitor("node-1")
        osq.listening_port(1.0, 8080, "nginx")
        normalizer = AlertNormalizer()
        assert normalizer.normalize_stream(osq.records) == []
        assert normalizer.dropped == 1

    def test_log_truncation_maps_to_erase_trace(self):
        syslog = SyslogMonitor("node-1")
        syslog.command_executed(1.0, "root", "echo 0>/var/log/wtmp")
        alerts = AlertNormalizer().normalize_stream(syslog.records)
        assert alerts[0].name == "alert_erase_forensic_trace"


class TestNormalizerFastPath:
    """The table-driven loop is the rule walk it replaced."""

    #: ``ingest_corpus.corpus_digest()`` recorded on the tree of commit
    #: 8b6d838 (PR 13), before ``telemetry/`` or ``service/protocol.py``
    #: were edited: sha256 over the alerts' ``to_dict()`` forms, the
    #: drop count and the sanitisation report.
    PARENT_DIGEST = "fd8d8217a9fd13b7f98d8343cb201520223b659991180b609eec1637633c7137"

    def test_corpus_digest_is_the_one_recorded_at_the_parent(self):
        digest, n_alerts, n_records = ingest_corpus.corpus_digest()
        assert (n_alerts, n_records) == (451, 493)
        assert digest == self.PARENT_DIGEST

    def test_corpus_reaches_every_default_alert_name(self):
        normalizer = AlertNormalizer()
        names = {a.name for a in normalizer.normalize_stream(ingest_corpus.build_corpus())}
        assert names >= set(ZEEK_NOTICE_MAP.values())
        assert names >= {
            "alert_login_normal", "alert_bruteforce_ssh", "alert_sudo_policy_violation",
            "alert_download_sensitive", "alert_compile_kernel_module",
            "alert_suspicious_compile", "alert_ssh_key_enumeration",
            "alert_known_hosts_enumeration", "alert_erase_forensic_trace",
            "alert_privilege_escalation", "alert_kernel_module_loaded",
            "alert_tmp_executable_created", "alert_new_ssh_key_added",
            "alert_ransom_note_created", "alert_cryptomining",
        }  # fmt: skip
        report = normalizer.sanitizer.report
        assert min(report.emails, report.ssns, report.phones, report.ips_truncated, report.home_paths) > 0
        assert normalizer.malformed == 0

    @staticmethod
    def _one_by_one(normalizer, records):
        # to_dict(): Alert equality ignores ``attributes``.
        alerts = [normalizer.normalize_record(record) for record in records]
        forms = [a.to_dict() for a in alerts if a is not None]
        return forms, normalizer.dropped, normalizer.malformed

    @staticmethod
    def _batched(normalizer, records):
        forms = [a.to_dict() for a in normalizer.normalize_stream(records)]
        return forms, normalizer.dropped, normalizer.malformed

    def test_normalize_record_is_a_one_element_stream(self):
        records = ingest_corpus.build_corpus()[::3]
        records.append(RawLogRecord(9.0, MonitorKind.ZEEK, "z", "", {"stream": "conn", "resp_p": "http"}))
        cron = SyslogMonitor("login1")
        cron.cron_job(10.0, "root", "/tmp/x.sh")  # no default rule matches CRON
        records.extend(cron.records)

        def tmp_anywhere(record):
            if "/tmp/" in record.message:
                return "alert_tmp_executable_created", {"path": record.message, "api_token": "x"}
            return None

        extra = NormalizationRule("tmp_anywhere", MonitorKind.SYSLOG, tmp_anywhere)
        single, batched = AlertNormalizer(extra_rules=[extra]), AlertNormalizer(extra_rules=[extra])
        expected = self._batched(batched, records)
        assert self._one_by_one(single, records) == expected
        assert batched.malformed == 1 and batched.dropped == len(records) - len(expected[0])
        assert expected[0][-1]["attributes"] == {"path": cron.records[0].message}
        assert single.sanitizer.report == batched.sanitizer.report
        assert batched.sanitizer.report.secrets == 1

    def test_rules_edited_in_place_take_effect_on_the_next_call(self):
        records = ingest_corpus.build_corpus()[::5]
        single, batched = AlertNormalizer(), AlertNormalizer()
        before = self._batched(batched, records)
        assert self._one_by_one(single, records) == before
        for normalizer in (single, batched):
            # Drop the conn rule, and let an extra rule shadow syslog.
            del normalizer.rules[1]
            normalizer.rules.insert(
                0,
                NormalizationRule(
                    "every_syslog", MonitorKind.SYSLOG, lambda r: ("alert_login_normal", {})
                ),
            )
        single.dropped = batched.dropped = 0
        after = self._batched(batched, records)
        assert self._one_by_one(single, records) == after
        assert after[0] != before[0]
        assert any("port" in a["attributes"] for a in before[0])  # only the conn rule sets it
        assert not any("port" in a["attributes"] for a in after[0])
        assert {a["name"] for a in after[0] if a["monitor"] == "syslog"} == {"alert_login_normal"}

    def test_a_name_outside_the_vocabulary_falls_through_to_the_next_rule(self):
        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "1.2.3.4", 5555, "141.142.230.1", 22, conn_state="S0")
        shadow = NormalizationRule("shadow", MonitorKind.ZEEK, lambda r: ("not_in_vocabulary", {}))
        normalizer = AlertNormalizer()
        normalizer.rules.insert(0, shadow)
        assert [a.name for a in normalizer.normalize_stream(zeek.records)] == ["alert_port_scan"]

    def test_record_of_no_known_monitor_is_dropped_not_malformed(self):
        normalizer = AlertNormalizer()
        assert normalizer.normalize_stream([RawLogRecord(1.0, None, "h", "", {})]) == []
        assert (normalizer.dropped, normalizer.malformed) == (1, 0)

    @pytest.mark.parametrize("resp_p", ["http", None, [5432]])
    def test_malformed_field_drops_that_record_only(self, resp_p):
        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "1.2.3.4", 5555, "141.142.230.1", 5432, conn_state="S0")
        zeek.record_connection(3.0, "1.2.3.4", 5556, "141.142.230.2", 22, conn_state="S0")
        bad = RawLogRecord(2.0, MonitorKind.ZEEK, "z", "", {"stream": "conn", "resp_p": resp_p})
        normalizer = AlertNormalizer()
        alerts = normalizer.normalize_stream([zeek.records[0], bad, zeek.records[1]])
        assert [a.name for a in alerts] == ["alert_db_port_probe", "alert_port_scan"]
        assert (normalizer.dropped, normalizer.malformed) == (1, 1)
        assert normalizer.normalize_record(bad) is None
        assert (normalizer.dropped, normalizer.malformed) == (2, 2)


def _sanitize_unguarded(text: str) -> tuple[str, SanitizationReport]:
    """The five module-level patterns, applied unconditionally in order."""
    report = SanitizationReport()
    out, report.emails = sanitizer_module._EMAIL_RE.subn("<email>", text)
    out, report.ssns = sanitizer_module._SSN_RE.subn("<ssn>", out)
    out, report.phones = sanitizer_module._PHONE_RE.subn("<phone>", out)
    out, report.home_paths = sanitizer_module._HOME_PATH_RE.subn(
        lambda m: f"/home/<user>{m.group(2) or ''}", out
    )
    out, report.ips_truncated = sanitizer_module._IP_RE.subn(
        lambda m: anonymize_ip(m.group(0), 2), out
    )
    return out, report


class TestSanitizer:
    @given(
        st.lists(
            st.sampled_from(list("abz019@.-/()+ ") + ["/home/", "٣", "12", "555"]), max_size=40
        ).map("".join)
    )
    @settings(max_examples=600, deadline=None)
    def test_guarded_passes_equal_the_unguarded_five(self, text):
        sanitizer = Sanitizer()
        assert (sanitizer.sanitize_text(text), sanitizer.report) == _sanitize_unguarded(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a1@b.c 123-45-6789", "x@y.z", "123-45-6789", "(217) 555-0142", "+1 217.555.0142",
            "/home/u1/a.b", "/home/", "10.20.30.40", "1.2.3.4.5", "٣٣٣-٣٣-٣٣٣٣", "٣.٣.٣.٣",
            "a@b.c/home/x 1.2.3.4 217-555-0142 078-05-1120", "", "sshd", "user07",
        ],
    )  # fmt: skip
    def test_guarded_passes_on_named_cases(self, text):
        sanitizer = Sanitizer()
        assert (sanitizer.sanitize_text(text), sanitizer.report) == _sanitize_unguarded(text)

    def test_key_classification_is_case_insensitive_and_memoised(self):
        sanitizer = Sanitizer()
        metadata = {"API_Token": "x", "Source_IP": "1.2.3.4", "peer": "1.2.3.4", "port": 22}
        for _ in range(2):
            assert sanitizer.sanitize_metadata(metadata) == {
                "Source_IP": "1.2.3.4", "peer": "1.2.xxx.yyy", "port": 22,
            }  # fmt: skip
        assert sanitizer.report.secrets == 2 and sanitizer.report.ips_truncated == 2

    def test_email_and_ssn_scrubbed(self):
        sanitizer = Sanitizer()
        text = sanitizer.sanitize_text("mail alice@example.org ssn 123-45-6789")
        assert "<email>" in text and "<ssn>" in text
        assert sanitizer.report.emails == 1 and sanitizer.report.ssns == 1

    def test_ip_truncated_keeps_prefix(self):
        sanitizer = Sanitizer()
        text = sanitizer.sanitize_text("from 103.102.166.28 port 22")
        assert "103.102.xxx.yyy" in text

    def test_home_path_scrubbed(self):
        sanitizer = Sanitizer()
        assert "/home/<user>" in sanitizer.sanitize_text("read /home/alice/secret.txt")

    def test_metadata_secrets_dropped_and_source_ip_kept(self):
        sanitizer = Sanitizer()
        clean = sanitizer.sanitize_metadata(
            {"password": "hunter2", "source_ip": "1.2.3.4", "note": "bob@example.org"}
        )
        assert "password" not in clean
        assert clean["source_ip"] == "1.2.3.4"
        assert "<email>" in clean["note"]

    def test_anonymize_ip_helper(self):
        assert anonymize_ip("103.102.166.28") == "103.102.xxx.yyy"
        assert anonymize_ip("103.102.166.28", keep_octets=3) == "103.102.166.xxx"
        assert anonymize_ip("not-an-ip") == "not-an-ip"

    @given(st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_sanitize_never_raises(self, text):
        assert isinstance(Sanitizer().sanitize_text(text), str)


class TestScanFilter:
    def _scan_alerts(self, count=200, source="9.9.9.9"):
        return [
            Alert(timestamp=float(i), name="alert_port_scan", entity=f"host:h{i % 40}",
                  source_ip=source, host=f"h{i % 40}")
            for i in range(count)
        ]

    def test_mass_scanner_suppressed(self):
        attack = [Alert(500.0, "alert_download_sensitive", "user:x", source_ip="8.8.8.8", host="login")]
        survivors, stats = filter_alerts(self._scan_alerts() + attack)
        assert stats.scanner_suppressed == 200
        assert [a.name for a in survivors] == ["alert_download_sensitive"]

    def test_dedup_window(self):
        alerts = [
            Alert(float(i * 10), "alert_bruteforce_ssh", "user:x", source_ip="7.7.7.7", host="login")
            for i in range(5)
        ]
        survivors, stats = filter_alerts(alerts, dedup_window_seconds=3600.0)
        assert len(survivors) == 1
        assert stats.deduplicated == 4

    def test_dedup_respects_window_expiry(self):
        alerts = [
            Alert(0.0, "alert_bruteforce_ssh", "user:x", source_ip="7.7.7.7", host="login"),
            Alert(7200.0, "alert_bruteforce_ssh", "user:x", source_ip="7.7.7.7", host="login"),
        ]
        survivors, _ = filter_alerts(alerts, dedup_window_seconds=3600.0)
        assert len(survivors) == 2

    def test_attack_source_not_treated_as_scanner(self):
        """A source that also produced post-recon alerts is never suppressed."""
        mixed = self._scan_alerts(count=50, source="6.6.6.6") + [
            Alert(999.0, "alert_remote_code_execution", "host:h1", source_ip="6.6.6.6", host="h1")
        ]
        scan_filter = ScanFilter()
        survivors = scan_filter.filter(mixed)
        assert any(a.source_ip == "6.6.6.6" and a.name == "alert_remote_code_execution" for a in survivors)

    def test_reduction_factor_reported(self):
        survivors, stats = filter_alerts(self._scan_alerts(300) +
                                         [Alert(1.0, "alert_outbound_c2", "user:x", source_ip="5.5.5.5")])
        assert stats.reduction_factor > 100

    def test_reduction_factor_distinguishes_total_drop(self):
        # Dropping every alert is an infinite reduction, not 0.
        _, stats = filter_alerts(self._scan_alerts(300))
        assert stats.output_alerts == 0
        assert stats.reduction_factor == float("inf")
        # No input at all is vacuously no reduction.
        _, empty_stats = filter_alerts([])
        assert empty_stats.reduction_factor == 1.0

    def test_scan_filter_stage_adapter(self):
        from repro.telemetry import ScanFilterStage

        scan_filter = ScanFilter()
        stage = ScanFilterStage(scan_filter)
        assert stage.name == "filter"
        survivors = stage.process(self._scan_alerts(50))
        assert survivors == []
        assert scan_filter.stats.input_alerts == 50


class TestAnnotator:
    def _alerts(self):
        return [
            Alert(1.0, "alert_login_normal", "user:benign1"),
            Alert(2.0, "alert_download_sensitive", "user:attacker"),
            Alert(3.0, "alert_download_sensitive", "user:benign1"),
            Alert(4.0, "alert_privilege_escalation", "user:attacker"),
        ]

    def test_labels_and_methods(self):
        annotator = GroundTruthAnnotator()
        annotated = annotator.annotate(self._alerts(), attack_entities={"user:attacker"})
        labels = {(a.alert.entity, a.alert.name): a.label for a in annotated}
        assert labels[("user:attacker", "alert_privilege_escalation")] is AnnotationLabel.MALICIOUS
        assert labels[("user:benign1", "alert_login_normal")] is AnnotationLabel.BENIGN

    def test_ambiguous_alerts_go_to_experts(self):
        annotator = GroundTruthAnnotator()
        annotated = annotator.annotate(self._alerts(), attack_entities={"user:attacker"})
        expert_items = [a for a in annotated if a.method is AnnotationMethod.EXPERT]
        # alert_download_sensitive occurs under both an attack and a benign
        # entity, so it is ambiguous and routed to the expert panel.
        assert expert_items
        assert all(a.alert.name == "alert_download_sensitive" for a in expert_items)
        assert 0 < annotator.stats.expert_fraction < 1

    def test_majority_automatic(self, corpus):
        """On the full corpus the automatic fraction is high (paper: 99.7%)."""
        alerts = []
        attack_entities = set()
        for incident in corpus.incidents[:60]:
            alerts.extend(incident.sequence)
            attack_entities.add(incident.sequence[0].entity)
        annotator = GroundTruthAnnotator()
        annotator.annotate(sorted(alerts, key=lambda a: a.timestamp), attack_entities)
        assert annotator.stats.automatic_fraction > 0.9
