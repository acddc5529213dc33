"""A raw-record corpus that reaches every branch of the normaliser rules.

Shared by the pinned-digest test in ``test_ingest_edge.py``: the e2e
scan-flood and replay generators at toy size, the raw records the
``repro.attacks`` emulators leave on their monitors, and a hand-written
tail that hits each rule branch the generated traffic does not
(every Zeek notice, each ``bash``/``process_events`` pattern, the
sanitiser's five scrubbers).  A pure function of its code: every rng is
seeded, no dict or set is iterated in hash order.

Run as a script to print the digest of the current tree::

    PYTHONPATH=src python tests/ingest_corpus.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))

import e2e_workloads  # noqa: E402

from repro.attacks import LateralMovementEngine, MassScanEmulator, RansomwareScenario
from repro.service.protocol import raw_record_from_dict
from repro.telemetry import (
    AlertNormalizer,
    AuditdMonitor,
    OsqueryMonitor,
    SyslogMonitor,
    ZeekMonitor,
)
from repro.telemetry.logsource import MonitorKind, RawLogRecord
from repro.telemetry.normalizer import ZEEK_NOTICE_MAP
from repro.testbed import Honeypot, build_default_topology


def _generated() -> list[RawLogRecord]:
    records: list[RawLogRecord] = []
    for batch in e2e_workloads.scan_flood_batches(7, 3, 64):
        records.extend(raw_record_from_dict(r) for r in batch)
    for batch in e2e_workloads.replay_record_batches(7, 2, 64):
        records.extend(batch)
    return records


def _emulated() -> list[RawLogRecord]:
    records: list[RawLogRecord] = []
    honeypot = Honeypot()
    topology = build_default_topology()
    RansomwareScenario(honeypot, topology=topology).run_honeypot_capture(start_time=1000.0)
    records.extend(honeypot.zeek.records)
    for name in sorted(honeypot.entry_points):
        entry = honeypot.entry_points[name]
        for service in (entry.postgres, entry.ssh):
            monitors = service.monitors
            for source in (monitors.syslog, monitors.auditd, monitors.osquery):
                records.extend(source.records)
    syslog, osquery = SyslogMonitor("login1"), OsqueryMonitor("login1")
    origin = topology.hosts()[0].name
    LateralMovementEngine(topology).run(
        origin, entity="user:root", attacker_ip="194.145.7.9", syslog=syslog, osquery=osquery
    )
    records.extend(syslog.records)
    records.extend(osquery.records)
    scanner = MassScanEmulator(seed=3)
    scans = scanner.generate_scan_records(
        scanner.default_profiles(total_scans=60, num_minor_scanners=3), duration_seconds=60.0
    )
    records.extend(scanner.to_zeek(scans).records)
    return records


def _handwritten() -> list[RawLogRecord]:
    zeek = ZeekMonitor("zeek-border")
    ts = 5000.0
    for note in list(ZEEK_NOTICE_MAP) + ["Weird::Unknown"]:
        zeek.raise_notice(ts, note, "msg", orig_h="103.102.44.9", resp_h="141.142.2.3")
        ts += 1.0
    for state, port, resp_h in (
        ("S0", 5432, "141.142.2.3"), ("REJ", 5432, "141.142.2.3"), ("RSTO", 5432, "141.142.2.3"),
        ("SF", 5432, "141.142.2.3"), ("SF", 443, "194.145.3.4"), ("S0", 22, "111.200.1.1"),
        ("REJ", 80, "141.142.2.4"), ("RSTO", 80, "141.142.2.4"), ("SF", 443, "45.9.1.2"),
        ("S1", 443, "45.90.1.2"),
    ):  # fmt: skip
        zeek.record_connection(ts, "103.102.44.9", 40000, resp_h, port, conn_state=state)
        ts += 1.0

    syslog = SyslogMonitor("login2")
    syslog.sshd_accepted(ts, "alice", "64.215.10.20")
    syslog.sshd_failed(ts + 1, "bob", "64.215.10.21")
    syslog._log(ts + 2, "sshd", "Accepted publickey")
    syslog._log(ts + 3, "sshd", "Failed none")
    syslog._log(ts + 4, "sshd", "Connection closed by 10.0.0.1")
    syslog.sudo_command(ts + 5, "carol", "/bin/cat /home/carol/.ssh/id_rsa")
    syslog.sudo_command(ts + 6, "dave@example.org", "/usr/bin/passwd 123-45-6789")
    syslog.wget_download(ts + 7, "erin", "http://64.215.1.18/abs.c")
    syslog.wget_download(ts + 8, "erin", "64.215.1.18/abs.tgz")
    syslog.wget_download(ts + 9, "erin", "ftp://example.org/readme.txt")
    syslog._log(ts + 10, "wget", "http://anonymous.example/a.sh")
    syslog.cron_job(ts + 11, "root", "run-parts /etc/cron.hourly")
    syslog.log_truncated(ts + 12, "/var/log/wtmp")
    syslog._log(ts + 13, "kernel", "eth0: link up")
    syslog._log(ts + 14, "bash", "no command here")
    for offset, command in enumerate(
        (
            "gcc -o rootkit module.c",
            "make -C /lib/modules/build module",
            "gcc exploit.c",
            "cc x.c",
            "make all",
            "find /home -name id_rsa",
            "cat keys | grep -vw  pub",
            "cat ~/.ssh/known_hosts",
            "cat /home/frank/.ssh/config",
            "grep bash_history for Host entries",
            "ssh -oBatchMode=yes root@10.1.2.3 ./kp",
            "echo > /var/log/secure",
            "cat /dev/null >/var/spool/mail/root",
            "history -c",
            "rm -f /home/grace/.bash_history",
            "gcc a.c && ls -la /home/heidi/projects/thesis.tex",
            "make && mail ivan@example.com from 192.168.10.20 tel (217) 555-0142",
            "cc y.c; curl 10.20.30.40/x 1.2.3.4.5 999.1.1.1 +1 217-555-0143 2175550144",
            "make; echo 078-05-1120 judy.o+tag@mail.example.co.uk /home/judy",
            "",
        )
    ):
        syslog.command_executed(ts + 20 + offset, "mallory", command)

    auditd = AuditdMonitor("compute3")
    auditd.setuid_transition(ts + 50, "mallory")
    auditd.setuid_transition(ts + 51, "root", from_uid=0)
    auditd.module_load(ts + 52, "mallory", "diamorphine")
    auditd.execve(ts + 53, "mallory", "/tmp/kp", "-d")
    auditd.execve(ts + 54, "alice", "/usr/bin/sbatch", "job.sh")
    auditd.file_write(ts + 55, "mallory", "/tmp/.x/kp")
    auditd.file_write(ts + 56, "alice", "/home/alice/out.dat")
    auditd.chmod(ts + 57, "mallory", "/home/mallory/.ssh/id_rsa", "400")
    auditd._record(ts + 58, "USER_LOGIN", {"acct": "alice"})

    osquery = OsqueryMonitor("compute4")
    osquery.authorized_keys_change(ts + 60, "alice", "attacker@evil")
    osquery.kernel_module(ts + 61, "diamorphine")
    osquery.file_event(ts + 62, "/tmp/kp")
    osquery.file_event(ts + 63, "/var/lib/postgresql/README_FOR_DECRYPT.txt")
    osquery.file_event(ts + 64, "/home/alice/HOW_TO_RECOVER.txt")
    osquery.file_event(ts + 65, "/etc/passwd")
    osquery.process_event(ts + 66, "root", "/usr/bin/find", "find / -name id_rsa*")
    osquery.process_event(ts + 67, "root", "/bin/cat", "cat /root/.ssh/known_hosts")
    osquery.process_event(ts + 68, "root", "/usr/bin/ssh", "ssh -oBatchMode=yes root@n2")
    osquery.process_event(ts + 69, "root", "/tmp/xmrig", "xmrig -o stratum+tcp://45.9.1.2:3333")
    osquery.process_event(ts + 70, "alice", "/bin/ls", "ls /home/alice")
    osquery.outbound_connection(ts + 71, "kp", "194.145.227.21", 443)
    osquery.outbound_connection(ts + 72, "curl", "141.142.2.9", 443)
    osquery.listening_port(ts + 73, 4444, "nc")
    osquery._result(ts + 74, "unknown_pack", {"x": 1})

    records = zeek.records + syslog.records + auditd.records + osquery.records
    # Field values that are not strings, and records with no fields.
    records.append(RawLogRecord(ts + 80, MonitorKind.ZEEK, "z", "", {"stream": "conn", "resp_p": "5432", "conn_state": "S0", "orig_h": 7}))
    records.append(RawLogRecord(ts + 81, MonitorKind.ZEEK, "z", "", {"stream": "conn", "resp_p": 22.0, "conn_state": "REJ"}))
    records.append(RawLogRecord(ts + 82, MonitorKind.ZEEK, "z", "", {"stream": "notice", "note": None}))
    records.append(RawLogRecord(ts + 83, MonitorKind.ZEEK, "z", "", {"stream": "dns"}))
    records.append(RawLogRecord(ts + 84, MonitorKind.SYSLOG, "s", "", {}))
    records.append(RawLogRecord(ts + 85, MonitorKind.AUDITD, "a", "", {}))
    records.append(RawLogRecord(ts + 86, MonitorKind.OSQUERY, "o", "", {}))
    records.append(RawLogRecord(ts + 87, MonitorKind.AUDITD, "a", "", {"record_type": "SYSCALL", "syscall": "setuid", "uid": 0, "auid": 1000, "acct": ""}))
    return records


def build_corpus() -> list[RawLogRecord]:
    """The full corpus, in a fixed order."""
    return _generated() + _emulated() + _handwritten()


def corpus_digest() -> tuple[str, int, int]:
    """``(sha256, alert count, record count)`` of normalising the corpus.

    The hashed document is the alerts' ``to_dict()`` forms in order
    (attribute key order included: it is part of the checkpoint bytes),
    the drop count and the sanitisation report.
    """
    records = build_corpus()
    normalizer = AlertNormalizer()
    alerts = normalizer.normalize_stream(records)
    document = {
        "alerts": [alert.to_dict() for alert in alerts],
        "dropped": normalizer.dropped,
        "report": dataclasses.asdict(normalizer.sanitizer.report),
    }
    digest = hashlib.sha256(json.dumps(document).encode("utf-8")).hexdigest()
    return digest, len(alerts), len(records)


if __name__ == "__main__":
    print(*corpus_digest())
