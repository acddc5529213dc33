"""The always-on detection service: protocol, admission, socket legs.

Three layers of coverage for :mod:`repro.service`:

* unit -- the JSONL protocol codec and serialisers round-trip every
  result type bit-for-bit; the admission controller's tier thresholds,
  shed accounting (mirror drop counters + dead-letter journal agree),
  and the deterministic client backoff policy;
* socket -- campaigns streamed to an in-process server over a real TCP
  connection must be bit-identical to the offline reference replay,
  including across a live reshard, a forced shed, and a checkpoint op
  whose file restores into an offline pipeline mid-stream;
* lifecycle -- a real ``python -m repro.service`` subprocess is sent
  SIGTERM mid-stream and must drain, write a final checkpoint, and
  exit 0; restoring that checkpoint and replaying the unsent suffix
  offline reproduces the full-run outputs exactly.

A small hypothesis state machine drives random connect / send /
control / reshard / drain interleavings against the same invariant.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import AttackTagger
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.detector import Detection
from repro.core.states import AttackStage, HiddenState
from repro.incidents import DEFAULT_CATALOGUE
from repro.telemetry import MonitorKind, RawLogRecord
from repro.testbed import (
    CheckpointStore,
    OperatorNotification,
    ResponseAction,
    ResponseRecord,
    TestbedPipeline,
    TrafficMirror,
    read_checkpoint,
)
from repro.fuzz.campaign import CampaignComposer
from repro.fuzz.oracle import COMPARED_COUNTERS
from repro.service import (
    AdmissionController,
    AdmissionLimits,
    BackoffPolicy,
    DeadLetterJournal,
    ProtocolError,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    decode_line,
    detection_from_dict,
    detection_to_dict,
    encode_message,
    notification_to_dict,
    parse_request,
    percentile_summary,
    raw_record_from_dict,
    raw_record_to_dict,
    response_record_to_dict,
    serialize_results,
    start_service_in_thread,
)
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.smoke import (
    build_service_pipeline,
    compare_results,
    reference_results,
    stream_campaign,
)

BENIGN_NAMES = sorted(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))


def _sample_detection() -> Detection:
    return Detection(
        entity="user:u001",
        timestamp=12.5,
        alert_index=7,
        trigger=Alert(timestamp=12.5, name="login", entity="user:u001",
                      attributes={"port": 22}),
        state=HiddenState.MALICIOUS,
        confidence=0.875,
        matched_patterns=("S1", "S7"),
        state_trajectory=(HiddenState.BENIGN, HiddenState.SUSPICIOUS,
                          HiddenState.MALICIOUS),
    )


class TestProtocol:
    def test_encode_is_deterministic_and_newline_framed(self):
        blob = encode_message({"b": 1, "a": [1.5, "x"]})
        assert blob == b'{"a":[1.5,"x"],"b":1}\n'
        assert decode_line(blob) == {"a": [1.5, "x"], "b": 1}

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1e-17, 2**-53, 6755399441055744.0, float("inf")]
        decoded = decode_line(encode_message({"v": values}))
        assert decoded["v"] == values
        assert decoded["v"][-1] == math.inf

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no op
            {"op": "warp"},  # unknown op
            {"op": "batch"},  # missing alerts
            {"op": "batch", "alerts": "nope"},
            {"op": "raw", "records": 3},
            {"op": "control", "verb": "explode"},
            {"op": "control", "verb": "reset_entity"},  # entity required
            {"op": "reshard"},  # n_shards required
            {"op": "reshard", "n_shards": 0},
            {"op": "throttle", "mode": "sideways"},
        ],
    )
    def test_parse_request_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("op", ["raw", "batch"])
    def test_non_finite_timestamps_are_rejected_at_the_edge(self, op, literal):
        # json.loads accepts these literals; the scan filter sorts and
        # subtracts timestamps.
        if op == "raw":
            body = '"records":[{"timestamp":%s,"monitor":"zeek","host":"h"}]' % literal
        else:
            body = '"alerts":[{"timestamp":%s,"name":"login","entity":"user:u1"}]' % literal
        line = ('{"op":"%s",%s}\n' % (op, body)).encode()
        with pytest.raises(ProtocolError, match="non-finite"):
            parse_request(decode_line(line))

    @pytest.mark.parametrize("value", [[["stream", "conn"]], [], "conn", 3, None])
    def test_non_object_fields_and_attributes_are_rejected(self, value):
        # dict() takes pair lists, so [["stream","conn"]] used to pass.
        record = {"timestamp": 1.0, "monitor": "zeek", "host": "h", "fields": value}
        with pytest.raises(ProtocolError, match="fields"):
            parse_request({"op": "raw", "records": [record]})
        alert = {"timestamp": 1.0, "name": "login", "entity": "user:u1", "attributes": value}
        with pytest.raises(ProtocolError, match="attributes"):
            parse_request({"op": "batch", "alerts": [alert]})

    def test_unknown_monitor_and_non_object_record_stay_protocol_errors(self):
        record = {"timestamp": 1.0, "monitor": "netflow", "host": "h"}
        with pytest.raises(ProtocolError, match="netflow"):
            parse_request({"op": "raw", "records": [record]})
        with pytest.raises(ProtocolError):
            parse_request({"op": "raw", "records": [["timestamp", 1.0]]})
        with pytest.raises(ProtocolError):
            parse_request({"op": "raw", "records": [{"monitor": "zeek", "host": "h"}]})

    def test_parse_request_accepts_canonical_ops(self):
        request = parse_request({"op": "reshard", "n_shards": 3})
        assert request.op == "reshard" and request.n_shards == 3
        request = parse_request(
            {"op": "control", "verb": "reset_entity", "entity": "user:u1"}
        )
        assert request.entity == "user:u1"

    def test_decode_line_rejects_non_object_and_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_line(b"{not json\n")

    def test_raw_record_round_trip(self):
        record = RawLogRecord(
            timestamp=3.25,
            monitor=MonitorKind.ZEEK,
            host="login01",
            message="ssh auth",
            fields={"id.orig_h": "10.0.0.9", "success": True},
        )
        assert raw_record_from_dict(raw_record_to_dict(record)) == record

    def test_detection_round_trip_through_json(self):
        detection = _sample_detection()
        wire = json.loads(json.dumps(detection_to_dict(detection)))
        restored = detection_from_dict(wire)
        assert restored == detection
        assert restored.state is HiddenState.MALICIOUS
        assert restored.state_trajectory == detection.state_trajectory

    def test_serialize_results_surface(self):
        detection = _sample_detection()
        notification = OperatorNotification(
            timestamp=12.5, entity="user:u001", summary="creds", detection=detection
        )
        action = ResponseRecord(
            timestamp=12.5,
            action=ResponseAction.NOTIFY_OPERATORS,
            target="user:u001",
        )
        surface = serialize_results(
            [detection], [("factor_graph", detection)], [notification], [action],
            {"detections": 1.0},
        )
        # The whole surface must survive the socket's JSON round-trip
        # unchanged -- this IS the bit-identity comparison surface.
        assert json.loads(json.dumps(surface)) == surface
        assert surface["detection_log"][0][0] == "factor_graph"
        assert surface["notifications"][0]["detection"] == detection_to_dict(detection)
        assert surface["actions"][0] == response_record_to_dict(action)


class TestAdmission:
    def _alerts(self, names):
        return [
            Alert(timestamp=float(i), name=name, entity="user:u1")
            for i, name in enumerate(names)
        ]

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            AdmissionLimits(global_capacity=0)
        with pytest.raises(ValueError):
            AdmissionLimits(shed_raw_fraction=0.9, shed_low_fraction=0.5)

    def test_tier_thresholds(self):
        controller = AdmissionController(
            AdmissionLimits(global_capacity=10, per_connection=4)
        )
        assert controller.tier(0, 0) == "admit"
        assert controller.tier(4, 0) == "admit"
        assert controller.tier(5, 0) == "shed-raw"  # >= 10 * 0.5
        assert controller.tier(7, 0) == "shed-raw"  # still below 10 * 0.75
        assert controller.tier(8, 0) == "shed-low"  # >= 10 * 0.75
        assert controller.tier(10, 0) == "reject"
        assert controller.tier(0, 4) == "reject"  # per-connection bound
        controller.forced_mode = "shed-low"
        assert controller.tier(0, 0) == "shed-low"

    def test_shed_low_filters_background_and_accounts(self, tmp_path):
        mirror = TrafficMirror()
        journal = DeadLetterJournal(tmp_path / "dead.jsonl")
        controller = AdmissionController(
            AdmissionLimits(global_capacity=4),
            mirror=mirror,
            dead_letter=journal,
        )
        controller.forced_mode = "shed-low"
        batch = self._alerts([BENIGN_NAMES[0], "login", BENIGN_NAMES[1], "sudo"])
        outcome = controller.admit_alerts(batch, 0, 0)
        assert outcome.accepted and outcome.tier == "shed-low"
        assert [a.name for a in outcome.admitted] == ["login", "sudo"]
        assert outcome.shed == 2
        # Triple-entry ledger: controller counter, mirror drop counter,
        # and the dead-letter journal must all agree.
        assert controller.shed_low_priority_alerts == 2
        assert mirror.stats.dropped_alerts == 2
        assert journal.count == 2
        replayable = DeadLetterJournal.read(tmp_path / "dead.jsonl")
        assert [Alert.from_dict(e["payload"]).name for e in replayable] == [
            BENIGN_NAMES[0],
            BENIGN_NAMES[1],
        ]

    def test_a_journal_with_a_path_writes_through_and_keeps_no_copy(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        journal = DeadLetterJournal(path)
        for index in range(5):
            journal.record("shed-raw", "raw", {"index": index})
        assert journal.entries == [] and journal.count == 5
        assert [e["payload"]["index"] for e in DeadLetterJournal.read(path)] == list(range(5))
        # Memory-only journals (no path) keep their entries, as before.
        ephemeral = DeadLetterJournal()
        ephemeral.record("shed-raw", "raw", {"index": 0})
        assert ephemeral.count == 1 and len(ephemeral.entries) == 1

    def test_shed_raw_drops_whole_batch(self):
        mirror = TrafficMirror()
        controller = AdmissionController(mirror=mirror)
        controller.forced_mode = "shed-raw"
        records = [
            RawLogRecord(
                timestamp=1.0, monitor=MonitorKind.SYSLOG, host="h", message="m"
            )
        ] * 3
        outcome = controller.admit_raw(records, 0, 0)
        assert outcome.accepted and outcome.admitted == () and outcome.shed == 3
        assert mirror.stats.dropped_raw == 3

    def test_reject_is_lossless_but_counted(self):
        controller = AdmissionController(AdmissionLimits(retry_after=0.25))
        controller.forced_mode = "reject"
        outcome = controller.admit_alerts(self._alerts(["login"]), 0, 0)
        assert not outcome.accepted
        assert outcome.retry_after == 0.25
        assert controller.rejected_batches == 1
        # Nothing was shed: a reject leaves the drop ledgers untouched.
        assert controller.shed_low_priority_alerts == 0

    def test_backoff_policy_is_deterministic_and_capped(self):
        policy = BackoffPolicy(base_delay=0.02, factor=2.0, max_delay=0.1)
        assert [policy.delay(a) for a in range(5)] == [
            0.02, 0.04, 0.08, 0.1, 0.1,
        ]

    def test_percentile_summary_nearest_rank(self):
        summary = percentile_summary(deque(float(v) for v in range(1, 101)))
        assert summary["count"] == 100
        assert summary["p50"] == 50.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0
        assert percentile_summary(deque())["count"] == 0

    @pytest.mark.parametrize("key,percent", [("p50", 50), ("p90", 90), ("p99", 99)])
    def test_percentile_summary_is_the_ceiling_rank(self, key, percent):
        # Nearest rank is a ceiling: p90 of 1..6 is 6, never 5.
        for count in range(1, 41):
            summary = percentile_summary(deque(float(v) for v in range(1, count + 1)))
            expected = math.ceil(Fraction(percent * count, 100))
            assert summary[key] == expected, count


# ----------------------------------------------------------------------
# Socket end-to-end (in-process server, real TCP)
# ----------------------------------------------------------------------
def _serial_factory(campaign, n_shards=1, engine="streaming"):
    return lambda: build_service_pipeline(
        campaign, engine=engine, n_shards=n_shards, backend="serial"
    )


class TestServiceSocket:
    def test_streamed_campaign_is_bit_identical(self):
        campaign = CampaignComposer(1, target_alerts=80).compose(0)
        expected = reference_results(campaign)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            hello = client.hello()
            assert hello["server"] == "repro-detection-service"
            got = stream_campaign(client, campaign)
            stats = client.stats()
        assert compare_results(expected, got) == []
        assert stats["batches_processed"] > 0
        assert stats["latency"]["e2e"]["count"] == stats["batches_processed"]
        assert set(stats["latency"]["stages"]) >= {"detect", "respond"}
        for key in COMPARED_COUNTERS:
            assert key in got["counters"]

    def test_live_reshard_over_socket_is_bit_identical(self):
        campaign = CampaignComposer(1, target_alerts=80).compose(1)
        expected = reference_results(campaign)
        handle = start_service_in_thread(
            _serial_factory(campaign, n_shards=2), ServiceConfig()
        )
        with handle, handle.client() as client:
            got = stream_campaign(
                client,
                campaign,
                reshard_to=3,
                reshard_at=len(campaign.events) // 2,
            )
            stats = client.stats()
        assert compare_results(expected, got) == []
        assert stats["n_shards"] == 3
        assert stats["pipeline"]["reshard_events"] == 1.0
        assert stats["reshards"] and stats["reshards"][-1]["to"] == 3

    def test_detections_op_pages_with_since(self):
        campaign = CampaignComposer(1, target_alerts=80).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            got = stream_campaign(client, campaign)
            reply = client.detections()
            total = reply["total"]
            assert reply["detections"] == got["detections"]
            assert total == len(got["detections"])
            tail = client.detections(since=max(0, total - 2))
            assert tail["detections"] == got["detections"][max(0, total - 2):]

    def test_detections_op_orders_after_admitted_batches_without_drain(self):
        # Regression (staticcheck asyncio-blocking fix): ``detections``
        # rides the consumer FIFO as a barrier op instead of touching
        # the pipeline from the dispatch coroutine, so its reply must
        # already reflect every batch admitted before it -- no drain.
        campaign = CampaignComposer(1, target_alerts=80).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            for event in campaign.events:
                if event.kind == "batch":
                    client.send_alerts(list(event.alerts))
                elif event.kind == "reset_entity":
                    client.control("reset_entity", entity=event.entity)
                elif event.kind == "reset":
                    client.control("reset")
                elif event.kind == "reopen":
                    client.control("reopen")
            barrier_reply = client.detections()
            client.drain()
            settled = client.detections()
        assert barrier_reply["detections"] == settled["detections"]
        assert barrier_reply["total"] == settled["total"] > 0

    def test_thread_harness_closes_pipeline_after_stop(self):
        # Regression (staticcheck asyncio-blocking fix): the thread
        # harness closes the pipeline after asyncio.run returns --
        # outside the event loop -- and must not skip it on the happy
        # path: every process-backed detector pool ends up closed once
        # the handle's context exits (serial pools are no-op closes and
        # never report closed).
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(
            lambda: build_service_pipeline(
                campaign, engine="streaming", n_shards=2, backend="process"
            ),
            ServiceConfig(),
        )
        with handle, handle.client() as client:
            got = stream_campaign(client, campaign)
        assert got["counters"]["detections"] > 0
        assert handle.error is None
        assert all(
            pool.closed for pool in handle.pipeline.detector_pools.values()
        )

    def test_forced_shed_low_accounts_across_ledgers(self, tmp_path):
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        dead_letter = tmp_path / "dead.jsonl"
        handle = start_service_in_thread(
            _serial_factory(campaign),
            ServiceConfig(dead_letter_path=dead_letter),
        )
        benign = [
            Alert(timestamp=float(i), name=BENIGN_NAMES[i % len(BENIGN_NAMES)],
                  entity=f"user:u{i}")
            for i in range(6)
        ]
        with handle, handle.client() as client:
            client.throttle("shed-low")
            ack = client.send_alerts(benign + [
                Alert(timestamp=99.0, name="login", entity="user:attacker")
            ])
            assert ack["tier"] == "shed-low"
            assert ack["shed"] == 6 and ack["admitted"] == 1
            client.throttle("open")
            client.drain()
            stats = client.stats()
        assert stats["admission"]["shed_low_priority_alerts"] == 6
        assert stats["pipeline"]["dropped_alerts"] == 6.0
        assert stats["dead_letter_records"] == 6
        entries = DeadLetterJournal.read(dead_letter)
        assert len(entries) == 6
        assert {e["reason"] for e in entries} == {"shed-low-priority"}

    def test_stats_counts_dead_letters_the_service_no_longer_holds(self, tmp_path):
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        dead_letter = tmp_path / "dead.jsonl"
        handle = start_service_in_thread(
            _serial_factory(campaign), ServiceConfig(dead_letter_path=dead_letter)
        )
        record = RawLogRecord(1.0, MonitorKind.SYSLOG, "h", "m")
        with handle, handle.client() as client:
            client.throttle("shed-raw")
            assert client.send_raw([record] * 4)["shed"] == 4
            stats = client.stats()
        assert stats["dead_letter_records"] == 4
        assert stats["pipeline"]["dropped_raw"] == 4.0
        assert handle.service.dead_letter.entries == []
        assert len(DeadLetterJournal.read(dead_letter)) == 4

    def test_reject_mode_raises_typed_overload(self):
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            client.throttle("reject")
            with pytest.raises(ServiceOverloadedError) as excinfo:
                client.request(
                    {"op": "batch", "alerts": [Alert(1.0, "login", "u").to_dict()]}
                )
            assert excinfo.value.retry_after > 0
            client.throttle("open")
            # The rejected batch was never enqueued: replaying it now
            # must land normally (reject is the lossless tier).
            ack = client.send_alerts([Alert(1.0, "login", "u")])
            assert ack["tier"] == "admit"
            stats = client.stats()
            assert stats["admission"]["rejected_batches"] == 1

    def test_reshard_validation_error_over_socket(self):
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.reshard(999)
            assert excinfo.value.kind == "reshard-failed"
            # The service survives the failed barrier op.
            assert client.ping()["pong"] is True

    def test_checkpoint_op_restores_into_offline_pipeline(self, tmp_path):
        campaign = CampaignComposer(1, target_alerts=80).compose(0)
        batches = [e for e in campaign.events if e.kind == "batch" and e.alerts]
        cut = max(1, len(batches) // 2)
        handle = start_service_in_thread(
            _serial_factory(campaign, n_shards=2),
            ServiceConfig(checkpoint_dir=tmp_path, keep_last=2),
        )
        with handle, handle.client() as client:
            for event in batches[:cut]:
                client.send_alerts(list(event.alerts))
            client.drain()
            reply = client.checkpoint()
            path = Path(reply["path"])
            assert path.exists() and path.parent == tmp_path
        # Resume offline from the socket-produced checkpoint.
        with build_service_pipeline(
            campaign, engine="streaming", n_shards=2, backend="serial"
        ) as resumed:
            resumed.restore(path)
            for event in batches[cut:]:
                resumed.ingest_alerts(event.alerts)
            got = [d for _, d in resumed.detections]
        with build_service_pipeline(
            campaign, engine="streaming", n_shards=2, backend="serial"
        ) as reference:
            for event in batches:
                reference.ingest_alerts(event.alerts)
            expected = [d for _, d in reference.detections]
        assert got == expected

    def test_idle_killed_worker_does_not_void_the_checkpoints(self, tmp_path):
        """Drain, SIGKILL an idle worker: the ``checkpoint`` op and the
        graceful stop's final checkpoint both meet the corpse first, and
        under ``restore`` both must heal it and succeed."""
        campaign = CampaignComposer(1, target_alerts=80).compose(0)
        batches = [e for e in campaign.events if e.kind == "batch" and e.alerts]
        cut = max(1, len(batches) // 2)

        def process_pipeline():
            return build_service_pipeline(campaign, n_shards=2, backend="process")

        def kill_idle_worker(shard):
            victim = handle.pipeline.detector_pools["factor_graph"]._workers[shard]
            victim.process.kill()
            victim.process.join(timeout=5.0)

        handle = start_service_in_thread(
            process_pipeline, ServiceConfig(checkpoint_dir=tmp_path, keep_last=4)
        )
        with handle, handle.client() as client:
            for event in batches[:cut]:
                client.send_alerts(list(event.alerts))
            client.drain()
            kill_idle_worker(0)
            first = Path(client.checkpoint()["path"])
            assert first.exists() and first.parent == tmp_path
            kill_idle_worker(1)
        # ``handle.stop()`` ran: the drain-then-checkpoint guarantee held.
        final = CheckpointStore(tmp_path).latest()
        assert final is not None and final != first
        summary = handle.pipeline.summary()
        assert summary["recoveries_healed"] == summary["recovery_attempts"] == 2.0
        with process_pipeline() as resumed:
            resumed.restore(final)
            for event in batches[cut:]:
                resumed.ingest_alerts(event.alerts)
            got = (list(resumed.detections), resumed.summary())
        with build_service_pipeline(campaign, n_shards=1, backend="serial") as reference:
            for event in batches:
                reference.ingest_alerts(event.alerts)
            expected = (list(reference.detections), reference.summary())
        assert got[0] == expected[0] and got[0]
        for key in COMPARED_COUNTERS:
            assert got[1][key] == expected[1][key], key

    def test_in_contract_batch_over_64k_line_is_ingested(self):
        # Regression: without limit= on asyncio.start_server the
        # StreamReader's 64 KiB default reset any in-contract request
        # above it (the client saw a bare disconnect, never a reply).
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        pad = "x" * 256
        batch = [
            Alert(timestamp=float(i + 1), name="login",
                  entity=f"user:u{i % 7:03d}", attributes={"pad": pad})
            for i in range(1024)
        ]
        wire = encode_message({"op": "batch", "alerts": [a.to_dict() for a in batch]})
        assert 64 * 1024 < len(wire) < MAX_LINE_BYTES
        with handle, handle.client() as client:
            ack = client.send_alerts(batch)
            assert ack["tier"] == "admit" and ack["admitted"] == 1024
            client.drain()
            stats = client.stats()
        assert stats["pipeline"]["normalized_alerts"] == 1024
        assert stats["alerts_processed"] == 1024

    def test_oversized_line_replies_protocol_error_then_closes(self):
        import socket

        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=120.0
            ) as sock:
                sock.sendall(
                    b'{"op":"ping","pad":"'
                    + b"x" * (MAX_LINE_BYTES + 4096)
                    + b'"}\n'
                )
                stream = sock.makefile("rb")
                reply = json.loads(stream.readline())
                assert reply["ok"] is False
                assert reply["error"] == "protocol"
                assert "exceeds" in reply["message"]
                # Framing is lost mid-line: the server must close.
                assert stream.readline() == b""
            # The service survives and keeps serving new connections.
            with handle.client() as client:
                assert client.ping()["pong"] is True

    def test_consumer_survives_unexpected_processing_error(self):
        # Regression: an exception escaping _process (anything other
        # than the typed shard errors at collect time) killed the
        # consumer silently -- later acks were never processed and
        # barriers hung until client timeout.
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            client.ping()
            pipeline = handle.pipeline
            original = pipeline.collect_detections

            def explode():
                pipeline.collect_detections = original  # one-shot
                raise RuntimeError("telemetry bug")

            pipeline.collect_detections = explode
            client.send_alerts([Alert(1.0, "login", "user:u001")])
            try:
                client.drain()
            except ServiceError:
                pass  # the contained error surfaced on the barrier
            # The consumer survived: later work is processed normally.
            ack = client.send_alerts([Alert(2.0, "sudo", "user:u001")])
            assert ack["tier"] == "admit"
            client.drain()
            stats = client.stats()
        assert stats["consumer_errors"] == 1
        assert stats["dead_letter_records"] >= 1
        entries = handle.service.dead_letter.entries
        assert any(e["reason"] == "consumer-error" for e in entries)

    def test_one_malformed_record_does_not_cost_its_batch(self):
        # Regression: int("http") in the conn matcher raised out of
        # normalize_stream and the whole batch was dead-lettered, after
        # the mirror and stats.raw_records had already counted it.
        from repro.telemetry import ZeekMonitor

        zeek = ZeekMonitor()
        zeek.record_connection(1.0, "1.2.3.4", 5555, "141.142.230.1", 5432, conn_state="S0")
        zeek.record_connection(3.0, "5.6.7.8", 5556, "141.142.230.2", 5432, conn_state="REJ")
        good_a, good_b = zeek.records
        malformed = RawLogRecord(
            2.0, MonitorKind.ZEEK, "zeek-manager", "", {"stream": "conn", "resp_p": "http"}
        )
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        alerts: list[Alert] = []
        with handle, handle.client() as client:
            handle.pipeline.mirror.subscribe_alerts(alerts.append)
            ack = client.send_raw([good_a, malformed, good_b])
            assert ack["tier"] == "admit" and ack["admitted"] == 3
            client.drain()
            stats = client.stats()
        assert [(a.name, a.source_ip) for a in alerts] == [
            ("alert_db_port_probe", "1.2.3.4"),
            ("alert_db_port_probe", "5.6.7.8"),
        ]
        assert stats["normalizer"] == {"dropped": 1, "malformed": 1}
        assert stats["pipeline"]["raw_records"] == 3
        assert stats["pipeline"]["normalized_alerts"] == 2
        assert stats["failed_batches"] == 0 and stats["dead_letter_records"] == 0
        assert handle.service.dead_letter.entries == []

    def test_stats_reports_the_collector_outside_the_compared_surface(self):
        import gc

        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            stats, results = client.stats(), client.results()
        # An embedded service sets no policy: it reports this process's.
        assert stats["gc"]["threshold"] == list(gc.get_threshold())
        assert stats["gc"]["frozen"] == gc.get_freeze_count()
        assert len(stats["gc"]["collections"]) == 3
        assert "gc" not in COMPARED_COUNTERS and "gc" not in results
        assert "gc" not in results["counters"]

    def test_fully_shed_raw_batch_consumes_no_queue_slot(self):
        # Regression: a whole-batch shed still enqueued an empty work
        # item, marching the connection toward its reject threshold
        # with no-ops.
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(
            _serial_factory(campaign),
            ServiceConfig(limits=AdmissionLimits(per_connection=4)),
        )
        records = [
            RawLogRecord(
                timestamp=1.0, monitor=MonitorKind.SYSLOG, host="h", message="m"
            )
        ]
        with handle, handle.client() as client:
            client.throttle("shed-raw")
            # Far more fully-shed batches than the per-connection
            # bound: none may consume a slot, so none may be rejected.
            for _ in range(12):
                ack = client.send_raw(records)
                assert ack["tier"] == "shed-raw"
                assert ack["admitted"] == 0 and ack["shed"] == 1
                assert ack["queued"] == 0
            client.throttle("open")
            client.drain()
            stats = client.stats()
        assert stats["admission"]["rejected_batches"] == 0
        assert stats["admission"]["shed_raw_records"] == 12
        assert stats["batches_processed"] == 0

    def test_mutating_ops_rejected_while_draining(self):
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle, handle.client() as client:
            client.ping()
            handle.service.request_shutdown("test")
            deadline = time.monotonic() + 30.0
            rejected = False
            while time.monotonic() < deadline:
                try:
                    client.request(
                        {
                            "op": "batch",
                            "alerts": [Alert(1.0, "login", "u").to_dict()],
                        }
                    )
                except ServiceError as exc:
                    rejected = exc.kind in ("shutting-down", "disconnected")
                    break
                time.sleep(0.01)
            assert rejected

    def test_shutdown_after_the_service_stopped_is_a_noop(self):
        """stop() twice, and request_shutdown once the thread has joined.

        The service thread closes its event loop as it exits; a late
        shutdown request used to raise ``RuntimeError: Event loop is
        closed`` out of ``ServiceHandle.stop()`` / ``__exit__``.
        """
        campaign = CampaignComposer(1, target_alerts=40).compose(0)
        handle = start_service_in_thread(_serial_factory(campaign), ServiceConfig())
        with handle.client() as client:
            client.ping()
        handle.stop()
        assert not handle.thread.is_alive()
        assert handle.service._loop.is_closed()
        handle.stop()
        handle.service.request_shutdown("late")
        with handle:
            pass  # __exit__ stops a third time
        assert handle.error is None
        assert handle.service.shutdown_reason == "handle.stop"


class TestServiceCli:
    @pytest.mark.parametrize("engine", ["batched", "rebuild"])
    def test_cli_rejects_removed_engines_listing_the_valid_ones(self, engine):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--engine", engine],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert f"invalid choice: '{engine}'" in proc.stderr
        assert "'streaming', 'naive'" in proc.stderr


# ----------------------------------------------------------------------
# Lifecycle: a real subprocess, a real SIGTERM
# ----------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="POSIX signals only")
class TestGracefulShutdown:
    def _spawn(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--port", "0",
                "--shards", "2",
                "--backend", "serial",
                "--engine", "streaming",
                "--max-window", "64",
                "--threshold", "0.6",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_collector_policy_belongs_to_the_service_process(self, tmp_path):
        from repro.service import ServiceClient
        from repro.service.__main__ import GC_GEN0_THRESHOLD

        # The library sets no process policy ...
        probe = (
            "import gc; before = gc.get_threshold(); import repro, repro.service;"
            "from repro.testbed import TestbedPipeline; TestbedPipeline().close();"
            "assert gc.get_threshold() == before == (700, 10, 10), gc.get_threshold();"
            "assert gc.get_freeze_count() == 0"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120)
        # ... the service process does, and says so.
        proc = self._spawn(tmp_path)
        try:
            line = proc.stdout.readline()
            assert line.startswith("LISTENING "), (line, proc.stderr.read())
            with ServiceClient("127.0.0.1", int(line.split()[1]), timeout=120.0) as client:
                client.send_alerts([Alert(1.0, "login", "user:u001")])
                client.drain()
                report = client.stats()["gc"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert report["threshold"] == [GC_GEN0_THRESHOLD, 10, 10]
        assert report["frozen"] > 10_000  # the import-time heap
        assert len(report["collections"]) == 3 and all(c >= 0 for c in report["collections"])

    def test_sigterm_drains_checkpoints_and_resumes_exactly(self, tmp_path):
        campaign = CampaignComposer(2, target_alerts=120).compose(
            0
        )
        batches = [e for e in campaign.events if e.kind == "batch" and e.alerts]
        assert len(batches) >= 2
        cut = max(1, len(batches) // 2)

        proc = self._spawn(tmp_path)
        try:
            line = proc.stdout.readline()
            assert line.startswith("LISTENING "), (line, proc.stderr.read())
            port = int(line.split()[1])
            from repro.service import ServiceClient

            with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
                # Lockstep: every one of these batches is acked, hence
                # admitted, hence covered by the shutdown drain.
                for event in batches[:cut]:
                    ack = client.send_alerts(list(event.alerts))
                    assert ack["tier"] == "admit"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            stdout = proc.stdout.read()
            assert code == 0, proc.stderr.read()
            assert "STOPPED" in stdout
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        store = CheckpointStore(tmp_path / "ckpt")
        final = store.latest()
        assert final is not None, "SIGTERM must leave a final checkpoint"
        payload = read_checkpoint(final)
        assert payload["config"]["n_shards"] == 2

        def pipeline():
            tagger = AttackTagger(
                patterns=list(DEFAULT_CATALOGUE),
                engine="streaming",
                max_window=64,
                detection_threshold=0.6,
            )
            return TestbedPipeline(
                detectors={"factor_graph": tagger},
                n_shards=2,
                shard_backend="serial",
            )

        with pipeline() as resumed:
            resumed.restore(final)
            # The checkpoint already contains exactly the acked prefix:
            # the drain-then-checkpoint shutdown processed every batch
            # the client saw acknowledged, and nothing else.
            assert resumed.stats.normalized_alerts == sum(
                len(event.alerts) for event in batches[:cut]
            )
            for event in batches[cut:]:
                resumed.ingest_alerts(event.alerts)
            got = [d for _, d in resumed.detections]
        with pipeline() as reference:
            for event in batches:
                reference.ingest_alerts(event.alerts)
            expected = [d for _, d in reference.detections]
        assert got == expected


# ----------------------------------------------------------------------
# Randomised interleavings: hypothesis state machine
# ----------------------------------------------------------------------
def _stream_pool(seed: int = 5, length: int = 96):
    rng = np.random.default_rng(seed)
    patterns = list(DEFAULT_CATALOGUE)
    alerts = []
    for step in range(length):
        entity = f"user:u{int(rng.integers(0, 6)):03d}"
        if rng.random() < 0.5:
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            name = pattern.names[int(rng.integers(0, len(pattern.names)))]
        else:
            name = BENIGN_NAMES[int(rng.integers(0, len(BENIGN_NAMES)))]
        alerts.append(Alert(timestamp=float(step + 1), name=name, entity=entity))
    return alerts


_POOL = _stream_pool()


def _machine_factory():
    tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine="streaming",
                          max_window=64, detection_threshold=0.6)
    return TestbedPipeline(detectors={"factor_graph": tagger})


class ServiceMachine(RuleBasedStateMachine):
    """connect/send/control/reshard/drain vs an offline twin.

    Invariant (checked on every drain): the service's ``results``
    surface equals a synchronous offline pipeline fed the same
    accepted operations in ack order.
    """

    def __init__(self):
        super().__init__()
        self.handle = start_service_in_thread(_machine_factory, ServiceConfig())
        self.client = self.handle.client()
        self.ops = []

    @initialize()
    def hello(self):
        assert self.client.hello()["version"] == 1

    @rule(start=st.integers(0, len(_POOL) - 1), size=st.integers(1, 12))
    def send_batch(self, start, size):
        batch = _POOL[start : start + size]
        ack = self.client.send_alerts(batch)
        assert ack["tier"] == "admit"
        self.ops.append(("batch", batch))

    @rule(entity=st.integers(0, 5))
    def reset_entity(self, entity):
        name = f"user:u{entity:03d}"
        self.client.control("reset_entity", entity=name)
        self.ops.append(("reset_entity", name))

    @rule(n=st.integers(1, 4))
    def reshard(self, n):
        reply = self.client.reshard(n)
        self.ops.append(("reshard", n))
        assert reply["reshard"]["to"] == n

    @precondition(lambda self: self.ops)
    @rule()
    def drain_and_compare(self):
        self.client.drain()
        got = self.client.results()
        with _machine_factory() as twin:
            for kind, payload in self.ops:
                if kind == "batch":
                    twin.ingest_alerts(payload)
                elif kind == "reset_entity":
                    twin.reset_entity(payload)
                elif kind == "reshard":
                    twin.reshard(payload)
            summary = twin.summary()
            expected = json.loads(json.dumps(serialize_results(
                twin.detections_by(twin.primary_detector),
                twin.detections,
                twin.responder.notifications,
                twin.responder.actions,
                {key: summary[key] for key in COMPARED_COUNTERS},
            )))
        for field in ("detections", "detection_log", "notifications",
                      "actions", "counters"):
            assert got[field] == expected[field], field

    def teardown(self):
        try:
            self.client.close()
        finally:
            self.handle.stop()


def test_service_state_machine():
    run_state_machine_as_test(
        ServiceMachine,
        settings=settings(
            max_examples=5,
            stateful_step_count=8,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
    )
