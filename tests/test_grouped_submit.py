"""Grouped submission: several batches, one detection submission.

``TestbedPipeline.submit_alerts(b1, ..., bk)`` / ``submit_raw(...)``
count and filter each batch exactly as one call per batch would, join
the survivors with :meth:`NormalizedBatch.concat` and submit them once;
one ``collect_detections()`` finishes the group.  The service's
consumer submits the batches waiting in its FIFO this way.  Everything
the ``results`` op serves -- primary detections, the cross-detector
log, notifications, response actions and the deterministic counters --
must equal k single submit/collect pairs and the ``naive`` reference
fed one batch at a time.
"""

from __future__ import annotations

import pytest

from repro.core import AttackTagger, RuleBasedDetector
from repro.core.alerts import DEFAULT_VOCABULARY, Alert, NormalizedBatch
from repro.core.states import AttackStage
from repro.fuzz.campaign import CampaignComposer
from repro.fuzz.oracle import OracleConfig, alerts_to_zeek_records, build_pipeline
from repro.incidents import DEFAULT_CATALOGUE
from repro.service import serialize_results
from repro.testbed import DetectionStage, TestbedPipeline
from repro.testbed.pipeline import DETERMINISTIC_COUNTERS

from test_pipeline_overlap import split_batches
from test_sharding import build_mixed_stream

RECON = sorted(DEFAULT_VOCABULARY.names_for_stage(AttackStage.RECONNAISSANCE))


def _surface(pipeline: TestbedPipeline) -> dict:
    """What the service's ``results`` op would serve for ``pipeline``."""
    summary = pipeline.summary()
    return serialize_results(
        pipeline.detections_by(pipeline.primary_detector),
        pipeline.detections,
        pipeline.responder.notifications,
        pipeline.responder.actions,
        {key: summary[key] for key in DETERMINISTIC_COUNTERS},
    )


def _singles(pipeline: TestbedPipeline, submit: str, batches) -> list:
    """One submit/collect pair per batch; the detections collected."""
    found = []
    for batch in batches:
        getattr(pipeline, submit)(batch)
        found += pipeline.collect_detections()
    return found


def _grouped(pipeline: TestbedPipeline, submit: str, batches, sizes) -> list:
    """One submit of ``size`` batches, then one collect, per size."""
    assert sum(sizes) == len(batches)
    found, start = [], 0
    for size in sizes:
        getattr(pipeline, submit)(*batches[start : start + size])
        assert pipeline.inflight_detection_batches == 1
        found += pipeline.collect_detections()
        start += size
    return found


# ----------------------------------------------------------------------
# Alert batches
# ----------------------------------------------------------------------
def _alert_batches() -> list:
    """Eight batches: attacks among benign noise, a scanner sweep the
    filter drops whole (batch 3) and an empty batch (batch 4)."""
    noise = split_batches(build_mixed_stream(seed=5, n_entities=40, length=1200), 6)
    last = noise[1][-1].timestamp
    sweep = [
        Alert(last + 1.0 + i, RECON[0], f"host:node{i:02d}", "203.0.113.9", f"node{i:02d}")
        for i in range(12)
    ]
    return noise[:2] + [sweep, []] + noise[2:]


def _detectors(engine: str, pools: int) -> dict:
    detectors = {"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine=engine)}
    if pools == 2:
        detectors["rules"] = RuleBasedDetector()
    return detectors


def _alert_pipeline(engine="streaming", pools=1, n_shards=1, backend="serial"):
    return TestbedPipeline(
        detectors=_detectors(engine, pools), n_shards=n_shards, shard_backend=backend
    )


@pytest.fixture(scope="module")
def alert_batches():
    return _alert_batches()


@pytest.fixture(scope="module")
def alert_references(alert_batches):
    """Per pool count: the naive engine fed one ``ingest_alerts`` per batch."""
    references = {}
    for pools in (1, 2):
        with _alert_pipeline("naive", pools) as pipeline:
            found = []
            for batch in alert_batches:
                found += pipeline.ingest_alerts(batch)
            references[pools] = (found, _surface(pipeline))
    return references


class TestTheStreamUnderTest:
    def test_it_covers_the_cases_a_group_must_keep(self, alert_batches, alert_references):
        with _alert_pipeline(pools=2) as pipeline:
            per_batch = []
            for batch in alert_batches:
                pipeline.submit_alerts(batch)
                per_batch.append(pipeline.collect_detections())
                if batch is alert_batches[2]:
                    # The sweep's source scans 12 hosts: nothing survives.
                    assert pipeline.scan_filter.stats.output_alerts == 0
            log = list(pipeline.detections)
        # An entity detected in batch 2 alerts again in batch 5.
        detected = {d.entity for d in per_batch[1]}
        assert detected & {a.entity for a in alert_batches[4]}
        # Both pools fire, in more than one batch, so a group's log
        # must be put back into batch order.
        assert {name for name, _ in log} == {"factor_graph", "rules"}
        assert sum(1 for found in per_batch if found) >= 3
        assert log != sorted(log, key=lambda entry: entry[0] != "factor_graph")


class TestAGroupIsBitIdentical:
    @pytest.mark.parametrize("sizes", [(8,), (2, 3, 3), (1, 1, 6)])
    @pytest.mark.parametrize("pools", [1, 2])
    def test_serial_alert_groups(self, alert_batches, alert_references, pools, sizes):
        reference_found, reference = alert_references[pools]
        with _alert_pipeline(pools=pools) as single:
            single_found = _singles(single, "submit_alerts", alert_batches)
            singles = _surface(single)
        with _alert_pipeline(pools=pools) as grouped:
            grouped_found = _grouped(grouped, "submit_alerts", alert_batches, sizes)
            assert _surface(grouped) == singles == reference
        assert grouped_found == single_found == reference_found
        assert reference["detections"] and reference["notifications"]

    def test_two_pools_on_two_process_shards(self, alert_batches, alert_references):
        reference_found, reference = alert_references[2]
        with _alert_pipeline(pools=2, n_shards=2, backend="process") as grouped:
            found = _grouped(grouped, "submit_alerts", alert_batches, (5, 3))
            assert _surface(grouped) == reference
        assert found == reference_found

    def test_a_group_is_one_detection_submission(self, alert_batches, monkeypatch):
        submitted = []
        submit = DetectionStage.submit

        def spy(stage, batch, parts=()):
            submitted.append((len(batch), tuple(parts)))
            return submit(stage, batch, parts)

        monkeypatch.setattr(DetectionStage, "submit", spy)
        with _alert_pipeline() as pipeline:
            pipeline.submit_alerts(*alert_batches[:4])
            pipeline.collect_detections()
            filtered = pipeline.stats.filtered_alerts
        # One submission; its parts are the four batches' survivors, and
        # the sweep keeps nothing and the empty batch has nothing.
        [(rows, parts)] = submitted
        assert rows == filtered == sum(parts)
        assert len(parts) == 4 and parts[0] and parts[1] and parts[2:] == (0, 0)

    def test_a_one_batch_submit_hands_the_filter_output_on(self, alert_batches, monkeypatch):
        """Every row of a time-ordered batch survives in input order, so
        the filter returns the batch and the detection stage gets it."""
        submitted = []
        submit = DetectionStage.submit

        def spy(stage, batch, parts=()):
            submitted.append(batch)
            return submit(stage, batch, parts)

        monkeypatch.setattr(DetectionStage, "submit", spy)
        batch = NormalizedBatch.of_alerts(alert_batches[0])
        with _alert_pipeline() as pipeline:
            pipeline.submit_alerts(batch)
            pipeline.collect_detections()
            assert pipeline.scan_filter.stats.output_alerts == len(batch)
        assert submitted == [batch] and submitted[0] is batch


# ----------------------------------------------------------------------
# Raw batches
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def raw_campaign():
    """Seven raw batches (one empty) with detections in three of them."""
    return CampaignComposer(1, target_alerts=300).compose(0, raw_capable=True)


def _raw_batches(campaign) -> list:
    return [alerts_to_zeek_records(e.alerts) for e in campaign.events if e.kind == "batch"]


class TestARawGroupIsBitIdentical:
    @pytest.mark.parametrize(
        "n_shards, backend, sizes", [(1, "serial", (7,)), (2, "process", (3, 4))]
    )
    def test_raw_groups(self, raw_campaign, n_shards, backend, sizes):
        batches = _raw_batches(raw_campaign)
        assert len(batches) == 7 and [] in batches
        with build_pipeline(raw_campaign, OracleConfig(engine="naive")) as naive:
            reference_found = []
            for batch in batches:
                reference_found += naive.ingest_raw(batch)
            reference = _surface(naive)
        config = OracleConfig(n_shards=n_shards, backend=backend)
        with build_pipeline(raw_campaign, config) as single:
            single_found = _singles(single, "submit_raw", batches)
            singles = _surface(single)
        with build_pipeline(raw_campaign, config) as grouped:
            grouped_found = _grouped(grouped, "submit_raw", batches, sizes)
            assert _surface(grouped) == singles == reference
        assert grouped_found == single_found == reference_found
        assert len(reference_found) >= 3 and reference["counters"]["raw_records"] > 0


# ----------------------------------------------------------------------
# NormalizedBatch.concat
# ----------------------------------------------------------------------
def _alerts(start: int, count: int) -> list:
    return [
        Alert(float(i), f"name{i % 3}", f"user:u{i % 4}", f"10.0.0.{i}", f"node{i}", "zeek", {"i": i})
        for i in range(start, start + count)
    ]


class TestConcat:
    def test_rows_follow_the_parts_in_order(self):
        parts = [_alerts(0, 3), _alerts(3, 1), _alerts(4, 5)]
        columns = [NormalizedBatch.of_alerts(part).columns() for part in parts]
        batches = [NormalizedBatch.of_columns(c) for c in columns]
        joined = NormalizedBatch.concat(batches)
        assert len(joined) == 9
        assert joined.columns() == NormalizedBatch.of_alerts(sum(parts, [])).columns()
        assert list(joined) == sum(parts, [])
        assert all(batch._alerts is None for batch in batches)  # nothing built

    def test_one_batch_is_returned_itself(self):
        batch = NormalizedBatch.of_alerts(_alerts(0, 4))
        empty = batch.select([])
        assert NormalizedBatch.concat([batch]) is batch
        assert NormalizedBatch.concat([empty, batch, NormalizedBatch()]) is batch
        assert NormalizedBatch.concat([empty, NormalizedBatch()]) is empty

    def test_alerts_are_carried_only_when_every_part_carries_them(self):
        first, second = _alerts(0, 3), _alerts(3, 2)
        carried = NormalizedBatch.concat(
            [NormalizedBatch.of_alerts(first), NormalizedBatch.of_alerts(second)]
        )
        assert all(a is b for a, b in zip(carried, first + second))
        columns_only = NormalizedBatch.of_columns(NormalizedBatch.of_alerts(second).columns())
        mixed = NormalizedBatch.concat([NormalizedBatch.of_alerts(first), columns_only])
        assert mixed._alerts is None
        assert list(mixed) == first + second
        assert not any(a is b for a, b in zip(mixed, first))
