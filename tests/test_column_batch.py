"""The filter's survivors stay columns from the normaliser to the shard ring.

A :class:`~repro.core.alerts.NormalizedBatch` is the one batch type that
crosses the pipeline: the normaliser fills it, the scan filter selects
its survivors, every detector pool takes it as it is, a pool splits it
per shard on its entity column, and a process shard packs its part's
columns straight into the flat codec.  These tests pin

* the column selection against the object-packing reference
  (:func:`~repro.core.alerts.pack_alert_columns` of the selected
  alerts), hypothesis-driven;
* that a process-backed raw stream builds no :class:`Alert` in the
  parent at all;
* bit-identity with the serial ``naive`` reference where the column
  path has its own branches: a shard that receives no rows, a ring too
  small for the batch (the pipe fallback), and a heal that replays
  column batches from the recovery log.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger
from repro.core.alerts import Alert, NormalizedBatch, pack_alert_columns
from repro.incidents import DEFAULT_CATALOGUE
from repro.service import ServiceConfig, start_service_in_thread
from repro.telemetry import FilterStats, ScanFilter, SyslogMonitor
from repro.testbed import ShardedDetectorPool, TestbedPipeline, shard_of

from test_sharding import build_mixed_stream

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
_attributes = st.dictionaries(_text, st.one_of(_text, st.integers(), st.booleans()), max_size=2)
_alerts = st.lists(
    st.builds(
        Alert,
        timestamp=st.floats(allow_nan=False, allow_infinity=False),
        name=_text,
        entity=_text,
        source_ip=_text,
        host=_text,
        monitor=_text,
        attributes=st.one_of(st.just({}), _attributes),
    ),
    max_size=12,
)


def _columns_only(alerts) -> NormalizedBatch:
    """The normaliser's form of ``alerts``: columns, no alert built yet."""
    wrapped = NormalizedBatch.of_alerts(alerts)
    return NormalizedBatch(
        wrapped.timestamps,
        wrapped.names,
        wrapped.entities,
        wrapped.source_ips,
        wrapped.hosts,
        wrapped.monitors,
        wrapped.attributes,
    )


class TestSelectionPacksLikeTheObjectReference:
    @given(_alerts, st.data())
    @settings(max_examples=200, deadline=None)
    @example([], None)
    @example([Alert(1.0, "alert_a", "user:a", attributes={"k": 1})], None)
    @example([Alert(1.0, "alert_a", "user:a")], None)
    def test_selected_columns_equal_packing_the_selected_alerts(self, alerts, data):
        rows = (
            list(range(len(alerts)))
            if data is None
            else data.draw(st.lists(st.integers(0, len(alerts) - 1), max_size=16))
            if alerts
            else []
        )
        for batch in (_columns_only(alerts), NormalizedBatch.of_alerts(alerts)):
            selection = batch.select(rows)
            assert len(selection) == len(rows)
            packed = selection.columns()
            assert packed == pack_alert_columns(list(selection))
            assert packed == pack_alert_columns([alerts[row] for row in rows])
            # The attribute column is elided exactly when every dict is empty.
            assert (packed[-1] is None) == all(not alerts[row].attributes for row in rows)
            # The object packing copies every attribute dict: mutating the
            # packed columns never reaches the alerts.
            by_objects = pack_alert_columns(list(selection))
            if by_objects[-1] is not None:
                assert not any(
                    packed_dict is alert.attributes
                    for packed_dict, alert in zip(by_objects[-1], selection)
                )

    @given(_alerts)
    @settings(max_examples=60, deadline=None)
    def test_alerts_are_built_once_and_selections_share_them(self, alerts):
        batch = _columns_only(alerts)
        built = list(batch)
        assert [a.to_dict() for a in built] == [a.to_dict() for a in alerts]
        assert all(x is y for x, y in zip(batch, built))  # kept, not rebuilt
        rows = list(range(len(alerts)))[::-1]
        assert all(x is built[row] for x, row in zip(batch.select(rows), rows))
        # An of_alerts batch yields the caller's own objects, selected or not.
        wrapped = NormalizedBatch.of_alerts(alerts)
        assert all(x is y for x, y in zip(wrapped.select(rows), reversed(alerts)))


class TestTheFilterSelectsItsSurvivors:
    """A batch whose every row survives, one with an in-batch duplicate
    and one with an out-of-order timestamp each come back as the
    selection of today's rows, with today's stats; the first is the
    input batch itself (every row survives in input order)."""

    ALERTS = [Alert(float(i), "alert_login_normal", f"user:u{i}") for i in range(8)]

    @pytest.mark.parametrize("case", ["no_drop", "duplicate", "out_of_order"])
    def test_the_survivors_are_a_selection(self, case):
        alerts = list(self.ALERTS)
        if case == "no_drop":
            expected_rows, stats = list(range(8)), FilterStats(8, 0, 0, 8)
        elif case == "duplicate":  # row 5 repeats row 4's key within the window
            alerts[5] = Alert(5.0, "alert_login_normal", "user:u4")
            expected_rows, stats = [0, 1, 2, 3, 4, 6, 7], FilterStats(8, 1, 0, 7)
        else:  # row 6 is stamped before row 2
            alerts[6] = Alert(1.5, "alert_login_normal", "user:u6")
            expected_rows, stats = [0, 1, 6, 2, 3, 4, 5, 7], FilterStats(8, 0, 0, 8)
        scan_filter = ScanFilter()
        batch = _columns_only(alerts)
        survivors = scan_filter.filter_batch(batch)
        assert survivors.columns() == batch.select(expected_rows).columns()
        assert (survivors is batch) == (case == "no_drop")
        assert scan_filter.stats == stats
        assert batch._alerts is None and survivors._alerts is None  # nothing built
        # The survivors of an of_alerts batch are the caller's objects.
        kept = list(scan_filter.filter_batch(NormalizedBatch.of_alerts(alerts)))
        assert len(kept) == len(expected_rows)
        assert all(a is alerts[row] for a, row in zip(kept, expected_rows))


class TestABatchRequestStaysColumns:
    def test_a_serial_service_batch_calls_neither_from_dict_nor_of_alerts(self, monkeypatch):
        calls = {"from_dict": 0, "of_alerts": 0}
        from_dict, of_alerts = Alert.from_dict.__func__, NormalizedBatch.of_alerts.__func__

        def counting_from_dict(cls, data):
            calls["from_dict"] += 1
            return from_dict(cls, data)

        def counting_of_alerts(cls, alerts):
            calls["of_alerts"] += 1
            return of_alerts(cls, alerts)

        alerts = [
            Alert(float(i), "alert_download_sensitive" if i % 5 else "alert_login_normal",
                  f"user:u{i % 7}")
            for i in range(40)
        ]
        handle = start_service_in_thread(lambda: _pipeline("serial", 1), ServiceConfig())
        with handle, handle.client() as client:
            monkeypatch.setattr(Alert, "from_dict", classmethod(counting_from_dict))
            monkeypatch.setattr(NormalizedBatch, "of_alerts", classmethod(counting_of_alerts))
            ack = client.send_alerts(alerts)
            client.drain()
            monkeypatch.undo()
            stats = client.stats()
        assert ack["admitted"] == len(alerts)
        assert stats["alerts_processed"] == len(alerts)
        assert calls == {"from_dict": 0, "of_alerts": 0}


def _raw_batches(n_batches: int = 6) -> list:
    """Syslog logins plus download/compile/erase chains: detections fire."""
    monitor = SyslogMonitor("login1")
    for index in range(300):
        user = f"user{index % 23}"
        timestamp = float(index + 1)
        monitor.sshd_accepted(timestamp, user, f"10.0.{index % 7}.{index % 13}")
        if index % 23 < 6:
            monitor.wget_download(timestamp + 0.1, user, "http://64.215.33.18/abs.c")
            monitor.command_executed(timestamp + 0.2, user, "gcc -o abs.ko abs.c && make module")
            monitor.command_executed(timestamp + 0.3, user, "history -c")
    records = monitor.records
    bounds = np.linspace(0, len(records), n_batches + 1).astype(int)
    return [records[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]


def _pipeline(backend: str, n_shards: int, engine: str = "streaming") -> TestbedPipeline:
    tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine=engine)
    return TestbedPipeline(
        detectors={"factor_graph": tagger}, n_shards=n_shards, shard_backend=backend
    )


class TestTheProcessPathBuildsNoAlertInTheParent:
    def test_a_process_backed_raw_stream_constructs_zero_alerts(self, monkeypatch):
        batches = _raw_batches()
        with _pipeline("serial", 1, "naive") as reference:
            expected = reference.ingest_raw_stream(batches)
        assert expected, "the raw stream must produce detections"
        constructed = []
        original = Alert.__init__

        def counting(self, *args, **kwargs):
            constructed.append(args[:3])
            original(self, *args, **kwargs)

        with _pipeline("process", 2) as pipeline:
            pool = pipeline.detector_pools["factor_graph"]
            monkeypatch.setattr(Alert, "__init__", counting)
            detections = pipeline.ingest_raw_stream(batches)
            monkeypatch.setattr(Alert, "__init__", original)
            assert constructed == []
            # ... and every filter survivor still reached a worker.
            assert sum(pool.alerts_routed) == pipeline.stats.filtered_alerts > 0
            assert pool.shm_batches > 0 and pool.shm_fallbacks == 0
        assert detections == expected


def _column_batches(alerts: list, n_batches: int) -> list:
    bounds = np.linspace(0, len(alerts), n_batches + 1).astype(int)
    return [_columns_only(alerts[start:stop]) for start, stop in zip(bounds[:-1], bounds[1:])]


def _naive_reference(alerts: list, n_batches: int) -> list:
    tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine="naive")
    bounds = np.linspace(0, len(alerts), n_batches + 1).astype(int)
    return [
        tagger.observe_batch(alerts[start:stop]) for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def _process_pool(**options) -> ShardedDetectorPool:
    return ShardedDetectorPool.from_template(
        AttackTagger(patterns=list(DEFAULT_CATALOGUE)), backend="process", **options
    )


class TestPartitionSplitsTheEntityColumn:
    ALERTS = [Alert(float(i), "alert_login_normal", f"user:u{i % 6}") for i in range(30)]

    def test_a_batch_routed_to_one_shard_lands_on_it_alone(self):
        alerts = [alert for alert in self.ALERTS if alert.entity == "user:u1"]
        batch = _columns_only(alerts)
        target = shard_of("user:u1", 4)
        with ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=4, backend="process"
        ) as pool:
            sub_batches, positions = pool._partition(batch)
        assert positions[target] == list(range(len(alerts)))
        assert sub_batches[target].columns() == batch.columns()
        assert [len(sub) for sub in sub_batches] == [
            len(alerts) if shard == target else 0 for shard in range(4)
        ]
        assert batch._alerts is None  # nothing iterated it

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_a_split_batch_builds_no_alert_on_either_backend(self, backend):
        batch = _columns_only(self.ALERTS)
        with ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=4, backend=backend
        ) as pool:
            sub_batches, positions = pool._partition(batch)
        assert sorted(row for rows in positions for row in rows) == list(range(30))
        for sub_batch, rows in zip(sub_batches, positions):
            assert list(sub_batch.entities) == [self.ALERTS[row].entity for row in rows]
        # Packed from columns (process) or read as columns (serial).
        assert batch._alerts is None
        assert all(sub._alerts is None for sub in sub_batches)


class TestColumnPathMatchesTheNaiveReference:
    def test_a_shard_that_receives_no_rows(self):
        idle = 3
        alerts = [
            alert
            for alert in build_mixed_stream(seed=31, n_entities=48, length=1_500)
            if shard_of(alert.entity, 4) != idle
        ]
        expected = _naive_reference(alerts, 6) + [[]]
        with _process_pool(n_shards=4) as pool:
            got = [pool.observe_batch(batch) for batch in _column_batches(alerts, 6)]
            got.append(pool.observe_batch(NormalizedBatch()))  # no rows at all
            assert pool.alerts_routed[idle] == 0 and sum(pool.alerts_routed) == len(alerts)
        assert any(expected) and got == expected

    def test_a_ring_too_small_for_the_batch_falls_back_to_the_pipe(self):
        alerts = build_mixed_stream(seed=32, n_entities=40, length=1_200)
        expected = _naive_reference(alerts, 5)
        with _process_pool(n_shards=2, ring_capacity=256) as pool:
            got = [pool.observe_batch(batch) for batch in _column_batches(alerts, 5)]
            assert pool.shm_fallbacks == 10 and pool.shm_batches == 0
        assert any(expected) and got == expected

    def test_a_heal_replays_column_batches_from_the_recovery_log(self):
        alerts = build_mixed_stream(seed=33, n_entities=40, length=1_200)
        expected = _naive_reference(alerts, 5)
        batches = _column_batches(alerts, 5)
        with _process_pool(n_shards=2, max_restarts=2) as pool:
            got = [pool.observe_batch(batch) for batch in batches[:3]]
            victim = pool._workers[1]
            logged = [payload for verb, payload in victim._log if verb == "observe"]
            assert len(logged) == 3
            # The log holds the column sub-batches; the parent built no alerts.
            assert all(type(p) is NormalizedBatch and p._alerts is None for p in logged)
            victim.process.kill()
            victim.process.join(timeout=5.0)
            got += [pool.observe_batch(batch) for batch in batches[3:]]
            events = list(pool.recovery_log)
        assert [(event.shard, event.healed, event.resubmitted_batches) for event in events] == [
            (1, True, 4)
        ]
        assert any(expected) and got == expected


def _with_attributes(alerts: list) -> list:
    """Every other alert carries attributes, so the column is never elided."""
    return [
        dataclasses.replace(alert, attributes={"seq": index, "host": alert.entity})
        if index % 2
        else alert
        for index, alert in enumerate(alerts)
    ]


class TestTheDetectionPathBuildsOnlyTriggers:
    """The tagger reads a batch's entity and name columns: an
    :class:`Alert` is built only as a detection's trigger."""

    @staticmethod
    def _count_builds_inside_the_kernel(monkeypatch) -> list:
        inside, built = [False], [0]
        init, observe = Alert.__init__, AttackTagger.observe_batch_indexed

        def counting_init(self, *args, **kwargs):
            built[0] += inside[0]
            init(self, *args, **kwargs)

        def observing(self, alerts):
            inside[0] = True
            try:
                return observe(self, alerts)
            finally:
                inside[0] = False

        monkeypatch.setattr(Alert, "__init__", counting_init)
        monkeypatch.setattr(AttackTagger, "observe_batch_indexed", observing)
        return built

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_a_serial_pipeline_builds_one_alert_per_detection(self, monkeypatch, n_shards):
        alerts = build_mixed_stream(seed=41, n_entities=32, length=900)
        benign = [alert for alert in alerts if int(alert.entity[-3:]) % 4]
        with _pipeline("serial", 1, "naive") as reference:
            expected = reference.ingest_alerts(alerts)
            assert not reference.ingest_alerts(benign)
        assert expected, "the attack chains must fire"
        batches = _column_batches(alerts, 6)
        with _pipeline("serial", n_shards) as quiet, _pipeline("serial", n_shards) as pipeline:
            built = self._count_builds_inside_the_kernel(monkeypatch)
            assert not quiet.ingest_alerts(_columns_only(benign))
            assert built == [0]
            detections = [found for batch in batches for found in pipeline.ingest_alerts(batch)]
            assert built == [len(detections)]
            monkeypatch.undo()
        assert detections == expected
        assert [d.trigger.attributes for d in detections] == [d.trigger.attributes for d in expected]

    @pytest.mark.parametrize("attributes", ["elided", "carried"])
    def test_process_triggers_match_the_serial_naive_run(self, attributes):
        alerts = build_mixed_stream(seed=42, n_entities=40, length=1_200)
        if attributes == "carried":
            alerts = _with_attributes(alerts)
        batches = _column_batches(alerts, 5)
        assert all((batch.columns()[-1] is None) == (attributes == "elided") for batch in batches)
        with _pipeline("serial", 1, "naive") as reference:
            expected = reference.ingest_alerts(alerts)
        with _pipeline("process", 2) as pipeline:
            detections = [found for batch in batches for found in pipeline.ingest_alerts(batch)]
            assert pipeline.detector_pools["factor_graph"].shm_batches > 0
        assert expected and detections == expected
        triggers = [d.trigger for d in detections]
        assert [t.attributes for t in triggers] == [d.trigger.attributes for d in expected]
        assert [t.source_ip for t in triggers] == [d.trigger.source_ip for d in expected]
        # Each trigger holds its own attribute dict, elided column or not.
        assert len({id(t.attributes) for t in triggers}) == len(triggers)

    def test_an_alert_list_is_observed_as_its_column_view(self):
        alerts = build_mixed_stream(seed=43, n_entities=16, length=400)
        reference = AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine="naive")
        symbols = list(reference._arena.symbol_names)  # the catalogue's
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        expected = reference.observe_batch_indexed(alerts)
        hits = tagger.observe_batch_indexed(alerts)
        assert expected and hits == expected
        # A plain list is wrapped, not copied: each trigger is the caller's alert.
        assert all(detection.trigger is alerts[position] for position, detection in hits)
        # The naive reference keeps the alerts' own names and interns
        # nothing into the streaming arena's symbol table.
        assert reference._arena.symbol_names == symbols
        assert len(tagger._arena.symbol_names) > len(symbols)
        for entity in {alert.entity for alert in alerts}:
            track = reference.track(entity)
            sent = [alert for alert in alerts if alert.entity == entity]
            if track.detected is not None:
                # Detection is final: the window ends at the trigger.
                sent = sent[: [alert is track.detected.trigger for alert in sent].index(True) + 1]
            own = [alert.name for alert in sent][-len(track.names) :]
            assert own == list(track.names)
            assert all(name is alert_name for name, alert_name in zip(track.names, own))
