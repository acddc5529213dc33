"""Tests for the campaign fuzzer and the differential oracle.

The exhaustive seed sweep lives in CI's quick-fuzz gate
(``python -m repro.fuzz``); this suite pins the machinery itself:
composer determinism and coverage, campaign (de)serialisation, the
raw-record inverse mapping, oracle equivalence on a pinned seed subset,
divergence *detection* (a seeded fault must be flagged, not masked),
the shrinker's reduction guarantees, and the failure path that turns a
divergence into a committed repro file.
"""

from __future__ import annotations

import dataclasses
import itertools
import zlib

import pytest

from repro.core.alerts import Alert
from repro.core.attack_tagger import UnknownEngineError
from repro.fuzz import (
    Campaign,
    CampaignComposer,
    CampaignEvent,
    DifferentialOracle,
    OracleConfig,
    RAW_CAPABLE_NAMES,
    REFERENCE_CONFIG,
    alerts_to_zeek_records,
    build_pipeline,
    divergences,
    drive,
    full_matrix,
    iter_regressions,
    quick_matrix,
    regression_name,
    save_regression,
    shrink_campaign,
    shrink_for_oracle,
)
from repro.fuzz import __main__ as fuzz_cli
from repro.telemetry.normalizer import AlertNormalizer


class TestCampaignComposer:
    def test_same_seed_same_campaign_bit_for_bit(self):
        a = CampaignComposer(7, target_alerts=150).compose(3)
        b = CampaignComposer(7, target_alerts=150).compose(3)
        assert a.to_dict() == b.to_dict()

    def test_different_indices_differ(self):
        composer = CampaignComposer(7, target_alerts=150)
        assert composer.compose(0).to_dict() != composer.compose(1).to_dict()

    def test_adversarial_coverage(self):
        """Across a few seeds the composer hits every advertised shape."""
        composer = CampaignComposer(0, target_alerts=300)
        campaigns = [composer.compose(i) for i in range(8)]
        kinds = {e.kind for c in campaigns for e in c.events}
        assert kinds == {"batch", "reset_entity", "reset", "reopen"}
        alerts = [a for c in campaigns for a in c.alerts()]
        timestamps_by_campaign = [
            [a.timestamp for a in c.alerts()] for c in campaigns
        ]
        assert any(  # out-of-order alerts
            any(b < a for a, b in zip(ts, ts[1:])) for ts in timestamps_by_campaign
        )
        assert any(  # duplicate timestamps
            len(set(ts)) < len(ts) for ts in timestamps_by_campaign
        )
        assert any(not a.entity.isascii() for a in alerts), "unicode entities"
        # Window-saturating bursts: some entity emits more alerts than
        # the campaign's max_window.
        assert any(
            max(
                sum(1 for a in c.alerts() if a.entity == e)
                for e in c.entities()
            )
            > c.max_window
            for c in campaigns
        )

    def test_hash_adjacent_entities_share_a_shard(self):
        campaign = CampaignComposer(1).compose(0)
        colliders = [e for e in campaign.entities() if "collide-" in e]
        assert len(colliders) >= 2
        shards = {zlib.crc32(e.encode("utf-8")) % 4 for e in colliders}
        assert len(shards) == 1

    def test_json_round_trip_preserves_everything(self, tmp_path):
        campaign = CampaignComposer(5, target_alerts=120).compose(2)
        path = campaign.save(tmp_path / "campaign.json")
        loaded = Campaign.load(path)
        assert loaded.to_dict() == campaign.to_dict()
        # Attribute payloads survive even though Alert.__eq__ skips them.
        for a, b in zip(campaign.alerts(), loaded.alerts()):
            assert dict(b.attributes) == dict(a.attributes)

    def test_raw_capable_campaigns_are_zeek_expressible(self):
        campaign = CampaignComposer(3).compose(2, raw_capable=True)
        alerts = campaign.alerts()
        assert alerts
        assert all(a.name in RAW_CAPABLE_NAMES for a in alerts)
        assert all(a.entity.startswith("host:") for a in alerts)
        records = alerts_to_zeek_records(alerts)
        rebuilt = AlertNormalizer().normalize_stream(records)
        # The inverse mapping is exact: nothing dropped, every field
        # that participates in Alert equality reconstructed.
        assert rebuilt == alerts


class TestDifferentialOracle:
    #: Pinned seeds replayed in tier-1 (the broad sweep runs in CI's
    #: quick-fuzz gate; these keep the property exercised locally).
    PINNED_SEEDS = (0, 1)

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_pinned_campaigns_replay_identically(self, seed):
        composer = CampaignComposer(seed, target_alerts=150)
        oracle = DifferentialOracle(quick_matrix())
        verdict = oracle.run(composer.compose(0, raw_capable=seed % 2 == 1))
        assert verdict.ok, "\n".join(str(d) for d in verdict.divergences)
        assert verdict.configs_run >= 5
        assert verdict.reference is not None
        assert verdict.reference.surface["counters"]["filtered_alerts"] > 0

    def test_matrix_shapes(self):
        # The reference, plus engines (2) x shard counts (3) x backends
        # (2) under ``alert_stream``, plus ``raw_stream`` where raw
        # preparation meets a distinct detection path: the production
        # engine at 1 and 2 shards on both backends.  Per-event ``sync``
        # is a one-batch ``alert_stream`` call, so only the reference
        # keeps it.
        matrix = full_matrix()
        assert len(matrix) == len({config.label for config in matrix}) == 17
        assert [c for c in matrix if c.driver == "sync"] == [REFERENCE_CONFIG]
        assert {
            (c.engine, c.n_shards, c.backend) for c in matrix if c.driver == "alert_stream"
        } == set(itertools.product(("streaming", "naive"), (1, 2, 4), ("serial", "process")))
        assert {
            (c.engine, c.n_shards, c.backend) for c in matrix if c.driver == "raw_stream"
        } == set(itertools.product(("streaming",), (1, 2), ("serial", "process")))
        assert all(OracleConfig.parse(config.label) == config for config in matrix)
        assert set(quick_matrix()) <= set(matrix)

    def test_two_phase_driver_is_gone(self):
        campaign = CampaignComposer(2, target_alerts=40).compose(0)
        with build_pipeline(campaign, REFERENCE_CONFIG) as pipeline:
            with pytest.raises(ValueError, match="two_phase"):
                drive(campaign, pipeline, "two_phase")
            assert pipeline.stats.raw_records == 0

    @pytest.mark.parametrize("driver", ["alert_stream", "raw_stream"])
    def test_stream_drivers_split_their_runs_at_controls(self, driver):
        """Every control reaches a quiesced pipeline, after every batch
        before it was collected: the run is split there."""
        campaign = CampaignComposer(3, target_alerts=150).compose(1, raw_capable=True)
        controls = [i for i, e in enumerate(campaign.events) if e.kind != "batch"]
        assert controls, "the campaign must carry a control"
        config = OracleConfig("streaming", 2, "process", driver)
        with build_pipeline(campaign, config) as pipeline:
            seen = []

            def hook(point, index):
                if point == "event" and index in controls:
                    seen.append((pipeline.inflight_detection_batches, pipeline.stats.filtered_alerts))

            drive(campaign, pipeline, driver, hook)
        with build_pipeline(campaign, REFERENCE_CONFIG) as reference:
            expected = []

            def reference_hook(point, index):
                if point == "event" and index in controls:
                    expected.append((0, reference.stats.filtered_alerts))

            drive(campaign, reference, "sync", reference_hook)
        assert seen == expected

    def test_sync_is_still_a_legal_driver_off_the_reference(self):
        config = OracleConfig.parse("streaming:2:process:sync")
        assert config not in full_matrix()
        campaign = CampaignComposer(2, target_alerts=80).compose(0)
        verdict = DifferentialOracle([config]).run(campaign)
        assert verdict.configs_run == 1
        assert verdict.ok, "\n".join(str(d) for d in verdict.divergences)

    @pytest.mark.parametrize(
        "spec", ["naive:4:process:raw_stream:shm", "streaming:2:process:sync:pickle"]
    )
    def test_the_transport_field_is_gone(self, spec):
        with pytest.raises(ValueError, match="malformed"):
            OracleConfig.parse(spec)
        with pytest.raises(TypeError):
            OracleConfig("streaming", 2, "process", "sync", "shm")

    @pytest.mark.parametrize("spec", ["rebuild:1:serial:sync", "batched:2:process:sync"])
    def test_removed_engines_are_rejected_by_name(self, spec):
        with pytest.raises(UnknownEngineError) as caught:
            OracleConfig.parse(spec)
        message = str(caught.value)
        assert repr(spec.split(":")[0]) in message
        assert "'streaming'" in message and "'naive'" in message

    def test_oracle_flags_a_seeded_fault(self):
        """A detector-visible fault must surface as a divergence.

        Replays the same campaign with a *different* detection
        threshold masquerading as one configuration -- the equivalent
        of an engine bug -- and asserts the oracle reports it rather
        than averaging it away.
        """
        campaign = CampaignComposer(2, target_alerts=150).compose(1)
        oracle = DifferentialOracle([OracleConfig("streaming", 2, "serial", "sync")])
        verdict = oracle.run(campaign)
        assert verdict.ok

        broken = dataclasses.replace(
            campaign, detection_threshold=0.999, label="seeded-fault"
        )

        class LyingOracle(DifferentialOracle):
            def replay(self, c, config):
                # The reference sees the real campaign; the test config
                # sees the broken clone (a simulated engine fault).
                if config == self.reference:
                    return super().replay(campaign, config)
                return super().replay(broken, config)

        lying = LyingOracle([OracleConfig("streaming", 2, "serial", "sync")])
        verdict = lying.run(campaign)
        assert not verdict.ok
        fields = {d.field for d in verdict.divergences}
        assert "detections" in fields or "counter:detections" in fields

    @pytest.mark.parametrize(
        "field, trigger",
        [
            ("detections", lambda d: d["trigger"]),
            ("detection_log", lambda entry: entry[1]["trigger"]),
            ("notifications", lambda n: n["detection"]["trigger"]),
        ],
    )
    def test_attribute_corruption_is_flagged(self, field, trigger):
        """Alert equality skips ``attributes``; the comparer must not.

        A columnar wire-format bug that corrupted trigger metadata in
        any one serialised detection -- the primary list, the
        cross-detector log, or an operator notification -- must diverge
        (raw-driver configs excepted: their attributes come from the
        normaliser).
        """
        campaign = CampaignComposer(2, target_alerts=150).compose(1)
        config = OracleConfig("streaming", 2, "serial", "alert_stream")
        oracle = DifferentialOracle([config])
        reference = oracle.replay(campaign, oracle.reference)
        assert reference.surface[field], f"need at least one entry in {field}"
        corrupted = oracle.replay(campaign, config)
        assert divergences(reference, corrupted) == []
        trigger(corrupted.surface[field][0])["attributes"] = {"corrupted": True}
        found = divergences(reference, corrupted)
        assert [d.field for d in found] == [field]
        assert "first mismatch at index 0" in found[0].detail
        assert "corrupted" in found[0].detail
        corrupted.config = OracleConfig("streaming", 2, "serial", "raw_stream")
        assert divergences(reference, corrupted) == []

    def test_controls_replay_through_every_driver(self):
        """A campaign that is nothing but controls must still replay."""
        base = CampaignComposer(4, target_alerts=60).compose(0)
        batch = next(e for e in base.events if e.kind == "batch" and e.alerts)
        campaign = dataclasses.replace(
            base,
            events=(
                CampaignEvent(kind="reset"),
                batch,
                CampaignEvent(kind="reset_entity", entity=batch.alerts[0].entity),
                CampaignEvent(kind="reopen"),
                batch,
                CampaignEvent(kind="reopen"),
            ),
            label="controls",
        )
        oracle = DifferentialOracle(
            [
                OracleConfig("streaming", 2, "serial", "alert_stream"),
                OracleConfig("streaming", 2, "process", "alert_stream"),
                OracleConfig("naive", 4, "process", "sync"),
            ]
        )
        verdict = oracle.run(campaign)
        assert verdict.ok, "\n".join(str(d) for d in verdict.divergences)


class TestShrinker:
    def _campaign(self, events):
        return Campaign(seed=0, events=tuple(events), label="shrink-input")

    def _batch(self, *names, entity="user:x"):
        return CampaignEvent(
            kind="batch",
            alerts=tuple(
                Alert(float(i), name, entity) for i, name in enumerate(names)
            ),
        )

    def test_shrinks_to_the_failure_carrier(self):
        poison = "alert_outbound_c2"
        events = [
            self._batch("alert_port_scan", "alert_port_scan"),
            CampaignEvent(kind="reset"),
            self._batch("alert_login_normal", poison, "alert_login_normal"),
            self._batch("alert_port_scan"),
            CampaignEvent(kind="reopen"),
        ]
        campaign = self._campaign(events)

        def failing(candidate: Campaign) -> bool:
            return any(a.name == poison for a in candidate.alerts())

        shrunk = shrink_campaign(campaign, failing)
        assert failing(shrunk)
        assert shrunk.num_alerts == 1
        assert shrunk.alerts()[0].name == poison
        assert all(e.kind == "batch" for e in shrunk.events)
        assert shrunk.label.endswith("-shrunk")

    def test_non_failing_campaign_returned_unchanged(self):
        campaign = self._campaign([self._batch("alert_port_scan")])
        assert shrink_campaign(campaign, lambda c: False) is campaign

    def test_respects_evaluation_budget(self):
        campaign = self._campaign(
            [self._batch(*["alert_port_scan"] * 10) for _ in range(10)]
        )
        calls = []

        def failing(candidate: Campaign) -> bool:
            calls.append(1)
            return True

        shrink_campaign(campaign, failing, max_evaluations=25)
        assert len(calls) <= 25

    def test_shrinks_a_real_oracle_failure(self):
        """End to end: seeded fault -> shrunk repro still failing."""
        campaign = CampaignComposer(5, target_alerts=100).compose(0)

        def failing(candidate: Campaign) -> bool:
            # Stand-in for "the oracle diverges": the failure needs a
            # reset_entity event AND an alert for that entity after it.
            for index, event in enumerate(candidate.events):
                if event.kind != "reset_entity":
                    continue
                for later in candidate.events[index + 1 :]:
                    if later.kind == "batch" and any(
                        a.entity == event.entity for a in later.alerts
                    ):
                        return True
            return False

        if not failing(campaign):  # pragma: no cover - seed-dependent guard
            pytest.skip("composed campaign lacks the reset-then-alert shape")
        shrunk = shrink_campaign(campaign, failing)
        assert failing(shrunk)
        assert shrunk.num_alerts <= 2
        assert len(shrunk.events) <= 3


class _ThresholdFaultOracle(DifferentialOracle):
    """Every non-reference configuration replays under a near-1
    detection threshold: a simulated engine fault that diverges exactly
    when the reference fires."""

    def replay(self, campaign, config):
        if config != self.reference:
            campaign = dataclasses.replace(campaign, detection_threshold=0.999)
        return super().replay(campaign, config)


_FAULTY_CONFIG = OracleConfig("streaming", 1, "serial", "sync")


class TestShrinkForOracle:
    def test_a_passing_campaign_has_nothing_to_record(self):
        campaign = CampaignComposer(2, target_alerts=60).compose(0)
        assert shrink_for_oracle(campaign, DifferentialOracle([_FAULTY_CONFIG])) is None

    def test_a_divergence_shrinks_to_a_repro_that_still_diverges(self):
        campaign = CampaignComposer(2, target_alerts=60).compose(0)
        oracle = _ThresholdFaultOracle([_FAULTY_CONFIG])
        shrunk = shrink_for_oracle(campaign, oracle, max_evaluations=60)
        assert shrunk is not None
        assert shrunk.num_alerts < campaign.num_alerts
        assert shrunk.seed == campaign.seed and shrunk.label.endswith("-shrunk")
        assert not oracle.run(shrunk).ok

    def test_a_given_verdict_is_not_replayed_again(self):
        campaign = CampaignComposer(2, target_alerts=60).compose(0)
        oracle = _ThresholdFaultOracle([_FAULTY_CONFIG])
        verdict = oracle.run(campaign)
        assert not verdict.ok
        runs = []

        class Counting(_ThresholdFaultOracle):
            def run(self, candidate):
                runs.append(candidate)
                return super().run(candidate)

        counting = Counting([_FAULTY_CONFIG])
        shrunk = shrink_for_oracle(campaign, counting, verdict=verdict, max_evaluations=10)
        assert shrunk is not None
        # The campaign itself ran once, as the shrinker's first "does it
        # still fail?": the given verdict stood in for the matrix replay.
        assert runs[0] is campaign and campaign not in runs[1:]
        assert len(runs) <= 10


class TestRegressionFiles:
    def test_the_name_is_the_label_and_a_content_digest(self):
        campaign = CampaignComposer(3, target_alerts=40).compose(0)
        name = regression_name(campaign)
        assert name == regression_name(Campaign.from_dict(campaign.to_dict()))
        assert name.startswith(f"{campaign.label}-") and name.endswith(".json")
        changed = dataclasses.replace(campaign, events=campaign.events[:-1])
        assert regression_name(changed) != name
        assert regression_name(changed).startswith(f"{campaign.label}-")

    def test_an_unlabelled_campaign_is_named_by_its_seed(self):
        campaign = dataclasses.replace(
            CampaignComposer(3, target_alerts=40).compose(0), label=""
        )
        assert regression_name(campaign).startswith("seed3-")

    def test_unsafe_label_characters_become_underscores(self):
        campaign = dataclasses.replace(
            CampaignComposer(3, target_alerts=40).compose(0), label="a/b c:d.e-f_g"
        )
        assert regression_name(campaign).startswith("a_b_c_d.e-f_g-")

    def test_saved_repros_come_back_sorted_and_equal(self, tmp_path):
        composer = CampaignComposer(3, target_alerts=40)
        campaigns = [composer.compose(index) for index in range(3)]
        paths = [save_regression(c, tmp_path / "corpus") for c in campaigns]
        assert all(path.parent == tmp_path / "corpus" for path in paths)
        found = list(iter_regressions(tmp_path / "corpus"))
        assert [path for path, _ in found] == sorted(paths)
        by_path = dict(zip(paths, campaigns))
        for path, campaign in found:
            assert campaign.to_dict() == by_path[path].to_dict()

    def test_an_explicit_name_is_honoured(self, tmp_path):
        campaign = CampaignComposer(3, target_alerts=40).compose(0)
        path = save_regression(campaign, tmp_path, name="pinned.json")
        assert path == tmp_path / "pinned.json"
        assert Campaign.load(path).to_dict() == campaign.to_dict()

    def test_a_missing_corpus_directory_yields_nothing(self, tmp_path):
        assert list(iter_regressions(tmp_path / "absent")) == []


class TestCliRecordsRepros:
    """``python -m repro.fuzz``: a divergent campaign is written into the
    regressions directory, shrunk unless told otherwise."""

    ARGS = [
        "--campaigns", "1", "--base-seed", "2", "--target-alerts", "60",
        "--raw-every", "0", "--configs", _FAULTY_CONFIG.label,
    ]  # fmt: skip

    @pytest.fixture
    def faulty(self, monkeypatch):
        monkeypatch.setattr(fuzz_cli, "DifferentialOracle", _ThresholdFaultOracle)

    def test_a_divergence_writes_a_shrunk_repro(self, faulty, tmp_path, capsys):
        assert fuzz_cli.main(self.ARGS + ["--regressions-dir", str(tmp_path)]) == 1
        [(path, repro)] = list(iter_regressions(tmp_path))
        original = CampaignComposer(2, target_alerts=60).compose(0)
        assert repro.label == f"{original.label}-shrunk"
        assert repro.num_alerts < original.num_alerts
        assert not _ThresholdFaultOracle([_FAULTY_CONFIG]).run(repro).ok
        out = capsys.readouterr().out
        assert "DIVERGED" in out and f"repro written: {path}" in out

    def test_no_shrink_writes_the_campaign_as_composed(self, faulty, tmp_path):
        argv = self.ARGS + ["--regressions-dir", str(tmp_path), "--no-shrink"]
        assert fuzz_cli.main(argv) == 1
        [(_, repro)] = list(iter_regressions(tmp_path))
        original = CampaignComposer(2, target_alerts=60).compose(0)
        assert repro.to_dict() == original.to_dict()

    def test_no_write_records_nothing(self, faulty, tmp_path):
        argv = self.ARGS + ["--regressions-dir", str(tmp_path), "--no-write"]
        assert fuzz_cli.main(argv) == 1
        assert list(tmp_path.iterdir()) == []

    def test_replaying_a_repro_never_writes_another(self, faulty, tmp_path):
        campaign = CampaignComposer(2, target_alerts=60).compose(0)
        path = save_regression(campaign, tmp_path / "in")
        argv = [
            "--replay", str(path), "--configs", _FAULTY_CONFIG.label,
            "--regressions-dir", str(tmp_path / "out"),
        ]  # fmt: skip
        assert fuzz_cli.main(argv) == 1
        assert not (tmp_path / "out").exists()

    def test_a_clean_campaign_exits_zero_and_writes_nothing(self, tmp_path):
        assert fuzz_cli.main(self.ARGS + ["--regressions-dir", str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []
