"""Tests for the detectors: AttackTagger, rule-based, the baselines, and
the one :class:`~repro.core.detector.Detector` contract they share."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AttackTagger,
    CriticalAlertDetector,
    DEFAULT_VOCABULARY,
    Detector,
    HiddenState,
    NaiveBayesDetector,
    RuleBasedDetector,
    default_parameters,
    label_sequence_from_stages,
)
from repro.core.alerts import Alert
from repro.core.rule_based import Rule, RuleKind
from repro.core.sequences import AlertSequence
from repro.incidents import DEFAULT_CATALOGUE

ATTACK_NAMES = [
    "alert_login_stolen_credential",
    "alert_download_sensitive",
    "alert_compile_kernel_module",
    "alert_privilege_escalation",
    "alert_erase_forensic_trace",
]
BENIGN_NAMES = ["alert_login_normal", "alert_job_submission", "alert_cron_job", "alert_file_transfer"]


def _sequence(names, entity="user:test"):
    return AlertSequence.from_names(names, entity=entity)


class TestAttackTagger:
    def test_detects_rootkit_chain(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        detection = tagger.run_sequence(_sequence(ATTACK_NAMES))
        assert detection is not None
        assert detection.is_malicious
        assert detection.confidence >= 0.5

    def test_does_not_flag_benign_activity(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        assert tagger.run_sequence(_sequence(BENIGN_NAMES)) is None

    def test_detection_before_damage(self):
        """Preemption: the chain is flagged before the erase-trace step."""
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        detection = tagger.run_sequence(_sequence(ATTACK_NAMES))
        assert detection is not None
        assert detection.alert_index < len(ATTACK_NAMES) - 1

    def test_one_detection_per_entity(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        alerts = list(_sequence(ATTACK_NAMES + ATTACK_NAMES, entity="user:dup"))
        detections = tagger.observe_batch(alerts)
        assert len(detections) == 1

    def test_entities_tracked_separately(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        tagger.observe(Alert(0.0, "alert_download_sensitive", "user:a"))
        tagger.observe(Alert(1.0, "alert_login_normal", "user:b"))
        assert set(tagger.entities()) == {"user:a", "user:b"}
        assert tagger.current_state("user:b") is HiddenState.BENIGN

    def test_posterior_sums_to_one(self):
        tagger = AttackTagger()
        tagger.observe(Alert(0.0, "alert_download_sensitive", "user:a"))
        posterior = tagger.posterior("user:a")
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_window_truncation(self):
        tagger = AttackTagger(max_window=4)
        for i in range(10):
            tagger.observe(Alert(float(i), "alert_login_normal", "user:a"))
        assert len(tagger.track("user:a").alerts) == 4

    def test_trained_parameters_improve_or_match_prior(self, trained_parameters):
        prior = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        trained = AttackTagger(trained_parameters, patterns=list(DEFAULT_CATALOGUE))
        sequence = _sequence(ATTACK_NAMES)
        prior_detection = prior.run_sequence(sequence)
        trained_detection = trained.run_sequence(sequence)
        assert trained_detection is not None
        if prior_detection is not None:
            assert trained_detection.alert_index <= prior_detection.alert_index + 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            AttackTagger(detection_threshold=1.5)

    def test_reset_entity_clears_state(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        tagger.run_sequence(_sequence(ATTACK_NAMES), entity="user:x")
        tagger.reset_entity("user:x")
        assert "user:x" not in tagger.entities()

    def test_ablation_without_patterns_still_catches_critical_chain(self):
        parameters = default_parameters().without_patterns()
        tagger = AttackTagger(parameters, patterns=[])
        detection = tagger.run_sequence(_sequence(ATTACK_NAMES))
        assert detection is not None


class TestRuleBasedDetector:
    def test_fires_on_critical_alert(self):
        detector = RuleBasedDetector()
        detection = detector.run_sequence(_sequence(["alert_privilege_escalation"]))
        assert detection is not None
        assert "rule_critical_alert" in detection.matched_patterns

    def test_signature_rule_requires_order(self):
        detector = RuleBasedDetector()
        names = ["alert_erase_forensic_trace", "alert_compile_kernel_module",
                 "alert_download_sensitive"]
        detection = detector.run_sequence(_sequence(names), entity="user:rev")
        # Reverse order: the download/compile/erase signature must NOT fire.
        assert detection is None or "rule_download_compile_erase" not in detection.matched_patterns

    def test_threshold_rule_with_window(self):
        rule = Rule(
            name="r",
            kind=RuleKind.THRESHOLD,
            alert_names=("alert_bruteforce_ssh",),
            threshold=3,
            window_seconds=100.0,
        )
        detector = RuleBasedDetector(rules=[rule])
        # Three brute-force alerts within 100 seconds -> fires.
        seq = AlertSequence.from_names(["alert_bruteforce_ssh"] * 3, step=10.0)
        assert detector.run_sequence(seq, entity="user:bf") is not None
        # Spread over 10 hours -> does not fire.
        detector2 = RuleBasedDetector(rules=[rule])
        seq_slow = AlertSequence.from_names(["alert_bruteforce_ssh"] * 3, step=18000.0)
        assert detector2.run_sequence(seq_slow, entity="user:slow") is None

    def test_benign_traffic_not_flagged(self):
        detector = RuleBasedDetector()
        assert detector.run_sequence(_sequence(BENIGN_NAMES)) is None

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule(name="bad", kind=RuleKind.SINGLE_ALERT, alert_names=())
        with pytest.raises(ValueError):
            Rule(name="bad", kind=RuleKind.THRESHOLD, alert_names=("a",), threshold=0)

    def test_ignore_rules(self):
        detector = RuleBasedDetector(ignore_rules=["rule_critical_alert"])
        assert all(r.name != "rule_critical_alert" for r in detector.rules)


class TestCriticalAlertDetector:
    def test_fires_only_on_critical(self):
        detector = CriticalAlertDetector()
        assert detector.run_sequence(_sequence(BENIGN_NAMES)) is None
        detection = detector.run_sequence(
            _sequence(["alert_login_normal", "alert_pii_in_http"]), entity="user:c"
        )
        assert detection is not None
        assert detection.trigger.name == "alert_pii_in_http"

    def test_cannot_preempt(self):
        """By construction the critical-only detector fires at/after damage."""
        from repro.core import evaluate_preemption

        detector = CriticalAlertDetector()
        sequence = _sequence(ATTACK_NAMES)
        detection = detector.run_sequence(sequence, entity="user:late")
        result = evaluate_preemption(sequence, detection)
        assert result.detected
        assert not result.preempted


class TestNaiveBayesDetector:
    def _training_examples(self):
        attack = label_sequence_from_stages(_sequence(ATTACK_NAMES), is_attack=True)
        benign = label_sequence_from_stages(_sequence(BENIGN_NAMES), is_attack=False)
        return [attack, benign]

    def test_requires_fit_before_observe(self):
        detector = NaiveBayesDetector()
        with pytest.raises(RuntimeError):
            detector.observe(Alert(0.0, "alert_login_normal", "user:a"))

    def test_detects_attack_after_fit(self):
        detector = NaiveBayesDetector(detection_log_odds=1.0)
        detector.fit(self._training_examples())
        assert detector.run_sequence(_sequence(ATTACK_NAMES)) is not None

    def test_benign_not_flagged(self):
        detector = NaiveBayesDetector(detection_log_odds=3.0)
        detector.fit(self._training_examples())
        assert detector.run_sequence(_sequence(BENIGN_NAMES)) is None


# ---------------------------------------------------------------------------
# One contract: every detector's batch surface and run_sequence are the
# Detector base class's, and equal the per-alert observe loop.
# ---------------------------------------------------------------------------
_CATALOGUE_NAMES = sorted({name for pattern in DEFAULT_CATALOGUE for name in pattern.names})
_POISON = "alert_chaos_poison_never_sent"


def _fitted_naive_bayes() -> NaiveBayesDetector:
    detector = NaiveBayesDetector(detection_log_odds=1.0)
    detector.fit(
        [
            label_sequence_from_stages(_sequence(ATTACK_NAMES), is_attack=True),
            label_sequence_from_stages(_sequence(BENIGN_NAMES), is_attack=False),
        ]
    )
    return detector


def _poisoned_tagger():
    from repro.fuzz.chaos import ChaosPoisonDetector

    return ChaosPoisonDetector(AttackTagger(patterns=list(DEFAULT_CATALOGUE)), _POISON)


#: Every detector the contract covers, as fresh-instance factories.
DETECTOR_FACTORIES = {
    "tagger-streaming": lambda: AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=4),
    "tagger-naive": lambda: AttackTagger(
        patterns=list(DEFAULT_CATALOGUE), max_window=4, engine="naive"
    ),
    "rule-based": RuleBasedDetector,
    "critical-alert": CriticalAlertDetector,
    "naive-bayes": _fitted_naive_bayes,
    "poison": _poisoned_tagger,
}


@st.composite
def _streams(draw) -> list[Alert]:
    """Few entities, catalogue and benign names: windows slide, chains fire."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_CATALOGUE_NAMES + BENIGN_NAMES),
                st.sampled_from(["user:a", "user:b", "host:c"]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return [Alert(float(i + 1), name, owner) for i, (name, owner) in enumerate(events)]


@pytest.mark.parametrize("kind", sorted(DETECTOR_FACTORIES))
class TestDetectorContract:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stream=_streams(), cut=st.integers(min_value=0, max_value=40))
    def test_batch_surface_equals_the_per_alert_loop(self, kind, stream, cut):
        batched, looped = DETECTOR_FACTORIES[kind](), DETECTOR_FACTORIES[kind]()
        assert isinstance(batched, Detector)
        cut = min(cut, len(stream))
        hits = batched.observe_batch_indexed(stream[:cut])
        hits += [
            (cut + position, detection)
            for position, detection in batched.observe_batch_indexed(stream[cut:])
        ]
        expected = [
            (position, detection)
            for position, alert in enumerate(stream)
            if (detection := looped.observe(alert)) is not None
        ]
        assert hits == expected
        assert batched.detections == looped.detections == [d for _, d in expected]
        assert batched.kernel_seconds >= 0.0

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(prefix=_streams(), sequence=_streams())
    def test_run_sequence_is_reset_entity_then_observe(self, kind, prefix, sequence):
        ran, looped = DETECTOR_FACTORIES[kind](), DETECTOR_FACTORIES[kind]()
        ran.observe_batch(prefix)
        looped.observe_batch(prefix)
        first = ran.run_sequence(AlertSequence(tuple(sequence)), entity="user:a")
        looped.reset_entity("user:a")
        fired = [looped.observe(alert.with_entity("user:a")) for alert in sequence]
        assert first == next((d for d in fired if d is not None), None)
        assert ran.detections == looped.detections


# ---------------------------------------------------------------------------
# The simple baselines keep a count per entity, not every alert.
# ---------------------------------------------------------------------------
_BOUNDED = {"critical-alert": CriticalAlertDetector, "naive-bayes": _fitted_naive_bayes}


def _one_entity(count: int, names=BENIGN_NAMES) -> list[Alert]:
    return [Alert(float(i), names[i % len(names)], "user:long") for i in range(count)]


@pytest.mark.parametrize("kind", sorted(_BOUNDED))
class TestBoundedBaselineState:
    def test_state_size_does_not_grow_with_the_stream(self, kind):
        sizes = []
        for count in (1_000, 4_000):
            detector = _BOUNDED[kind]()
            detector.observe_batch(_one_entity(count))
            sizes.append(len(pickle.dumps(detector)))
        assert sizes[0] == sizes[1]

    def test_a_parent_tree_pickle_restores_to_the_same_state(self, kind):
        """Pickles from when these baselines kept ``_history`` (every
        alert per entity) restore to what the new code would hold."""
        prefix, suffix = _mixed_stream(seed=1), _mixed_stream(seed=2)
        driven = _BOUNDED[kind]()
        driven.observe_batch(prefix)
        legacy = {}
        for key, value in driven.__getstate__().items():
            if key == "_alert_counts":
                key, value = "_history", {}
                for alert in prefix:
                    value.setdefault(alert.entity, []).append(alert)
            if key != "_log_odds":
                legacy[key] = value
        restored = type(driven).__new__(type(driven))
        restored.__setstate__(legacy)
        assert pickle.dumps(restored) == pickle.dumps(driven)
        assert restored.observe_batch(suffix) == driven.observe_batch(suffix)


def _mixed_stream(*, seed: int, length: int = 120) -> list[Alert]:
    rng = np.random.default_rng(seed)
    names = _CATALOGUE_NAMES + BENIGN_NAMES
    return [
        Alert(
            float(seed * 1_000 + i),
            names[int(rng.integers(0, len(names)))],
            f"user:{int(rng.integers(0, 6))}",
        )
        for i in range(length)
    ]


class TestNaiveBayesRunningLogOdds:
    def test_detections_equal_a_rescoring_reference(self):
        """The running log-odds are summed in arrival order, so every
        detection is bit-identical to re-scoring the entity's whole bag
        on each alert (what the detector used to do)."""
        detector = _fitted_naive_bayes()
        parameters = detector.parameters
        stream = _mixed_stream(seed=5, length=600)
        bags: dict = {}
        expected = []
        for alert in stream:
            bag = bags.setdefault(alert.entity, [])
            bag.append(alert.name)
            score = parameters.score(bag)
            detected = {entity for entity, _, _ in expected}
            if score >= detector.detection_log_odds and alert.entity not in detected:
                expected.append((alert.entity, len(bag) - 1, 1.0 / (1.0 + math.exp(-score))))
        got = detector.observe_batch(stream)
        assert expected
        assert [(d.entity, d.alert_index, d.confidence) for d in got] == expected

    def test_fit_forgets_tracked_entities(self):
        detector = _fitted_naive_bayes()
        fired = detector.observe_batch(list(_sequence(ATTACK_NAMES, entity="user:x")))
        assert fired
        detector.fit(
            [
                label_sequence_from_stages(_sequence(ATTACK_NAMES), is_attack=True),
                label_sequence_from_stages(_sequence(BENIGN_NAMES), is_attack=False),
            ]
        )
        assert detector.detections == fired
        # The entity starts afresh under the new ratios: it can fire again.
        again = detector.observe_batch(list(_sequence(ATTACK_NAMES, entity="user:x")))
        assert [d.alert_index for d in again] == [d.alert_index for d in fired]
