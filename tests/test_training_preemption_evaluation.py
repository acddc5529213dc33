"""Tests for training, preemption semantics, and the evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AttackTagger,
    CriticalAlertDetector,
    DEFAULT_VOCABULARY,
    EvaluationExample,
    HiddenState,
    LabeledSequence,
    ParameterEstimator,
    PreemptionOutcome,
    RuleBasedDetector,
    compare_detectors,
    cross_validate,
    evaluate_detector,
    evaluate_preemption,
    find_damage_boundary,
    label_sequence_from_stages,
    preemptable_window,
    summarize_outcomes,
    train_from_incidents,
    window_sweep,
)
from repro.core.attack_tagger import Detection
from repro.core.evaluation import k_fold_indices
from repro.core.factors import default_parameters
from repro.core.sequences import AlertSequence
from repro.core.states import NUM_STATES
from repro.incidents import DEFAULT_CATALOGUE

ATTACK = ["alert_login_stolen_credential", "alert_download_sensitive",
          "alert_compile_kernel_module", "alert_privilege_escalation",
          "alert_data_exfiltration"]
BENIGN = ["alert_login_normal", "alert_job_submission", "alert_cron_job"]


class TestLabeling:
    def test_labels_match_sequence_length(self):
        example = label_sequence_from_stages(AlertSequence.from_names(ATTACK))
        assert len(example.labels) == len(ATTACK)

    def test_benign_sequences_all_benign(self):
        example = label_sequence_from_stages(
            AlertSequence.from_names(ATTACK), is_attack=False
        )
        assert set(example.labels) == {int(HiddenState.BENIGN)}

    def test_malicious_persistence(self):
        """Once malicious, stage-based labels never fall back to suspicious."""
        names = ["alert_privilege_escalation", "alert_download_sensitive"]
        example = label_sequence_from_stages(AlertSequence.from_names(names))
        assert example.labels[0] == int(HiddenState.MALICIOUS)
        assert example.labels[1] == int(HiddenState.MALICIOUS)

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledSequence(AlertSequence.from_names(BENIGN), labels=(0,))


class TestParameterEstimator:
    def _examples(self):
        return [
            label_sequence_from_stages(AlertSequence.from_names(ATTACK), is_attack=True),
            label_sequence_from_stages(AlertSequence.from_names(BENIGN), is_attack=False),
        ]

    def test_fit_produces_valid_distributions(self):
        estimator = ParameterEstimator()
        params = estimator.fit(self._examples(), patterns=list(DEFAULT_CATALOGUE))
        obs = np.exp(params.observation_log)
        assert np.allclose(obs.sum(axis=0), 1.0, atol=1e-6)
        trans = np.exp(params.transition_log)
        assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-6)
        assert np.exp(params.initial_log).sum() == pytest.approx(1.0, abs=1e-6)

    def test_pattern_weights_nonnegative_and_bounded(self):
        estimator = ParameterEstimator(max_pattern_weight=5.0)
        params = estimator.fit(self._examples(), patterns=list(DEFAULT_CATALOGUE))
        assert all(0.0 < w <= 5.0 for w in params.pattern_weights.values())

    def test_summary_counts(self):
        estimator = ParameterEstimator()
        estimator.fit(self._examples())
        assert estimator.summary is not None
        assert estimator.summary.num_sequences == 2
        assert estimator.summary.num_attack_sequences == 1
        assert estimator.summary.num_alerts == len(ATTACK) + len(BENIGN)

    def test_train_from_incidents_on_corpus(self, corpus, benign_sequences):
        params = train_from_incidents(
            corpus.attack_sequences()[:50],
            benign_sequences[:20],
            patterns=list(DEFAULT_CATALOGUE),
        )
        assert params.observation_log.shape == (len(DEFAULT_VOCABULARY), NUM_STATES)
        assert len(params.pattern_weights) > 0

    def test_ablation_helpers(self):
        params = default_parameters()
        assert params.without_patterns().pattern_weights == {}
        assert np.allclose(params.without_transitions().transition_log, 0.0)


class TestPreemption:
    def test_damage_boundary_found(self):
        seq = AlertSequence.from_names(ATTACK)
        boundary = find_damage_boundary(seq)
        assert boundary.has_damage
        assert boundary.alert_name == "alert_privilege_escalation"

    def test_no_damage_boundary(self):
        seq = AlertSequence.from_names(BENIGN)
        assert not find_damage_boundary(seq).has_damage

    def test_preempted_outcome(self):
        seq = AlertSequence.from_names(ATTACK, step=600.0)
        detection = Detection(
            entity="user:x", timestamp=seq[1].timestamp, alert_index=1,
            trigger=seq[1], state=HiddenState.MALICIOUS, confidence=0.9,
        )
        result = evaluate_preemption(seq, detection)
        assert result.outcome is PreemptionOutcome.PREEMPTED
        assert result.lead_time_seconds == pytest.approx(
            seq[3].timestamp - seq[1].timestamp
        )
        assert result.alerts_before_damage == 2

    def test_late_detection(self):
        seq = AlertSequence.from_names(ATTACK, step=600.0)
        detection = Detection(
            entity="user:x", timestamp=seq[4].timestamp, alert_index=4,
            trigger=seq[4], state=HiddenState.MALICIOUS, confidence=0.9,
        )
        assert evaluate_preemption(seq, detection).outcome is PreemptionOutcome.DETECTED_LATE

    def test_missed(self):
        seq = AlertSequence.from_names(ATTACK)
        assert evaluate_preemption(seq, None).outcome is PreemptionOutcome.MISSED

    def test_preemptable_window_excludes_damage(self):
        seq = AlertSequence.from_names(ATTACK)
        window = preemptable_window(seq)
        assert len(window) == 3
        assert all(not a.is_critical() for a in window)

    def test_summary_rates(self):
        seq = AlertSequence.from_names(ATTACK, step=60.0)
        early = Detection("user:x", seq[1].timestamp, 1, seq[1], HiddenState.MALICIOUS, 0.9)
        results = [
            evaluate_preemption(seq, early),
            evaluate_preemption(seq, None),
        ]
        summary = summarize_outcomes(results)
        assert summary["num_attacks"] == 2
        assert summary["preemption_rate"] == pytest.approx(0.5)
        assert summary["detection_rate"] == pytest.approx(0.5)


class TestEvaluationHarness:
    def _examples(self, num_attack=6, num_benign=6):
        examples = []
        for i in range(num_attack):
            examples.append(EvaluationExample(
                AlertSequence.from_names(ATTACK, entity=f"user:a{i}"), True, f"attack-{i}"))
        for i in range(num_benign):
            examples.append(EvaluationExample(
                AlertSequence.from_names(BENIGN, entity=f"user:b{i}"), False, f"benign-{i}"))
        return examples

    def test_evaluate_detector_metrics(self):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE))
        report = evaluate_detector(tagger, self._examples())
        assert report.confusion.recall == 1.0
        assert report.confusion.false_positive_rate == 0.0
        assert report.summary()["f1"] == 1.0

    def test_window_sweep_shows_effective_range(self):
        examples = self._examples()
        reports = window_sweep(
            lambda: AttackTagger(patterns=list(DEFAULT_CATALOGUE)), examples, [1, 3, 5]
        )
        assert reports[1].confusion.recall <= reports[3].confusion.recall
        assert reports[3].confusion.recall <= reports[5].confusion.recall + 1e-9

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            RuleBasedDetector,
            CriticalAlertDetector,
        ],
        ids=["attack_tagger", "rule_based", "critical_only"],
    )
    def test_window_sweep_is_evaluate_detector_on_prefixes(self, factory):
        """Every length: a fresh detector, evaluated on the truncated examples."""
        examples = self._examples(3, 3)
        built = []

        def counting_factory():
            built.append(factory())
            return built[-1]

        lengths = [1, 2, 4]
        reports = window_sweep(counting_factory, examples, lengths)
        assert len(built) == len(lengths)
        assert len({id(detector) for detector in built}) == len(lengths)
        for length in lengths:
            truncated = [
                EvaluationExample(e.sequence.prefix(length), e.is_attack, e.identifier)
                for e in examples
            ]
            expected = evaluate_detector(factory(), truncated)
            assert reports[length].detector_name == f"window={length}"
            assert reports[length].summary() == expected.summary(), length

    def test_compare_detectors_keys(self):
        detectors = {
            "factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE)),
            "critical_only": CriticalAlertDetector(),
        }
        table = compare_detectors(detectors, self._examples())
        assert set(table) == {"factor_graph", "critical_only"}
        assert table["factor_graph"]["preemption_rate"] >= table["critical_only"]["preemption_rate"]

    def test_k_fold_indices_partition(self):
        folds = k_fold_indices(23, 5, seed=1)
        combined = sorted(int(i) for fold in folds for i in fold)
        assert combined == list(range(23))

    def test_k_fold_requires_two_folds(self):
        with pytest.raises(ValueError):
            k_fold_indices(10, 1)

    def test_cross_validation_runs(self):
        examples = self._examples(8, 8)

        def build(train_examples):
            attack_sequences = [e.sequence for e in train_examples if e.is_attack]
            benign = [e.sequence for e in train_examples if not e.is_attack]
            params = train_from_incidents(attack_sequences, benign, patterns=list(DEFAULT_CATALOGUE))
            return AttackTagger(params, patterns=list(DEFAULT_CATALOGUE))

        result = cross_validate(build, examples, folds=4, seed=2)
        summary = result.mean_summary()
        assert 0.0 <= summary["recall"] <= 1.0
        assert len(result.fold_reports) == 4
