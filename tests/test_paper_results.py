"""The paper-result gate: the figure benches' numbers, pinned.

``BENCH_paper.json`` at the repository root records what this
repository's model reports for the paper's results: the held-out model
comparison and factor ablation, the Insight-2 window sweep, the
Insight-4 critical-alert rows, the Fig. 5 ransomware preemption and the
Table I counts.  :func:`build_paper_results` recomputes every number
with the seeds (corpus 7, benign 99), the 70/30 chronological split and
the library calls of the ``benchmarks/bench_*`` scripts, and the test
below demands the committed file back exactly.  Floats are kept to 12
significant digits, so a last-place libm difference between hosts is
very unlikely to fail the gate, while any changed decision does.

A change that is *meant* to move the paper's numbers rewrites the file
(and says so in its description)::

    PYTHONPATH=src python tests/test_paper_results.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import criticality_study
from repro.attacks import RansomwareScenario, ReplayEngine, TWELVE_DAYS_SECONDS
from repro.core import (
    DEFAULT_VOCABULARY,
    AttackTagger,
    CriticalAlertDetector,
    EvaluationExample,
    NaiveBayesDetector,
    RuleBasedDetector,
    compare_detectors,
    evaluate_preemption,
    label_sequence_from_stages,
    train_from_incidents,
    window_sweep,
)
from repro.core.preemption import preemptable_window
from repro.core.sequences import AlertSequence
from repro.incidents import DEFAULT_CATALOGUE, IncidentGenerator
from repro.testbed import Honeypot, build_default_topology

BENCH_PAPER = Path(__file__).resolve().parents[1] / "BENCH_paper.json"
WINDOWS = range(1, 9)
DAMAGE_ALERTS = ("alert_ransom_note_created", "alert_mass_file_encryption")


def _pinned(value):
    """``value`` with every float cut to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _pinned(item) for key, item in value.items()}
    return value


def build_paper_results() -> dict:
    """Every pinned number, recomputed from the seeded corpus."""
    corpus = IncidentGenerator(seed=7).generate_corpus()
    benign = IncidentGenerator(seed=99).generate_benign_sequences(200)
    catalogue = list(DEFAULT_CATALOGUE)
    trained = train_from_incidents(
        corpus.attack_sequences(), benign, vocabulary=DEFAULT_VOCABULARY, patterns=catalogue
    )

    # bench_model_comparison / bench_ablation_factors: train on the
    # earlier 70 %, evaluate on the later 30 % plus held-out benign.
    train_incidents, test_incidents = corpus.chronological_split(0.7)
    split = train_from_incidents(
        [i.sequence for i in train_incidents], benign[:120], patterns=catalogue
    )
    naive_bayes = NaiveBayesDetector(detection_log_odds=2.0)
    naive_bayes.fit(
        [label_sequence_from_stages(i.sequence, is_attack=True) for i in train_incidents]
        + [label_sequence_from_stages(s, is_attack=False) for s in benign[:120]]
    )
    held_out = [EvaluationExample(i.sequence, True, i.incident_id) for i in test_incidents] + [
        EvaluationExample(s, False, f"benign-{idx}") for idx, s in enumerate(benign[120:])
    ]
    models = compare_detectors(
        {
            "factor_graph": AttackTagger(split, patterns=catalogue),
            "rule_based": RuleBasedDetector(),
            "naive_bayes": naive_bayes,
            "critical_only": CriticalAlertDetector(),
        },
        held_out,
    )
    ablation = compare_detectors(
        {
            "full_model": AttackTagger(split, patterns=catalogue),
            "no_patterns": AttackTagger(split.without_patterns(), patterns=[]),
            "no_transitions": AttackTagger(split.without_transitions(), patterns=catalogue),
            "no_learned_observations": AttackTagger(
                split.without_observations(), patterns=catalogue
            ),
        },
        held_out,
    )

    # bench_insight_effective_range: the preemptable prefix of every
    # incident plus 100 benign sequences, one report per window length.
    benign_100 = [
        EvaluationExample(s, False, f"benign-{idx}") for idx, s in enumerate(benign[:100])
    ]
    preemptable = [
        EvaluationExample(preemptable_window(i.sequence), True, i.incident_id)
        for i in corpus
        if len(preemptable_window(i.sequence)) >= 1
    ]
    sweep = window_sweep(
        lambda: AttackTagger(trained, patterns=catalogue), preemptable + benign_100, WINDOWS
    )
    effective_range = {}
    for length in WINDOWS:
        summary = sweep[length].summary()
        effective_range[str(length)] = {
            key: summary[key] for key in ("recall", "precision", "false_positive_rate")
        }

    # bench_insight_criticality.
    study = criticality_study(corpus)
    critical_rows = compare_detectors(
        {
            "factor_graph": AttackTagger(trained, patterns=catalogue),
            "critical_only": CriticalAlertDetector(),
        },
        [EvaluationExample(i.sequence, True, i.incident_id) for i in corpus] + benign_100,
    )

    # bench_fig5_ransomware: honeypot capture, replay, production lead.
    scenario = RansomwareScenario(Honeypot(), topology=build_default_topology())
    capture = scenario.run_honeypot_capture(start_time=0.0)
    replay = ReplayEngine().replay_into_detector(
        capture.alerts, AttackTagger(trained, patterns=catalogue)
    )
    detection = replay.detections[0]
    production = scenario.run_production_incident(
        start_time=capture.alerts[0].timestamp + TWELVE_DAYS_SECONDS
    )
    damage = next(a for a in production.alerts if a.name in DAMAGE_ALERTS)
    preemption = evaluate_preemption(AlertSequence.from_alerts(capture.alerts), detection)

    return _pinned(
        {
            "model_comparison": models,
            "ablation_factors": ablation,
            "insight2_effective_range": effective_range,
            "insight4_criticality": {
                "study": {
                    key: value
                    for key, value in dataclasses.asdict(study).items()
                    if key != "occurrences_by_type"
                },
                "detectors": critical_rows,
            },
            "fig5_ransomware": {
                "trigger": detection.trigger.name,
                "alert_index": detection.alert_index,
                "confidence": detection.confidence,
                "preempted": preemption.preempted,
                "lead_over_production_days": (damage.timestamp - detection.timestamp) / 86_400,
            },
            "table1_dataset": dataclasses.asdict(corpus.stats()),
        }
    )


SECTIONS = (
    "model_comparison",
    "ablation_factors",
    "insight2_effective_range",
    "insight4_criticality",
    "fig5_ransomware",
    "table1_dataset",
)


@pytest.fixture(scope="module")
def committed():
    return json.loads(BENCH_PAPER.read_text())


@pytest.fixture(scope="module")
def built():
    return build_paper_results()


def test_paper_results_have_the_committed_sections(committed, built):
    assert list(committed) == list(SECTIONS)
    assert list(built) == list(SECTIONS)


@pytest.mark.parametrize("section", SECTIONS)
def test_paper_results_match_the_committed_file(committed, built, section):
    assert built[section] == committed[section]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write   (rewrites {BENCH_PAPER.name})")
    BENCH_PAPER.write_text(json.dumps(build_paper_results(), indent=2) + "\n")
    print(f"wrote {BENCH_PAPER}")
