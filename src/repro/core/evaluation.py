"""Detector evaluation: detection metrics, detector comparison, the window sweep.

The evaluation harness treats every detector uniformly through
:meth:`repro.core.detector.Detector.run_sequence`, which
:class:`AttackTagger`, the rule-based baseline, and the two simple
baselines inherit.  Given a corpus of attack and benign sequences it
computes:

* classification metrics (precision / recall / F1 / false-positive
  rate) at the level of whole sequences,
* preemption metrics (preemption rate, lead time) via
  :mod:`repro.core.preemption`,
* the observation-window sweep behind the paper's Insight 2 (a
  preemption model's effective range is sequences of two to four
  alerts), and
* the side-by-side comparison of several detectors on one example set.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, Sequence

from .alerts import AlertVocabulary, DEFAULT_VOCABULARY
from .attack_tagger import Detection
from .detector import Detector
from .preemption import PreemptionResult, evaluate_preemption, summarize_outcomes
from .sequences import AlertSequence


@dataclasses.dataclass(frozen=True)
class EvaluationExample:
    """One evaluation item: a sequence and whether it is a real attack."""

    sequence: AlertSequence
    is_attack: bool
    identifier: str = ""


@dataclasses.dataclass
class ConfusionCounts:
    """Sequence-level confusion counts."""

    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0

    @property
    def precision(self) -> float:
        """Fraction of flagged sequences that were real attacks."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """Fraction of real attacks that were flagged."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def false_positive_rate(self) -> float:
        """Fraction of benign sequences that were flagged."""
        denominator = self.false_positives + self.true_negatives
        return self.false_positives / denominator if denominator else 0.0

    @property
    def accuracy(self) -> float:
        """Overall fraction of correct decisions."""
        total = (
            self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
        )
        return (self.true_positives + self.true_negatives) / total if total else 0.0


@dataclasses.dataclass
class EvaluationReport:
    """Full result of evaluating one detector on one example set."""

    detector_name: str
    confusion: ConfusionCounts
    preemption: dict[str, float]
    per_example: list[tuple[str, bool, Optional[Detection], Optional[PreemptionResult]]]

    def summary(self) -> dict[str, float]:
        """Flat mapping of the headline metrics (for benchmark tables)."""
        return {
            "precision": self.confusion.precision,
            "recall": self.confusion.recall,
            "f1": self.confusion.f1,
            "false_positive_rate": self.confusion.false_positive_rate,
            "accuracy": self.confusion.accuracy,
            "preemption_rate": self.preemption.get("preemption_rate", 0.0),
            "detection_rate": self.preemption.get("detection_rate", 0.0),
            "mean_lead_seconds": self.preemption.get("mean_lead_seconds", 0.0),
        }


def evaluate_detector(
    detector: Detector,
    examples: Sequence[EvaluationExample],
    *,
    detector_name: str = "",
    vocabulary: Optional[AlertVocabulary] = None,
) -> EvaluationReport:
    """Evaluate a detector on labelled sequences.

    Each example is run through a fresh per-entity track; a non-null
    detection counts as "flagged".  Preemption outcomes are computed for
    attack examples only.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    confusion = ConfusionCounts()
    preemption_results: list[PreemptionResult] = []
    per_example: list[tuple[str, bool, Optional[Detection], Optional[PreemptionResult]]] = []
    for index, example in enumerate(examples):
        entity = f"entity:eval-{index}"
        detection = detector.run_sequence(example.sequence, entity=entity)
        flagged = detection is not None
        if example.is_attack and flagged:
            confusion.true_positives += 1
        elif example.is_attack and not flagged:
            confusion.false_negatives += 1
        elif not example.is_attack and flagged:
            confusion.false_positives += 1
        else:
            confusion.true_negatives += 1
        preemption: Optional[PreemptionResult] = None
        if example.is_attack:
            preemption = evaluate_preemption(
                example.sequence, detection, is_attack=True, vocabulary=vocab
            )
            preemption_results.append(preemption)
        per_example.append((example.identifier or entity, example.is_attack, detection, preemption))
    return EvaluationReport(
        detector_name=detector_name or detector.__class__.__name__,
        confusion=confusion,
        preemption=summarize_outcomes(preemption_results),
        per_example=per_example,
    )


def window_sweep(
    detector_factory: Callable[[], Detector],
    examples: Sequence[EvaluationExample],
    window_lengths: Iterable[int],
    *,
    vocabulary: Optional[AlertVocabulary] = None,
) -> dict[int, EvaluationReport]:
    """Evaluate detection quality as a function of observation-window length.

    For each window length ``L`` every sequence is truncated to its
    first ``L`` alerts before evaluation.  This reproduces Insight 2:
    one-alert windows cannot discriminate, while long windows only
    "detect" attacks that have already matured past the damage point.
    Every length gets a fresh detector from ``detector_factory``, run
    through :func:`evaluate_detector` like any other evaluation.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    reports: dict[int, EvaluationReport] = {}
    for length in window_lengths:
        truncated = [
            EvaluationExample(
                sequence=e.sequence.prefix(length),
                is_attack=e.is_attack,
                identifier=f"{e.identifier}|w{length}",
            )
            for e in examples
        ]
        detector = detector_factory()
        reports[length] = evaluate_detector(
            detector, truncated, detector_name=f"window={length}", vocabulary=vocab
        )
    return reports


def compare_detectors(
    detectors: dict[str, Detector],
    examples: Sequence[EvaluationExample],
    *,
    vocabulary: Optional[AlertVocabulary] = None,
) -> dict[str, dict[str, float]]:
    """Evaluate several detectors on the same examples.

    Returns ``{detector name: headline metric summary}`` -- the rows of
    the model-comparison benchmark table.
    """
    return {
        name: evaluate_detector(det, examples, detector_name=name, vocabulary=vocabulary).summary()
        for name, det in detectors.items()
    }


__all__ = [
    "EvaluationExample",
    "ConfusionCounts",
    "EvaluationReport",
    "evaluate_detector",
    "window_sweep",
    "compare_detectors",
]
