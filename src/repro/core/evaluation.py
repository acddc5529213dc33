"""Detector evaluation: detection metrics, cross-validation, the window sweep.

The evaluation harness treats every detector uniformly through the
streaming ``run_sequence`` API shared by :class:`AttackTagger`, the
rule-based baseline, and the two simple baselines.  Given a corpus of
attack and benign sequences it computes:

* classification metrics (precision / recall / F1 / false-positive
  rate) at the level of whole sequences,
* preemption metrics (preemption rate, lead time) via
  :mod:`repro.core.preemption`,
* the observation-window sweep behind the paper's Insight 2 (a
  preemption model's effective range is sequences of two to four
  alerts), and
* k-fold cross-validation so the factor-graph model is never evaluated
  on the incidents it was trained on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from .alerts import AlertVocabulary, DEFAULT_VOCABULARY
from .attack_tagger import Detection
from .preemption import PreemptionResult, evaluate_preemption, summarize_outcomes
from .sequences import AlertSequence


class SequenceDetector(Protocol):
    """Structural type all evaluated detectors satisfy."""

    def run_sequence(self, sequence: AlertSequence, entity: Optional[str] = None) -> Optional[Detection]:
        """Run a full sequence and return the first detection, if any."""
        ...  # pragma: no cover - protocol definition


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
    detector: SequenceDetector,
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
    detector_factory: Callable[[], SequenceDetector],
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


def k_fold_indices(num_items: int, folds: int, *, seed: int = 0) -> list[np.ndarray]:
    """Deterministic shuffled k-fold split of ``range(num_items)``."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_items)
    return [order[i::folds] for i in range(folds)]


@dataclasses.dataclass
class CrossValidationResult:
    """Per-fold reports plus averaged headline metrics."""

    fold_reports: list[EvaluationReport]

    def mean_summary(self) -> dict[str, float]:
        """Average of each headline metric across folds."""
        if not self.fold_reports:
            return {}
        keys = self.fold_reports[0].summary().keys()
        return {
            key: float(np.mean([report.summary()[key] for report in self.fold_reports]))
            for key in keys
        }


def cross_validate(
    train_and_build: Callable[[Sequence[EvaluationExample]], SequenceDetector],
    examples: Sequence[EvaluationExample],
    *,
    folds: int = 5,
    seed: int = 0,
    detector_name: str = "",
    vocabulary: Optional[AlertVocabulary] = None,
) -> CrossValidationResult:
    """K-fold cross-validation for detectors that are trained on data.

    ``train_and_build`` receives the training examples of a fold and
    must return a ready-to-evaluate detector.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    examples = list(examples)
    fold_reports: list[EvaluationReport] = []
    for fold, test_indices in enumerate(k_fold_indices(len(examples), folds, seed=seed)):
        test_set = set(int(i) for i in test_indices)
        train_examples = [e for i, e in enumerate(examples) if i not in test_set]
        test_examples = [e for i, e in enumerate(examples) if i in test_set]
        if not test_examples:
            continue
        detector = train_and_build(train_examples)
        report = evaluate_detector(
            detector,
            test_examples,
            detector_name=f"{detector_name or 'detector'}[fold={fold}]",
            vocabulary=vocab,
        )
        fold_reports.append(report)
    return CrossValidationResult(fold_reports=fold_reports)


def compare_detectors(
    detectors: dict[str, SequenceDetector],
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
    "SequenceDetector",
    "EvaluationExample",
    "ConfusionCounts",
    "EvaluationReport",
    "evaluate_detector",
    "window_sweep",
    "k_fold_indices",
    "CrossValidationResult",
    "cross_validate",
    "compare_detectors",
]
