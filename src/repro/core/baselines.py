"""Additional baseline detectors used in the model-comparison benchmarks.

Two baselines bracket the factor-graph model:

* :class:`CriticalAlertDetector` -- fires only on the 19 critical alert
  types.  This is the paper's Insight-4 strawman: it is precise but by
  construction can never preempt an attack, because critical alerts
  appear only after system integrity is already lost.
* :class:`NaiveBayesDetector` -- treats the alerts of an entity as a
  bag (no ordering, no transitions, no patterns) and thresholds the
  posterior odds of "attack" vs. "benign".  This isolates the value of
  sequence information: it shares the observation statistics with the
  factor-graph model but none of its structure.

Both are :class:`repro.core.detector.Detector` subclasses, like
:class:`repro.core.attack_tagger.AttackTagger`, so the evaluation
harness and the pipeline treat every model uniformly.  Neither keeps
the alerts it has seen: per entity they hold an alert count (and naive
Bayes its running log-odds), so their state does not grow with the
length of an entity's stream.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from .attack_tagger import Detection
from .detector import Detector
from .states import HiddenState
from .training import LabeledSequence


def _upgrade_history(state: dict, **derived: Callable[[list], object]) -> dict:
    """Translate a pickle from when these baselines kept every alert.

    Such a state holds ``_history`` (entity -> every alert it sent).
    Each ``derived`` entry turns one entity's alert list into the value
    of a bounded per-entity attribute; the new attributes take
    ``_history``'s place in the dict, so the restored instance
    re-pickles like one that observed the same stream.
    """
    if "_history" not in state:
        return state
    upgraded: dict = {}
    for key, value in state.items():
        if key != "_history":
            upgraded[key] = value
            continue
        for name, derive in derived.items():
            upgraded[name] = {entity: derive(alerts) for entity, alerts in value.items()}
    return upgraded


class CriticalAlertDetector(Detector):
    """Detector that tags an entity malicious on its first critical alert.

    Per entity it keeps only an alert count (the ``alert_index`` of a
    detection) and whether the entity has been detected.
    """

    def __init__(self, vocabulary: Optional[AlertVocabulary] = None) -> None:
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self._critical = set(self.vocabulary.critical_names())
        self._alert_counts: Dict[str, int] = {}
        self._detections: List[Detection] = []
        self._detected: set[str] = set()

    def reset(self) -> None:
        """Forget all per-entity state."""
        self._alert_counts.clear()
        self._detections.clear()
        self._detected.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity."""
        self._alert_counts.pop(entity, None)
        self._detected.discard(entity)

    def __getstate__(self) -> dict:
        """Canonical pickle: set-valued state as sorted tuples.

        A raw ``set`` pickles in iteration order, which depends on the
        per-process hash seed and insertion history — checkpoint →
        restore → checkpoint would not be byte-identical.
        """
        state = self.__dict__.copy()
        state["_critical"] = tuple(sorted(self._critical))
        state["_detected"] = tuple(sorted(self._detected))
        return state

    def __setstate__(self, state: dict) -> None:
        state = _upgrade_history(state, _alert_counts=len)
        # Intern keys exactly as pickle's default BUILD path does, so a
        # restored instance re-pickles to the same bytes (memo hits on
        # the shared attribute-name strings).
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._critical = set(state["_critical"])
        self._detected = set(state["_detected"])

    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert; detect iff it is a critical alert."""
        count = self._alert_counts[alert.entity] = self._alert_counts.get(alert.entity, 0) + 1
        if alert.entity in self._detected or alert.name not in self._critical:
            return None
        detection = Detection(
            entity=alert.entity,
            timestamp=alert.timestamp,
            alert_index=count - 1,
            trigger=alert,
            state=HiddenState.MALICIOUS,
            confidence=1.0,
            matched_patterns=(alert.name,),
        )
        self._detected.add(alert.entity)
        self._detections.append(detection)
        return detection


@dataclasses.dataclass
class NaiveBayesParameters:
    """Per-alert-type log-likelihood ratios plus a prior log-odds."""

    vocabulary: AlertVocabulary
    log_likelihood_ratio: np.ndarray
    prior_log_odds: float

    def score(self, names: Sequence[str], total: Optional[float] = None) -> float:
        """Cumulative log-odds of "attack" for a bag of alert names.

        ``total`` continues a running score (default: the prior); names
        outside the vocabulary add nothing.  Summing in arrival order
        makes a running score bit-identical to re-scoring the whole bag.
        """
        if total is None:
            total = self.prior_log_odds
        for name in names:
            if name in self.vocabulary:
                total += float(self.log_likelihood_ratio[self.vocabulary.index_of(name)])
        return total


class NaiveBayesDetector(Detector):
    """Bag-of-alerts baseline: thresholds each entity's running log-odds."""

    def __init__(
        self,
        parameters: Optional[NaiveBayesParameters] = None,
        *,
        vocabulary: Optional[AlertVocabulary] = None,
        detection_log_odds: float = 2.0,
        smoothing: float = 0.5,
    ) -> None:
        self.vocabulary = vocabulary or (parameters.vocabulary if parameters else DEFAULT_VOCABULARY)
        self.parameters = parameters
        self.detection_log_odds = float(detection_log_odds)
        self.smoothing = float(smoothing)
        self._alert_counts: Dict[str, int] = {}
        self._log_odds: Dict[str, float] = {}
        self._detections: List[Detection] = []
        self._detected: set[str] = set()

    # -- training ------------------------------------------------------------
    def fit(self, examples: Iterable[LabeledSequence]) -> NaiveBayesParameters:
        """Estimate per-alert likelihood ratios from labelled sequences.

        Every tracked entity is forgotten (its count, running log-odds
        and detected flag; the detections log stays): its log-odds were
        summed under the old ratios.
        """
        vocab = self.vocabulary
        attack_counts = np.full(len(vocab), self.smoothing, dtype=np.float64)
        benign_counts = np.full(len(vocab), self.smoothing, dtype=np.float64)
        num_attack = 0
        num_benign = 0
        for example in examples:
            target = attack_counts if example.is_attack else benign_counts
            if example.is_attack:
                num_attack += 1
            else:
                num_benign += 1
            for name in example.sequence.names:
                if name in vocab:
                    target[vocab.index_of(name)] += 1.0
        attack_probability = attack_counts / attack_counts.sum()
        benign_probability = benign_counts / benign_counts.sum()
        ratio = np.log(attack_probability) - np.log(benign_probability)
        prior = math.log((num_attack + 1.0) / (num_benign + 1.0))
        self.parameters = NaiveBayesParameters(
            vocabulary=vocab, log_likelihood_ratio=ratio, prior_log_odds=prior
        )
        self._alert_counts.clear()
        self._log_odds.clear()
        self._detected.clear()
        return self.parameters

    # -- streaming API ----------------------------------------------------------
    def reset(self) -> None:
        """Forget all per-entity state."""
        self._alert_counts.clear()
        self._log_odds.clear()
        self._detections.clear()
        self._detected.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity."""
        self._alert_counts.pop(entity, None)
        self._log_odds.pop(entity, None)
        self._detected.discard(entity)

    def __getstate__(self) -> dict:
        """Canonical pickle: set-valued state as a sorted tuple (see
        :meth:`CriticalAlertDetector.__getstate__`)."""
        state = self.__dict__.copy()
        state["_detected"] = tuple(sorted(self._detected))
        return state

    def __setstate__(self, state: dict) -> None:
        parameters = state["parameters"]
        state = _upgrade_history(
            state,
            _alert_counts=len,
            _log_odds=lambda alerts: parameters.score([alert.name for alert in alerts]),
        )
        # Key interning: see CriticalAlertDetector.__setstate__.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._detected = set(state["_detected"])

    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert; detect when the cumulative log-odds cross the threshold."""
        if self.parameters is None:
            raise RuntimeError("NaiveBayesDetector.observe called before fit()")
        entity = alert.entity
        count = self._alert_counts[entity] = self._alert_counts.get(entity, 0) + 1
        score = self._log_odds[entity] = self.parameters.score(
            (alert.name,), self._log_odds.get(entity)
        )
        if entity in self._detected or score < self.detection_log_odds:
            return None
        confidence = 1.0 / (1.0 + math.exp(-score))
        detection = Detection(
            entity=entity,
            timestamp=alert.timestamp,
            alert_index=count - 1,
            trigger=alert,
            state=HiddenState.MALICIOUS,
            confidence=confidence,
        )
        self._detected.add(entity)
        self._detections.append(detection)
        return detection


__all__ = [
    "CriticalAlertDetector",
    "NaiveBayesParameters",
    "NaiveBayesDetector",
]
