"""Preemption semantics: damage boundaries and detection lead time.

The paper's objective is *attack preemption*: stopping system
compromise and data breaches before irreversible damage.  Whether a
detection "preempted" an attack therefore depends on two timestamps:

* the **damage boundary** of the attack -- the time of the first alert
  whose lifecycle stage indicates irreversible damage (actions on
  objective: exfiltration, mass encryption, trace wiping) or, absent
  such an alert, the end of the attack;
* the **detection time** reported by a detector.

A detection strictly before the damage boundary is a *preemption*; a
detection at or after it is a (late) detection; no detection at all is
a miss.  The case study quantifies the benefit in wall-clock terms: the
factor-graph model flagged the ransomware family's C2 communication
twelve days before the equivalent production incident was recorded.
This module provides those computations for individual attack
sequences and whole corpora.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Sequence

from .alerts import AlertVocabulary, DEFAULT_VOCABULARY
from .attack_tagger import Detection
from .sequences import AlertSequence


class PreemptionOutcome(enum.Enum):
    """Classification of a detector's result on one attack."""

    PREEMPTED = "preempted"          # detected strictly before damage
    DETECTED_LATE = "detected_late"  # detected, but at/after the damage boundary
    MISSED = "missed"                # never detected
    NOT_APPLICABLE = "not_applicable"  # benign sequence (nothing to preempt)


@dataclasses.dataclass(frozen=True)
class DamageBoundary:
    """The point in an attack after which damage is irreversible."""

    timestamp: Optional[float]
    alert_index: Optional[int]
    alert_name: Optional[str]

    @property
    def has_damage(self) -> bool:
        """Whether the attack ever reached a damage-stage alert."""
        return self.timestamp is not None


def find_damage_boundary(
    sequence: AlertSequence,
    vocabulary: Optional[AlertVocabulary] = None,
) -> DamageBoundary:
    """Locate the first damage-stage or critical alert in an attack.

    Both conditions mark irreversibility: damage-stage alerts by the
    lifecycle definition, and critical alerts by the paper's Insight 4
    ("their occurrence indicates that the system integrity has already
    been compromised").
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    for index, alert in enumerate(sequence):
        spec = vocab.get(alert.name)
        if spec.stage.is_damage or spec.critical:
            return DamageBoundary(timestamp=alert.timestamp, alert_index=index, alert_name=alert.name)
    return DamageBoundary(timestamp=None, alert_index=None, alert_name=None)


@dataclasses.dataclass(frozen=True)
class PreemptionResult:
    """Outcome of evaluating one detector decision against one attack."""

    outcome: PreemptionOutcome
    detection: Optional[Detection]
    damage: DamageBoundary
    lead_time_seconds: Optional[float]
    alerts_before_damage: Optional[int]

    @property
    def preempted(self) -> bool:
        """Whether the attack was preempted."""
        return self.outcome is PreemptionOutcome.PREEMPTED

    @property
    def detected(self) -> bool:
        """Whether the attack was detected at all (preempted or late)."""
        return self.outcome in (PreemptionOutcome.PREEMPTED, PreemptionOutcome.DETECTED_LATE)


def evaluate_preemption(
    sequence: AlertSequence,
    detection: Optional[Detection],
    *,
    is_attack: bool = True,
    vocabulary: Optional[AlertVocabulary] = None,
) -> PreemptionResult:
    """Classify a detection against an attack's damage boundary.

    ``lead_time_seconds`` is positive when the detection precedes the
    damage boundary (a preemption), negative when it trails it, and
    measured to the end of the sequence when the attack never reached a
    damage alert (in which case any detection counts as preemption).
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    if not is_attack:
        return PreemptionResult(
            outcome=PreemptionOutcome.NOT_APPLICABLE,
            detection=detection,
            damage=DamageBoundary(None, None, None),
            lead_time_seconds=None,
            alerts_before_damage=None,
        )
    damage = find_damage_boundary(sequence, vocab)
    if detection is None:
        return PreemptionResult(
            outcome=PreemptionOutcome.MISSED,
            detection=None,
            damage=damage,
            lead_time_seconds=None,
            alerts_before_damage=None,
        )
    if damage.has_damage:
        assert damage.timestamp is not None and damage.alert_index is not None
        lead = damage.timestamp - detection.timestamp
        alerts_before = damage.alert_index - detection.alert_index
        if detection.timestamp < damage.timestamp:
            outcome = PreemptionOutcome.PREEMPTED
        else:
            outcome = PreemptionOutcome.DETECTED_LATE
        return PreemptionResult(
            outcome=outcome,
            detection=detection,
            damage=damage,
            lead_time_seconds=lead,
            alerts_before_damage=alerts_before,
        )
    # The attack never reached damage (it was still in progress); any
    # detection preempts it, with lead time measured to the last alert.
    last_timestamp = sequence[-1].timestamp if len(sequence) else detection.timestamp
    return PreemptionResult(
        outcome=PreemptionOutcome.PREEMPTED,
        detection=detection,
        damage=damage,
        lead_time_seconds=max(0.0, last_timestamp - detection.timestamp),
        alerts_before_damage=(len(sequence) - 1 - detection.alert_index) if len(sequence) else 0,
    )


def summarize_outcomes(results: Sequence[PreemptionResult]) -> dict[str, float]:
    """Aggregate preemption statistics over many attacks.

    Returns counts plus the preemption rate, detection rate, and the
    mean/median lead time (in seconds) over preempted attacks.
    """
    attack_results = [r for r in results if r.outcome is not PreemptionOutcome.NOT_APPLICABLE]
    preempted = [r for r in attack_results if r.preempted]
    detected = [r for r in attack_results if r.detected]
    lead_times = sorted(
        r.lead_time_seconds for r in preempted if r.lead_time_seconds is not None
    )
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0
    def _median(values: list[float]) -> float:
        if not values:
            return 0.0
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])
    total = len(attack_results)
    return {
        "num_attacks": float(total),
        "num_preempted": float(len(preempted)),
        "num_detected": float(len(detected)),
        "num_missed": float(total - len(detected)),
        "preemption_rate": len(preempted) / total if total else 0.0,
        "detection_rate": len(detected) / total if total else 0.0,
        "mean_lead_seconds": _mean(lead_times),
        "median_lead_seconds": _median(lead_times),
    }


def preemptable_window(
    sequence: AlertSequence,
    vocabulary: Optional[AlertVocabulary] = None,
) -> AlertSequence:
    """The prefix of an attack during which preemption is still possible.

    This is the sub-sequence strictly before the damage boundary -- the
    two-to-four-alert regime the paper identifies as the effective range
    of a preemption model.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    damage = find_damage_boundary(sequence, vocab)
    if not damage.has_damage:
        return sequence
    assert damage.alert_index is not None
    return sequence.prefix(damage.alert_index)


__all__ = [
    "PreemptionOutcome",
    "DamageBoundary",
    "find_damage_boundary",
    "PreemptionResult",
    "evaluate_preemption",
    "summarize_outcomes",
    "preemptable_window",
]
