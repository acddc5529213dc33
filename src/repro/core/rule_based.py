"""Rule-based baseline detector.

The paper deploys both the factor-graph model and a rule-based detector
(citing Cao et al. 2015, "Preemptive intrusion detection") on the
testbed.  This module provides a faithful rule-engine baseline: a set
of declarative rules, each firing on a single alert type, an alert
count within a window, or an ordered signature of alert types, with a
per-rule severity and action.

Compared to the factor-graph model the rule engine has no notion of
conditional probability (Remark 2): a rule either matches or it does
not, which is exactly why it either floods operators with scan alerts
or misses slow multi-stage attacks -- the trade-off the evaluation
benchmarks quantify.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from .alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from .attack_tagger import Detection
from .detector import Detector
from .sequences import is_subsequence
from .states import HiddenState


class RuleKind(enum.Enum):
    """The three matching modes a rule can use."""

    SINGLE_ALERT = "single_alert"
    THRESHOLD = "threshold"
    SIGNATURE = "signature"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One declarative detection rule.

    Attributes
    ----------
    name:
        Unique rule identifier.
    kind:
        Matching mode.
    alert_names:
        For ``SINGLE_ALERT``: a set of alert types, any of which fires
        the rule.  For ``THRESHOLD``: the alert types counted toward the
        threshold.  For ``SIGNATURE``: the ordered alert-type sequence
        that must appear as a subsequence.
    threshold:
        Minimum count (``THRESHOLD`` rules only).
    window_seconds:
        Time window for counting (``THRESHOLD`` rules only; ``None``
        means unbounded).
    description:
        Operator-facing explanation.
    """

    name: str
    kind: RuleKind
    alert_names: tuple[str, ...]
    threshold: int = 1
    window_seconds: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.alert_names:
            raise ValueError(f"rule {self.name!r} must reference at least one alert type")
        if self.kind is RuleKind.THRESHOLD and self.threshold < 1:
            raise ValueError(f"rule {self.name!r}: threshold must be >= 1")

    def matches(self, alerts: Sequence[Alert]) -> bool:
        """Whether this rule matches the entity's alert history."""
        if not alerts:
            return False
        if self.kind is RuleKind.SINGLE_ALERT:
            wanted = set(self.alert_names)
            return any(a.name in wanted for a in alerts)
        if self.kind is RuleKind.THRESHOLD:
            wanted = set(self.alert_names)
            relevant = [a for a in alerts if a.name in wanted]
            if self.window_seconds is None:
                return len(relevant) >= self.threshold
            latest = alerts[-1].timestamp
            in_window = [a for a in relevant if latest - a.timestamp <= self.window_seconds]
            return len(in_window) >= self.threshold
        if self.kind is RuleKind.SIGNATURE:
            names = [a.name for a in alerts]
            return is_subsequence(self.alert_names, names)
        raise AssertionError(f"unhandled rule kind {self.kind}")


def default_ruleset(vocabulary: Optional[AlertVocabulary] = None) -> list[Rule]:
    """The rule set an experienced HPC security operator would write.

    It alerts on every critical alert type, on brute-force bursts, and
    on the handful of well-known multi-stage signatures (the
    download/compile/erase pattern, the PostgreSQL ransomware chain, and
    SSH-key lateral movement).
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    rules: list[Rule] = [
        Rule(
            name="rule_critical_alert",
            kind=RuleKind.SINGLE_ALERT,
            alert_names=tuple(vocab.critical_names()),
            description="Any critical alert indicates a (late-stage) compromise.",
        ),
        Rule(
            name="rule_bruteforce_burst",
            kind=RuleKind.THRESHOLD,
            alert_names=("alert_bruteforce_ssh", "alert_login_failure_burst"),
            threshold=5,
            window_seconds=3600.0,
            description="Five or more brute-force alerts within an hour.",
        ),
        Rule(
            name="rule_scan_burst",
            kind=RuleKind.THRESHOLD,
            alert_names=("alert_port_scan", "alert_vuln_scan", "alert_address_sweep"),
            threshold=10,
            window_seconds=3600.0,
            description="Sustained scanning from one source.",
        ),
        Rule(
            name="rule_download_compile_erase",
            kind=RuleKind.SIGNATURE,
            alert_names=(
                "alert_download_sensitive",
                "alert_compile_kernel_module",
                "alert_erase_forensic_trace",
            ),
            description="The 2002-era rootkit installation signature (still seen in 2024).",
        ),
        Rule(
            name="rule_postgres_ransomware",
            kind=RuleKind.SIGNATURE,
            alert_names=(
                "alert_db_default_password_login",
                "alert_service_version_probe",
                "alert_db_largeobject_payload",
            ),
            description="PostgreSQL ransomware staging chain.",
        ),
        Rule(
            name="rule_ssh_lateral_movement",
            kind=RuleKind.SIGNATURE,
            alert_names=(
                "alert_ssh_key_enumeration",
                "alert_lateral_ssh_batch",
            ),
            description="Bulk SSH key theft followed by batch-mode fan-out.",
        ),
        Rule(
            name="rule_outbound_c2",
            kind=RuleKind.SINGLE_ALERT,
            alert_names=("alert_outbound_c2", "alert_dns_tunnel", "alert_icmp_tunnel"),
            description="Command-and-control channel established.",
        ),
    ]
    return rules


class RuleBasedDetector(Detector):
    """Streaming rule-engine baseline (a :class:`Detector` like AttackTagger)."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        *,
        vocabulary: Optional[AlertVocabulary] = None,
        max_window: int = 256,
        ignore_rules: Iterable[str] = (),
    ) -> None:
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.rules: list[Rule] = list(rules) if rules is not None else default_ruleset(self.vocabulary)
        ignored = set(ignore_rules)
        self.rules = [r for r in self.rules if r.name not in ignored]
        self.max_window = int(max_window)
        self._history: Dict[str, List[Alert]] = {}
        self._detections: List[Detection] = []
        self._detected_entities: set[str] = set()
        self._fired: Dict[str, List[str]] = {}

    def fired_rules(self, entity: str) -> list[str]:
        """Names of rules that have fired for an entity."""
        return list(self._fired.get(entity, []))

    def reset(self) -> None:
        """Forget all per-entity state."""
        self._history.clear()
        self._detections.clear()
        self._detected_entities.clear()
        self._fired.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget a single entity."""
        self._history.pop(entity, None)
        self._fired.pop(entity, None)
        self._detected_entities.discard(entity)

    def __getstate__(self) -> dict:
        """Canonical pickle: set-valued state as a sorted tuple.

        A raw ``set`` pickles in iteration order, which depends on the
        per-process hash seed and insertion history — checkpoint →
        restore → checkpoint would not be byte-identical.
        """
        state = self.__dict__.copy()
        state["_detected_entities"] = tuple(sorted(self._detected_entities))
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern keys exactly as pickle's default BUILD path does, so a
        # restored instance re-pickles to the same bytes (memo hits on
        # the shared attribute-name strings).
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self._detected_entities = set(state["_detected_entities"])

    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert, returning a detection if any rule fires."""
        history = self._history.setdefault(alert.entity, [])
        history.append(alert)
        if len(history) > self.max_window:
            del history[: len(history) - self.max_window]
        fired = self._fired.setdefault(alert.entity, [])
        newly_fired = [
            rule for rule in self.rules if rule.name not in fired and rule.matches(history)
        ]
        fired.extend(rule.name for rule in newly_fired)
        if not newly_fired or alert.entity in self._detected_entities:
            return None
        detection = Detection(
            entity=alert.entity,
            timestamp=alert.timestamp,
            alert_index=len(history) - 1,
            trigger=alert,
            state=HiddenState.MALICIOUS,
            confidence=1.0,
            matched_patterns=tuple(rule.name for rule in newly_fired),
        )
        self._detected_entities.add(alert.entity)
        self._detections.append(detection)
        return detection


__all__ = ["RuleKind", "Rule", "default_ruleset", "RuleBasedDetector"]
