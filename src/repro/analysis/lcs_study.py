"""Common-alert-sequence mining (Fig. 3b).

The paper identifies 43 recurring alert sequences (S1..S43) across the
incident corpus and plots how often each was seen (most frequent: 14
times; lengths two to fourteen).  The reproduction counts them by
catalogue attribution: each incident is attributed to the most specific
catalogue pattern it contains (longest match, ties broken by catalogue
order).  This reproduces the published histogram directly and is what
the Fig. 3b benchmark reports.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..incidents.corpus import IncidentCorpus
from ..incidents.patterns import AttackPattern, DEFAULT_CATALOGUE, PatternCatalogue

#: Published Fig. 3b headline values.
PAPER_NUM_PATTERNS = 43
PAPER_MAX_FREQUENCY = 14
PAPER_MIN_LENGTH = 2
PAPER_MAX_LENGTH = 14


@dataclasses.dataclass
class PatternAttribution:
    """The catalogue pattern attributed to one incident (if any)."""

    incident_id: str
    pattern_name: Optional[str]
    pattern_length: int


@dataclasses.dataclass
class LCSStudyResult:
    """Everything the Fig. 3b benchmark reports."""

    histogram: dict[str, int]
    attributions: list[PatternAttribution]
    unattributed_incidents: int
    pattern_lengths: dict[str, int]

    @property
    def max_frequency(self) -> int:
        """Count of the most frequent pattern."""
        return max(self.histogram.values()) if self.histogram else 0

    @property
    def most_frequent_pattern(self) -> Optional[str]:
        """Name of the most frequent pattern."""
        if not self.histogram:
            return None
        return max(self.histogram, key=self.histogram.get)

    @property
    def length_range(self) -> tuple[int, int]:
        """(shortest, longest) pattern length among patterns actually seen."""
        seen = [self.pattern_lengths[name] for name, count in self.histogram.items() if count > 0]
        if not seen:
            return (0, 0)
        return (min(seen), max(seen))

    def counts_in_order(self, catalogue: PatternCatalogue = DEFAULT_CATALOGUE) -> list[int]:
        """Histogram values in catalogue order (the Fig. 3b bar heights)."""
        return [self.histogram.get(name, 0) for name in catalogue.names()]


def attribute_incident(
    names: Sequence[str], catalogue: PatternCatalogue
) -> Optional[AttackPattern]:
    """The most specific catalogue pattern contained in an alert sequence.

    Most specific means longest; ties are broken by catalogue order
    (which also encodes recency of definition).
    """
    best: Optional[AttackPattern] = None
    for pattern in catalogue:
        if not pattern.occurs_in(names):
            continue
        if best is None or pattern.length > best.length:
            best = pattern
    return best


def catalogue_frequency_study(
    corpus: IncidentCorpus,
    catalogue: PatternCatalogue = DEFAULT_CATALOGUE,
) -> LCSStudyResult:
    """Mine the corpus by catalogue attribution (the Fig. 3b histogram)."""
    histogram: dict[str, int] = {name: 0 for name in catalogue.names()}
    attributions: list[PatternAttribution] = []
    unattributed = 0
    for incident in corpus:
        pattern = attribute_incident(incident.alert_names, catalogue)
        if pattern is None:
            unattributed += 1
            attributions.append(
                PatternAttribution(incident.incident_id, None, 0)
            )
            continue
        histogram[pattern.name] += 1
        attributions.append(
            PatternAttribution(incident.incident_id, pattern.name, pattern.length)
        )
    return LCSStudyResult(
        histogram=histogram,
        attributions=attributions,
        unattributed_incidents=unattributed,
        pattern_lengths={p.name: p.length for p in catalogue},
    )


__all__ = [
    "PAPER_NUM_PATTERNS",
    "PAPER_MAX_FREQUENCY",
    "PAPER_MIN_LENGTH",
    "PAPER_MAX_LENGTH",
    "PatternAttribution",
    "LCSStudyResult",
    "attribute_incident",
    "catalogue_frequency_study",
]
