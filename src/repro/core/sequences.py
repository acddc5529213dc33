"""Alert sequences and the sequence analyses used by the paper.

Two sequence statistics drive the paper's measurement study:

* **Pairwise Jaccard similarity** of the alert *sets* of two attacks
  (Fig. 3a) -- the fraction of alert types the attacks share.  The
  paper reports that more than 95 % of attack pairs share up to 33 %
  of their alerts, and that the shared alerts correspond to common
  foothold-establishment vectors.
* **Common event subsequences** (Fig. 3b) -- recurring ordered alert
  patterns (named S1..S43) across incidents, with lengths from two to
  fourteen alerts and the most frequent pattern appearing 14 times
  across the >200 incidents.

This module provides :class:`AlertSequence` (an ordered view over the
alerts of one incident/entity) plus a vectorised Jaccard similarity
and the ordered-subsequence containment tests used by the pattern
factors of the detection model.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY


@dataclasses.dataclass(frozen=True)
class AlertSequence:
    """An ordered sequence of alerts attributed to one entity/incident.

    The sequence stores both full :class:`Alert` records and the
    derived tuple of symbolic names, which is what the similarity and
    pattern-matching analyses operate on.
    """

    alerts: tuple[Alert, ...]

    def __post_init__(self) -> None:
        timestamps = [a.timestamp for a in self.alerts]
        if any(b < a for a, b in zip(timestamps, timestamps[1:])):
            raise ValueError("alerts in an AlertSequence must be time-ordered")

    # -- construction ----------------------------------------------------
    @classmethod
    def from_alerts(cls, alerts: Iterable[Alert]) -> "AlertSequence":
        """Build a sequence from an arbitrary iterable of alerts (sorted)."""
        return cls(tuple(sorted(alerts, key=lambda a: a.timestamp)))

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        *,
        entity: str = "entity:synthetic",
        start: float = 0.0,
        step: float = 60.0,
    ) -> "AlertSequence":
        """Build a synthetic sequence from symbolic names only.

        Used heavily in tests and in pattern definitions, where only
        the ordering of symbols matters.
        """
        alerts = tuple(
            Alert(timestamp=start + i * step, name=name, entity=entity)
            for i, name in enumerate(names)
        )
        return cls(alerts)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.alerts)

    def __iter__(self) -> Iterator[Alert]:
        return iter(self.alerts)

    def __getitem__(self, index: int) -> Alert:
        return self.alerts[index]

    # -- derived views -------------------------------------------------------
    # Cached because these sit inside per-alert hot paths (pattern
    # matching, similarity analyses); the dataclass is frozen and
    # ``cached_property`` writes straight into ``__dict__``, bypassing
    # the frozen ``__setattr__``.
    @cached_property
    def names(self) -> tuple[str, ...]:
        """Symbolic alert names, in time order (computed once)."""
        return tuple(a.name for a in self.alerts)

    @cached_property
    def name_set(self) -> frozenset[str]:
        """Unique symbolic alert names (computed once)."""
        return frozenset(a.name for a in self.alerts)

    @property
    def duration(self) -> float:
        """Seconds between the first and last alert (0 for length <= 1)."""
        if len(self.alerts) < 2:
            return 0.0
        return self.alerts[-1].timestamp - self.alerts[0].timestamp

    def inter_alert_gaps(self) -> np.ndarray:
        """Gaps (seconds) between consecutive alerts."""
        if len(self.alerts) < 2:
            return np.empty(0, dtype=float)
        times = np.array([a.timestamp for a in self.alerts], dtype=float)
        return np.diff(times)

    def critical_alerts(self, vocabulary: Optional[AlertVocabulary] = None) -> list[Alert]:
        """Alerts in this sequence whose type is critical."""
        vocab = vocabulary or DEFAULT_VOCABULARY
        return [a for a in self.alerts if vocab.get(a.name).critical]

    def prefix(self, length: int) -> "AlertSequence":
        """First ``length`` alerts (the observation window of a detector)."""
        return AlertSequence(self.alerts[: max(0, length)])

    def up_to(self, timestamp: float) -> "AlertSequence":
        """Alerts observed at or before ``timestamp``."""
        return AlertSequence(tuple(a for a in self.alerts if a.timestamp <= timestamp))

    def filtered(self, names: Iterable[str]) -> "AlertSequence":
        """Sub-sequence containing only alerts whose name is in ``names``."""
        keep = set(names)
        return AlertSequence(tuple(a for a in self.alerts if a.name in keep))


# ---------------------------------------------------------------------------
# Jaccard similarity
# ---------------------------------------------------------------------------

def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two collections of alert names.

    Returns ``|A ∩ B| / |A ∪ B|``; two empty collections are defined to
    have similarity 0.0 (they share no attack evidence).
    """
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def pairwise_jaccard_matrix(
    sequences: Sequence[AlertSequence],
    vocabulary: Optional[AlertVocabulary] = None,
) -> np.ndarray:
    """Dense pairwise Jaccard similarity matrix over alert-name sets.

    Vectorised: each sequence is encoded as a binary membership vector
    over the vocabulary, and intersections/unions are computed with a
    single matrix product (per the HPC guides: replace the O(n^2)
    Python double loop with BLAS).
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    n = len(sequences)
    if n == 0:
        return np.zeros((0, 0), dtype=float)
    membership = np.zeros((n, len(vocab)), dtype=np.float64)
    for i, seq in enumerate(sequences):
        # staticcheck: disable=determinism -- order-insensitive: each name sets one membership flag to 1.0
        for name in seq.name_set:
            membership[i, vocab.index_of(name)] = 1.0
    sizes = membership.sum(axis=1)
    intersection = membership @ membership.T
    union = sizes[:, None] + sizes[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = np.where(union > 0, intersection / np.maximum(union, 1e-12), 0.0)
    np.fill_diagonal(sim, 1.0)
    # Sequences that are completely empty have no self-similarity either.
    empty = sizes == 0
    if empty.any():
        sim[empty, :] = 0.0
        sim[:, empty] = 0.0
    return sim


def similarity_cdf(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of the off-diagonal pairwise similarities.

    Returns ``(values, cumulative_fraction)`` suitable for plotting the
    paper's Fig. 3a.  ``values`` are the sorted unique similarities and
    ``cumulative_fraction[i]`` is the fraction of attack pairs whose
    similarity is <= ``values[i]``.
    """
    n = matrix.shape[0]
    if n < 2:
        return np.array([0.0]), np.array([1.0])
    iu = np.triu_indices(n, k=1)
    sims = np.sort(matrix[iu])
    values, counts = np.unique(sims, return_counts=True)
    cumulative = np.cumsum(counts) / sims.size
    return values, cumulative


def fraction_of_pairs_below(matrix: np.ndarray, threshold: float) -> float:
    """Fraction of attack pairs whose similarity is <= ``threshold``.

    The paper's headline statistic is
    ``fraction_of_pairs_below(M, 0.33) > 0.95``.
    """
    n = matrix.shape[0]
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    sims = matrix[iu]
    return float(np.mean(sims <= threshold))


# ---------------------------------------------------------------------------
# Pattern containment
# ---------------------------------------------------------------------------

def is_subsequence(pattern: Sequence[str], names: Sequence[str]) -> bool:
    """Whether ``pattern`` occurs in ``names`` as an ordered subsequence.

    This is the containment test the pattern factors use: the alerts of
    a known attack pattern must appear in order, but other alerts may
    be interleaved (real attacks are interleaved with benign activity).
    """
    if not pattern:
        return True
    it = iter(names)
    return all(any(symbol == candidate for candidate in it) for symbol in pattern)


def matched_prefix_length(pattern: Sequence[str], names: Sequence[str]) -> int:
    """Length of the longest prefix of ``pattern`` contained in ``names``.

    A partially matched pattern is evidence that an attack is *in
    progress* -- precisely the regime (two to four alerts observed) in
    which the paper argues preemption is possible.
    """
    matched = 0
    start = 0
    for symbol in pattern:
        found = None
        for idx in range(start, len(names)):
            if names[idx] == symbol:
                found = idx
                break
        if found is None:
            break
        matched += 1
        start = found + 1
    return matched


__all__ = [
    "AlertSequence",
    "jaccard_similarity",
    "pairwise_jaccard_matrix",
    "similarity_cdf",
    "fraction_of_pairs_below",
    "is_subsequence",
    "matched_prefix_length",
]
