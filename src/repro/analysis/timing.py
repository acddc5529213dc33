"""Inter-alert timing analysis (Insight 3).

Insight 3: attack sophistication shows in the timing of recurrent
alerts.  Reconnaissance is machine-generated -- repetitive, closely and
regularly spaced -- while post-foothold activity is manual, so the gaps
between alerts become long and highly variable.  This module quantifies
that contrast per incident and per corpus: gap statistics split by
lifecycle stage, and the fraction of daily volume attributable to
repeated scanning.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..core.alerts import AlertVocabulary, DEFAULT_VOCABULARY
from ..core.sequences import AlertSequence
from ..core.states import AttackStage
from ..incidents.corpus import IncidentCorpus


@dataclasses.dataclass
class GapStatistics:
    """Summary of inter-alert gaps for one phase."""

    count: int
    mean_seconds: float
    std_seconds: float
    median_seconds: float


def _summarize(gaps: Sequence[float]) -> GapStatistics:
    if not gaps:
        return GapStatistics(count=0, mean_seconds=0.0, std_seconds=0.0, median_seconds=0.0)
    array = np.asarray(gaps, dtype=np.float64)
    return GapStatistics(
        count=int(array.size),
        mean_seconds=float(array.mean()),
        std_seconds=float(array.std(ddof=0)),
        median_seconds=float(np.median(array)),
    )


@dataclasses.dataclass
class TimingStudyResult:
    """Per-phase gap statistics across a corpus."""

    reconnaissance: GapStatistics
    post_foothold: GapStatistics
    incidents_analyzed: int


def sequence_gap_phases(
    sequence: AlertSequence,
    vocabulary: Optional[AlertVocabulary] = None,
) -> tuple[list[float], list[float]]:
    """Split a sequence's inter-alert gaps into (recon, post-foothold).

    A gap is attributed to the phase of the alert that *ends* it; the
    reconnaissance phase covers background and reconnaissance-stage
    alerts, everything later is post-foothold.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    recon: list[float] = []
    manual: list[float] = []
    alerts = list(sequence)
    for previous, current in zip(alerts, alerts[1:]):
        gap = current.timestamp - previous.timestamp
        stage = vocab.get(current.name).stage
        if stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE):
            recon.append(gap)
        else:
            manual.append(gap)
    return recon, manual


def timing_study(
    corpus: IncidentCorpus,
    vocabulary: Optional[AlertVocabulary] = None,
) -> TimingStudyResult:
    """Run the Insight-3 timing study over a corpus."""
    vocab = vocabulary or DEFAULT_VOCABULARY
    recon_all: list[float] = []
    manual_all: list[float] = []
    analyzed = 0
    for incident in corpus:
        recon, manual = sequence_gap_phases(incident.sequence, vocab)
        if recon or manual:
            analyzed += 1
        recon_all.extend(recon)
        manual_all.extend(manual)
    return TimingStudyResult(
        reconnaissance=_summarize(recon_all),
        post_foothold=_summarize(manual_all),
        incidents_analyzed=analyzed,
    )


def scan_fraction_of_daily_volume(total_daily: float, scan_daily: float) -> float:
    """Fraction of daily alerts that are repeated scans (paper: ~80K of 94K)."""
    if total_daily <= 0:
        return 0.0
    return min(1.0, scan_daily / total_daily)


__all__ = [
    "GapStatistics",
    "TimingStudyResult",
    "sequence_gap_phases",
    "timing_study",
    "scan_fraction_of_daily_volume",
]
