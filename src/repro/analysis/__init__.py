"""Longitudinal measurement study: Table I, Fig. 2, Fig. 3, Insights 1-4."""

from .criticality import (
    CriticalityStudyResult,
    PAPER_CRITICAL_OCCURRENCES,
    PAPER_UNIQUE_CRITICAL_ALERTS,
    criticality_study,
    triage_load_without_filtering,
)
from .dailystats import (
    DailyVolumeStats,
    PAPER_DAILY_MEAN,
    PAPER_DAILY_SCANS,
    PAPER_DAILY_STD,
    render_daily_series,
    summarize_daily_volumes,
)
from .lcs_study import (
    LCSStudyResult,
    PAPER_MAX_FREQUENCY,
    PAPER_MAX_LENGTH,
    PAPER_MIN_LENGTH,
    PAPER_NUM_PATTERNS,
    PatternAttribution,
    attribute_incident,
    catalogue_frequency_study,
)
from .similarity import (
    PAPER_FRACTION_BELOW,
    PAPER_SIMILARITY_THRESHOLD,
    SimilarityStudyResult,
    attack_indicative_sequences,
    corpus_similarity_study,
    similarity_study,
)
from .study import LongitudinalStudyReport, run_longitudinal_study
from .timing import (
    GapStatistics,
    TimingStudyResult,
    scan_fraction_of_daily_volume,
    sequence_gap_phases,
    timing_study,
)

__all__ = [
    "SimilarityStudyResult",
    "similarity_study",
    "corpus_similarity_study",
    "attack_indicative_sequences",
    "PAPER_SIMILARITY_THRESHOLD",
    "PAPER_FRACTION_BELOW",
    "LCSStudyResult",
    "PatternAttribution",
    "attribute_incident",
    "catalogue_frequency_study",
    "PAPER_NUM_PATTERNS",
    "PAPER_MAX_FREQUENCY",
    "PAPER_MIN_LENGTH",
    "PAPER_MAX_LENGTH",
    "DailyVolumeStats",
    "summarize_daily_volumes",
    "render_daily_series",
    "PAPER_DAILY_MEAN",
    "PAPER_DAILY_STD",
    "PAPER_DAILY_SCANS",
    "CriticalityStudyResult",
    "criticality_study",
    "triage_load_without_filtering",
    "PAPER_UNIQUE_CRITICAL_ALERTS",
    "PAPER_CRITICAL_OCCURRENCES",
    "GapStatistics",
    "TimingStudyResult",
    "timing_study",
    "sequence_gap_phases",
    "scan_fraction_of_daily_volume",
    "LongitudinalStudyReport",
    "run_longitudinal_study",
]
