"""Longitudinal incident dataset: patterns, incidents, generator, corpus.

Synthetic stand-in for NCSA's private 2000-2024 incident archive.  The
generator reproduces the published corpus statistics (Table I, Fig. 2,
Fig. 3, the S1..S43 pattern frequencies, critical-alert counts and the
60.08 % download/compile/erase prevalence) so every analysis and
detection experiment in the paper can be re-run end to end.
"""

from .corpus import CorpusStats, IncidentCorpus
from .generator import (
    DEFAULT_NUM_INCIDENTS,
    GeneratorConfig,
    IncidentGenerator,
    TARGET_DAILY_MEAN,
    TARGET_DAILY_STD,
    TARGET_FILTERED_ALERTS,
    TARGET_MOTIF_PREVALENCE,
    TARGET_RAW_ALERTS,
)
from .incident import GroundTruth, Incident
from .patterns import (
    AttackPattern,
    COMPILE_ALERTS,
    DEFAULT_CATALOGUE,
    DOWNLOAD_COMPILE_ERASE,
    PatternCatalogue,
    build_default_catalogue,
    contains_download_compile_erase,
    download_compile_erase_prevalence,
)

__all__ = [
    "CorpusStats",
    "IncidentCorpus",
    "GeneratorConfig",
    "IncidentGenerator",
    "DEFAULT_NUM_INCIDENTS",
    "TARGET_RAW_ALERTS",
    "TARGET_FILTERED_ALERTS",
    "TARGET_DAILY_MEAN",
    "TARGET_DAILY_STD",
    "TARGET_MOTIF_PREVALENCE",
    "GroundTruth",
    "Incident",
    "AttackPattern",
    "PatternCatalogue",
    "build_default_catalogue",
    "DEFAULT_CATALOGUE",
    "DOWNLOAD_COMPILE_ERASE",
    "COMPILE_ALERTS",
    "contains_download_compile_erase",
    "download_compile_erase_prevalence",
]
