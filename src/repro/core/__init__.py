"""Core preemption models: alerts, sequences, chain decoders, detectors.

This subpackage implements the paper's primary contribution -- the
ATTACKTAGGER-style factor-graph preemption model -- together with the
baselines it is compared against and the evaluation machinery used by
the benchmarks.
"""

from .alerts import (
    Alert,
    AlertCategory,
    AlertTypeSpec,
    AlertVocabulary,
    DEFAULT_VOCABULARY,
    Severity,
    build_default_vocabulary,
    sort_alerts,
)
from .attack_tagger import AttackTagger, Detection, EntityTrack, PatternSpec
from .baselines import CriticalAlertDetector, NaiveBayesDetector, NaiveBayesParameters
from .detector import Detector
from .evaluation import (
    ConfusionCounts,
    EvaluationExample,
    EvaluationReport,
    compare_detectors,
    evaluate_detector,
    window_sweep,
)
from .factor_graph import (
    chain_map_decode,
    chain_marginals,
    logsumexp_matmul,
    logsumexp_vecmat,
    maxplus_matmul,
    maxplus_vecmat,
)
from .factors import FactorParameters, default_parameters
from .preemption import (
    DamageBoundary,
    PreemptionOutcome,
    PreemptionResult,
    evaluate_preemption,
    find_damage_boundary,
    preemptable_window,
    summarize_outcomes,
)
from .rule_based import Rule, RuleBasedDetector, RuleKind, default_ruleset
from .sequences import (
    AlertSequence,
    fraction_of_pairs_below,
    is_subsequence,
    jaccard_similarity,
    matched_prefix_length,
    pairwise_jaccard_matrix,
    similarity_cdf,
)
from .streaming import WeightedPattern
from .states import AttackStage, HiddenState, NUM_STATES
from .training import (
    LabeledSequence,
    ParameterEstimator,
    TrainingSummary,
    label_sequence_from_stages,
    train_from_incidents,
)

__all__ = [
    # alerts
    "Alert",
    "AlertCategory",
    "AlertTypeSpec",
    "AlertVocabulary",
    "DEFAULT_VOCABULARY",
    "Severity",
    "build_default_vocabulary",
    "sort_alerts",
    # states
    "AttackStage",
    "HiddenState",
    "NUM_STATES",
    # sequences
    "AlertSequence",
    "jaccard_similarity",
    "pairwise_jaccard_matrix",
    "similarity_cdf",
    "fraction_of_pairs_below",
    "is_subsequence",
    "matched_prefix_length",
    # factor graph
    "chain_map_decode",
    "chain_marginals",
    "maxplus_matmul",
    "maxplus_vecmat",
    "logsumexp_matmul",
    "logsumexp_vecmat",
    "FactorParameters",
    "default_parameters",
    # training
    "LabeledSequence",
    "ParameterEstimator",
    "TrainingSummary",
    "label_sequence_from_stages",
    "train_from_incidents",
    # detectors
    "Detector",
    "AttackTagger",
    "Detection",
    "EntityTrack",
    "PatternSpec",
    "WeightedPattern",
    "RuleBasedDetector",
    "Rule",
    "RuleKind",
    "default_ruleset",
    "CriticalAlertDetector",
    "NaiveBayesDetector",
    "NaiveBayesParameters",
    # preemption & evaluation
    "PreemptionOutcome",
    "PreemptionResult",
    "DamageBoundary",
    "find_damage_boundary",
    "evaluate_preemption",
    "preemptable_window",
    "summarize_outcomes",
    "EvaluationExample",
    "EvaluationReport",
    "ConfusionCounts",
    "evaluate_detector",
    "window_sweep",
    "compare_detectors",
]
