"""Core preemption models: alerts, sequences, factor graphs, detectors.

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
    CrossValidationResult,
    EvaluationExample,
    EvaluationReport,
    compare_detectors,
    cross_validate,
    evaluate_detector,
    window_sweep,
)
from .factor_graph import (
    Factor,
    FactorGraph,
    Variable,
    chain_map_decode,
    chain_marginals,
    chain_step_matrix,
    logsumexp_matmul,
    logsumexp_vecmat,
    maxplus_matmul,
    maxplus_vecmat,
)
from .sliding_window import SlidingProductWindow
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
    lcs_length,
    lcs_length_matrix,
    longest_common_subsequence,
    matched_prefix_length,
    pairwise_jaccard_matrix,
    similarity_cdf,
    subsequence_positions,
)
from .streaming import PatternCursor, PatternTable, StreamingDecoder, WeightedPattern
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
    "longest_common_subsequence",
    "lcs_length",
    "lcs_length_matrix",
    "is_subsequence",
    "subsequence_positions",
    "matched_prefix_length",
    # factor graph
    "Variable",
    "Factor",
    "FactorGraph",
    "chain_map_decode",
    "chain_marginals",
    "chain_step_matrix",
    "maxplus_matmul",
    "maxplus_vecmat",
    "logsumexp_matmul",
    "logsumexp_vecmat",
    "SlidingProductWindow",
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
    "StreamingDecoder",
    "PatternCursor",
    "PatternTable",
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
    "CrossValidationResult",
    "evaluate_detector",
    "window_sweep",
    "cross_validate",
    "compare_detectors",
]
