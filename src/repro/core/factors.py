"""Domain factors for the preemption model.

Three families of factors make up the ATTACKTAGGER-style model the
paper deploys on the testbed:

* **Observation factors** relate each observed symbolic alert to the
  hidden state of the entity at that point in time: the conditional
  probability of seeing a given alert type while the entity is benign,
  suspicious, or malicious.  These encode the paper's Remark 2 -- a
  decision must weigh the probability of an alert occurring in a
  successful attack against its probability under normal operation
  (mass scans have a huge false-positive rate; privilege escalation is
  conclusive but too late).
* **Transition factors** couple consecutive hidden states, encoding
  that entities do not oscillate arbitrarily between benign and
  malicious behaviour and that compromise tends to persist.
* **Pattern factors** reward state trajectories that are consistent
  with recurring alert sequences mined from past incidents (the S1..S43
  catalogue) -- the mechanism by which "present-day attacks are similar
  to past attacks" becomes usable evidence before damage occurs.

The learned numeric content of these factors lives in
:class:`FactorParameters`; estimation from a labelled corpus is in
:mod:`repro.core.training`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .alerts import AlertVocabulary, DEFAULT_VOCABULARY
from .states import NUM_STATES, STAGE_STATE_PRIOR

#: Floor applied to probabilities before taking logarithms.
PROBABILITY_FLOOR = 1e-6


@dataclasses.dataclass
class FactorParameters:
    """Numeric parameters of the observation/transition/pattern factors.

    Attributes
    ----------
    vocabulary:
        The alert vocabulary the observation table is indexed by.
    observation_log:
        Array of shape ``(len(vocabulary), NUM_STATES)`` holding
        ``log P(alert | state)``.
    transition_log:
        Array of shape ``(NUM_STATES, NUM_STATES)`` holding
        ``log P(state_t+1 | state_t)``.
    initial_log:
        Length-``NUM_STATES`` log prior over the first hidden state.
    pattern_weights:
        Mapping from pattern name to a positive weight; a fully matched
        pattern adds ``weight`` to the log score of trajectories that
        end in the malicious state, a partially matched pattern adds a
        prorated share (see :meth:`pattern_bonus`).
    """

    vocabulary: AlertVocabulary
    observation_log: np.ndarray
    transition_log: np.ndarray
    initial_log: np.ndarray
    pattern_weights: dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        expected_obs = (len(self.vocabulary), NUM_STATES)
        if self.observation_log.shape != expected_obs:
            raise ValueError(
                f"observation_log shape {self.observation_log.shape} != {expected_obs}"
            )
        if self.transition_log.shape != (NUM_STATES, NUM_STATES):
            raise ValueError("transition_log must be (NUM_STATES, NUM_STATES)")
        if self.initial_log.shape != (NUM_STATES,):
            raise ValueError("initial_log must have length NUM_STATES")

    # -- lookups ---------------------------------------------------------
    def observation_row(self, alert_name: str) -> np.ndarray:
        """``log P(alert | state)`` for each state, for one alert type.

        Unknown alert types (never registered in the vocabulary used at
        training time) fall back to a stage-based prior so the detector
        degrades gracefully when new Zeek policies introduce new alert
        names -- exactly the adaptation loop the paper describes after
        the ransomware case study.
        """
        if alert_name in self.vocabulary:
            return self.observation_log[self.vocabulary.index_of(alert_name)]
        return default_observation_row()

    def pattern_bonus(self, matched: int, length: int, weight: float) -> float:
        """Log-score bonus for a pattern with ``matched`` of ``length`` alerts seen.

        A full match earns the full weight; a partial match earns a
        quadratically prorated share, so one shared foothold alert (very
        common across attacks, per Insight 1) contributes little while
        three-out-of-four matched alerts contribute most of the weight.
        """
        if length <= 0 or matched <= 0:
            return 0.0
        fraction = min(1.0, matched / length)
        return float(weight * fraction * fraction)

    def copy(self) -> "FactorParameters":
        """Deep copy (used by ablation studies that zero out factor families)."""
        return FactorParameters(
            vocabulary=self.vocabulary,
            observation_log=self.observation_log.copy(),
            transition_log=self.transition_log.copy(),
            initial_log=self.initial_log.copy(),
            pattern_weights=dict(self.pattern_weights),
        )

    # -- ablation helpers ----------------------------------------------------
    def without_transitions(self) -> "FactorParameters":
        """Parameters with the Markov coupling removed (uniform transitions)."""
        ablated = self.copy()
        ablated.transition_log = np.zeros((NUM_STATES, NUM_STATES))
        return ablated

    def without_patterns(self) -> "FactorParameters":
        """Parameters with all pattern factors removed."""
        ablated = self.copy()
        ablated.pattern_weights = {}
        return ablated

    def without_observations(self) -> "FactorParameters":
        """Parameters with uninformative observation factors (ablation only)."""
        ablated = self.copy()
        ablated.observation_log = np.zeros_like(self.observation_log)
        return ablated


def default_observation_row() -> np.ndarray:
    """Uninformative observation row used for out-of-vocabulary alerts."""
    return np.log(np.full(NUM_STATES, 1.0 / NUM_STATES))


def default_parameters(vocabulary: Optional[AlertVocabulary] = None) -> FactorParameters:
    """Untrained, prior-only parameters.

    Observation rows are seeded from each alert type's lifecycle stage
    via :data:`repro.core.states.STAGE_STATE_PRIOR`: an alert whose
    stage maps to the malicious state gets most of its probability mass
    there, and so on.  Transitions favour persistence (an entity that
    turned malicious stays malicious).  These priors are what an
    operator would configure on day one, before any incident corpus is
    available; :mod:`repro.core.training` sharpens them from data.
    """
    vocab = vocabulary or DEFAULT_VOCABULARY
    observation = np.zeros((len(vocab), NUM_STATES), dtype=np.float64)
    for spec in vocab:
        row = np.full(NUM_STATES, 0.15, dtype=np.float64)
        prior_state = STAGE_STATE_PRIOR[spec.stage]
        row[int(prior_state)] = 0.7
        if spec.critical:
            # Critical alerts are conclusive evidence of compromise.
            row = np.array([0.02, 0.08, 0.90])
        observation[vocab.index_of(spec.name)] = row / row.sum()

    transition = np.array(
        [
            # from BENIGN       SUSPICIOUS  MALICIOUS
            [0.90, 0.09, 0.01],   # BENIGN ->
            [0.25, 0.60, 0.15],   # SUSPICIOUS ->
            [0.02, 0.08, 0.90],   # MALICIOUS ->
        ]
    )
    initial = np.array([0.90, 0.09, 0.01])

    return FactorParameters(
        vocabulary=vocab,
        observation_log=np.log(np.maximum(observation, PROBABILITY_FLOOR)),
        transition_log=np.log(np.maximum(transition, PROBABILITY_FLOOR)),
        initial_log=np.log(np.maximum(initial, PROBABILITY_FLOOR)),
        pattern_weights={},
    )


def observation_log_for_sequence(
    parameters: FactorParameters, names: Sequence[str]
) -> np.ndarray:
    """Stack observation rows for an alert-name sequence: shape ``(T, K)``."""
    if not names:
        return np.zeros((0, NUM_STATES), dtype=np.float64)
    return np.vstack([parameters.observation_row(name) for name in names])


__all__ = [
    "PROBABILITY_FLOOR",
    "FactorParameters",
    "default_parameters",
    "default_observation_row",
    "observation_log_for_sequence",
]
