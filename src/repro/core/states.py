"""Hidden attack states and attack-lifecycle stages.

The preemption model in the paper (an ATTACKTAGGER-style factor graph)
infers a *hidden state* for each monitored entity (a user account or a
host) from the sequence of symbolic alerts attributed to that entity.
The hidden state space follows the original AttackTagger formulation:

* ``BENIGN``     -- the entity behaves like a legitimate user.
* ``SUSPICIOUS`` -- the entity has raised alerts consistent with the
  early phase of past attacks (for instance the download of a source
  file over plain HTTP), but no conclusive evidence exists yet.
* ``MALICIOUS``  -- the accumulated evidence matches a successful
  attack; the testbed's response path (Black Hole Router, operator
  notification) is triggered at the first transition into this state.

Separately, every alert is tagged with the *attack stage* it typically
belongs to.  Stages follow the lifecycle the paper describes for HPC
intrusions: reconnaissance, gaining a foothold, privilege escalation /
installation, persistence, lateral movement, command-and-control, and
finally actions-on-objective (exfiltration, encryption, trace wiping).
Stages are attributes of the *vocabulary*; hidden states are what the
model infers.
"""

from __future__ import annotations

import enum


class HiddenState(enum.IntEnum):
    """Hidden per-entity state inferred by the preemption model."""

    BENIGN = 0
    SUSPICIOUS = 1
    MALICIOUS = 2

    @classmethod
    def domain(cls) -> tuple["HiddenState", ...]:
        """The full, ordered state domain used by inference routines."""
        return (cls.BENIGN, cls.SUSPICIOUS, cls.MALICIOUS)


#: Number of hidden states; used to size factor tables.
NUM_STATES: int = len(HiddenState.domain())


class AttackStage(enum.IntEnum):
    """Lifecycle stage an alert type is typically associated with.

    The ordering is meaningful: later stages indicate a more mature
    attack.  The paper's Insight 2 observes that alerts from stages at
    or beyond :attr:`ACTIONS` usually arrive after irreversible damage,
    which is why critical alerts cannot be used for preemption.
    """

    BACKGROUND = 0      # normal operational activity
    RECONNAISSANCE = 1  # scans, probes, service-version queries
    FOOTHOLD = 2        # initial access: logins, exploits, default creds
    ESCALATION = 3      # privilege escalation, installation of tooling
    PERSISTENCE = 4     # backdoors, added keys, cron implants
    LATERAL = 5         # movement to other hosts
    COMMAND_CONTROL = 6 # beaconing to external C2 infrastructure
    ACTIONS = 7         # exfiltration, encryption, trace wiping

    @property
    def is_damage(self) -> bool:
        """Stages at which system integrity is already compromised."""
        return self >= AttackStage.ACTIONS


# Prior association between lifecycle stages and hidden states.  These
# are *not* model parameters (those are learned in ``core.training``);
# they seed the observation factors with a sensible default when an
# alert type was never seen in the training corpus.
STAGE_STATE_PRIOR: dict[AttackStage, HiddenState] = {
    AttackStage.BACKGROUND: HiddenState.BENIGN,
    AttackStage.RECONNAISSANCE: HiddenState.SUSPICIOUS,
    AttackStage.FOOTHOLD: HiddenState.SUSPICIOUS,
    AttackStage.ESCALATION: HiddenState.MALICIOUS,
    AttackStage.PERSISTENCE: HiddenState.MALICIOUS,
    AttackStage.LATERAL: HiddenState.MALICIOUS,
    AttackStage.COMMAND_CONTROL: HiddenState.MALICIOUS,
    AttackStage.ACTIONS: HiddenState.MALICIOUS,
}


__all__ = [
    "HiddenState",
    "AttackStage",
    "NUM_STATES",
    "STAGE_STATE_PRIOR",
]
