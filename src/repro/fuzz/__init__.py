"""Adversarial campaign fuzzing and the cross-configuration oracle.

The fuzz subsystem converts the repo's central correctness claim --
decode engine, shard count, sharding backend, and pipeline driver never
change a detection -- from an anecdote backed by hand-written suites
into a generative, checked property:

* :mod:`repro.fuzz.campaign` -- :class:`CampaignComposer` assembles
  seeded multi-entity adversarial workloads (concurrent attackers,
  hash-adjacent entity churn, window-saturating bursts, out-of-order /
  duplicate timestamps, near-miss pattern prefixes, mid-stream
  reset/reopen events),
* :mod:`repro.fuzz.oracle` -- the campaign runner (``build_pipeline``
  / ``drive`` / ``snapshot``) every proof replays through, and
  :class:`DifferentialOracle`, which replays each campaign through the
  engine x shards x backend x driver matrix and asserts bit-identical
  detections, responses, and counters,
* :mod:`repro.fuzz.chaos` -- :class:`ChaosOracle`, a table of fault
  rows over the same runner, checking the crash-safety contract,
* :mod:`repro.fuzz.shrinker` -- delta-debugging reduction of failing
  campaigns to minimal repros,
* :mod:`repro.fuzz.regressions` -- the ``tests/regressions/`` replay
  corpus those repros are committed into.

Run ``python -m repro.fuzz --help`` for the command-line harness.
"""

from .campaign import (
    Campaign,
    CampaignComposer,
    CampaignEvent,
    RAW_CAPABLE_NAMES,
    campaign_to_corpus,
)
from .oracle import (
    BACKENDS,
    COMPARED_COUNTERS,
    CampaignVerdict,
    DifferentialOracle,
    Divergence,
    DRIVERS,
    ENGINES,
    OracleConfig,
    REFERENCE_CONFIG,
    ReplayResult,
    SHARD_COUNTS,
    alert_to_zeek_record,
    alerts_to_zeek_records,
    build_pipeline,
    drive,
    full_matrix,
    quick_matrix,
    snapshot,
)
from .chaos import (
    ChaosComposer,
    ChaosFailure,
    ChaosOracle,
    ChaosPoisonDetector,
    ChaosVerdict,
    FAULT_KINDS,
    FaultPlan,
    SERVICE_FAULT_KINDS,
    campaign_batches,
)
from .regressions import (
    DEFAULT_REGRESSIONS_DIR,
    iter_regressions,
    regression_name,
    save_regression,
)
from .shrinker import shrink_campaign, shrink_for_oracle

__all__ = [
    "Campaign",
    "CampaignComposer",
    "CampaignEvent",
    "RAW_CAPABLE_NAMES",
    "campaign_to_corpus",
    "ENGINES",
    "SHARD_COUNTS",
    "BACKENDS",
    "DRIVERS",
    "COMPARED_COUNTERS",
    "OracleConfig",
    "REFERENCE_CONFIG",
    "full_matrix",
    "quick_matrix",
    "alert_to_zeek_record",
    "alerts_to_zeek_records",
    "ReplayResult",
    "build_pipeline",
    "drive",
    "snapshot",
    "Divergence",
    "CampaignVerdict",
    "DifferentialOracle",
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "FaultPlan",
    "ChaosPoisonDetector",
    "ChaosFailure",
    "ChaosVerdict",
    "ChaosComposer",
    "ChaosOracle",
    "campaign_batches",
    "shrink_campaign",
    "shrink_for_oracle",
    "DEFAULT_REGRESSIONS_DIR",
    "regression_name",
    "save_regression",
    "iter_regressions",
]
