"""Attack emulation and replay.

Scripted, deterministic attack scenarios that drive the honeypot and
produce the alert streams the detectors are evaluated on: mass
scanners, stolen-credential chains, lateral movement, and the
PostgreSQL ransomware of the §V case study, plus a replay engine that
compresses and interleaves alert streams and delivers them to a
detector.
"""

from .base import AttackContext, AttackScenario, AttackStep, ScenarioResult
from .credential import GhostAccountScenario, StolenCredentialScenario
from .lateral import (
    InfectionEvent,
    LATERAL_MOVEMENT_SCRIPT,
    LateralMovementEngine,
    LateralMovementResult,
)
from .ransomware import (
    C2_SERVER,
    INITIAL_ATTACKER,
    PAYLOAD_SERVER,
    RansomwareConfig,
    RansomwareScenario,
    SECOND_STAGE_URLS,
    TWELVE_DAYS_SECONDS,
    alerts_to_names,
)
from .replay import ReplayEngine, ReplayEvent, ReplayResult
from .scanner import (
    MassScanEmulator,
    PAPER_FIGURE_SAMPLE,
    PAPER_SCANS_PER_HOUR,
    ScannerProfile,
)

__all__ = [
    "AttackContext",
    "AttackStep",
    "AttackScenario",
    "ScenarioResult",
    "MassScanEmulator",
    "ScannerProfile",
    "PAPER_SCANS_PER_HOUR",
    "PAPER_FIGURE_SAMPLE",
    "StolenCredentialScenario",
    "GhostAccountScenario",
    "LateralMovementEngine",
    "LateralMovementResult",
    "InfectionEvent",
    "LATERAL_MOVEMENT_SCRIPT",
    "RansomwareScenario",
    "RansomwareConfig",
    "alerts_to_names",
    "PAYLOAD_SERVER",
    "C2_SERVER",
    "INITIAL_ATTACKER",
    "SECOND_STAGE_URLS",
    "TWELVE_DAYS_SECONDS",
    "ReplayEngine",
    "ReplayEvent",
    "ReplayResult",
]
