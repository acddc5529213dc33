"""``repro.staticcheck`` — AST invariant checker for this repository.

The dynamic guarantees (bit-identical detections across the differential
matrix, byte-identical checkpoints, ack-order-equals-stream-order) are
enforced at CI time by fuzz campaigns; this package is the static
complement: project-specific rules that reject invariant-breaking code
before it runs.  See the README "Static analysis" section for the rule
catalogue and the suppression syntax
(``# staticcheck: disable=RULE -- reason``), the one way to accept a
finding.
"""

from .findings import Finding
from .registry import Rule, all_rules, get_rule, register
from .runner import ScanResult, scan_paths, scan_source
from .suppressions import Suppression, SuppressionIndex, parse_suppressions
from .walker import FunctionInfo, ModuleModel

__all__ = [
    "Finding",
    "FunctionInfo",
    "ModuleModel",
    "Rule",
    "ScanResult",
    "Suppression",
    "SuppressionIndex",
    "all_rules",
    "get_rule",
    "parse_suppressions",
    "register",
    "scan_paths",
    "scan_source",
]
