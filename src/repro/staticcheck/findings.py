"""Finding records emitted by staticcheck rules.

A :class:`Finding` pins one invariant violation to a ``file:line``
location.  There is no ledger of accepted findings: a finding is either
fixed or suppressed inline with ``# staticcheck: disable=RULE --
reason``, next to the code it excuses.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

#: Severity levels, most severe first.  ``error`` findings are
#: invariant violations; ``warning`` findings are discipline smells.
SEVERITIES: Tuple[str, ...] = ("error", "warning")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    severity: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    #: Dotted enclosing symbol (``Class.method`` or function name),
    #: empty at module level.
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
