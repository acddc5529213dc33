"""File discovery, per-module rule execution, suppression accounting.

One :func:`scan_paths` call walks the requested trees, parses each
``.py`` once into a :class:`~repro.staticcheck.walker.ModuleModel`,
runs every applicable rule over it, and splits the raw findings into
*active* (reported) and *suppressed* (matched by a justified inline
suppression).  Two meta findings keep the suppression mechanism itself
honest:

- ``suppression-hygiene`` — a ``disable=`` comment without a
  ``-- reason`` tail (bare suppressions do not suppress);
- ``parse-error`` — a file the checker cannot parse is a finding, not
  a silent skip: unparseable code is unchecked code.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Sequence

from .findings import Finding
from .registry import Rule, all_rules
from .suppressions import SuppressionIndex
from .walker import ModuleModel

#: Rules emitted by the runner itself rather than the registry.
META_RULES = {
    "suppression-hygiene": "suppressions must carry a `-- reason` justification",
    "parse-error": "files the checker cannot parse are unchecked code",
}

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclasses.dataclass
class ScanResult:
    """Everything one scan learned."""

    findings: List[Finding]  # active (unsuppressed), source order
    suppressed: List[Finding]  # matched by a justified suppression
    files_scanned: int
    suppressions_used: int
    suppressions_unused: int
    suppressions_bare: int

    def per_rule(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for finding in self.findings:
            out.setdefault(finding.rule, {"active": 0, "suppressed": 0})["active"] += 1
        for finding in self.suppressed:
            out.setdefault(finding.rule, {"active": 0, "suppressed": 0})[
                "suppressed"
            ] += 1
        return out

    def stats(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "findings_active": len(self.findings),
            "findings_suppressed": len(self.suppressed),
            "per_rule": self.per_rule(),
            "suppressions": {
                "used": self.suppressions_used,
                "unused": self.suppressions_unused,
                "bare": self.suppressions_bare,
            },
        }


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _relpath(path: str, root: Optional[str]) -> str:
    if root:
        try:
            rel = os.path.relpath(path, root)
            if not rel.startswith(".."):
                path = rel
        except ValueError:
            pass
    return path.replace(os.sep, "/")


def scan_source(
    relpath: str,
    source: str,
    rules: Optional[Sequence[Rule]] = None,
) -> ScanResult:
    """Scan one in-memory module (the fixture suite's entry point)."""
    return _scan_modules([(relpath, source)], rules)


def scan_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> ScanResult:
    modules: List[tuple] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        modules.append((_relpath(path, root), source))
    return _scan_modules(modules, rules)


def _scan_modules(
    modules: Sequence[tuple],
    rules: Optional[Sequence[Rule]],
) -> ScanResult:
    active_rules = list(rules) if rules is not None else all_rules()
    active: List[Finding] = []
    suppressed: List[Finding] = []
    used = unused = bare = 0
    for relpath, source in modules:
        try:
            module = ModuleModel.parse(relpath, source)
        except SyntaxError as exc:
            active.append(
                Finding(
                    rule="parse-error",
                    severity="error",
                    path=relpath,
                    line=int(exc.lineno or 0),
                    col=int(exc.offset or 0),
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        index = SuppressionIndex.for_source(source)
        raw: List[Finding] = []
        for rule in active_rules:
            if not rule.applies_to(relpath):
                continue
            raw.extend(rule.check(module))
        for finding in sorted(raw, key=Finding.sort_key):
            if index.suppresses(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                active.append(finding)
        for item in index.bare:
            bare += 1
            active.append(
                Finding(
                    rule="suppression-hygiene",
                    severity="warning",
                    path=relpath,
                    line=item.comment_line,
                    col=0,
                    message=(
                        "suppression without a `-- reason` justification "
                        "has no effect; add the reason"
                    ),
                )
            )
        used += len([s for s in index.suppressions if s.used])
        unused += len(index.unused)
    active.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return ScanResult(
        findings=active,
        suppressed=suppressed,
        files_scanned=len(modules),
        suppressions_used=used,
        suppressions_unused=unused,
        suppressions_bare=bare,
    )
