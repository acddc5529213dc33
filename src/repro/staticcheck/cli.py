"""``python -m repro.staticcheck`` — the CI gate and triage tool.

Scans the given trees (default ``src``), prints every active finding
and exits 1 if there is any.  A finding is accepted only by fixing it
or by an inline ``# staticcheck: disable=RULE -- reason`` next to the
code; there is no ledger of accepted findings.

Output is ``--format text`` (human, one ``path:line:col`` per finding)
or ``--format json`` (machine: findings + stats).  ``--stats`` appends
the coverage block — findings per rule, suppression usage, files
scanned — so the CI log shows at a glance what the gate actually
checked.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional, Sequence

from .registry import all_rules
from .runner import META_RULES, ScanResult, scan_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST invariant checker: determinism, pickle-safety, "
        "asyncio discipline, shard boundaries, semiring hygiene.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--rules",
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print per-rule/suppression coverage stats"
    )
    return parser


def _selected_rules(spec: str):
    rules = all_rules()
    if not spec:
        return rules
    wanted = {item.strip() for item in spec.split(",") if item.strip()}
    by_id = {rule.id: rule for rule in rules}
    unknown = wanted - set(by_id)
    if unknown:
        raise SystemExit(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [by_id[rule_id] for rule_id in sorted(wanted)]


def _print_catalogue() -> None:
    print("staticcheck rule catalogue:")
    for rule in all_rules():
        scope = ", ".join(rule.paths) if rule.paths else "all files"
        print(f"  {rule.id:<22} [{rule.severity}] ({scope})")
        print(f"      {rule.description}")
    for meta_id, description in sorted(META_RULES.items()):
        print(f"  {meta_id:<22} [meta]")
        print(f"      {description}")


def _text_report(result: ScanResult, stats: bool) -> None:
    for finding in result.findings:
        print(
            f"{finding.location}: {finding.rule} [{finding.severity}] "
            f"{finding.message}"
        )
    if stats:
        _print_stats(result)
    if result.findings:
        print(f"FAIL: {len(result.findings)} active finding(s)")
    else:
        print(f"OK: no active findings ({result.files_scanned} files scanned)")


def _print_stats(result: ScanResult) -> None:
    payload = result.stats()
    print("-- stats --")
    print(f"files scanned:        {payload['files_scanned']}")
    print(f"active findings:      {payload['findings_active']}")
    print(f"suppressed findings:  {payload['findings_suppressed']}")
    for rule_id, counts in sorted(payload["per_rule"].items()):
        print(
            f"  {rule_id:<22} active={counts['active']} "
            f"suppressed={counts['suppressed']}"
        )
    sup = payload["suppressions"]
    print(
        f"suppressions:         used={sup['used']} unused={sup['unused']} "
        f"bare={sup['bare']}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalogue()
        return 0
    rules = _selected_rules(args.rules)
    result = scan_paths(args.paths, rules=rules, root=os.getcwd())
    if args.output_format == "json":
        payload = {
            "findings": [f.to_dict() for f in result.findings],
            "stats": result.stats(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _text_report(result, args.stats)
    return 1 if result.findings else 0
