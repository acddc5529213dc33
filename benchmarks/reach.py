"""Which functions under ``src/repro`` does any testbed entry point start?

Runs every non-test entry point of the repository -- the four examples,
the eleven figure/table/insight benches, both bench scripts in
``--check`` mode, staticcheck, the service's ``--smoke``, the fuzz,
chaos and service-leg CLIs, and the five e2e workloads traced and
untraced -- under a call hook, then runs tier-1 under the same hook.
It prints one row per module -- every module, reached or not, so the
rows of two runs compare -- with its definitions, those no entry point
starts (and their lines), and the part of those that tier-1 does not
start either, followed by one row per unreached function.

The hook is a ``sitecustomize.py`` written to a temporary directory
that leads ``PYTHONPATH``, so it is loaded by every interpreter the
runs start: the service subprocess, spawned and forked shard workers.
It installs ``sys.setprofile`` and ``threading.setprofile`` and appends
each first-seen function under ``src/repro`` to a per-pid file,
flushed per line, so a worker that leaves through ``os._exit`` is still
counted.  Exit codes of the runs are printed but not judged: tracing
slows every run, so a timing gate may fail under it.

    python benchmarks/reach.py     # ~10 min on 2 cores

Nothing in ``src/`` or ``tests/`` imports this script.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

FIGURE_BENCHES = [
    "benchmarks/bench_fig1_graph.py",
    "benchmarks/bench_fig2_daily_alerts.py",
    "benchmarks/bench_fig3a_similarity.py",
    "benchmarks/bench_fig3b_lcs.py",
    "benchmarks/bench_fig4_pipeline.py",
    "benchmarks/bench_fig5_ransomware.py",
    "benchmarks/bench_table1_dataset.py",
    "benchmarks/bench_insight_criticality.py",
    "benchmarks/bench_insight_effective_range.py",
    "benchmarks/bench_model_comparison.py",
    "benchmarks/bench_ablation_factors.py",
]
E2E_WORKLOADS = [
    "steady_alerts", "raw_scan_flood", "paced_latency", "sharded_replay", "entity_churn",
]

PY = sys.executable
ENTRY_POINTS = [
    *([PY, f"examples/{name}.py"] for name in (
        "quickstart", "ransomware_case_study", "vulnerability_reproduction",
        "attack_graph_visualization",
    )),
    [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
     *FIGURE_BENCHES],
    [PY, "benchmarks/bench_streaming_throughput.py", "--check"],
    [PY, "benchmarks/bench_checkpoint.py", "--check"],
    [PY, "-m", "repro.staticcheck", "--stats"],
    [PY, "-m", "repro.service", "--smoke"],
    [PY, "-m", "repro.fuzz", "--campaigns", "25", "--base-seed", "0", "--matrix", "full",
     "--no-write"],
    [PY, "-m", "repro.fuzz", "--chaos", "--campaigns", "25", "--base-seed", "0",
     "--target-alerts", "120"],
    [PY, "-m", "repro.fuzz", "--chaos", "--service-legs", "--campaigns", "5",
     "--base-seed", "0", "--target-alerts", "120"],
    *([PY, "benchmarks/e2e/run.py", "--workload", workload, "--seconds", "3",
       "--trace", trace]
      for workload in E2E_WORKLOADS for trace in ("0", "1")),
]
TIER1 = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]

HOOK = '''\
import os
import sys
import threading

_PACKAGE = {package!r}
_OUT = {out!r}
_seen = set()
_sink = [None, None]  # (pid, file): a forked child opens its own file


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if not code.co_filename.startswith(_PACKAGE):
        return
    # Keyed by place, not by code object: equal code objects from two
    # files compare equal.
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen:
        return
    _seen.add(key)
    pid = os.getpid()
    if _sink[0] != pid:
        _sink[0] = pid
        _sink[1] = open(os.path.join(_OUT, f"{{pid}}.txt"), "a", buffering=1)
    _sink[1].write(f"{{key[0]}}\\t{{key[1]}}\\n")


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def definitions() -> dict[tuple[str, int], tuple[str, str, int, tuple[str, int] | None]]:
    """``(file, first line) -> (module, qualname, lines, enclosing def key)``.

    The first line is what ``co_firstlineno`` reports: the first
    decorator's line for a decorated function.
    """
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    key = (str(path), first)
                    found[key] = (module, prefix + child.name,
                                  child.end_lineno - first + 1, enclosing)
                    visit(child, f"{prefix}{child.name}.<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", enclosing)
                else:
                    visit(child, prefix, enclosing)

        visit(tree, "", None)
    return found


def run_all(commands: list[list[str]], hook_dir: Path, out_dir: Path) -> set[tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src")])
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(package=str(PACKAGE) + os.sep, out=str(out_dir))
    )
    for command in commands:
        started = time.perf_counter()
        code = subprocess.call(command, cwd=ROOT, env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shown = " ".join(command[1:])
        print(f"  exit {code:3d}  {time.perf_counter() - started:6.1f} s  {shown}",
              file=sys.stderr, flush=True)
    reached = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, first = line.split("\t")
            reached.add((filename, int(first)))
    return reached


def main() -> int:
    defs = definitions()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        dirs = {name: scratch / name for name in ("hook", "entry", "tier1")}
        for path in dirs.values():
            path.mkdir()
        print("entry points:", file=sys.stderr)
        production = run_all(ENTRY_POINTS, dirs["hook"], dirs["entry"])
        print("tier-1:", file=sys.stderr)
        tested = run_all([TIER1], dirs["hook"], dirs["tier1"])

    unreached = {key for key in defs if key not in production}
    per_module = defaultdict(lambda: [0, 0, 0, 0, 0])
    for key, (module, _name, lines, enclosing) in defs.items():
        row = per_module[module]
        row[0] += 1
        if key not in unreached:
            continue
        # A nested def's lines are already inside an unreached parent's span.
        counted = 0 if enclosing in unreached else lines
        row[1] += 1
        row[2] += counted
        if key not in tested:
            row[3] += 1
            row[4] += counted

    print(f"{'module':40s} {'defs':>5s} {'unreached':>9s} {'lines':>6s} "
          f"{'no caller':>9s} {'lines':>6s}")
    totals = [0, 0, 0, 0, 0]
    for module in sorted(per_module):
        row = per_module[module]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{module:40s} {row[0]:5d} {row[1]:9d} {row[2]:6d} {row[3]:9d} {row[4]:6d}")
    print(f"{'total':40s} {totals[0]:5d} {totals[1]:9d} {totals[2]:6d} "
          f"{totals[3]:9d} {totals[4]:6d}")
    print()
    print("unreached by every entry point ('-' = tier-1 does not start it either):")
    for key in sorted(unreached, key=lambda k: (defs[k][0], k[1])):
        module, name, lines, _enclosing = defs[key]
        mark = " " if key in tested else "-"
        print(f"  {mark} {module}:{key[1]}  {name}  ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
