"""Streaming-engine throughput: alerts/sec, incremental vs seed re-decode.

The tentpole claim of the incremental inference engine is that one new
alert costs O(K^2 + pattern advances) instead of a full O(T * K^2)
chain re-decode plus O(P * T * L) pattern rescans.  This benchmark
measures it directly: a single-entity alert stream is pushed through
``AttackTagger.observe`` with the streaming engine at 1k/10k/100k
alerts, and through the seed path (``engine="naive"``) on a bounded
prefix (the seed path is quadratic in stream length -- running it on
the full 10k stream would take tens of minutes, which is precisely the
point).  Because the seed engine's alerts/sec only *drops* as the
stream grows, comparing the streaming rate at 10k alerts against the
seed rate on a shorter prefix understates the true speedup.

Those rows all reuse one long-lived entity.  The ``churn`` rows measure
the other regime the testbed lives in: a fresh entity every 2 alerts
(scanner sources, one-off logins), where *opening* a per-entity decoder
is the cost, through per-alert ``observe()`` and through
``observe_batch`` sub-batches (the stacked kernel).

The ``steady`` rows are the steady state of a long-lived population:
256 round-robin entities whose W = 32 windows are all sliding
(operational noise only; flip phases spread evenly, so a round of N
entities holds about N / W flips), through per-alert ``observe()`` --
the N = 1 scalar path -- and through ``observe_batch`` at round sizes
32 and 256.

Run as a script to (re)record ``BENCH_streaming.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_streaming_throughput.py

CI runs the quick regression gate, which re-measures the streaming
rate on a short stream, both churn rates and the three steady rates,
and fails if any regressed more than 2x against the committed baseline::

    PYTHONPATH=src python benchmarks/bench_streaming_throughput.py --check

The pytest entry point keeps a fast smoke version of the same
comparison inside the tier-1 suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_streaming.json"

if __name__ == "__main__":  # pragma: no cover - script mode import path
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import AttackTagger
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.states import AttackStage
from repro.incidents import DEFAULT_CATALOGUE

#: Alert names that keep the entity undetected, so `observe` never
#: short-circuits on `track.detected` and every alert pays full
#: inference cost (the worst case the engine must sustain).
BENIGN_NAMES = [
    spec.name
    for spec in DEFAULT_VOCABULARY
    if spec.stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE)
]


def build_stream(length: int, *, seed: int = 7, entity: str = "host:bench") -> list[Alert]:
    """Single-entity benign-heavy stream (pattern cursors still advance)."""
    rng = np.random.default_rng(seed)
    names = [BENIGN_NAMES[i] for i in rng.integers(0, len(BENIGN_NAMES), size=length)]
    return [Alert(float(i), name, entity) for i, name in enumerate(names)]


def measure_alerts_per_second(
    stream: list[Alert], *, engine: str, max_window: int
) -> tuple[float, int]:
    """Feed a stream through a fresh tagger; return (alerts/sec, detections)."""
    tagger = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE), max_window=max_window, engine=engine
    )
    started = time.perf_counter()
    for alert in stream:
        tagger.observe(alert)
    elapsed = time.perf_counter() - started
    return len(stream) / elapsed, len(tagger.detections)


#: Alerts per ``observe_batch`` call in the churn rows (the service's
#: and ``benchmarks/e2e``'s batch size): 128 new entities per sub-batch.
CHURN_BATCH = 256


def build_churn_stream(entities: int, *, seed: int = 7) -> list[Alert]:
    """Every entity sends 2 benign alerts inside one sub-batch, then never returns."""
    rng = np.random.default_rng(seed)
    per_batch = CHURN_BATCH // 2
    stream: list[Alert] = []
    for base in range(0, entities, per_batch):
        members = range(base, min(base + per_batch, entities))
        for _visit in range(2):
            for index in members:
                name = BENIGN_NAMES[rng.integers(len(BENIGN_NAMES))]
                stream.append(Alert(float(len(stream)), name, f"user:churn-{index}"))
    return stream


def measure_churn_rates(entities: int) -> dict[str, float]:
    """Churn alerts/sec through per-alert ``observe`` and through ``observe_batch``."""
    stream = build_churn_stream(entities)
    rates = {}
    for path in ("observe", "observe_batch"):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=64)
        started = time.perf_counter()
        if path == "observe":
            for alert in stream:
                tagger.observe(alert)
        else:
            for base in range(0, len(stream), CHURN_BATCH):
                tagger.observe_batch(stream[base : base + CHURN_BATCH])
        elapsed = time.perf_counter() - started
        assert not tagger.detections, "benchmark stream must stay undetected"
        assert len(tagger.entities()) == entities
        rates[path] = len(stream) / elapsed
    return rates


#: The steady rows: entities, sliding-window length, and the
#: ``observe_batch`` round sizes measured next to per-alert ``observe()``.
STEADY_ENTITIES = 256
STEADY_WINDOW = 32
STEADY_ROUND_SIZES = (32, 256)

#: Operational noise only (the benign entities of ``benchmarks/e2e``'s
#: ``steady_alerts``): no pattern cursor advances, so the rows time the
#: window arithmetic and not bonus relocation.
STEADY_NAMES = list(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))


def measure_steady_rates(rounds: int, *, seed: int = 7) -> dict[str, float]:
    """Sliding-window alerts/sec over ``rounds`` round-robin passes of the population.

    Entity ``e`` is warmed (untimed) with ``W + e % W`` alerts, so every
    window slides from the first timed alert on and the two-stack flips
    fall evenly across the rounds instead of all in the same one.
    """
    rng = np.random.default_rng(seed)

    def alert(entity: int) -> Alert:
        name = STEADY_NAMES[rng.integers(len(STEADY_NAMES))]
        return Alert(0.0, name, f"host:steady-{entity}")

    warm_up = [
        alert(entity)
        for entity in range(STEADY_ENTITIES)
        for _ in range(STEADY_WINDOW + entity % STEADY_WINDOW)
    ]
    stream = [alert(entity) for _ in range(rounds) for entity in range(STEADY_ENTITIES)]
    rates = {}
    for size in (None, *STEADY_ROUND_SIZES):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=STEADY_WINDOW)
        tagger.observe_batch(warm_up)
        started = time.perf_counter()
        if size is None:
            for item in stream:
                tagger.observe(item)
        else:
            for base in range(0, len(stream), size):
                tagger.observe_batch(stream[base : base + size])
        elapsed = time.perf_counter() - started
        assert not tagger.detections, "benchmark stream must stay undetected"
        rates["observe" if size is None else f"observe_batch_{size}"] = len(stream) / elapsed
    return rates


def host_fingerprint() -> dict:
    """Where a recorded file's numbers came from."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()

    try:
        # "+dirty": measured on uncommitted changes on top of that commit.
        commit = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


def run_benchmark(
    *,
    streaming_sizes: tuple[int, ...] = (1_000, 10_000, 100_000),
    baseline_alerts: int = 600,
    windowed_alerts: int = 2_000,
    churn_entities: int = 20_000,
    steady_rounds: int = 80,
) -> dict:
    """Full measurement set behind ``BENCH_streaming.json``."""
    results: dict = {
        "benchmark": "streaming_throughput",
        "units": "alerts_per_second",
        "host": host_fingerprint(),
        "notes": (
            "Unbounded-window runs measure the O(T^2)->O(T) scaling claim; "
            "the seed baseline is measured on a short prefix because its "
            "cost is quadratic (its rate at 10k alerts would be far lower, "
            "so the recorded speedup is an underestimate)."
        ),
        "streaming": {},
        "windowed": {},
    }
    for size in streaming_sizes:
        stream = build_stream(size)
        rate, detections = measure_alerts_per_second(
            stream, engine="streaming", max_window=size + 1
        )
        assert detections == 0, "benchmark stream must stay undetected"
        results["streaming"][str(size)] = round(rate, 1)
    baseline_stream = build_stream(baseline_alerts)
    naive_rate, _ = measure_alerts_per_second(
        baseline_stream, engine="naive", max_window=baseline_alerts + 1
    )
    results["naive_baseline"] = {
        "alerts": baseline_alerts,
        "alerts_per_second": round(naive_rate, 1),
    }
    results["speedup_10k_vs_naive"] = round(
        results["streaming"]["10000"] / naive_rate, 1
    )
    results["calibration"] = {
        "alerts": CALIBRATION_ALERTS,
        "naive_alerts_per_second": round(measure_calibration_rate(), 1),
    }
    # Steady-state with the production default window (64): the seed path
    # re-decodes the full window per alert, the streaming path only pays
    # the amortised two-stack eviction.
    windowed_stream = build_stream(windowed_alerts)
    for engine in ("streaming", "naive"):
        rate, _ = measure_alerts_per_second(windowed_stream, engine=engine, max_window=64)
        results["windowed"][engine] = round(rate, 1)
    results["windowed"]["alerts"] = windowed_alerts
    results["churn"] = {
        "entities": churn_entities,
        "alerts_per_entity": 2,
        "batch_size": CHURN_BATCH,
        **{
            path: round(rate, 1)
            for path, rate in measure_churn_rates(churn_entities).items()
        },
    }
    results["steady"] = {
        "entities": STEADY_ENTITIES,
        "max_window": STEADY_WINDOW,
        "alerts": steady_rounds * STEADY_ENTITIES,
        **{
            path: round(rate, 1)
            for path, rate in measure_steady_rates(steady_rounds).items()
        },
    }
    return results


#: Short naive-engine run used to calibrate how fast the current host is
#: relative to the machine that recorded the committed baseline.  The
#: naive path is pure seed code that this optimisation never touches, so
#: its rate moves with the hardware, not with the change under test.
CALIBRATION_ALERTS = 150


def measure_calibration_rate() -> float:
    """Naive-engine alerts/sec on the fixed calibration stream."""
    stream = build_stream(CALIBRATION_ALERTS)
    rate, _ = measure_alerts_per_second(
        stream, engine="naive", max_window=CALIBRATION_ALERTS + 1
    )
    return rate


def quick_streaming_rate(size: int = 2_000) -> float:
    """Cheap streaming-only measurement used by the CI regression gate."""
    stream = build_stream(size)
    # Warm-up pass absorbs import/JIT-ish first-touch costs.
    measure_alerts_per_second(stream[:200], engine="streaming", max_window=size + 1)
    rate, _ = measure_alerts_per_second(stream, engine="streaming", max_window=size + 1)
    return rate


#: Entities in the quick churn measurement of the CI regression gate,
#: and round-robin passes in its quick steady measurement.
QUICK_CHURN_ENTITIES = 2_000
QUICK_STEADY_ROUNDS = 8


def check_regression(baseline_path: Path, *, factor: float = 2.0) -> int:
    """Fail (non-zero) if a streaming or churn rate regressed more than ``factor``x.

    The committed baseline was recorded on a different machine, so the
    absolute committed rate is first rescaled by a hardware factor: the
    ratio of the current host's naive-engine calibration rate to the
    committed one.  The gate then compares the measured streaming rate
    against ``scaled_baseline / factor`` -- CI runners that are simply
    slower across the board do not trip it, while a genuine slowdown of
    the streaming engine (which leaves the naive path untouched) does.
    The two churn rows and the three steady rows are gated by the same
    rule.
    """
    if not baseline_path.exists():
        print(f"FAIL: no committed baseline at {baseline_path}; "
              "run this script without --check to record one")
        return 1
    baseline = json.loads(baseline_path.read_text())
    committed_calibration = float(baseline["calibration"]["naive_alerts_per_second"])
    measured_calibration = measure_calibration_rate()
    hardware_factor = measured_calibration / committed_calibration
    print(f"hardware factor (naive calib): {hardware_factor:.2f}x "
          f"({measured_calibration:.0f} / {committed_calibration:.0f} alerts/s)")
    measure_churn_rates(200)  # warm-up, as in quick_streaming_rate
    churn = measure_churn_rates(QUICK_CHURN_ENTITIES)
    rows = [("streaming 10k", float(baseline["streaming"]["10000"]), quick_streaming_rate())]
    rows += [
        (f"churn {path}", float(baseline["churn"][path]), churn[path])
        for path in ("observe", "observe_batch")
    ]
    steady = measure_steady_rates(QUICK_STEADY_ROUNDS)
    rows += [
        (f"steady {path}", float(baseline["steady"][path]), rate)
        for path, rate in steady.items()
    ]
    failed = False
    for label, committed, measured in rows:
        floor = committed * hardware_factor / factor
        ok = measured >= floor
        failed |= not ok
        print(f"{label:<24} committed {committed:>8.0f}  quick {measured:>8.0f}  "
              f"floor ({factor}x, scaled) {floor:>8.0f} alerts/s  {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"FAIL: throughput regressed more than {factor}x vs the "
              "hardware-scaled committed baseline")
        return 1
    print("OK")
    return 0


# -- pytest entry points ------------------------------------------------------

def test_streaming_beats_naive_throughput(benchmark):
    """Smoke version: streaming must beat the seed loop by >= 10x at 500 alerts."""
    stream = build_stream(500)

    def _run():
        rate, _ = measure_alerts_per_second(
            stream, engine="streaming", max_window=len(stream) + 1
        )
        return rate

    streaming_rate = benchmark.pedantic(_run, rounds=3, iterations=1)
    naive_rate, _ = measure_alerts_per_second(
        stream[:150], engine="naive", max_window=len(stream) + 1
    )
    assert streaming_rate >= 10.0 * naive_rate, (
        f"streaming {streaming_rate:.0f} alerts/s vs naive {naive_rate:.0f} alerts/s"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="quick regression gate against the committed BENCH_streaming.json",
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_PATH, help="where to write results"
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_regression(args.output)
    results = run_benchmark()
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
