"""Sharded detection-stage throughput: serial vs process-sharded pool.

The staged pipeline's detection layer is a
:class:`repro.testbed.sharding.ShardedDetectorPool`: alerts route by
``crc32(entity) % n_shards`` to independent ``AttackTagger`` replicas,
optionally one worker process per shard.  This benchmark measures what
that buys on the detection stage alone (the pipeline's dominant cost):
a multi-entity alert stream heavy enough to include window-eviction
rebuilds is pushed through a 1-shard serial pool (the unsharded
reference) and a 4-shard process pool.

Two throughput numbers are recorded for the process pool:

* ``wall_alerts_per_second`` -- end-to-end wall clock of
  ``observe_batch``.  This is bounded by the *cores available to this
  container*; on a single-core host the workers time-slice and the
  wall speedup is ~1x by construction.
* ``critical_path_alerts_per_second`` -- the stage's throughput once
  one core per shard is available: fan-out/merge overhead (everything
  that is not worker compute: partitioning, pickling both ways,
  merging) plus the *slowest shard's* CPU time.  Workers report their
  observe-loop CPU time (``time.process_time``), so
  ``overhead = wall - sum(busy)`` and
  ``critical_path = overhead + max(busy)``.  This is the Amdahl
  projection of the same run -- conservative, because on a multi-core
  host the per-shard sends/receives overlap with compute instead of
  serialising after it.

The headline ``speedup_4_process_shards_vs_1`` compares the process
pool's critical-path throughput against the serial 1-shard wall
throughput; ``wall_speedup_4_process_shards_vs_1`` is recorded next to
it together with ``cores_available`` so the two regimes are never
conflated.

Run as a script to (re)record ``BENCH_sharding.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_sharded_pipeline.py

CI runs the regression gate, which re-measures a quick version, checks
the sharded pool still produces bit-identical detections, requires the
critical-path speedup to stay >= 1.5x, and fails if serial detection
throughput regressed more than 2x against the committed baseline
(hardware-scaled via a naive-engine calibration run, which this
refactor never touches)::

    PYTHONPATH=src python benchmarks/bench_sharded_pipeline.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_sharding.json"

if __name__ == "__main__":  # pragma: no cover - script mode import path
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import AttackTagger
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.states import AttackStage
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed import ShardedDetectorPool

#: Alert names that keep every entity undetected, so `observe` never
#: short-circuits on `track.detected` and each alert pays full
#: inference cost (the worst case the stage must sustain).
BENIGN_NAMES = [
    spec.name
    for spec in DEFAULT_VOCABULARY
    if spec.stage in (AttackStage.BACKGROUND, AttackStage.RECONNAISSANCE)
]

#: Bench detector window: small enough that each entity's stream slides
#: the window (the expensive rebuild path the production pipeline hits
#: under sustained traffic), so compute dominates fan-out overhead.
MAX_WINDOW = 32


def build_stream(*, n_entities: int, per_entity: int, seed: int = 7) -> list[Alert]:
    """Round-robin multi-entity benign-heavy stream (time-sorted)."""
    rng = np.random.default_rng(seed)
    alerts: list[Alert] = []
    step = 0
    for _ in range(per_entity):
        for index in range(n_entities):
            name = BENIGN_NAMES[int(rng.integers(0, len(BENIGN_NAMES)))]
            alerts.append(Alert(float(step), name, f"host:bench-e{index:04d}"))
            step += 1
    return alerts


def make_pool(n_shards: int, backend: str) -> ShardedDetectorPool:
    """A pool of fresh bench-configured ``AttackTagger`` shards."""
    template = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE), max_window=MAX_WINDOW
    )
    return ShardedDetectorPool.from_template(
        template, n_shards=n_shards, backend=backend
    )


def measure_pool(stream: list[Alert], *, n_shards: int, backend: str) -> dict:
    """Detection-stage-only measurement of one pool configuration."""
    with make_pool(n_shards, backend) as pool:
        started = time.perf_counter()
        detections = pool.observe_batch(stream)
        wall = time.perf_counter() - started
        busy = list(pool.busy_seconds)
    overhead = max(0.0, wall - sum(busy))
    critical_path = overhead + max(busy)
    return {
        "n_shards": n_shards,
        "backend": backend,
        "alerts": len(stream),
        "detections": len(detections),
        "wall_seconds": round(wall, 3),
        "wall_alerts_per_second": round(len(stream) / wall, 1),
        "shard_busy_seconds": [round(seconds, 3) for seconds in busy],
        "max_shard_busy_seconds": round(max(busy), 3),
        "overhead_seconds": round(overhead, 3),
        "critical_path_seconds": round(critical_path, 3),
        "critical_path_alerts_per_second": round(len(stream) / critical_path, 1),
        "_detections": detections,
    }


#: Short naive-engine run used to calibrate how fast the current host is
#: relative to the machine that recorded the committed baseline.  The
#: naive path is seed code this refactor never touches, so its rate
#: moves with the hardware, not with the change under test.
CALIBRATION_ALERTS = 150


def measure_calibration_rate() -> float:
    """Naive-engine alerts/sec on a fixed single-entity stream."""
    rng = np.random.default_rng(11)
    stream = [
        Alert(float(i), BENIGN_NAMES[int(rng.integers(0, len(BENIGN_NAMES)))], "host:calib")
        for i in range(CALIBRATION_ALERTS)
    ]
    tagger = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE),
        max_window=CALIBRATION_ALERTS + 1,
        engine="naive",
    )
    started = time.perf_counter()
    for alert in stream:
        tagger.observe(alert)
    return CALIBRATION_ALERTS / (time.perf_counter() - started)


def run_benchmark(*, n_entities: int = 256, per_entity: int = 40) -> dict:
    """Full measurement set behind ``BENCH_sharding.json``."""
    stream = build_stream(n_entities=n_entities, per_entity=per_entity)
    serial_1 = measure_pool(stream, n_shards=1, backend="serial")
    assert serial_1["detections"] == 0, "benchmark stream must stay undetected"
    serial_4 = measure_pool(stream, n_shards=4, backend="serial")
    process_4 = measure_pool(stream, n_shards=4, backend="process")
    assert process_4.pop("_detections") == serial_1.pop("_detections"), (
        "process-sharded detections must be bit-identical to serial"
    )
    serial_4.pop("_detections")
    serial_rate = serial_1["wall_alerts_per_second"]
    return {
        "benchmark": "sharded_pipeline_throughput",
        "units": "alerts_per_second",
        "notes": (
            "Detection-stage-only measurement (ShardedDetectorPool.observe_batch) "
            "on a multi-entity stream with window-eviction rebuilds. "
            "wall_* is bounded by cores_available (1-core hosts time-slice the "
            "workers); critical_path_* is overhead + slowest shard's CPU time, "
            "the stage's throughput once one core per shard is available."
        ),
        "cores_available": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "stream": {
            "alerts": len(stream),
            "entities": n_entities,
            "per_entity": per_entity,
            "max_window": MAX_WINDOW,
        },
        "detection_stage": {
            "serial_1shard": serial_1,
            "serial_4shards": serial_4,
            "process_4shards": process_4,
        },
        "speedup_4_process_shards_vs_1": round(
            process_4["critical_path_alerts_per_second"] / serial_rate, 2
        ),
        "wall_speedup_4_process_shards_vs_1": round(
            process_4["wall_alerts_per_second"] / serial_rate, 2
        ),
        "calibration": {
            "alerts": CALIBRATION_ALERTS,
            "naive_alerts_per_second": round(measure_calibration_rate(), 1),
        },
    }


def check_regression(baseline_path: Path, *, factor: float = 2.0) -> int:
    """CI gate: equivalence + critical-path speedup + serial throughput."""
    if not baseline_path.exists():
        print(f"FAIL: no committed baseline at {baseline_path}; "
              "run this script without --check to record one")
        return 1
    baseline = json.loads(baseline_path.read_text())
    committed_serial = float(
        baseline["detection_stage"]["serial_1shard"]["wall_alerts_per_second"]
    )
    committed_calibration = float(baseline["calibration"]["naive_alerts_per_second"])

    stream = build_stream(n_entities=128, per_entity=40)
    serial_1 = measure_pool(stream, n_shards=1, backend="serial")
    process_4 = measure_pool(stream, n_shards=4, backend="process")
    identical = process_4.pop("_detections") == serial_1.pop("_detections")
    speedup = (
        process_4["critical_path_alerts_per_second"]
        / serial_1["wall_alerts_per_second"]
    )
    measured_calibration = measure_calibration_rate()
    hardware_factor = measured_calibration / committed_calibration
    floor = committed_serial * hardware_factor / factor

    print(f"detections bit-identical (process vs serial): {identical}")
    print(f"serial 1-shard rate:              {serial_1['wall_alerts_per_second']:.0f} alerts/s")
    print(f"process 4-shard critical path:    "
          f"{process_4['critical_path_alerts_per_second']:.0f} alerts/s "
          f"(wall {process_4['wall_alerts_per_second']:.0f} alerts/s)")
    print(f"critical-path speedup:            {speedup:.2f}x (floor 1.50x)")
    print(f"hardware factor (naive calib):    {hardware_factor:.2f}x "
          f"({measured_calibration:.0f} / {committed_calibration:.0f} alerts/s)")
    print(f"serial regression floor ({factor}x):   {floor:.0f} alerts/s")

    failed = False
    if not identical:
        print("FAIL: process-sharded detections diverged from the serial pool")
        failed = True
    # 1.5x, not the 2x the per-alert decode cleared: the stacked kernel
    # halved worker compute while partition/pickle/merge stayed, so the
    # projection reads 1.8-2.2x on the recording host.
    if speedup < 1.5:
        print("FAIL: critical-path speedup of 4 process shards fell below 1.5x")
        failed = True
    if serial_1["wall_alerts_per_second"] < floor:
        print(f"FAIL: serial detection throughput regressed more than {factor}x "
              "vs the hardware-scaled committed baseline")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


# -- pytest entry points ------------------------------------------------------

def test_sharded_pool_equivalence_smoke(benchmark):
    """Smoke: process-sharded detection matches serial on a small stream."""
    stream = build_stream(n_entities=32, per_entity=36)
    serial = measure_pool(stream, n_shards=1, backend="serial")

    def _run():
        return measure_pool(stream, n_shards=4, backend="process")

    process = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert process.pop("_detections") == serial.pop("_detections")
    # Entity hashing keeps the shards busy and roughly balanced.
    assert sum(1 for seconds in process["shard_busy_seconds"] if seconds > 0.0) == 4
    assert process["max_shard_busy_seconds"] < serial["wall_seconds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="quick regression gate against the committed BENCH_sharding.json",
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
