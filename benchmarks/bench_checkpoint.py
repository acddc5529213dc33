"""Checkpoint write/restore latency as a function of pipeline state size.

A checkpoint is taken on the live ingestion path (between batches), so
its latency is an availability cost: the pipeline observes no alerts
while the snapshot is cut.  This benchmark grows per-entity decoder
state by driving mixed attack streams over increasing entity counts
and records, per scale:

* ``checkpoint_bytes`` -- the serialized snapshot size,
* ``write_ms`` / ``restore_ms`` -- wall latency of
  ``TestbedPipeline.checkpoint`` (canonical pickle + fsync + rename)
  and ``TestbedPipeline.restore``, each the median of ``REPEATS`` runs;
* ``first_batch_ms`` -- wall latency of the restored pipeline's first
  ``ingest_alerts`` batch, one alert per restored entity (median of
  ``REPEATS``).  A restored entity's decode state is rebuilt from its
  names on its first alert, so this is where a restore's replay cost
  lands.  It is reported for information only: ``--check`` prints it
  and gates nothing on it.

Run as a script to (re)record ``BENCH_checkpoint.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py

CI runs the regression gate, which re-measures the mid scale, asserts
every restored pipeline re-checkpoints byte-identically (the
crash-safety contract), and fails when the write or the restore takes
more than ``LATENCY_TOLERANCE`` times its committed milliseconds.  It
gates latency, not bytes per second, so a smaller checkpoint never
reads as a slower one::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import AttackTagger  # noqa: E402
from repro.core.alerts import Alert  # noqa: E402
from repro.incidents import DEFAULT_CATALOGUE  # noqa: E402
from repro.testbed import TestbedPipeline  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_checkpoint.json"

#: Seed-pinned workload: entity counts the state size scales with.
BASE_SEED = 0
SCALES = (25, 100, 400)
ALERTS_PER_ENTITY = 12
#: The scale the --check gate re-measures.
CHECK_SCALE = 100
#: Runs per scale; the reported latencies are their medians.
REPEATS = 3

#: --check fails when write_ms or restore_ms exceeds this multiple of
#: the committed figure.
LATENCY_TOLERANCE = 4.0


def _stream(n_entities: int) -> list[Alert]:
    rng = np.random.default_rng(BASE_SEED)
    patterns = list(DEFAULT_CATALOGUE)
    queues = {
        f"user:u{index:04d}": list(patterns[index % len(patterns)].names)
        for index in range(n_entities)
    }
    entities = list(queues)
    stream: list[Alert] = []
    timestamp = 0.0
    for _ in range(n_entities * ALERTS_PER_ENTITY):
        entity = entities[int(rng.integers(0, len(entities)))]
        queue = queues[entity]
        if not queue:
            queue.extend(patterns[int(rng.integers(0, len(patterns)))].names)
        timestamp += float(rng.uniform(0.05, 1.0))
        stream.append(Alert(timestamp, queue.pop(0), entity))
    return stream


def _pipeline() -> TestbedPipeline:
    return TestbedPipeline(
        detectors={"factor_graph": AttackTagger(patterns=list(DEFAULT_CATALOGUE))}
    )


def measure_scale(n_entities: int) -> dict:
    """Median checkpoint + restore latency of ``REPEATS`` runs for one
    state size; records whether every restored pipeline re-checkpoints
    byte-identically."""
    stream = _stream(n_entities)
    # One alert per restored entity, after the stream.
    first = [
        Alert(stream[-1].timestamp + 1.0 + index, "alert_login_normal", entity)
        for index, entity in enumerate(dict.fromkeys(alert.entity for alert in stream))
    ]
    write_seconds, restore_seconds, first_seconds, identical = [], [], [], True
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as workdir:
            original = Path(workdir) / "bench.ckpt"
            again = Path(workdir) / "again.ckpt"
            with _pipeline() as pipeline:
                pipeline.ingest_alerts(stream)
                started = time.perf_counter()
                size = pipeline.checkpoint(original)
                write_seconds.append(time.perf_counter() - started)
            with _pipeline() as restored:
                started = time.perf_counter()
                restored.restore(original)
                restore_seconds.append(time.perf_counter() - started)
                restored.checkpoint(again)
                identical = identical and original.read_bytes() == again.read_bytes()
                started = time.perf_counter()
                restored.ingest_alerts(first)
                first_seconds.append(time.perf_counter() - started)
    return {
        "entities": n_entities,
        "alerts": len(stream),
        "checkpoint_bytes": size,
        "write_ms": round(statistics.median(write_seconds) * 1e3, 3),
        "restore_ms": round(statistics.median(restore_seconds) * 1e3, 3),
        "first_batch_ms": round(statistics.median(first_seconds) * 1e3, 3),
        "recheckpoint_identical": identical,
    }


def record() -> dict:
    result = {
        "benchmark": "checkpoint_latency_vs_state_size",
        "units": "milliseconds_and_bytes_per_scale",
        "notes": (
            "Serial single-shard pipeline driven over seed-pinned mixed "
            "attack streams; per scale the full snapshot (all per-entity "
            "decoder windows, routing/responder state) is cut with "
            "TestbedPipeline.checkpoint (canonical pickle, fsync, atomic "
            "rename) and restored into a fresh pipeline; write_ms and "
            f"restore_ms are medians of {REPEATS} runs, as is first_batch_ms, "
            "the restored pipeline's first batch (one alert per entity; "
            "information only, not gated). "
            "recheckpoint_identical asserts the byte-identity contract."
        ),
        "cores_available": len(os.sched_getaffinity(0)),
        "workload": {
            "base_seed": BASE_SEED,
            "scales": list(SCALES),
            "alerts_per_entity": ALERTS_PER_ENTITY,
        },
        "measurements": [measure_scale(scale) for scale in SCALES],
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return result


def check() -> int:
    if not RESULT_PATH.exists():
        print(f"missing baseline {RESULT_PATH}; "
              "run this script without --check to record one")
        return 1
    baseline = json.loads(RESULT_PATH.read_text())
    committed = {
        point["entities"]: point for point in baseline["measurements"]
    }
    if CHECK_SCALE not in committed:
        print(f"FAIL: committed baseline has no scale {CHECK_SCALE}")
        return 1
    measurement = measure_scale(CHECK_SCALE)
    print(json.dumps(measurement, indent=2))
    if not measurement["recheckpoint_identical"]:
        print("FAIL: restore -> checkpoint is not byte-identical")
        return 1
    for key in ("checkpoint_bytes", "first_batch_ms"):
        print(f"INFO: {key} {measurement[key]} (committed {committed[CHECK_SCALE].get(key)})")
    status = 0
    for key in ("write_ms", "restore_ms"):
        bound = LATENCY_TOLERANCE * committed[CHECK_SCALE][key]
        ok = measurement[key] <= bound
        print(
            f"{'OK' if ok else 'FAIL'}: {key} {measurement[key]:.3f} "
            f"{'<=' if ok else '>'} {bound:.3f} "
            f"({LATENCY_TOLERANCE:g}x committed {committed[CHECK_SCALE][key]:.3f})"
        )
        status |= not ok
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="quick regression gate against the committed BENCH_checkpoint.json",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
