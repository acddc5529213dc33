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
``observe_batch`` sub-batches (the stacked kernel).  The churn row also
records the fill storage and slot tables the ``observe_batch`` run's
live filling entities hold, in bytes per entity, read off the tagger's
arena (so it is a count, not a timing).

The ``steady`` rows are the steady state of a long-lived population:
256 round-robin entities whose W = 32 windows are all sliding
(operational noise only; flip phases spread evenly, so a batch of N
entities holds about N / W flips), through per-alert ``observe()`` --
the N = 1 scalar path -- and through ``observe_batch`` at batch sizes
32 and 256: one alert per entity per batch, the depth-1 shape.  The
steady row also records the window arena rows its windowed entities
hold, in bytes per entity, read off the tagger's arena (a count too).

The ``deep`` row is the opposite shape, that of the ``sharded_replay``
end-to-end workload: ``observe_batch`` on 2 048-alert sub-batches over
only 8 entities (256 alerts deep each, W = 32), logins with the odd
sensitive download that seeds a pattern -- the kernel's chunks, with
their flips and pattern-step cuts.  The ``patterned`` row is the same
shape with a sensitive download every 4th alert of each entity, so
matches keep starting and their first steps keep being evicted --
``sharded_replay``'s bursts, the kernel's pattern pass; it also records
the share of its windowed steps that took the per-alert path.

Run as a script to (re)record ``BENCH_streaming.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_streaming_throughput.py

CI runs the quick regression gate, which re-measures the streaming
rate on a short stream, both churn rates, the three steady rates, the
deep and the patterned rates, and fails if any regressed more than 2x
against the committed baseline, if the churn row's fill bytes per
entity (fill pages and slot tables) or the steady row's window bytes
per entity (arena rows) grew more than 1.25x, or if the patterned
row's per-alert share grew by more than 0.01::

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
    fired = 0
    started = time.perf_counter()
    for alert in stream:
        fired += tagger.observe(alert) is not None
    elapsed = time.perf_counter() - started
    return len(stream) / elapsed, fired


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


def fill_bytes_per_entity(tagger: AttackTagger) -> float:
    """Bytes held per live filling entity, read off the arena: the fill
    pages, and every live slot's row of the slot tables (0.0 when no
    entity is filling)."""
    arena = tagger._arena
    slots, fill = arena.slots, arena.fill
    filling = sum(
        slots.row[track.slot] < 0 and slots.length[track.slot] > 0
        for track in tagger._tracks.values()
    )
    if not filling:
        return 0.0
    return float(fill.live * fill.page_bytes + slots.live * slots.slot_bytes) / filling


def window_bytes_per_entity(tagger: AttackTagger) -> float:
    """Bytes held per live windowed entity, read off the arena: its rows
    (ring cells and span; 0.0 when no entity is windowed)."""
    arena = tagger._arena
    windowed = sum(arena.slots.row[track.slot] >= 0 for track in tagger._tracks.values())
    if not windowed:
        return 0.0
    return float(arena.live * arena.row_bytes) / windowed


def measure_churn_rates(entities: int) -> dict[str, float]:
    """Churn alerts/sec through per-alert ``observe`` and through
    ``observe_batch``, and the latter's :func:`fill_bytes_per_entity`."""
    stream = build_churn_stream(entities)
    rates = {}
    for path in ("observe", "observe_batch"):
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=64)
        fired = 0
        started = time.perf_counter()
        if path == "observe":
            for alert in stream:
                fired += tagger.observe(alert) is not None
        else:
            for base in range(0, len(stream), CHURN_BATCH):
                fired += len(tagger.observe_batch(stream[base : base + CHURN_BATCH]))
        elapsed = time.perf_counter() - started
        assert not fired, "benchmark stream must stay undetected"
        assert len(tagger.entities()) == entities
        rates[path] = len(stream) / elapsed
    rates["fill_bytes_per_entity"] = fill_bytes_per_entity(tagger)
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
    """Sliding-window alerts/sec over ``rounds`` round-robin passes of the
    population, and the last run's :func:`window_bytes_per_entity`.

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
        fired = len(tagger.observe_batch(warm_up))
        started = time.perf_counter()
        if size is None:
            for item in stream:
                fired += tagger.observe(item) is not None
        else:
            for base in range(0, len(stream), size):
                fired += len(tagger.observe_batch(stream[base : base + size]))
        elapsed = time.perf_counter() - started
        assert not fired, "benchmark stream must stay undetected"
        rates["observe" if size is None else f"observe_batch_{size}"] = len(stream) / elapsed
    rates["window_bytes_per_entity"] = window_bytes_per_entity(tagger)
    return rates


#: The deep row: entities, sliding-window length and sub-batch size.
DEEP_ENTITIES = 8
DEEP_WINDOW = 32
DEEP_BATCH = 2048


def measure_deep_rate(batches: int, *, seed: int = 7) -> float:
    """``observe_batch`` alerts/sec on ``batches`` deep sub-batches.

    Entity ``e`` is warmed (untimed) with ``W + 1 + 4 e`` logins, so
    every window slides and the flips fall at different depths; each
    timed sub-batch is round-robin over the entities, 3 % of it
    sensitive downloads.
    """
    rng = np.random.default_rng(seed)
    entities = [f"user:deep-{index}" for index in range(DEEP_ENTITIES)]
    warm_up = [
        Alert(0.0, "alert_login_normal", entity)
        for index, entity in enumerate(entities)
        for _ in range(DEEP_WINDOW + 1 + 4 * index)
    ]
    downloads = (rng.random(batches * DEEP_BATCH) < 0.03).tolist()
    stream = [
        Alert(
            float(step),
            "alert_download_sensitive" if download else "alert_login_normal",
            entities[step % DEEP_ENTITIES],
        )
        for step, download in enumerate(downloads)
    ]
    tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=DEEP_WINDOW)
    fired = len(tagger.observe_batch(warm_up))
    started = time.perf_counter()
    for base in range(0, len(stream), DEEP_BATCH):
        fired += len(tagger.observe_batch(stream[base : base + DEEP_BATCH]))
    elapsed = time.perf_counter() - started
    assert not fired, "benchmark stream must stay undetected"
    return len(stream) / elapsed


#: The patterned row: the deep row's shape (W = 32, 2 048-alert
#: sub-batches over 8 entities), with a sensitive download -- the first
#: symbol of two patterns -- every ``PATTERNED_EVERY``-th alert of each
#: entity, so matches start and their first steps are evicted over and
#: over: ``sharded_replay``'s bursts.
PATTERNED_ENTITIES = 8
PATTERNED_EVERY = 4
PATTERNED_THRESHOLD = 0.7  # the service's, as in benchmarks/e2e


def measure_patterned(batches: int) -> dict[str, float]:
    """``observe_batch`` alerts/sec on ``batches`` patterned sub-batches, and
    the share of their windowed steps the per-alert path took.

    Entity ``e`` is warmed (untimed) with ``W + 1 + 4 e`` alerts of the
    same mix, so every window slides and holds a match from the first
    timed alert on.
    """
    entities = [f"user:patterned-{index}" for index in range(PATTERNED_ENTITIES)]

    def name(step: int) -> str:
        return "alert_download_sensitive" if step % PATTERNED_EVERY == 0 else "alert_login_normal"

    warm_up = [
        Alert(0.0, name(step), entity)
        for index, entity in enumerate(entities)
        for step in range(DEEP_WINDOW + 1 + 4 * index)
    ]
    stream = [
        Alert(float(step), name(step // PATTERNED_ENTITIES), entities[step % PATTERNED_ENTITIES])
        for step in range(batches * DEEP_BATCH)
    ]
    tagger = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE),
        max_window=DEEP_WINDOW,
        detection_threshold=PATTERNED_THRESHOLD,
    )
    fired = len(tagger.observe_batch(warm_up))
    before = tagger.kernel_steps
    started = time.perf_counter()
    for base in range(0, len(stream), DEEP_BATCH):
        fired += len(tagger.observe_batch(stream[base : base + DEEP_BATCH]))
    elapsed = time.perf_counter() - started
    assert not fired, "benchmark stream must stay undetected"
    stacked, patterned, scalar = (after - prior for after, prior in zip(tagger.kernel_steps, before))
    return {
        "observe_batch": len(stream) / elapsed,
        "per_alert_share": scalar / (stacked + patterned + scalar),
    }


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
    deep_batches: int = 8,
    patterned_batches: int = 8,
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
            path: round(value, 1)
            for path, value in measure_churn_rates(churn_entities).items()
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
    results["deep"] = {
        "entities": DEEP_ENTITIES,
        "max_window": DEEP_WINDOW,
        "batch_size": DEEP_BATCH,
        "alerts": deep_batches * DEEP_BATCH,
        "observe_batch": round(measure_deep_rate(deep_batches), 1),
    }
    patterned = measure_patterned(patterned_batches)
    results["patterned"] = {
        "entities": PATTERNED_ENTITIES,
        "max_window": DEEP_WINDOW,
        "batch_size": DEEP_BATCH,
        "download_every": PATTERNED_EVERY,
        "alerts": patterned_batches * DEEP_BATCH,
        "observe_batch": round(patterned["observe_batch"], 1),
        "per_alert_share": round(patterned["per_alert_share"], 4),
    }
    return results


#: Short naive-engine run used to calibrate how fast the current host is
#: relative to the machine that recorded the committed baseline.  The
#: naive path is pure seed code that this optimisation never touches, so
#: its rate moves with the hardware, not with the change under test.
CALIBRATION_ALERTS = 150

#: Calibration runs the rate is the median of: one run is under a second
#: and alone read anywhere from 1.5x to 1.9x the committed figure on one
#: host.
CALIBRATION_RUNS = 3


def measure_calibration_rate() -> float:
    """Median naive-engine alerts/sec over ``CALIBRATION_RUNS`` runs of the calibration stream."""
    stream = build_stream(CALIBRATION_ALERTS)
    rates = [
        measure_alerts_per_second(stream, engine="naive", max_window=CALIBRATION_ALERTS + 1)[0]
        for _ in range(CALIBRATION_RUNS)
    ]
    return float(np.median(rates))


def quick_streaming_rate(size: int = 2_000) -> float:
    """Cheap streaming-only measurement used by the CI regression gate."""
    stream = build_stream(size)
    # Warm-up pass absorbs import/JIT-ish first-touch costs.
    measure_alerts_per_second(stream[:200], engine="streaming", max_window=size + 1)
    rate, _ = measure_alerts_per_second(stream, engine="streaming", max_window=size + 1)
    return rate


#: Entities in the quick churn measurement of the CI regression gate,
#: round-robin passes in its quick steady measurement (40 passes of 256
#: alerts: the 256-alert batch row times tens of milliseconds, not a
#: handful), and sub-batches in its quick deep and patterned ones.
QUICK_CHURN_ENTITIES = 2_000
QUICK_STEADY_ROUNDS = 40
QUICK_DEEP_BATCHES = 2

#: How far the patterned row's per-alert share of windowed steps may
#: exceed the committed one (an absolute difference of two ratios).
SHARE_SLACK = 0.01


#: How far the churn row's fill bytes and the steady row's window bytes
#: per entity may exceed the committed figures.
BYTES_FACTOR = 1.25


def check_regression(baseline_path: Path, *, factor: float = 2.0) -> int:
    """Fail (non-zero) if a streaming or churn rate regressed more than ``factor``x.

    The committed baseline was recorded on a different machine, so the
    absolute committed rate is first rescaled by a hardware factor: the
    ratio of the current host's naive-engine calibration rate to the
    committed one.  The gate then compares the measured streaming rate
    against ``scaled_baseline / factor`` -- CI runners that are simply
    slower across the board do not trip it, while a genuine slowdown of
    the streaming engine (which leaves the naive path untouched) does.
    The two churn rows, the three steady rows, the deep row and the
    patterned row are gated by the same rule.  The patterned row's
    share of windowed steps the per-alert path took is a ratio of
    counts: it may not exceed the committed one by more than
    ``SHARE_SLACK``.  The churn row's fill bytes per live
    entity (fill pages plus slot tables) and the steady row's window
    bytes per live entity (arena rows) are counts, not rates: they
    need no hardware factor and may not exceed the committed figures
    by more than ``BYTES_FACTOR``.
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
    # Warm-up: a fresh process times its first steady pass up to 2x slow.
    measure_steady_rates(QUICK_STEADY_ROUNDS)
    steady = measure_steady_rates(QUICK_STEADY_ROUNDS)
    window_bytes = steady.pop("window_bytes_per_entity")
    rows += [
        (f"steady {path}", float(baseline["steady"][path]), rate)
        for path, rate in steady.items()
    ]
    rows.append(
        ("deep observe_batch", float(baseline["deep"]["observe_batch"]),
         measure_deep_rate(QUICK_DEEP_BATCHES))
    )  # fmt: skip
    patterned = measure_patterned(QUICK_DEEP_BATCHES)
    rows.append(
        ("patterned observe_batch", float(baseline["patterned"]["observe_batch"]),
         patterned["observe_batch"])
    )  # fmt: skip
    failed = False
    for label, committed, measured in rows:
        floor = committed * hardware_factor / factor
        ok = measured >= floor
        failed |= not ok
        print(f"{label:<24} committed {committed:>8.0f}  quick {measured:>8.0f}  "
              f"floor ({factor}x, scaled) {floor:>8.0f} alerts/s  {'ok' if ok else 'FAIL'}")
    counts = [
        ("churn fill bytes/entity", float(baseline["churn"]["fill_bytes_per_entity"]),
         churn["fill_bytes_per_entity"]),
        ("steady window bytes/ent", float(baseline["steady"]["window_bytes_per_entity"]),
         window_bytes),
    ]  # fmt: skip
    bytes_ok = True
    for label, committed, measured in counts:
        ceiling = committed * BYTES_FACTOR
        ok = measured <= ceiling
        bytes_ok &= ok
        print(f"{label:<24} committed {committed:>8.0f}  quick {measured:>8.0f}  "
              f"ceiling ({BYTES_FACTOR}x) {ceiling:>8.0f} B  {'ok' if ok else 'FAIL'}")
    committed_share = float(baseline["patterned"]["per_alert_share"])
    share_ok = patterned["per_alert_share"] <= committed_share + SHARE_SLACK
    print(f"{'patterned per-alert share':<24} committed {committed_share:>8.4f}  "
          f"quick {patterned['per_alert_share']:>8.4f}  ceiling (+{SHARE_SLACK}) "
          f"{committed_share + SHARE_SLACK:>8.4f}  {'ok' if share_ok else 'FAIL'}")
    if failed:
        print(f"FAIL: throughput regressed more than {factor}x vs the "
              "hardware-scaled committed baseline")
        return 1
    if not bytes_ok:
        print(f"FAIL: storage per entity grew more than {BYTES_FACTOR}x")
        return 1
    if not share_ok:
        print("FAIL: the per-alert path took a larger share of the patterned row's windowed steps")
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
