"""Differential-oracle replay throughput over the configuration matrix.

The quick-fuzz CI gate replays 25 seed-pinned campaigns through the
full engine x shards x backend x driver matrix; its
wall-clock budget (~1 minute) only holds if campaign replay stays fast.
This benchmark records what that budget buys:

* ``campaigns_per_minute`` through the **full** 36-config matrix,
* ``alert_config_rate``: alert-observations per second summed over
  every replayed configuration (each campaign alert is decoded once
  per configuration), the quantity that actually scales with campaign
  size and matrix width.

Run as a script to (re)record ``BENCH_fuzz.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_fuzz_matrix.py

CI runs the regression gate, which re-measures a quick version,
asserts the pinned campaigns replay green, and fails on a >4x
throughput regression against the committed baseline::

    PYTHONPATH=src python benchmarks/bench_fuzz_matrix.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz import CampaignComposer, DifferentialOracle, full_matrix  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_fuzz.json"

#: Seed-pinned measurement workload.
BASE_SEED = 0
N_CAMPAIGNS = 6
TARGET_ALERTS = 250

#: --check fails below this fraction of the committed alert_config_rate.
REGRESSION_FLOOR = 0.25


def run_measurement(n_campaigns: int) -> dict:
    composer = CampaignComposer(BASE_SEED, target_alerts=TARGET_ALERTS)
    oracle = DifferentialOracle(full_matrix())
    campaigns = list(composer.campaigns(n_campaigns))
    started = time.perf_counter()
    total_alert_configs = 0
    divergent = 0
    for campaign in campaigns:
        verdict = oracle.run(campaign)
        if not verdict.ok:
            divergent += 1
        total_alert_configs += campaign.num_alerts * (verdict.configs_run + 1)
    elapsed = time.perf_counter() - started
    return {
        "campaigns": len(campaigns),
        "total_alerts": sum(c.num_alerts for c in campaigns),
        "divergent": divergent,
        "wall_seconds": round(elapsed, 3),
        "campaigns_per_minute": round(60.0 * len(campaigns) / elapsed, 1),
        "alert_config_rate": round(total_alert_configs / elapsed, 1),
    }


def record() -> dict:
    result = {
        "benchmark": "fuzz_matrix_throughput",
        "units": "alert_observations_per_second_across_configs",
        "notes": (
            f"Seed-pinned campaigns replayed through the full "
            f"{len(full_matrix())}-config engine x shards x backend x "
            "driver matrix by the "
            "differential oracle. alert_config_rate counts each "
            "campaign alert once per replayed configuration."
        ),
        "cores_available": len(os.sched_getaffinity(0)),
        "matrix_size": len(full_matrix()),
        "workload": {
            "base_seed": BASE_SEED,
            "campaigns": N_CAMPAIGNS,
            "target_alerts": TARGET_ALERTS,
        },
        "measurement": run_measurement(N_CAMPAIGNS),
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
    reference_rate = baseline["measurement"]["alert_config_rate"]
    # At least 3 campaigns so the mixture includes a raw-capable one
    # (raw_every=3): the throughput floor must cover the raw-record
    # replay path, not just the alert drivers.
    measurement = run_measurement(max(3, N_CAMPAIGNS // 2))
    print(json.dumps(measurement, indent=2))
    if measurement["divergent"]:
        print("FAIL: pinned fuzz campaigns diverged across the matrix")
        return 1
    floor = REGRESSION_FLOOR * reference_rate
    if measurement["alert_config_rate"] < floor:
        print(
            f"FAIL: alert_config_rate {measurement['alert_config_rate']:.0f}/s "
            f"below regression floor {floor:.0f}/s "
            f"({REGRESSION_FLOOR:.0%} of committed {reference_rate:.0f}/s)"
        )
        return 1
    print(
        f"OK: {measurement['alert_config_rate']:.0f} alert-configs/s "
        f">= floor {floor:.0f}/s; 0 divergent campaigns"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="quick regression gate against the committed BENCH_fuzz.json",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
