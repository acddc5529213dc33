"""Command-line fuzz harness.

Examples::

    # 25 seed-pinned campaigns through the full matrix (the CI
    # quick-fuzz gate; the summary line prints the matrix size):
    python -m repro.fuzz --campaigns 25 --base-seed 0 --matrix full

    # A focused run against explicit configurations:
    python -m repro.fuzz --campaigns 5 \
        --configs streaming:4:process:alert_stream,streaming:2:process:raw_stream

    # Replay one committed regression repro across the matrix:
    python -m repro.fuzz --replay tests/regressions/some-repro.json

On divergence the failing campaign is shrunk to a minimal repro and
written into ``--regressions-dir`` (default ``tests/regressions``);
commit that file so the tier-1 suite replays it forever after.  Exit
status is non-zero iff any campaign diverged.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .campaign import Campaign, CampaignComposer
from .oracle import DifferentialOracle, OracleConfig, full_matrix, quick_matrix
from .regressions import DEFAULT_REGRESSIONS_DIR, save_regression
from .shrinker import shrink_for_oracle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "Adversarial campaign fuzzer: replay seeded multi-entity "
            "workloads through the engine x shards x backend x driver "
            "matrix and assert bit-identical detections."
        ),
    )
    parser.add_argument("--campaigns", type=int, default=25,
                        help="number of campaigns to compose and check (default 25)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="composer base seed (campaign k uses (seed, k))")
    parser.add_argument("--seed", type=int, default=None,
                        help="alias for --base-seed (overrides it when given)")
    parser.add_argument("--matrix", choices=("full", "quick"), default="full",
                        help="configuration matrix to replay (default full)")
    parser.add_argument("--configs", type=str, default=None,
                        help="comma-separated engine:shards:backend:driver specs "
                             "(overrides --matrix)")
    parser.add_argument("--target-alerts", type=int, default=300,
                        help="approximate alerts per campaign (default 300)")
    parser.add_argument("--raw-every", type=int, default=3,
                        help="every Nth campaign is raw-record expressible "
                             "(0 disables; default 3)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="record failing campaigns unshrunk")
    parser.add_argument("--regressions-dir", type=Path, default=DEFAULT_REGRESSIONS_DIR,
                        help="where to write shrunk repros (default tests/regressions)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write repro files for failures")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay one saved campaign file instead of fuzzing")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first diverging campaign")
    parser.add_argument("--chaos", action="store_true",
                        help="run seeded fault campaigns against the "
                             "crash-semantics oracle instead of the "
                             "differential matrix")
    parser.add_argument("--service-legs", action="store_true",
                        help="with --chaos: run the socket-level service "
                             "fault legs (disconnect / reshard-kill / shed) "
                             "instead of the pipeline legs")
    return parser


def _chaos_main(args: argparse.Namespace) -> int:
    """The ``--chaos`` mode: seeded fault campaigns, crash-semantics oracle."""
    from .chaos import ChaosComposer, ChaosOracle

    composer = ChaosComposer(args.base_seed, target_alerts=args.target_alerts)
    failures = 0
    legs_total = 0
    started = time.perf_counter()
    campaigns = (
        composer.service_campaigns(args.campaigns)
        if args.service_legs
        else composer.chaos_campaigns(args.campaigns)
    )
    # The oracle owns its checkpoint directory for exactly this run.
    with ChaosOracle() as oracle:
        for index, campaign, plans in campaigns:
            campaign_started = time.perf_counter()
            verdict = oracle.run(campaign, plans)
            elapsed = time.perf_counter() - campaign_started
            legs_total += verdict.legs_run
            if verdict.failures:
                status = f"VIOLATED ({len(verdict.failures)})"
            elif verdict.legs_run == 0:
                status = "SKIPPED (no fault legs)"
            else:
                status = "ok"
            print(
                f"{campaign.label:<24} alerts={campaign.num_alerts:<5} "
                f"legs={verdict.legs_run:<2} {elapsed:6.2f}s  {status}",
                flush=True,
            )
            if verdict.failures:
                failures += 1
                for failure in verdict.failures[:5]:
                    print(f"  {failure}")
                if args.fail_fast:
                    break
    total = time.perf_counter() - started
    print(
        f"{args.campaigns} chaos campaign(s), {legs_total} fault leg(s), "
        f"{failures} violating, {total:.1f}s total"
    )
    if failures:
        return 1
    if legs_total == 0:
        print(
            "FAIL: nothing was actually checked -- no campaign produced "
            "any fault leg (campaigns too small? see --target-alerts)"
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is not None:
        args.base_seed = args.seed
    if args.chaos:
        return _chaos_main(args)
    if args.configs:
        configs = [OracleConfig.parse(spec) for spec in args.configs.split(",")]
    elif args.matrix == "quick":
        configs = quick_matrix()
    else:
        configs = full_matrix()
    oracle = DifferentialOracle(configs)

    if args.replay is not None:
        # Replaying a committed repro is a sanity check: never re-shrink
        # it into a second, differently-named corpus file.
        args.no_write = True
        campaigns = [Campaign.load(args.replay)]
    else:
        composer = CampaignComposer(
            args.base_seed, target_alerts=args.target_alerts
        )
        campaigns = list(composer.campaigns(args.campaigns, raw_every=args.raw_every))

    failures = 0
    total_configs_run = 0
    started = time.perf_counter()
    for campaign in campaigns:
        campaign_started = time.perf_counter()
        verdict = oracle.run(campaign)
        elapsed = time.perf_counter() - campaign_started
        total_configs_run += verdict.configs_run
        # A verdict with nothing replayed is vacuous, not a pass.
        if not verdict.ok:
            status = f"DIVERGED ({len(verdict.divergences)})"
        elif verdict.configs_run == 0:
            status = "SKIPPED (no applicable configs)"
        else:
            status = "ok"
        print(
            f"{campaign.label:<24} alerts={campaign.num_alerts:<5} "
            f"batches={campaign.num_batches:<4} configs={verdict.configs_run:<3} "
            f"{elapsed:6.2f}s  {status}",
            flush=True,
        )
        if verdict.ok:
            continue
        failures += 1
        for divergence in verdict.divergences[:5]:
            print(f"  {divergence}")
        if not args.no_write:
            repro = campaign
            if not args.no_shrink:
                shrunk = shrink_for_oracle(campaign, oracle, verdict=verdict)
                if shrunk is not None:
                    repro = shrunk
            path = save_regression(repro, args.regressions_dir)
            print(
                f"  repro written: {path} "
                f"({repro.num_alerts} alerts, {len(repro.events)} events)"
            )
        if args.fail_fast:
            break
    total = time.perf_counter() - started
    print(
        f"{len(campaigns)} campaign(s) x {len(configs)} config(s), "
        f"{failures} divergent, {total:.1f}s total"
    )
    if failures:
        return 1
    if total_configs_run == 0:
        # Zero campaigns, or every config skipped on every campaign:
        # the differential property was never exercised -- a vacuous
        # run must not pass a gate.
        print(
            "FAIL: nothing was actually checked -- no campaign replayed "
            "any configuration (raw_stream-only configs need raw-capable "
            "campaigns; see --raw-every, --campaigns)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
