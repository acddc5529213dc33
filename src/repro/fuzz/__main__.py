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
import functools
import sys
import time
from pathlib import Path

from .campaign import Campaign, CampaignComposer
from .chaos import ChaosComposer, ChaosOracle
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


def _run(jobs, describe, args, *, failed: str, skipped: str, on_failure=None):
    """The one campaign loop of both modes.

    ``jobs`` yields ``(campaign, job)``; ``job()`` replays the campaign
    and returns its verdict, which ``describe(campaign, verdict)`` turns
    into ``(columns, checked, problems)``: the mode's part of the
    per-campaign line, how many configurations or legs ran, and what
    failed.  A failing campaign prints up to five problems, then
    ``on_failure(campaign, verdict)`` runs.  Returns ``(failing
    campaigns, total checked)``.
    """
    failures = checked_total = 0
    for campaign, job in jobs:
        started = time.perf_counter()
        verdict = job()
        elapsed = time.perf_counter() - started
        columns, checked, problems = describe(campaign, verdict)
        checked_total += checked
        if problems:
            status = f"{failed} ({len(problems)})"
        elif not checked:
            status = f"SKIPPED ({skipped})"
        else:
            status = "ok"
        print(
            f"{campaign.label:<24} alerts={campaign.num_alerts:<5} "
            f"{columns} {elapsed:6.2f}s  {status}",
            flush=True,
        )
        if not problems:
            continue
        failures += 1
        for problem in problems[:5]:
            print(f"  {problem}")
        if on_failure is not None:
            on_failure(campaign, verdict)
        if args.fail_fast:
            break
    return failures, checked_total


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    if args.chaos:
        composer = ChaosComposer(args.base_seed, target_alerts=args.target_alerts)
        legs = composer.service_campaigns if args.service_legs else composer.chaos_campaigns
        # The oracle owns its checkpoint directory for exactly this run.
        with ChaosOracle() as oracle:
            failures, checked = _run(
                (
                    (campaign, functools.partial(oracle.run, campaign, plans))
                    for _, campaign, plans in legs(args.campaigns)
                ),
                lambda campaign, verdict: (
                    f"legs={verdict.legs_run:<2}",
                    verdict.legs_run,
                    verdict.failures,
                ),
                args,
                failed="VIOLATED",
                skipped="no fault legs",
            )
        summary = (
            f"{args.campaigns} chaos campaign(s), {checked} fault leg(s), "
            f"{failures} violating"
        )
        vacuous = (
            "no campaign produced any fault leg (campaigns too small? see "
            "--target-alerts)"
        )
    else:
        if args.configs:
            configs = [OracleConfig.parse(spec) for spec in args.configs.split(",")]
        elif args.matrix == "quick":
            configs = quick_matrix()
        else:
            configs = full_matrix()
        oracle = DifferentialOracle(configs)
        if args.replay is not None:
            # Replaying a committed repro is a sanity check: never
            # re-shrink it into a second, differently-named corpus file.
            args.no_write = True
            campaigns = [Campaign.load(args.replay)]
        else:
            composer = CampaignComposer(args.base_seed, target_alerts=args.target_alerts)
            campaigns = list(composer.campaigns(args.campaigns, raw_every=args.raw_every))

        def record(campaign: Campaign, verdict) -> None:
            if args.no_write:
                return
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

        failures, checked = _run(
            ((campaign, functools.partial(oracle.run, campaign)) for campaign in campaigns),
            lambda campaign, verdict: (
                f"batches={campaign.num_batches:<4} configs={verdict.configs_run:<3}",
                verdict.configs_run,
                verdict.divergences,
            ),
            args,
            failed="DIVERGED",
            skipped="no applicable configs",
            on_failure=record,
        )
        summary = (
            f"{len(campaigns)} campaign(s) x {len(configs)} config(s), "
            f"{failures} divergent"
        )
        vacuous = (
            "no campaign replayed any configuration (raw_stream-only configs "
            "need raw-capable campaigns; see --raw-every, --campaigns)"
        )
    print(f"{summary}, {time.perf_counter() - started:.1f}s total")
    if failures:
        return 1
    if checked == 0:
        # Zero campaigns, or nothing applicable to any of them: the
        # property was never exercised, and a vacuous run must not pass
        # a gate.
        print(f"FAIL: nothing was actually checked -- {vacuous}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
