"""CLI entry point: run the always-on detection service.

::

    python -m repro.service [--port 7341] [--shards 4 --backend process]
    python -m repro.service --smoke        # CI socket bit-identity gate

The server announces ``LISTENING <port>`` on stdout once bound (so
supervisors and tests can parse the ephemeral port), then serves until
SIGTERM/SIGINT, at which point it drains everything admitted, writes a
final checkpoint (when ``--checkpoint-dir`` is set), and exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import sys
from pathlib import Path

from ..core.attack_tagger import ENGINES, AttackTagger
from ..incidents import DEFAULT_CATALOGUE
from ..testbed.pipeline import TestbedPipeline
from .admission import AdmissionLimits
from .server import DetectionService, ServiceConfig

#: Generation-0 threshold of the service process.  What the service
#: retains between batches (tracks, detections, the response log) is
#: acyclic, and what a batch allocates (decoded records, alerts, their
#: containers) is acyclic and dead by the ack, so a cyclic collection
#: frees nothing that reference counting has not.  Replaying 153 600
#: scan-flood records in-process, CPython's default (700, 10, 10) runs
#: ~3 young collections per 512-record batch and 6 full ones over the
#: start-up heap: 0.13 s of 1.5 s inside the collector.  This
#: threshold -- a few batches' transient containers -- with the
#: start-up heap frozen runs one collection there: 0.006 s.  End to
#: end (``benchmarks/e2e``, alternating pairs, ``norm_inputs_per_s``
#: without -> with): ``raw_scan_flood`` 54.9k -> 62.1k, 7 of 10;
#: ``entity_churn`` 32.8k -> 39.3k, 3 of 3.
GC_GEN0_THRESHOLD = 20_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on streaming detection service (JSONL over TCP).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="process"
    )
    parser.add_argument("--engine", choices=ENGINES, default="streaming")
    parser.add_argument(
        "--restart-policy", choices=("raise", "restore"), default="restore"
    )
    parser.add_argument("--max-window", type=int, default=256)
    parser.add_argument("--threshold", type=float, default=0.7)
    parser.add_argument("--checkpoint-dir", type=Path, default=None)
    parser.add_argument("--checkpoint-interval", type=float, default=0.0)
    parser.add_argument("--keep-last", type=int, default=3)
    parser.add_argument("--dead-letter", type=Path, default=None)
    parser.add_argument("--capacity", type=int, default=64)
    parser.add_argument("--per-connection", type=int, default=16)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the pinned socket bit-identity gate and exit",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.smoke:
        from .smoke import run_service_smoke

        return run_service_smoke()

    def build_pipeline() -> TestbedPipeline:
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE),
            engine=args.engine,
            max_window=args.max_window,
            detection_threshold=args.threshold,
        )
        return TestbedPipeline(
            detectors={"factor_graph": tagger},
            n_shards=args.shards,
            shard_backend=args.backend,
            restart_policy=args.restart_policy,
            backoff_base=0.001,
        )

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        limits=AdmissionLimits(
            global_capacity=args.capacity, per_connection=args.per_connection
        ),
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        keep_last=args.keep_last,
        dead_letter_path=args.dead_letter,
    )

    pipeline = build_pipeline()
    service = DetectionService(pipeline, config)
    # Process policy, so set here and not in the library: imports and
    # the pipeline just built never become garbage.
    gc.freeze()
    gc.set_threshold(GC_GEN0_THRESHOLD, 10, 10)

    async def run() -> None:
        await service.serve_forever(
            ready=lambda s: print(f"LISTENING {s.port}", flush=True)
        )

    # close() joins worker processes — blocking work that stays outside
    # the event loop (staticcheck: asyncio-blocking).
    try:
        asyncio.run(run())
    finally:
        pipeline.close()
    print(f"STOPPED {service.shutdown_reason}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
