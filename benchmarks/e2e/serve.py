"""Traced launcher: ``python -m repro.service`` under span recorders.

Builds exactly what ``python -m repro.service`` builds -- it calls the
same ``main`` with the same flags -- after wrapping the public
callables at the layer boundaries (see :mod:`e2e_spans`).  Spans stay
in memory while the service runs and are written as JSONL once it has
shut down::

    python benchmarks/e2e/serve.py --trace-out spans.jsonl \\
        --checkpoint-out end.ckpt  [repro.service flags ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--checkpoint-out", type=Path, required=True)
    args, service_argv = parser.parse_known_args(argv)

    from repro.service.__main__ import main as service_main

    from e2e_spans import SpanRecorder, installed

    recorder = SpanRecorder()
    try:
        with installed(recorder, args.checkpoint_out):
            return service_main(service_argv)
    finally:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
