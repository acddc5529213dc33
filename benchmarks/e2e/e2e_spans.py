"""Outside-in span recording: wrap public callables, keep spans in memory.

The benchmark measures each layer from outside, by timing calls into
the public functions and methods at the layer boundaries (in-program
spans are a later change, ROADMAP item 2).  :func:`installed` replaces
those callables -- on their classes, so the service's own ``main`` and
the library pipeline build what they always build -- with wrappers
that append one span per call to a :class:`SpanRecorder`:
``(name, start, end, parent, batch)``.  Everything wrapped runs on one
thread (the service's event loop, or the library caller), so a plain
stack gives the parent links.

:func:`layer_totals` turns a span list into per-layer self time (a
span's duration minus the part its children cover) and counts inside
a set of timed windows, each scaled by that window's calibration
factor.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Span name -> (self-time metric, n_in metric, n_out metric) it feeds.
LAYERS = {
    "service.protocol.decode_line": (
        "service.protocol.decode_s",
        "service.protocol.bytes_in",
        "service.protocol.requests",
    ),
    "service.protocol.parse_request": ("service.protocol.decode_s", None, None),
    "service.protocol.encode_message": ("service.protocol.encode_s", None, None),
    "service.admission.admit": ("service.admission.admit_s", None, None),
    "telemetry.normalizer.process": (
        "telemetry.normalizer.self_s",
        "telemetry.normalizer.records_in",
        "telemetry.normalizer.alerts_out",
    ),
    "telemetry.filtering.process": (
        "telemetry.filtering.self_s",
        "telemetry.filtering.alerts_in",
        "telemetry.filtering.alerts_out",
    ),
    "testbed.pipeline.submit": ("testbed.pipeline.submit_self_s", None, None),
    "testbed.stages.detect.submit": (
        "testbed.pipeline.submit_self_s",
        "core.attack_tagger.alerts",
        "core.attack_tagger.entities_created",
    ),
    "testbed.pipeline.collect": ("testbed.pipeline.collect_self_s", None, None),
    "testbed.stages.detect.collect": (
        "testbed.pipeline.collect_self_s",
        None,
        "core.attack_tagger.detections",
    ),
    "testbed.sharding.submit_batch": ("testbed.sharding.submit_s", None, None),
    "testbed.sharding.collect": ("testbed.sharding.collect_wait_s", None, None),
    "core.attack_tagger.observe": ("core.attack_tagger.observe_s", None, None),
    "testbed.responder.process": (
        "testbed.responder.respond_s",
        "testbed.responder.detections_in",
        "testbed.responder.actions_out",
    ),
    "testbed.checkpoint.snapshot": (
        "testbed.checkpoint.snapshot_s",
        None,
        "testbed.checkpoint.snapshot_bytes",
    ),
}

#: The one span taken after the timed region (as the pipeline closes).
END_OF_RUN_SPAN = "testbed.checkpoint.snapshot"


class SpanRecorder:
    """In-memory span list; counts ride on the span that did the work."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, batch_id, n_in, n_out]``.
        self.spans: List[list] = []
        #: Filtered batches handed to a process-backed pool, kept by
        #: reference for the codec / ring micro-replay.
        self.captured_batches: List[list] = []
        self._stack: List[int] = []
        self._seen_entities: set = set()
        #: Ingest requests admitted, detection batches submitted and
        #: collected.  One connection and one FIFO, so the k-th of each
        #: is the same batch: these are the spans' shared identifier.
        self.admitted = 0
        self.submitted = 0
        self.collected = 0

    def wrap(
        self,
        func: Callable,
        name: str,
        batch: Callable[["SpanRecorder"], int],
        *,
        before: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``func`` with a span around every call.

        ``batch`` reads the batch id off the recorder when the span
        opens, after ``before(recorder, args)`` advanced it;
        ``count(recorder, args, result)`` gives the span's
        ``(n_in, n_out)``.  Both run outside the timed interval.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, batch(self), 0, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5], span[6] = count(self, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path) -> List[list]:
    """Inverse of :meth:`SpanRecorder.dump`."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _admitting(recorder: SpanRecorder) -> int:
    return recorder.admitted


def _next_submit(recorder: SpanRecorder) -> int:
    return recorder.submitted + 1


def _submitting(recorder: SpanRecorder) -> int:
    return recorder.submitted


def _next_collect(recorder: SpanRecorder) -> int:
    return recorder.collected + 1


def _collecting(recorder: SpanRecorder) -> int:
    return recorder.collected


@contextlib.contextmanager
def installed(recorder: SpanRecorder, checkpoint_path) -> Iterator[None]:
    """Wrap every layer-boundary callable for the ``with`` block.

    ``checkpoint_path`` is where the end-of-run snapshot is written:
    ``TestbedPipeline.close`` is hooked to take one checkpoint, under
    a span, before the pools go away.
    """
    from repro.core.attack_tagger import AttackTagger
    from repro.service import server
    from repro.service.admission import AdmissionController
    from repro.telemetry.filtering import ScanFilterStage
    from repro.telemetry.normalizer import NormalizerStage
    from repro.testbed.pipeline import TestbedPipeline
    from repro.testbed.sharding import ShardedDetectorPool
    from repro.testbed.stages import DetectionStage, ResponseStage

    originals: List[tuple] = []

    def patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def span(name: str, batch, **hooks) -> Callable[[Callable], Callable]:
        return lambda original: recorder.wrap(original, name, batch, **hooks)

    def batch_in_out(rec: SpanRecorder, args, result) -> Tuple[int, int]:
        return len(args[1]), len(result)

    # -- service.protocol: the names the server module imported --------
    def line_bytes(rec: SpanRecorder, args, result) -> Tuple[int, int]:
        return len(args[0]), 1

    patch(
        server,
        "decode_line",
        span("service.protocol.decode_line", _admitting, count=line_bytes),
    )
    patch(server, "parse_request", span("service.protocol.parse_request", _admitting))
    patch(server, "encode_message", span("service.protocol.encode_message", _admitting))

    # -- service.admission --------------------------------------------
    def before_admit(rec: SpanRecorder, args) -> None:
        rec.admitted += 1

    for method in ("admit_alerts", "admit_raw"):
        patch(
            AdmissionController,
            method,
            span("service.admission.admit", _admitting, before=before_admit),
        )

    # -- testbed.pipeline and the four stages -------------------------
    def before_detect_submit(rec: SpanRecorder, args) -> None:
        rec.submitted += 1

    def alerts_and_new_entities(rec: SpanRecorder, args, result) -> Tuple[int, int]:
        seen = rec._seen_entities
        known = len(seen)
        seen.update(alert.entity for alert in args[1])
        return len(args[1]), len(seen) - known

    def before_detect_collect(rec: SpanRecorder, args) -> None:
        rec.collected += 1

    def detections_out(rec: SpanRecorder, args, result) -> Tuple[int, int]:
        return 0, len(result)

    for method in ("submit_alerts", "submit_raw", "ingest_raw_stream"):
        patch(TestbedPipeline, method, span("testbed.pipeline.submit", _next_submit))
    patch(
        TestbedPipeline,
        "collect_detections",
        span("testbed.pipeline.collect", _next_collect),
    )
    patch(
        NormalizerStage,
        "process",
        span(
            "telemetry.normalizer.process",
            _next_submit,
            count=batch_in_out,
        ),
    )
    patch(
        ScanFilterStage,
        "process",
        span(
            "telemetry.filtering.process",
            _next_submit,
            count=batch_in_out,
        ),
    )
    patch(
        DetectionStage,
        "submit",
        span(
            "testbed.stages.detect.submit",
            _submitting,
            before=before_detect_submit,
            count=alerts_and_new_entities,
        ),
    )
    patch(
        DetectionStage,
        "collect",
        span(
            "testbed.stages.detect.collect",
            _collecting,
            before=before_detect_collect,
            count=detections_out,
        ),
    )
    patch(
        ResponseStage,
        "process",
        span(
            "testbed.responder.process",
            _collecting,
            count=batch_in_out,
        ),
    )

    # -- testbed.sharding: process-backed pools only.  The serial
    # single-shard facade has no transport and no workers; its partition
    # loop stays in the detection stage's self time. --------------------
    def process_pools_only(name: str, batch, **hooks) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            traced = recorder.wrap(original, name, batch, **hooks)

            @functools.wraps(original)
            def dispatch(pool, *args, **kwargs):
                chosen = traced if pool.backend == "process" else original
                return chosen(pool, *args, **kwargs)

            return dispatch

        return make

    def before_pool_submit(rec: SpanRecorder, args) -> None:
        rec.captured_batches.append(args[1])

    patch(
        ShardedDetectorPool,
        "submit_batch",
        process_pools_only(
            "testbed.sharding.submit_batch", _submitting, before=before_pool_submit
        ),
    )
    patch(
        ShardedDetectorPool,
        "collect",
        process_pools_only("testbed.sharding.collect", _collecting),
    )

    # -- core.attack_tagger: in-process decode (shard workers report
    # theirs through the pool's busy_seconds) ---------------------------
    patch(
        AttackTagger,
        "observe_batch_indexed",
        span("core.attack_tagger.observe", _submitting),
    )

    # -- testbed.checkpoint: one snapshot as the pipeline closes --------
    def snapshot_bytes(rec: SpanRecorder, args, result) -> Tuple[int, int]:
        return 0, result

    patch(
        TestbedPipeline,
        "checkpoint",
        span("testbed.checkpoint.snapshot", _collecting, count=snapshot_bytes),
    )

    def snapshot_then_close(original: Callable) -> Callable:
        @functools.wraps(original)
        def close(pipeline, **kwargs):
            try:
                if not pipeline.inflight_detection_batches:
                    pipeline.checkpoint(checkpoint_path)
            finally:
                result = original(pipeline, **kwargs)
            return result

        return close

    patch(TestbedPipeline, "close", snapshot_then_close)
    try:
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus what direct children cover."""
    selfs = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            selfs[parent] -= span[2] - span[1]
    return selfs


def layer_totals(
    spans: Sequence[Sequence],
    windows: Iterable[Tuple[float, float, float]],
    end_of_run_scale: float,
) -> Dict[str, float]:
    """Self time and counts per layer metric inside the timed windows.

    ``windows`` are ``(start, end, scale)`` in the recorder's clock
    (``time.perf_counter``, system-wide on Linux, so the harness's own
    timestamps bound the service's spans).  A span counts toward the
    window its start falls in; its self time is scaled by that window's
    calibration factor.  Spans outside every window (warm-up, shutdown)
    are dropped, except the end-of-run checkpoint, which is scaled by
    ``end_of_run_scale``.
    """
    windows = sorted(windows)
    starts = [window[0] for window in windows]
    totals: Dict[str, float] = {
        metric: 0.0 for row in LAYERS.values() for metric in row if metric
    }
    for span, self_time in zip(spans, self_times(spans)):
        if span[0] == END_OF_RUN_SPAN:
            scale = end_of_run_scale
        else:
            index = bisect.bisect_right(starts, span[1]) - 1
            if index < 0 or span[1] > windows[index][1]:
                continue
            scale = windows[index][2]
        time_metric, in_metric, out_metric = LAYERS[span[0]]
        totals[time_metric] += self_time * scale
        if in_metric:
            totals[in_metric] += span[5]
        if out_metric:
            totals[out_metric] += span[6]
    return totals


__all__ = [
    "LAYERS",
    "SpanRecorder",
    "installed",
    "layer_totals",
    "load",
    "self_times",
]
