"""Metric definitions: what each name means and how it is computed.

``E2E`` and ``PER_LAYER`` are the single list of names, units and
directions; ``BENCHMARK.json`` repeats them for the driver and
``test_smoke.py`` holds the two equal.  Every timing is in
*reference-core* units (raw seconds scaled by the segment's
calibration, see :mod:`e2e_harness`); raw walls ride along as
``harness.raw_*``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.alerts import (
    decode_alert_columns,
    encode_alert_columns,
    pack_alert_columns,
)
from repro.testbed.sharding import shard_of
from repro.testbed.shm_ring import ShardRing

import e2e_spans
from e2e_harness import (
    CAL_REF_S,
    REPLAY_RING_CAPACITY,
    Calibrator,
    Measured,
    percentile,
)
from e2e_workloads import REPLAY_SHARDS

#: ``(name, unit, better, bound)``.  ``bound`` is the share of the
#: parent's median by which the metric may worsen.
E2E = (
    ("setup_s", "s", "lower", 0.25),
    ("norm_inputs_per_s", "1/s", "higher", 0.25),
    ("norm_latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

#: Layer self times: each is reported in reference-core seconds and,
#: as ``<stem>_share``, as a share of the batch wall.
LAYER_SECONDS = (
    "service.protocol.decode_s",
    "service.protocol.encode_s",
    "service.admission.admit_s",
    "service.server.unattributed_s",
    "telemetry.normalizer.self_s",
    "telemetry.filtering.self_s",
    "testbed.pipeline.submit_self_s",
    "testbed.pipeline.collect_self_s",
    "testbed.sharding.submit_s",
    "testbed.sharding.collect_wait_s",
    "core.attack_tagger.observe_s",
    "testbed.responder.respond_s",
)

#: Layer metrics outside the batch-wall budget: off-path micro-replays,
#: worker CPU time (parallel to the parent) and the end-of-run snapshot.
LAYER_SECONDS_OFF_PATH = (
    "testbed.sharding.worker_busy_s",
    "testbed.sharding.worker_kernel_s",
    "core.alerts.encode_s",
    "core.alerts.decode_s",
    "testbed.shm_ring.write_s",
    "testbed.checkpoint.snapshot_s",
)

LAYER_COUNTS = (
    ("service.protocol.bytes_in", "B", "lower"),
    ("service.protocol.requests", "count", "lower"),
    ("service.admission.admitted", "count", "higher"),
    ("service.admission.shed", "count", "lower"),
    ("service.admission.rejected", "count", "lower"),
    ("service.server.queue_depth_max", "count", "lower"),
    ("telemetry.normalizer.records_in", "count", "higher"),
    ("telemetry.normalizer.alerts_out", "count", "lower"),
    ("telemetry.filtering.alerts_in", "count", "lower"),
    ("telemetry.filtering.alerts_out", "count", "lower"),
    ("testbed.sharding.shard_skew", "ratio", "lower"),
    ("testbed.sharding.shm_batches", "count", "higher"),
    ("testbed.sharding.shm_fallbacks", "count", "lower"),
    ("core.alerts.bytes", "B", "lower"),
    ("testbed.shm_ring.bytes", "B", "lower"),
    ("core.attack_tagger.alerts", "count", "lower"),
    ("core.attack_tagger.entities_created", "count", "lower"),
    ("core.attack_tagger.detections", "count", "higher"),
    ("testbed.responder.detections_in", "count", "higher"),
    ("testbed.responder.actions_out", "count", "higher"),
    ("testbed.checkpoint.snapshot_bytes", "B", "lower"),
    ("harness.raw_inputs_per_s", "1/s", "higher"),
    ("harness.raw_latency_p50_ms", "ms", "lower"),
    ("harness.norm_latency_p90_ms", "ms", "lower"),
    ("harness.cal_s_median", "s", "lower"),
    ("harness.cal_s_iqr", "s", "lower"),
    ("harness.generator_late_ms_p99", "ms", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.attributed_share", "ratio", "higher"),
)


def _share_name(seconds_name: str) -> str:
    return seconds_name[: -len("_s")] + "_share"


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = tuple(
    [(name, "s", "lower") for name in LAYER_SECONDS + LAYER_SECONDS_OFF_PATH]
    + [(_share_name(name), "ratio", "lower") for name in LAYER_SECONDS]
    + list(LAYER_COUNTS)
)

Metrics = Dict[str, Tuple[float, str]]


def _units(table) -> Dict[str, str]:
    return {row[0]: row[1] for row in table}


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _unit_latencies(measured: Measured, *, scaled: bool) -> List[float]:
    """Seconds per completion unit, in reference-core or raw seconds."""
    return [
        latency * (segment.scale if scaled else 1.0)
        for segment in measured.segments
        for latency in segment.latencies
    ]


def _inputs_per_second(measured: Measured, *, scaled: bool) -> float:
    """Inputs over request time, per loop type.

    Closed loops: the timed region's inputs over its total wall.  A
    total, not the issue's median over segments: ``entity_churn``
    (reset cycle, collector passes) and ``sharded_replay`` (block
    pattern) have segments that differ two to one by design, and the
    median of such a mix moved 8-16% between identical runs where the
    total moved 6-8%.

    Open loop: request time is the sum of the batches' latencies, so
    the rate is what one synchronous caller would sustain, and the
    figure is the median over segments.  A 200 ms hypervisor stall is
    forty batch latencies; in a total it moved the rate by up to 36%
    between identical runs, where it spoils one segment of twenty.
    """
    if measured.loop == "open":
        return statistics.median(
            segment.inputs
            / (sum(segment.latencies) * (segment.scale if scaled else 1.0))
            for segment in measured.segments
        )
    return sum(segment.inputs for segment in measured.segments) / sum(
        _unit_latencies(measured, scaled=scaled)
    )


def _timed_cals(measured: Measured) -> List[float]:
    """The calibration samples between and around the timed segments."""
    return [segment.cal_before for segment in measured.segments[:1]] + [
        segment.cal_after for segment in measured.segments
    ]


def e2e_metrics(measured: Measured, setups: Sequence[Measured]) -> Metrics:
    """The end-to-end metrics of one untraced run and its set-ups.

    ``setups`` are the runs whose set-up was timed (``measured`` among
    them); ``setup_s`` is the median of their raw walls, scaled by the
    mean of every calibration sample of the invocation.  Scaling each
    set-up by the two samples around it carried those two samples'
    noise (each spreads 15-20%) straight into the figure.
    """
    cals = _timed_cals(measured) + [cal for run in setups for cal in run.setup_cals]
    latencies = _unit_latencies(measured, scaled=True)
    values = {
        "setup_s": statistics.median(run.setup_wall_s for run in setups)
        * CAL_REF_S
        / statistics.mean(cals),
        "norm_inputs_per_s": _inputs_per_second(measured, scaled=True),
        "norm_latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "peak_rss_mb": measured.peak_rss_mb,
    }
    units = _units(E2E)
    return {name: (values[name], units[name]) for name in values}


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def codec_micro_replay(captured_batches: Sequence[Sequence]) -> Dict[str, float]:
    """Re-run the flat codec and a ring write over the captured batches.

    The process pool encodes each shard's sub-batch and writes it into
    that shard's ring inside ``submit_batch``; the worker decodes it.
    Neither has a public boundary to wrap in flight, so the captured
    filtered batches are partitioned the way the pool partitions them
    and pushed through the same public functions off the clock.
    """
    totals = dict.fromkeys(
        (
            "core.alerts.encode_s",
            "core.alerts.decode_s",
            "core.alerts.bytes",
            "testbed.shm_ring.write_s",
            "testbed.shm_ring.bytes",
        ),
        0.0,
    )
    if not captured_batches:
        return totals
    cal = Calibrator().sample
    ring = ShardRing.create(REPLAY_RING_CAPACITY)
    try:
        before = cal()
        for batch in captured_batches:
            shards: List[list] = [[] for _ in range(REPLAY_SHARDS)]
            for alert in batch:
                shards[shard_of(alert.entity, REPLAY_SHARDS)].append(alert)
            for sub_batch in filter(None, shards):
                packed = pack_alert_columns(sub_batch)
                t0 = time.perf_counter()
                encoded = encode_alert_columns(packed)
                t1 = time.perf_counter()
                decode_alert_columns(encoded)
                t2 = time.perf_counter()
                offset = ring.write(encoded)
                t3 = time.perf_counter()
                if offset is not None:
                    ring.release(offset, len(encoded))
                    totals["testbed.shm_ring.write_s"] += t3 - t2
                    totals["testbed.shm_ring.bytes"] += len(encoded)
                totals["core.alerts.encode_s"] += t1 - t0
                totals["core.alerts.decode_s"] += t2 - t1
                totals["core.alerts.bytes"] += len(encoded)
        scale = CAL_REF_S / ((before + cal()) / 2.0)
    finally:
        ring.close()
    for name in ("core.alerts.encode_s", "core.alerts.decode_s", "testbed.shm_ring.write_s"):
        totals[name] *= scale
    return totals


def layer_metrics(untraced: Measured, traced: Measured) -> Metrics:
    """The per-layer metrics of one traced run (and its untraced twin)."""
    median_scale = statistics.median(segment.scale for segment in traced.segments)
    span_totals = e2e_spans.layer_totals(
        traced.spans,
        [(segment.start, segment.end, segment.scale) for segment in traced.segments],
        median_scale,
    )
    # The budget: every on-path span's self time, against the batch
    # wall the harness measured from outside.  What is left over --
    # event loop, socket, queue hops -- is the server's unattributed time.
    batch_wall = sum(_unit_latencies(traced, scaled=True))
    attributed = sum(span_totals[name] for name in LAYER_SECONDS if name in span_totals)

    values: Dict[str, float] = dict.fromkeys(_units(PER_LAYER), 0.0)
    values.update(span_totals)
    values.update(traced.counters)
    values.update(codec_micro_replay(traced.captured_batches))
    for name in ("testbed.sharding.worker_busy_s", "testbed.sharding.worker_kernel_s"):
        values[name] *= median_scale
    if values["testbed.sharding.worker_busy_s"]:
        # Process shards decode in the workers, beside the parent's
        # batch wall; they report their CPU seconds through the pool.
        values["core.attack_tagger.observe_s"] = values["testbed.sharding.worker_busy_s"]
    values["service.server.unattributed_s"] = batch_wall - attributed
    values["harness.attributed_share"] = attributed / batch_wall
    for name in LAYER_SECONDS:
        values[_share_name(name)] = values[name] / batch_wall

    median, iqr = cal_spread(traced)
    late = [value for segment in traced.segments for value in segment.late] or [0.0]
    values.update(
        {
            "harness.raw_inputs_per_s": _inputs_per_second(traced, scaled=False),
            "harness.raw_latency_p50_ms": percentile(
                _unit_latencies(traced, scaled=False), 0.5
            )
            * 1e3,
            "harness.norm_latency_p90_ms": percentile(
                _unit_latencies(untraced, scaled=True), 0.9
            )
            * 1e3,
            "harness.cal_s_median": median,
            "harness.cal_s_iqr": iqr,
            "harness.generator_late_ms_p99": percentile(late, 0.99) * 1e3,
            "harness.trace_overhead_share": _inputs_per_second(untraced, scaled=True)
            / _inputs_per_second(traced, scaled=True)
            - 1.0,
        }
    )
    units = _units(PER_LAYER)
    return {name: (values[name], units[name]) for name in units}


def cal_spread(measured: Measured) -> Tuple[float, float]:
    """``(median, iqr)`` of a run's calibration samples."""
    low, median, high = statistics.quantiles(_timed_cals(measured), n=4)
    return median, high - low


__all__ = [
    "E2E",
    "PER_LAYER",
    "cal_spread",
    "e2e_metrics",
    "layer_metrics",
]
