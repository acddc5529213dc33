"""Tier-1 smoke test of the end-to-end benchmark at toy size.

Runs every workload once, untraced and traced, with a few hundred
inputs, and holds the benchmark to its own contract: every metric
``BENCHMARK.json`` names is emitted with that unit, nothing fails, the
traced run computes what the untraced run computes, and the generators
are a pure function of the seed.  Timing values are not asserted --
they mean nothing at this size.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_metrics  # noqa: E402
import e2e_workloads  # noqa: E402
import run as e2e_run  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def toy(workload: e2e_workloads.Workload) -> e2e_workloads.Workload:
    """The same workload with small batches, windows, warm-up and prefix."""
    batch_size = min(workload.batch_size, 64)
    warmup_batches = 2 if workload.kind == "library" else 8
    return dataclasses.replace(
        workload,
        batch_size=batch_size,
        window=min(workload.window, 2),
        warmup_batches=warmup_batches,
        prefix_inputs=warmup_batches * batch_size,
        resident_mb=16,
        rounds_per_segment=min(workload.rounds_per_segment, 3),
    )


@pytest.fixture(scope="module", params=[w.name for w in e2e_workloads.WORKLOADS])
def outcome(request):
    workload = toy(e2e_workloads.BY_NAME[request.param])
    with pytest.MonkeyPatch.context() as patch:
        # 4 batches between resets, so the toy churn run sends some.
        patch.setattr(e2e_workloads, "CHURN_RESET_ENTITIES", 128)
        return e2e_run.measure(workload, seed=7, seconds=0.0, trace=1)


def test_every_declared_metric_is_emitted_with_its_unit(outcome):
    for table, emitted in (
        (BENCHMARK["end_to_end"], outcome.e2e),
        (BENCHMARK["per_layer"], outcome.layers),
    ):
        declared = {row["name"]: row["unit"] for row in table}
        assert declared == {name: unit for name, (_, unit) in emitted.items()}
        assert all(value == value for value, _ in emitted.values())  # no NaN
    assert all(value > 0 for value, _ in outcome.e2e.values())


def test_nothing_fails_and_results_agree(outcome):
    assert outcome.attempted > 0
    assert outcome.failures == dict.fromkeys(outcome.failures, 0)
    # Traced == untraced digest, prefix == naive reference, >= 1 detection.
    assert outcome.problems == []
    last = json.loads(outcome.final_line())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_benchmark_json_matches_the_code():
    assert [row["name"] for row in BENCHMARK["workloads"]] == [
        workload.name for workload in e2e_workloads.WORKLOADS
    ]
    for row, (name, unit, better, bound) in zip(
        BENCHMARK["end_to_end"], e2e_metrics.E2E, strict=True
    ):
        assert (row["name"], row["unit"], row["better"], row["bound"]) == (
            name, unit, better, bound,
        )  # fmt: skip
    assert [(row["name"], row["unit"], row["better"]) for row in BENCHMARK["per_layer"]] == [
        tuple(row) for row in e2e_metrics.PER_LAYER
    ]
    assert BENCHMARK["run_seconds"] == e2e_run.DEFAULT_SECONDS


def _generated_bytes(workload, seed: int) -> bytes:
    if workload.kind == "library":
        batches = e2e_workloads.replay_record_batches(seed, 3, workload.batch_size)
        return repr([record for batch in batches for record in batch]).encode()
    steps = e2e_workloads.socket_steps(workload, seed, 12)
    return b"".join(step.line for step in steps)


@pytest.mark.parametrize("name", [w.name for w in e2e_workloads.WORKLOADS])
def test_generators_are_a_function_of_the_seed(name):
    workload = toy(e2e_workloads.BY_NAME[name])
    assert _generated_bytes(workload, 7) == _generated_bytes(workload, 7)
    assert _generated_bytes(workload, 7) != _generated_bytes(workload, 8)


def test_conn_record_shortcut_equals_the_telemetry_classes():
    from repro.service.protocol import raw_record_to_dict
    from repro.telemetry.zeek import ConnRecord

    long_way = ConnRecord(
        ts=5.0, uid="C1", orig_h="203.0.7.10", orig_p=40001, resp_h="10.1.0.3",
        resp_p=443, service="ssl", duration=1.5, orig_bytes=1200, resp_bytes=48000,
        conn_state="SF",
    )  # fmt: skip
    assert e2e_workloads._conn_record(
        5.0, "C1", "203.0.7.10", 40001, "10.1.0.3", 443, "node03", service="ssl",
        duration=1.5, orig_bytes=1200, resp_bytes=48000, conn_state="SF",
    ) == raw_record_to_dict(long_way.to_raw("node03"))  # fmt: skip
