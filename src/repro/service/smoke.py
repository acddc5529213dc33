"""Service smoke gate: pinned campaigns over a real socket.

The CI-facing end-to-end check for the always-on service: three pinned
fuzzer campaigns are streamed to an in-process :class:`~repro.service
.server.DetectionService` over a real TCP socket -- one of them across
a live N->M reshard, one through the raw-record path -- and the
results read back through the ``results`` op must be **bit-identical**
to the offline differential-oracle reference replay
(``naive:1:serial:sync``) of the same campaign.  This is the service
analogue of the quick-fuzz gate: it proves the socket framing, the
admission path (running open), the single-consumer schedule, the
two-phase pipeline driver, and the live reshard all preserve the
repo's central determinism claim.

Run via ``python -m repro.service --smoke``.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from ..testbed.pipeline import TestbedPipeline
from ..fuzz.campaign import Campaign, CampaignComposer
from ..fuzz.oracle import (
    COMPARED_COUNTERS,
    DifferentialOracle,
    OracleConfig,
    REFERENCE_CONFIG,
    ReplayResult,
    build_pipeline,
    drive,
)
from .admission import ServiceClient
from .protocol import SERVICE_MAX_RESTARTS, serialize_results
from .server import ServiceConfig, start_service_in_thread


def build_service_pipeline(
    campaign: Campaign,
    *,
    engine: str = "streaming",
    n_shards: int = 2,
    backend: str = "process",
) -> TestbedPipeline:
    """The runner's campaign-shaped pipeline under the service's restart budget."""
    return build_pipeline(
        campaign,
        OracleConfig(engine=engine, n_shards=n_shards, backend=backend),
        max_restarts=SERVICE_MAX_RESTARTS,
    )


def reference_results(campaign: Campaign) -> dict:
    """The offline reference surface, serialised like the ``results`` op."""
    replay: ReplayResult = DifferentialOracle([]).replay(campaign, REFERENCE_CONFIG)
    serialized = serialize_results(
        replay.detections,
        replay.detection_log,
        replay.notifications,
        replay.actions,
        {key: replay.counters[key] for key in COMPARED_COUNTERS},
    )
    # A JSON round-trip normalises tuples/lists exactly the way the
    # socket does, so the comparison is representation-for-representation.
    return json.loads(json.dumps(serialized))


def stream_campaign(
    client: ServiceClient,
    campaign: Campaign,
    *,
    as_raw: bool = False,
    reshard_to: Optional[int] = None,
    reshard_at: Optional[int] = None,
) -> dict:
    """Drive one campaign through a connected client; return ``results``.

    ``reshard_at``/``reshard_to`` inject a live reshard before that
    event index -- the outputs must not change (the bit-identity
    contract of :meth:`TestbedPipeline.reshard`).
    """

    def reshard_before(point: str, index: int) -> None:
        if point == "event" and index == reshard_at:
            client.reshard(reshard_to)

    drive(campaign, client, "raw_stream" if as_raw else "alert_stream", reshard_before)
    return read_results(client)


def read_results(client: ServiceClient) -> dict:
    """Quiesce the service, then read the compared surface back."""
    client.drain()
    reply = client.results()
    return {
        key: reply[key]
        for key in ("detections", "detection_log", "notifications", "actions", "counters")
    }


def _strip_trigger_attributes(results: dict) -> dict:
    """Drop trigger ``attributes`` from every serialised detection.

    Raw-driver comparisons only: the normaliser rebuilds alerts with
    attributes drawn from the Zeek record, not the campaign, so raw
    replays are exempt from attribute comparison -- exactly the
    exemption the differential oracle applies (``Alert.__eq__``
    excludes ``attributes``; the oracle's explicit attribute check
    skips ``raw_stream`` configs).  Every *compared* field still must
    match bit-for-bit.
    """

    def strip(detection: dict) -> dict:
        trigger = {k: v for k, v in detection["trigger"].items() if k != "attributes"}
        return {**detection, "trigger": trigger}

    return {
        "detections": [strip(d) for d in results["detections"]],
        "detection_log": [[name, strip(d)] for name, d in results["detection_log"]],
        "notifications": [
            {**n, "detection": strip(n["detection"])} for n in results["notifications"]
        ],
        "actions": results["actions"],
        "counters": results["counters"],
    }


def compare_results(
    expected: dict, got: dict, *, ignore_trigger_attributes: bool = False
) -> List[str]:
    """Field-level differences between two serialised result surfaces."""
    if ignore_trigger_attributes:
        expected = _strip_trigger_attributes(expected)
        got = _strip_trigger_attributes(got)
    differences = []
    for field in ("detections", "detection_log", "notifications", "actions"):
        if expected[field] != got[field]:
            length_note = f"{len(got[field])} vs {len(expected[field])} entries"
            differences.append(f"{field} diverged ({length_note})")
    for key in COMPARED_COUNTERS:
        if expected["counters"].get(key) != got["counters"].get(key):
            differences.append(
                f"counter {key}: {got['counters'].get(key)!r} "
                f"!= {expected['counters'].get(key)!r}"
            )
    return differences


def run_service_smoke(*, target_alerts: int = 120, verbose: bool = True) -> int:
    """Run the three pinned socket legs; return a process exit code."""
    composer = CampaignComposer(0, target_alerts=target_alerts)
    legs: List[Tuple[str, Campaign, dict]] = [
        (
            "alerts[streaming:2:process]",
            composer.compose(0),
            {"engine": "streaming", "n_shards": 2, "backend": "process"},
        ),
        (
            "alerts+reshard[streaming:2->3:process]",
            composer.compose(1),
            {
                "engine": "streaming",
                "n_shards": 2,
                "backend": "process",
                "reshard_to": 3,
            },
        ),
        (
            "raw[streaming:2:serial]",
            composer.compose(2, raw_capable=True),
            {"engine": "streaming", "n_shards": 2, "backend": "serial", "as_raw": True},
        ),
    ]
    failures = 0
    for label, campaign, spec in legs:
        expected = reference_results(campaign)
        reshard_to = spec.get("reshard_to")
        reshard_at = len(campaign.events) // 2 if reshard_to else None
        handle = start_service_in_thread(
            lambda c=campaign, s=spec: build_service_pipeline(
                c,
                engine=s["engine"],
                n_shards=s["n_shards"],
                backend=s["backend"],
            ),
            ServiceConfig(),
        )
        try:
            with handle.client() as client:
                got = stream_campaign(
                    client,
                    campaign,
                    as_raw=spec.get("as_raw", False),
                    reshard_to=reshard_to,
                    reshard_at=reshard_at,
                )
                stats = client.stats()
        finally:
            handle.stop()
        differences = compare_results(
            expected, got, ignore_trigger_attributes=spec.get("as_raw", False)
        )
        if reshard_to and stats["pipeline"]["reshard_events"] < 1:
            differences.append("reshard leg recorded no ReshardEvent")
        status = "PASS" if not differences else "FAIL"
        if verbose:
            print(
                f"[{status}] {campaign.label} {label}: "
                f"{len(got['detections'])} detections, "
                f"{stats['batches_processed']} batches"
            )
            for difference in differences:
                print(f"    {difference}")
        if differences:
            failures += 1
    if verbose:
        print(f"service smoke: {len(legs) - failures}/{len(legs)} legs identical")
    return 1 if failures else 0


__all__ = [
    "build_service_pipeline",
    "reference_results",
    "stream_campaign",
    "read_results",
    "compare_results",
    "run_service_smoke",
]
