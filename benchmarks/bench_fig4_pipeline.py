"""F4 -- Fig. 4: the end-to-end testbed workflow.

Drives a mixture of attack and benign traffic through the assembled
pipeline (mirror -> normalisation -> alert filtering -> detection ->
response/BHR) and checks the workflow behaviour Fig. 4 depicts: scan
noise is filtered before detection, the attack is detected, the
attacker's IP is null-routed, and operators are notified.
"""

from __future__ import annotations

from repro.attacks import MassScanEmulator, RansomwareScenario, ReplayEngine
from repro.core import AttackTagger
from repro.incidents import DEFAULT_CATALOGUE, IncidentGenerator
from repro.testbed import Honeypot, TestbedPipeline
from repro.attacks.ransomware import INITIAL_ATTACKER


def _build_traffic(honeypot):
    """Mixture of attacks and benign traffic (the Fig. 4 input arrow)."""
    scenario = RansomwareScenario(honeypot)
    attack = scenario.run_honeypot_capture(start_time=50_000.0)
    emulator = MassScanEmulator(seed=12)
    scan_records = emulator.generate_scan_records(
        emulator.default_profiles(total_scans=4_000), start_time=0.0, duration_seconds=80_000.0
    )
    scan_alerts = emulator.to_alerts(scan_records)
    benign = IncidentGenerator(seed=41).generate_benign_sequences(40)
    benign_alerts = ReplayEngine.sequences_to_stream(benign)
    return ReplayEngine.interleave(attack.alerts, scan_alerts, benign_alerts), scan_records


def test_fig4_testbed_workflow(benchmark, trained_parameters):
    honeypot = Honeypot()
    traffic, scan_records = _build_traffic(honeypot)

    def _run():
        pipeline = TestbedPipeline(
            detectors={"factor_graph": AttackTagger(trained_parameters,
                                                    patterns=list(DEFAULT_CATALOGUE))},
            honeypot=honeypot,
        )
        # The black-hole router sees the raw scanning directly (Fig. 4's
        # border-router arrow), in parallel with the mirrored alert path.
        pipeline.router.record_scans(scan_records)
        pipeline.ingest_alerts(traffic)
        pipeline.block_top_scanners(now=traffic[-1].timestamp, min_scans=500)
        return pipeline

    pipeline = benchmark.pedantic(_run, rounds=1, iterations=1)
    summary = pipeline.summary()

    print("\nFig. 4: testbed workflow counters")
    for key, value in summary.items():
        if key == "stage_seconds":
            detail = ", ".join(f"{stage}={seconds:.3f}s" for stage, seconds in value.items())
            print(f"  {key:<26} {detail}")
        elif isinstance(value, dict):
            print(f"  {key:<26} {value}")
        else:
            print(f"  {key:<26} {value:,.2f}")

    # Alert filtering removes the bulk of the scan noise before detection.
    assert summary["filtered_alerts"] < summary["normalized_alerts"] * 0.6
    # The ransomware entity is detected and the response path fired.
    assert summary["detections"] >= 1
    assert summary["notifications"] >= 1
    # The attacker's address is null-routed via the BHR API at detection time.
    attacker_blocks = [b for b in pipeline.router.history if b.source_ip == INITIAL_ATTACKER]
    assert attacker_blocks, "the ransomware source must be null-routed"
    assert pipeline.router.is_blocked(INITIAL_ATTACKER, now=attacker_blocks[0].created_at + 1.0)
    # Mass scanners are handled by the automated BHR path, not operator pages.
    assert summary["blocked_sources"] >= 2
