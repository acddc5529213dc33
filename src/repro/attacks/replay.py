"""Incident and scenario replay into a detector.

The testbed's purpose is evaluating detection models against *replayed*
real traffic: past incidents from the corpus, emulated attack
scenarios, and benign background activity are interleaved into one
time-ordered alert stream and delivered to a detector.  The replay
engine supports time compression (a 24-year corpus replays in
milliseconds) while preserving ordering and relative spacing, which is
what the timing-sensitive components (dedup windows, preemption lead
times) care about.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from ..core.alerts import Alert, sort_alerts
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from ..core.sequences import AlertSequence


@dataclasses.dataclass
class ReplayEvent:
    """One delivered alert plus any detection it triggered."""

    alert: Alert
    detection: Optional[Detection]


@dataclasses.dataclass
class ReplayResult:
    """Outcome of one replay run."""

    events: list[ReplayEvent]
    detections: list[Detection]


class ReplayEngine:
    """Replays alert streams into detectors."""

    def __init__(self, *, time_compression: float = 1.0) -> None:
        if time_compression <= 0:
            raise ValueError("time_compression must be positive")
        self.time_compression = float(time_compression)

    # ------------------------------------------------------------------
    # Stream assembly
    # ------------------------------------------------------------------
    def compress(self, alerts: Iterable[Alert]) -> list[Alert]:
        """Rescale inter-alert gaps by the engine's compression factor."""
        ordered = sort_alerts(list(alerts))
        if not ordered or self.time_compression == 1.0:
            return ordered
        base = ordered[0].timestamp
        compressed = []
        for alert in ordered:
            new_time = base + (alert.timestamp - base) / self.time_compression
            compressed.append(
                Alert(
                    timestamp=new_time,
                    name=alert.name,
                    entity=alert.entity,
                    source_ip=alert.source_ip,
                    host=alert.host,
                    monitor=alert.monitor,
                    attributes=dict(alert.attributes),
                )
            )
        return compressed

    @staticmethod
    def interleave(*streams: Iterable[Alert]) -> list[Alert]:
        """Merge several alert streams into one time-ordered stream."""
        merged: list[Alert] = []
        for stream in streams:
            merged.extend(stream)
        return sort_alerts(merged)

    # ------------------------------------------------------------------
    # Replay targets
    # ------------------------------------------------------------------
    def replay_into_detector(self, alerts: Iterable[Alert], detector: Detector) -> ReplayResult:
        """Deliver alerts one by one into a detector."""
        events: list[ReplayEvent] = []
        detections: list[Detection] = []
        for alert in self.compress(alerts):
            detection = detector.observe(alert)
            events.append(ReplayEvent(alert=alert, detection=detection))
            if detection is not None:
                detections.append(detection)
        return ReplayResult(events=events, detections=detections)

    @staticmethod
    def sequences_to_stream(sequences: Iterable[AlertSequence]) -> list[Alert]:
        """Flatten many sequences into one time-ordered alert stream."""
        alerts: list[Alert] = []
        for sequence in sequences:
            alerts.extend(sequence)
        return sort_alerts(alerts)


__all__ = ["ReplayEvent", "ReplayResult", "ReplayEngine"]
