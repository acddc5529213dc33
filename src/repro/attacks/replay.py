"""Incident and scenario replay into the testbed pipeline.

The testbed's purpose is evaluating detection models against *replayed*
real traffic: past incidents from the corpus, emulated attack
scenarios, and benign background activity are interleaved into one
time-ordered alert stream and pushed through the pipeline (or directly
into a detector).  The replay engine supports time compression (a
24-year corpus replays in milliseconds) while preserving ordering and
relative spacing, which is what the timing-sensitive components
(dedup windows, preemption lead times) care about.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

from ..core.alerts import Alert, sort_alerts
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from ..core.sequences import AlertSequence
from ..incidents.corpus import IncidentCorpus
from ..incidents.incident import Incident


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

    @property
    def num_alerts(self) -> int:
        """Number of alerts delivered."""
        return len(self.events)

    def detections_for(self, entity: str) -> list[Detection]:
        """Detections attributed to one entity."""
        return [d for d in self.detections if d.entity == entity]

    def first_detection_time(self, entity: str) -> Optional[float]:
        """Timestamp of the first detection for an entity, if any."""
        detections = self.detections_for(entity)
        return detections[0].timestamp if detections else None


class ReplayEngine:
    """Replays alert streams into detectors or the full pipeline."""

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

    def replay_into_pipeline(self, alerts: Iterable[Alert], pipeline) -> ReplayResult:
        """Deliver alerts in timestamp order into a :class:`TestbedPipeline`."""
        compressed = self.compress(alerts)
        detections = pipeline.ingest_alerts(compressed)
        events = [ReplayEvent(alert=a, detection=None) for a in compressed]
        return ReplayResult(events=events, detections=list(detections))

    # ------------------------------------------------------------------
    # Corpus helpers
    # ------------------------------------------------------------------
    def replay_incident(self, incident: Incident, detector: Detector) -> ReplayResult:
        """Replay one incident's curated alert sequence."""
        return self.replay_into_detector(incident.sequence, detector)

    def replay_corpus(
        self,
        corpus: IncidentCorpus,
        detector_factory,
        *,
        limit: Optional[int] = None,
    ) -> dict[str, ReplayResult]:
        """Replay every incident through a fresh detector instance.

        ``detector_factory`` is called once per incident so detections
        do not leak across incidents.  Returns results keyed by incident
        identifier.
        """
        results: dict[str, ReplayResult] = {}
        incidents: Sequence[Incident] = corpus.incidents[:limit] if limit else corpus.incidents
        for incident in incidents:
            detector = detector_factory()
            results[incident.incident_id] = self.replay_incident(incident, detector)
        return results

    @staticmethod
    def sequences_to_stream(sequences: Iterable[AlertSequence]) -> list[Alert]:
        """Flatten many sequences into one time-ordered alert stream."""
        alerts: list[Alert] = []
        for sequence in sequences:
            alerts.extend(sequence)
        return sort_alerts(alerts)


__all__ = ["ReplayEvent", "ReplayResult", "ReplayEngine"]
