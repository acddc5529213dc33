"""Response and remediation: operator notification, blocking, quarantine.

Fig. 4's final stage is "Response and Remediation": once a detector
tags an entity malicious, the testbed notifies the security operators
and, through the Black Hole Router's API, null-routes the attacker's
address; compromised honeypot instances are recycled.  The paper's case
study is exactly this path -- the factor-graph model's detection of the
ransomware's C2 attempt produced an operator notification twelve days
before the equivalent production incident.

:class:`ResponseOrchestrator` implements that policy over the BHR
client, the honeypot lifecycle manager, and a notification log that
doubles as the operators' timeline.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..core.attack_tagger import Detection
from .bhr import BHRClient
from .honeypot import Honeypot


class ResponseAction(enum.Enum):
    """Actions the responder can take."""

    NOTIFY_OPERATORS = "notify_operators"
    BLOCK_SOURCE = "block_source"
    QUARANTINE_ENTITY = "quarantine_entity"
    RECYCLE_HONEYPOT = "recycle_honeypot"


@dataclasses.dataclass(frozen=True)
class OperatorNotification:
    """One notification delivered to the security operators."""

    timestamp: float
    entity: str
    summary: str
    detection: Detection
    severity: str = "high"


@dataclasses.dataclass(frozen=True)
class ResponseRecord:
    """One action taken in response to a detection."""

    timestamp: float
    action: ResponseAction
    target: str
    detail: str = ""


@dataclasses.dataclass
class ResponsePolicy:
    """Tunable response policy."""

    block_attacker_ips: bool = True
    block_duration_seconds: Optional[float] = 30 * 86_400.0
    quarantine_entities: bool = True
    recycle_honeypot_instances: bool = True
    scanner_block_duration_seconds: float = 86_400.0


class ResponseOrchestrator:
    """Turns detections into notifications, blocks and quarantines."""

    #: Checkpointed stream state (``TestbedPipeline._stateful``).
    stream_state = ("notifications", "actions", "quarantined_entities")

    def __init__(
        self,
        bhr_client: BHRClient,
        *,
        honeypot: Optional[Honeypot] = None,
        policy: Optional[ResponsePolicy] = None,
    ) -> None:
        self.bhr = bhr_client
        self.honeypot = honeypot
        self.policy = policy or ResponsePolicy()
        self.notifications: list[OperatorNotification] = []
        self.actions: list[ResponseRecord] = []
        self.quarantined_entities: set[str] = set()

    # ------------------------------------------------------------------
    def handle_detection(self, detection: Detection) -> list[ResponseRecord]:
        """Respond to one detection; returns the actions taken."""
        taken: list[ResponseRecord] = []
        now = detection.timestamp
        summary = (
            f"Entity {detection.entity} tagged malicious "
            f"(confidence {detection.confidence:.2f}, trigger {detection.trigger.name})"
        )
        self.notifications.append(
            OperatorNotification(
                timestamp=now, entity=detection.entity, summary=summary, detection=detection
            )
        )
        taken.append(
            ResponseRecord(now, ResponseAction.NOTIFY_OPERATORS, detection.entity, summary)
        )

        source_ip = detection.trigger.source_ip
        if self.policy.block_attacker_ips and source_ip:
            self.bhr.block(
                source_ip,
                reason=f"attack detected against {detection.entity}",
                now=now,
                duration_seconds=self.policy.block_duration_seconds,
            )
            taken.append(ResponseRecord(now, ResponseAction.BLOCK_SOURCE, source_ip))

        if self.policy.quarantine_entities:
            self.quarantined_entities.add(detection.entity)
            taken.append(ResponseRecord(now, ResponseAction.QUARANTINE_ENTITY, detection.entity))

        if self.policy.recycle_honeypot_instances and self.honeypot is not None:
            recycled = self.honeypot.recycle_compromised(now)
            if recycled:
                taken.append(
                    ResponseRecord(
                        now, ResponseAction.RECYCLE_HONEYPOT, "honeypot", f"recycled {recycled} instance(s)"
                    )
                )

        self.actions.extend(taken)
        return taken

    def handle_mass_scanner(self, timestamp: float, source_ip: str, scan_count: int) -> ResponseRecord:
        """Short automatic block for a mass scanner (no operator page)."""
        self.bhr.block(
            source_ip,
            reason=f"mass scanning ({scan_count} probes)",
            now=timestamp,
            duration_seconds=self.policy.scanner_block_duration_seconds,
        )
        record = ResponseRecord(timestamp, ResponseAction.BLOCK_SOURCE, source_ip, "mass scanner")
        self.actions.append(record)
        return record

    # ------------------------------------------------------------------
    def is_quarantined(self, entity: str) -> bool:
        """Whether an entity has been quarantined."""
        return entity in self.quarantined_entities

    def notification_timeline(self) -> list[tuple[float, str]]:
        """(timestamp, summary) pairs, in delivery order."""
        return [(n.timestamp, n.summary) for n in self.notifications]


__all__ = [
    "ResponseAction",
    "OperatorNotification",
    "ResponseRecord",
    "ResponsePolicy",
    "ResponseOrchestrator",
]
