"""Traffic mirroring and alert forwarding bus.

The testbed receives *mirrored* alerts of all production network
traffic (Fig. 4: the border router feeds both the target systems and
the testbed's alert-filtering stage).  The mirror is modelled as a
simple publish/subscribe bus over raw monitor records and normalised
alerts: monitors publish, the filtering stage and any number of
detection models subscribe.  Subscribers are plain callables, so the
pipeline can wire the real components and tests can attach probes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from ..core.alerts import Alert
from ..telemetry.logsource import RawLogRecord

RawSubscriber = Callable[[RawLogRecord], None]
AlertSubscriber = Callable[[Alert], None]


@dataclasses.dataclass
class MirrorStats:
    """Counters for what flowed through the mirror.

    ``raw_records`` / ``alerts`` count what was published.  The mirror
    itself forwards everything and keeps nothing, so it never drops:
    ``dropped_raw`` / ``dropped_alerts`` are the ledger the service's
    :class:`~repro.service.admission.AdmissionController` charges for
    every record or alert it sheds *before* publication.
    """

    raw_records: int = 0
    alerts: int = 0
    dropped_raw: int = 0
    dropped_alerts: int = 0


class TrafficMirror:
    """Publish/subscribe bus for raw records and normalised alerts.

    A publish counts the items and hands each to every subscriber;
    nothing is retained, so the mirror's memory and its share of a
    checkpoint do not grow with the traffic it has carried.  To observe
    what flows through, subscribe.
    """

    def __init__(self) -> None:
        self._raw_subscribers: list[RawSubscriber] = []
        self._alert_subscribers: list[AlertSubscriber] = []
        self.stats = MirrorStats()

    # -- subscription ------------------------------------------------------
    def subscribe_raw(self, subscriber: RawSubscriber) -> None:
        """Receive every mirrored raw record."""
        self._raw_subscribers.append(subscriber)

    def subscribe_alerts(self, subscriber: AlertSubscriber) -> None:
        """Receive every normalised alert."""
        self._alert_subscribers.append(subscriber)

    # -- publication ----------------------------------------------------------
    def publish_raw(self, record: RawLogRecord) -> None:
        """Mirror one raw monitor record."""
        self.publish_raw_many((record,))

    def publish_raw_many(self, records: Iterable[RawLogRecord]) -> None:
        """Mirror many raw records as one bulk publish.

        The counter moves once per call.  Subscribers are then called
        record by record, each record reaching every subscriber before
        the next record reaches any (the single-publish order).
        """
        records = tuple(records)
        self.stats.raw_records += len(records)
        for record in records:
            for subscriber in self._raw_subscribers:
                subscriber(record)

    def publish_alert(self, alert: Alert) -> None:
        """Forward one normalised alert to the detection models."""
        self.publish_alerts((alert,))

    def publish_alerts(self, alerts: Iterable[Alert]) -> None:
        """Forward many alerts (bulk, see :meth:`publish_raw_many`)."""
        alerts = tuple(alerts)
        self.stats.alerts += len(alerts)
        for alert in alerts:
            for subscriber in self._alert_subscribers:
                subscriber(alert)

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture the :class:`MirrorStats` counters for a checkpoint.

        Subscribers are wiring, not state: a restored pipeline re-wires
        its own subscribers at construction.
        """
        return {"stats": dataclasses.replace(self.stats)}

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` mapping back into this mirror.

        Only ``"stats"`` is read, so a version-1 checkpoint written when
        the mirror still archived its traffic restores too.
        """
        self.stats = dataclasses.replace(state["stats"])


__all__ = ["TrafficMirror", "MirrorStats", "RawSubscriber", "AlertSubscriber"]
