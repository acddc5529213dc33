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
from collections import deque
from typing import Callable, Deque, Iterable, Optional

from ..core.alerts import Alert
from ..telemetry.logsource import RawLogRecord

RawSubscriber = Callable[[RawLogRecord], None]
AlertSubscriber = Callable[[Alert], None]


@dataclasses.dataclass
class MirrorStats:
    """Counters for what flowed through the mirror.

    ``dropped_raw`` / ``dropped_alerts`` count every record evicted
    from the respective bounded buffer (one per publish once the buffer
    is saturated); they say nothing about delivery to subscribers,
    which always see every published item.
    """

    raw_records: int = 0
    alerts: int = 0
    dropped_raw: int = 0
    dropped_alerts: int = 0


class TrafficMirror:
    """Publish/subscribe bus for raw records and normalised alerts.

    With ``max_buffer`` set, the retention buffers are bounded
    ``deque``\\ s: a publish at capacity evicts the oldest entry in
    O(1) (the previous list-based trim shifted the whole buffer on
    every publish once saturated) and is counted in
    :attr:`MirrorStats.dropped_raw` / :attr:`MirrorStats.dropped_alerts`.
    """

    def __init__(self, *, max_buffer: Optional[int] = None) -> None:
        self._raw_subscribers: list[RawSubscriber] = []
        self._alert_subscribers: list[AlertSubscriber] = []
        self.raw_buffer: Deque[RawLogRecord] = deque(maxlen=max_buffer)
        self.alert_buffer: Deque[Alert] = deque(maxlen=max_buffer)
        self.stats = MirrorStats()

    @property
    def max_buffer(self) -> Optional[int]:
        """The retention bound (``None`` = unbounded).

        Fixed at construction (it is the deques' ``maxlen``); exposed
        read-only so a silent ``mirror.max_buffer = n`` assignment --
        which the old list-based trim honoured -- fails loudly instead
        of doing nothing.
        """
        return self.raw_buffer.maxlen

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

        The counters move once per call and the retention buffer takes
        one ``deque.extend``.  For a bounded buffer holding ``L`` of
        ``max_buffer`` entries, publishing ``n`` records one at a time
        evicts on every append after the first ``max_buffer - L``, so
        ``dropped_raw`` grows by ``max(0, L + n - max_buffer)`` -- the
        figure computed here.  Subscribers are then called record by
        record, each record reaching every subscriber before the next
        record reaches any (the single-publish order).
        """
        records = tuple(records)
        self.stats.raw_records += len(records)
        self.stats.dropped_raw += self._retain(self.raw_buffer, records)
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
        self.stats.dropped_alerts += self._retain(self.alert_buffer, alerts)
        for alert in alerts:
            for subscriber in self._alert_subscribers:
                subscriber(alert)

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture counters and retention buffers for a checkpoint.

        Subscribers are wiring, not state: a restored pipeline re-wires
        its own subscribers at construction, so only the buffers and
        :class:`MirrorStats` are captured.
        """
        return {
            "max_buffer": self.max_buffer,
            "stats": dataclasses.replace(self.stats),
            "raw_buffer": list(self.raw_buffer),
            "alert_buffer": list(self.alert_buffer),
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` mapping back into this mirror."""
        if state["max_buffer"] != self.max_buffer:
            raise ValueError(
                f"checkpoint mirror max_buffer={state['max_buffer']!r} does "
                f"not match this mirror's max_buffer={self.max_buffer!r}"
            )
        self.raw_buffer.clear()
        self.raw_buffer.extend(state["raw_buffer"])
        self.alert_buffer.clear()
        self.alert_buffer.extend(state["alert_buffer"])
        self.stats = dataclasses.replace(state["stats"])

    # -- internals ----------------------------------------------------------------
    @staticmethod
    def _retain(buffer: Deque, items: tuple) -> int:
        """Append ``items``; return how many entries that evicted."""
        dropped = 0
        if buffer.maxlen is not None:
            dropped = max(0, len(buffer) + len(items) - buffer.maxlen)
        buffer.extend(items)
        return dropped


__all__ = ["TrafficMirror", "MirrorStats", "RawSubscriber", "AlertSubscriber"]
