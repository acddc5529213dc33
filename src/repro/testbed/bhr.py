"""Black Hole Router (BHR) model and programmable client API.

NCSA's border defence includes a black-hole (null-route) router: IPs
null-routed by it can no longer reach the production network, and the
router records the mass scanning it absorbs (26.85 million scans in a
single hour on 2024-08-01, the data source of Fig. 1).  The testbed
drives the router through a programmable API (the ``bhr-client``
project) for real-time response: mass scanners get short automatic
blocks, confirmed attackers get long blocks raised by the response
path.

The reproduction models the routing table with expiry, the scan
recorder (per-source counts), and a client API with the real client's
``block`` verb; the router's ``history`` is the audit trail, each entry
naming its caller in ``created_by``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Iterable, Optional

from .addresses import AddressBlock, PRODUCTION_NETWORK


@dataclasses.dataclass(frozen=True)
class ScanRecord:
    """One scan packet recorded by the black-hole router."""

    timestamp: float
    source_ip: str
    destination_ip: str
    destination_port: int


@dataclasses.dataclass
class BlockEntry:
    """One null-route entry."""

    source_ip: str
    reason: str
    created_at: float
    duration_seconds: Optional[float]
    created_by: str = "bhr"

    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or ``None`` for permanent blocks."""
        if self.duration_seconds is None:
            return None
        return self.created_at + self.duration_seconds

    def is_active(self, now: float) -> bool:
        """Whether the block is still in force at ``now``."""
        expiry = self.expires_at()
        return expiry is None or now < expiry


class BlackHoleRouter:
    """Null-route table plus scan recorder."""

    #: Checkpointed stream state (``TestbedPipeline._stateful``).
    stream_state = ("_blocks", "_history", "scan_counter", "_scan_watches")

    def __init__(self, protected: AddressBlock = PRODUCTION_NETWORK) -> None:
        self.protected = protected
        self._blocks: dict[str, BlockEntry] = {}
        self._history: list[BlockEntry] = []
        self.scan_counter: Counter[str] = Counter()
        # threshold -> sources at/above it with scans not yet drained
        # (the incremental feed behind pipeline.block_top_scanners).
        self._scan_watches: dict[int, set[str]] = {}

    # -- routing ----------------------------------------------------------
    def block(
        self,
        source_ip: str,
        *,
        reason: str,
        now: float,
        duration_seconds: Optional[float] = None,
        created_by: str = "bhr",
    ) -> BlockEntry:
        """Install (or refresh) a null route for ``source_ip``."""
        entry = BlockEntry(
            source_ip=source_ip,
            reason=reason,
            created_at=now,
            duration_seconds=duration_seconds,
            created_by=created_by,
        )
        self._blocks[source_ip] = entry
        self._history.append(entry)
        return entry

    def is_blocked(self, source_ip: str, now: float) -> bool:
        """Whether traffic from ``source_ip`` is currently dropped."""
        entry = self._blocks.get(source_ip)
        if entry is None:
            return False
        if not entry.is_active(now):
            del self._blocks[source_ip]
            return False
        return True

    @property
    def history(self) -> list[BlockEntry]:
        """Every block ever installed (including expired/removed ones)."""
        return list(self._history)

    # -- scan recording ---------------------------------------------------------
    def record_scan(self, record: ScanRecord) -> None:
        """Record one scan packet aimed at the protected space."""
        count = self.scan_counter[record.source_ip] + 1
        self.scan_counter[record.source_ip] = count
        for threshold, pending in self._scan_watches.items():
            if count >= threshold:
                pending.add(record.source_ip)

    def record_scans(self, records: Iterable[ScanRecord]) -> None:
        """Record many scan packets."""
        for record in records:
            self.record_scan(record)

    def scan_count(self) -> int:
        """Total number of recorded scans."""
        return sum(self.scan_counter.values())

    def top_scanners(self, count: int = 10) -> list[tuple[str, int]]:
        """The ``count`` most active scanning sources."""
        return self.scan_counter.most_common(count)

    # -- incremental threshold watches ------------------------------------------
    def watch_scan_threshold(self, min_scans: int) -> None:
        """Start (or keep) an incremental crossing watch for a threshold.

        Registration walks the existing counter once to seed the watch
        with sources already at/above ``min_scans``; from then on
        :meth:`record_scan` maintains it in O(1) per scan, so consumers
        never rescan the full (potentially millions-strong) counter.
        """
        if min_scans not in self._scan_watches:
            self._scan_watches[min_scans] = {
                source
                for source, count in self.scan_counter.items()
                if count >= min_scans
            }

    def drain_crossed_scanners(self, min_scans: int) -> set[str]:
        """Sources at/above ``min_scans`` with scans since the last drain.

        A drained source re-enters the set on its next recorded scan
        (its count is already over the threshold), so sources that keep
        scanning after a block expires are re-surfaced, while sources
        that went quiet are not rescanned.  A consumer that drains a
        source but cannot act on it yet (e.g. it is still blocked) must
        hand it back via :meth:`requeue_crossed_scanners` so the
        crossing signal is not lost.
        """
        self.watch_scan_threshold(min_scans)
        crossed = self._scan_watches[min_scans]
        self._scan_watches[min_scans] = set()
        return crossed

    def requeue_crossed_scanners(self, min_scans: int, sources: Iterable[str]) -> None:
        """Return drained-but-unhandled sources to a threshold watch."""
        self.watch_scan_threshold(min_scans)
        self._scan_watches[min_scans].update(sources)


class BHRClient:
    """Programmable client API used by the response path (ncsa/bhr-client)."""

    def __init__(self, router: BlackHoleRouter, *, caller: str = "attacktagger") -> None:
        self.router = router
        self.caller = caller

    def block(
        self,
        source_ip: str,
        *,
        reason: str,
        now: float,
        duration_seconds: Optional[float] = 86_400.0,
    ) -> BlockEntry:
        """Null-route an address (default 24-hour block), as ``caller``."""
        return self.router.block(
            source_ip,
            reason=reason,
            now=now,
            duration_seconds=duration_seconds,
            created_by=self.caller,
        )


__all__ = [
    "ScanRecord",
    "BlockEntry",
    "BlackHoleRouter",
    "BHRClient",
]
