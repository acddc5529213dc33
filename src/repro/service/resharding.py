"""Live-reshard coordination for the always-on service.

The mechanics of moving per-entity detector state from N shards to M
live in :meth:`repro.testbed.sharding.ShardedDetectorPool.reshard`
(state migration, dead-worker rebuild, telemetry retirement) and
:meth:`repro.testbed.pipeline.TestbedPipeline.reshard` (every pool
driven, facade refresh).  This module is the service-side policy
wrapper around them: bounds validation, wall-clock timing, and a
JSON-ready operations history the ``stats`` op exposes -- operators
see every transition the running service performed, with the per-pool
:class:`~repro.testbed.sharding.ReshardEvent` audit attached.

Like every pipeline control, ``pipeline.reshard`` needs a quiesced
pipeline and raises with a detection batch in flight.  The coordinator
is always invoked from the service's single consumer after the
in-flight batch was collected, so the reshard applies immediately and
the events it reports are the ones this call caused.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List

from ..testbed.pipeline import TestbedPipeline


class ReshardCoordinator:
    """Validates, times, and records live reshards of one pipeline."""

    def __init__(
        self,
        pipeline: TestbedPipeline,
        *,
        min_shards: int = 1,
        max_shards: int = 64,
    ) -> None:
        if not 1 <= min_shards <= max_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        self.pipeline = pipeline
        self.min_shards = min_shards
        self.max_shards = max_shards
        #: One JSON-ready entry per reshard call, oldest first.
        self.history: List[dict] = []

    def reshard(self, n_shards: int) -> dict:
        """Drive one live reshard; return (and record) its summary."""
        count = int(n_shards)
        if not self.min_shards <= count <= self.max_shards:
            raise ValueError(
                f"n_shards {count} outside the service's "
                f"[{self.min_shards}, {self.max_shards}] bounds"
            )
        previous = self.pipeline.n_shards
        if count == previous:
            entry = {
                "from": previous,
                "to": count,
                "noop": True,
                "seconds": 0.0,
                "events": [],
            }
            self.history.append(entry)
            return entry
        marks = {
            name: len(pool.reshard_log)
            for name, pool in self.pipeline.detector_pools.items()
        }
        started = time.perf_counter()
        self.pipeline.reshard(count)
        seconds = time.perf_counter() - started
        events = []
        for name, pool in self.pipeline.detector_pools.items():
            for event in list(pool.reshard_log)[marks[name] :]:
                record = dataclasses.asdict(event)
                record["pool"] = name
                record["rebuilt_shards"] = list(record["rebuilt_shards"])
                events.append(record)
        entry = {
            "from": previous,
            "to": count,
            "noop": False,
            "seconds": seconds,
            "events": events,
        }
        self.history.append(entry)
        return entry


__all__ = ["ReshardCoordinator"]
