"""The staged pipeline architecture: batch-in/batch-out stages.

Fig. 4's workflow is a chain of transformations over batches::

    raw records --normalize--> columns --filter--> survivors
                 --detect--> detections --respond--> actions

:class:`PipelineStage` states that contract once: a stage has a
``name`` (the key its cumulative runtime is recorded under in
``PipelineStats.stage_seconds``) and a ``process`` method taking one
batch and returning the next stage's batch; every batch has a
``len()``, its item count.  The protocol is
structural, so the telemetry adapters
(:class:`repro.telemetry.normalizer.NormalizerStage`,
:class:`repro.telemetry.filtering.ScanFilterStage`) satisfy it without
importing the testbed package.

This module adds the two testbed-owned stages:

* :class:`DetectionStage` -- ships the filtered batch to every attached
  detector pool (:class:`repro.testbed.sharding.ShardedDetectorPool`)
  with ``submit`` and, with ``collect``, returns the primary detector's
  new detections.  It is the one stage that is not a
  :class:`PipelineStage`: detection is always split into those two
  phases so the pipeline can overlap them with other batches' work.
* :class:`ResponseStage` -- feeds detections to the
  :class:`repro.testbed.responder.ResponseOrchestrator` and returns the
  actions taken.

:class:`~repro.testbed.pipeline.TestbedPipeline` assembles the four
stages and times each one.  The pools it hands :class:`DetectionStage`
are its own, each built from a private copy of an attached detector.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, List, Protocol, Sequence, Sized, Tuple, runtime_checkable

from ..core.alerts import Alert
from ..core.attack_tagger import Detection
from .responder import ResponseOrchestrator, ResponseRecord
from .sharding import ShardedDetectorPool


@runtime_checkable
class PipelineStage(Protocol):
    """One batch-in/batch-out stage of the testbed pipeline."""

    name: str

    def process(self, batch: Sized) -> Sized:
        """Transform one batch into the next stage's batch."""
        ...


class DetectionStage:
    """Detection layer: every detector pool scans the filtered batch.

    Detections from *all* pools are recorded (tagged with the pool's
    name) into ``sink`` -- the pipeline's cross-detector detection log
    -- while only the primary pool's detections flow on to the response
    stage, mirroring the paper's deployment where comparison models run
    side by side but only the deployed model pages operators.
    """

    name = "detect"

    def __init__(
        self,
        pools: Dict[str, ShardedDetectorPool],
        primary: str,
        sink: List[Tuple[str, Detection]],
    ) -> None:
        if primary not in pools:
            raise ValueError(f"primary detector {primary!r} not among {list(pools)}")
        self.pools = pools
        self.primary = primary
        self.sink = sink
        self._inflight: Deque[Dict[str, object]] = collections.deque()

    @property
    def pending_batches(self) -> int:
        """Submitted batches not yet collected."""
        return len(self._inflight)

    def submit(self, batch: Sequence[Alert]) -> None:
        """Ship one filtered batch to every pool without waiting.

        The process-backed pools' workers start computing immediately;
        the caller can overlap other work (normalising and filtering
        the next batch) before calling :meth:`collect`.  If a pool
        rejects the submission (e.g. it was closed), the partially
        submitted batch is still queued (pools that never received it
        are simply absent from the ticket) so a later :meth:`collect`
        drains the already-shipped sub-batches in FIFO order -- no
        pool is ever left with unread replies.
        """
        # Deterministic rejections must fire before *any* pool receives
        # the batch: a failure after the first send irreversibly
        # advances that pool's detector state, so a caller retry would
        # double-apply the batch there.
        for name, pool in self.pools.items():
            if pool.closed:
                raise RuntimeError(
                    f"detector pool {name!r}: ShardedDetectorPool is closed"
                )
        batch = list(batch)
        tickets: Dict[str, object] = {}
        try:
            for name, pool in self.pools.items():
                tickets[name] = pool.submit_batch(batch)
        except Exception:
            if tickets:
                self._inflight.append(tickets)
            raise
        self._inflight.append(tickets)

    def collect(self) -> list[Detection]:
        """Wait for the oldest submitted batch; return primary detections.

        Every pool's ticket is collected even if one of them raises (so
        no pool is left with unread replies); the first error is
        re-raised afterwards.  Pools without a ticket (their submit
        failed) are skipped.
        """
        if not self._inflight:
            raise RuntimeError("no submitted batch to collect")
        tickets = self._inflight.popleft()
        primary_detections: list[Detection] = []
        error: Exception | None = None
        for name, pool in self.pools.items():
            ticket = tickets.get(name)
            if ticket is None:
                continue
            try:
                found = pool.collect(ticket)
            except Exception as exc:
                if error is None:
                    error = exc
                continue
            self.sink.extend((name, detection) for detection in found)
            if name == self.primary:
                primary_detections = found
        if error is not None:
            raise error
        return primary_detections


class ResponseStage:
    """Response layer: notifications, BHR blocks, quarantine, recycling."""

    name = "respond"

    def __init__(self, responder: ResponseOrchestrator) -> None:
        self.responder = responder

    def process(self, batch: Sequence[Detection]) -> list[ResponseRecord]:
        """Respond to one detection batch; return every action taken."""
        actions: list[ResponseRecord] = []
        for detection in batch:
            actions.extend(self.responder.handle_detection(detection))
        return actions


__all__ = ["PipelineStage", "DetectionStage", "ResponseStage"]
