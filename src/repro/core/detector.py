"""The formal streaming-detector protocol.

Every detection model deployed on the testbed -- the factor-graph
:class:`~repro.core.attack_tagger.AttackTagger`, the
:class:`~repro.core.rule_based.RuleBasedDetector`, and the
:class:`~repro.core.baselines.CriticalAlertDetector` /
:class:`~repro.core.baselines.NaiveBayesDetector` comparison baselines
-- exposes the same per-entity streaming surface, and the pipeline's
detection stage (including the sharded pool in
:mod:`repro.testbed.sharding`) is written against that surface rather
than any concrete model.  This module states the contract once, as a
:class:`typing.Protocol`, so new detectors and detector *containers*
(a :class:`~repro.testbed.sharding.ShardedDetectorPool` is itself a
``Detector``) can be checked structurally::

    assert isinstance(my_detector, Detector)

The contract is deliberately per-entity: all mutable state must be
keyed by ``alert.entity`` and entities must never share state, which is
the invariant that makes hash-sharding entities across workers exact
(see ``README.md``, "shard routing invariant").
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, runtime_checkable

from .alerts import Alert
from .attack_tagger import Detection


@runtime_checkable
class Detector(Protocol):
    """Structural protocol for streaming per-entity detectors.

    Implementations must keep all mutable inference state keyed by
    entity so that two detectors fed disjoint entity sub-streams behave
    exactly like one detector fed the union stream.
    """

    @property
    def detections(self) -> list[Detection]:
        """All detections emitted so far, in emission order."""
        ...

    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert; return a detection if one fires."""
        ...

    def observe_batch(self, alerts: Iterable[Alert]) -> list[Detection]:
        """Consume a batch of alerts in order; return fired detections.

        Implementations MAY additionally expose two optional extensions
        that detector containers discover with ``getattr``:

        * ``observe_batch_indexed(alerts) -> list[tuple[int, Detection]]``
          — the same semantics, but each detection is paired with the
          position of its triggering alert inside the sub-batch, and the
          implementation is free to advance the whole sub-batch at once
          (the :class:`~repro.core.attack_tagger.AttackTagger`'s
          stacked cross-entity kernel).  Results
          must be identical to calling :meth:`observe` per alert.
        * ``kernel_seconds: float`` — cumulative wall-clock seconds
          spent inside such a vectorised kernel, for stage timing
          attribution (``PipelineStats.detect_kernel_seconds``).

        A further optional extension group enables **live resharding**
        (``ShardedDetectorPool.reshard``): containers migrate
        per-entity state between replicas of the same configuration
        through

        * ``export_entity_tracks() -> dict[str, object]`` — every
          entity's state as an opaque migratable value;
        * ``adopt_entity_track(entity, track) -> None`` — take
          ownership of one exported value (the entity must not already
          be tracked);
        * ``replace_detections(detections) -> None`` — overwrite the
          emitted-detections log (the container rebuilds each replica's
          log from its own merged stream-order log after re-routing).

        Containers treat the exported values as opaque; a detector
        without this group simply cannot be resharded live (the pool
        raises ``TypeError``).
        """
        ...

    def reset(self) -> None:
        """Forget all per-entity state and past detections."""
        ...

    def reset_entity(self, entity: str) -> None:
        """Forget one entity's state."""
        ...


__all__ = ["Detector"]
