"""The streaming-detector contract, implemented once.

Every detection model deployed on the testbed -- the factor-graph
:class:`~repro.core.attack_tagger.AttackTagger`, the
:class:`~repro.core.rule_based.RuleBasedDetector`, and the
:class:`~repro.core.baselines.CriticalAlertDetector` /
:class:`~repro.core.baselines.NaiveBayesDetector` comparison baselines
-- subclasses :class:`Detector`.  A subclass writes only what is its
own: :meth:`~Detector.observe` (one alert in, a detection or ``None``
out, appending every detection to ``self._detections``),
:meth:`~Detector.reset`, :meth:`~Detector.reset_entity` and its
per-entity state.  Everything the pipeline, the shard handler, the
evaluation harness and the replay engine call on top of that lives
here, once: the batch surface (:meth:`~Detector.observe_batch_indexed`
and :meth:`~Detector.observe_batch`), the ``detections`` log,
:meth:`~Detector.run_sequence` and the ``kernel_seconds`` counter.  A
detector with a faster batch path (the tagger's stacked cross-entity
kernel) overrides :meth:`~Detector.observe_batch_indexed` with results
identical to the per-alert loop, so every shard runs one code path
whatever detector it hosts.

The contract is deliberately per-entity: all mutable state must be
keyed by ``alert.entity`` and entities must never share state, which is
the invariant that makes hash-sharding entities across workers exact
(see ``README.md``, "shard routing invariant").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from .alerts import Alert

if TYPE_CHECKING:
    from .attack_tagger import Detection
    from .sequences import AlertSequence


class Detector:
    """Base class of every streaming per-entity detector.

    Subclasses initialise ``self._detections = []`` in their
    constructor and keep all mutable inference state keyed by entity,
    so that two detectors fed disjoint entity sub-streams behave
    exactly like one detector fed the union stream.

    **Live resharding** (``ShardedDetectorPool.reshard``) needs an
    optional migration group, through which the pool moves per-entity
    state between replicas of the same configuration:

    * ``export_entity_tracks() -> dict[str, object]`` -- every entity's
      state as an opaque migratable value;
    * ``adopt_entity_track(entity, track) -> None`` -- take ownership of
      one exported value (the entity must not already be tracked);
    * ``replace_detections(detections) -> None`` -- overwrite the
      detections log (the pool rebuilds each replica's log from its own
      merged stream-order log after re-routing).

    A detector without this group cannot be resharded live (the pool
    raises ``TypeError``).
    """

    #: Cumulative wall-clock seconds spent inside a vectorised decode
    #: kernel, for stage timing (``PipelineStats.detect_kernel_seconds``);
    #: detectors without one never move it off the class default.
    kernel_seconds: float = 0.0

    _detections: List["Detection"]

    @property
    def detections(self) -> List["Detection"]:
        """All detections emitted so far, in emission order."""
        return list(self._detections)

    def observe(self, alert: Alert) -> Optional["Detection"]:
        """Consume one alert; return (and log) a detection if one fires."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all per-entity state and past detections."""
        raise NotImplementedError

    def reset_entity(self, entity: str) -> None:
        """Forget one entity's state."""
        raise NotImplementedError

    def observe_batch_indexed(
        self, alerts: Iterable[Alert]
    ) -> List[Tuple[int, "Detection"]]:
        """Consume a batch in order; return ``(position, detection)`` pairs.

        Positions index into the batch and are strictly increasing, so
        sharded drivers can rebuild global stream order without assuming
        one detection per alert.
        """
        hits = []
        for position, alert in enumerate(alerts):
            detection = self.observe(alert)
            if detection is not None:
                hits.append((position, detection))
        return hits

    def observe_batch(self, alerts: Iterable[Alert]) -> List["Detection"]:
        """Consume a batch in order; return the detections it fired."""
        return [detection for _, detection in self.observe_batch_indexed(alerts)]

    def run_sequence(
        self, sequence: "AlertSequence", entity: Optional[str] = None
    ) -> Optional["Detection"]:
        """Run a stored sequence through a fresh per-entity track.

        Offline evaluation helper: the sequence's alerts are re-keyed to
        ``entity`` (default: the first alert's entity), which is reset
        first so separate evaluations do not interfere.  Returns the
        first detection, if any.
        """
        entity = entity or (sequence[0].entity if len(sequence) else "entity:eval")
        self.reset_entity(entity)
        first: Optional["Detection"] = None
        for alert in sequence:
            detection = self.observe(alert.with_entity(entity))
            if first is None:
                first = detection
        return first


__all__ = ["Detector"]
