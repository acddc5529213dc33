"""The streaming-detector contract, implemented once.

Every detection model deployed on the testbed -- the factor-graph
:class:`~repro.core.attack_tagger.AttackTagger`, the
:class:`~repro.core.rule_based.RuleBasedDetector`, and the
:class:`~repro.core.baselines.CriticalAlertDetector` /
:class:`~repro.core.baselines.NaiveBayesDetector` comparison baselines
-- subclasses :class:`Detector`.  A subclass writes only what is its
own: :meth:`~Detector.observe` (one alert in, a detection or ``None``
out) and its per-entity state, named in :attr:`~Detector.entity_state`.
Everything the pipeline, the shard handler, the evaluation harness and
the replay engine call on top of that lives here, once: the batch
surface (:meth:`~Detector.observe_batch_indexed`,
:meth:`~Detector.observe_batch`), :meth:`~Detector.run_sequence`, the
``kernel_seconds`` counter, and ``reset``, ``reset_entity`` and the
migration pair over the declared state.  A detector returns its
detections and keeps no log of them: the pipeline's ``detections`` list
is the one record of what fired.  A detector with a faster batch path
(the tagger's stacked cross-entity kernel) overrides
:meth:`~Detector.observe_batch_indexed` with results identical to the
per-alert loop, so every shard runs one code path whatever detector it
hosts.

The contract is deliberately per-entity: all mutable state must be
keyed by ``alert.entity`` and entities must never share state, which is
the invariant that makes hash-sharding entities across workers exact
(see ``README.md``, "shard routing invariant").
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .alerts import Alert

if TYPE_CHECKING:
    from .attack_tagger import Detection
    from .sequences import AlertSequence


class Detector:
    """Base class of every streaming per-entity detector.

    Subclasses keep all mutable inference state keyed by entity, so
    that two detectors fed disjoint entity sub-streams behave exactly
    like one detector fed the union stream.

    The migration pair is contract, not an option: checkpoint, heal and
    reshard move detector state only as :meth:`export_entity_tracks`'
    per-entity values, adopted one by one (:meth:`adopt_entity_track`)
    by a fresh replica of the pool's template -- so a shard's model is
    always its template's.  The base class implements the pair,
    :meth:`reset` and :meth:`reset_entity` over :attr:`entity_state`;
    the tagger, whose state is more than entity-keyed containers,
    overrides all four.
    """

    #: Attributes holding per-entity state: dicts keyed by entity and
    #: sets of entities (``()``: none).  Undeclared (``None``), the base
    #: methods raise ``TypeError``: state the pair cannot see is never
    #: silently dropped.
    entity_state: Optional[Tuple[str, ...]] = None
    #: Cumulative wall-clock seconds spent inside a vectorised decode
    #: kernel, for stage timing (``PipelineStats.detect_kernel_seconds``);
    #: detectors without one never move it off the class default.
    kernel_seconds: float = 0.0
    #: Windowed steps the decode kernel advanced so far, as ``(stacked,
    #: patterned, scalar)``: in chunks, through its pattern pass, and
    #: through the per-entity path (``TestbedPipeline.summary`` reports
    #: them); detectors without a kernel never move it off the class default.
    kernel_steps: Tuple[int, int, int] = (0, 0, 0)

    def observe(self, alert: Alert) -> Optional["Detection"]:
        """Consume one alert; return a detection if one fires."""
        raise NotImplementedError

    def _containers(self) -> Dict[str, object]:
        """Every declared per-entity attribute, by name."""
        if self.entity_state is None:
            raise TypeError(
                f"{type(self).__name__} declares no entity_state and overrides no "
                "migration pair: its state cannot be reset, checkpointed or resharded"
            )
        return {name: getattr(self, name) for name in self.entity_state}

    def reset(self) -> None:
        """Forget all per-entity state."""
        for container in self._containers().values():
            container.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity's state."""
        for container in self._containers().values():
            if isinstance(container, set):
                container.discard(entity)
            else:
                container.pop(entity, None)

    def export_entity_tracks(self) -> Dict[str, object]:
        """Every tracked entity's state, ``{entity: {attribute: value}}``.

        A set member's value is ``True``; dict values are shallow copies
        (an adopter shares no container with this detector).  Set-only
        entities come sorted, so the pickled export does not depend on
        the process's hash seed.
        """
        tracks: Dict[str, dict] = {}
        for name, container in self._containers().items():
            if isinstance(container, set):
                for entity in sorted(container):
                    tracks.setdefault(entity, {})[name] = True
            else:
                for entity, value in container.items():
                    tracks.setdefault(entity, {})[name] = copy.copy(value)
        return tracks

    def adopt_entity_track(self, entity: str, track: object) -> None:
        """Take ownership of one exported track (see :meth:`export_entity_tracks`)."""
        containers = self._containers()
        if any(entity in container for container in containers.values()):
            raise ValueError(f"entity {entity!r} is already tracked")
        for name, value in track.items():
            container = containers[name]
            if isinstance(container, set):
                container.add(entity)
            else:
                container[entity] = value

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
        first so separate evaluations do not interfere, and observed as
        one batch (:meth:`observe_batch_indexed`, the production path).
        Returns the first detection, if any.
        """
        entity = entity or (sequence[0].entity if len(sequence) else "entity:eval")
        self.reset_entity(entity)
        hits = self.observe_batch_indexed([alert.with_entity(entity) for alert in sequence])
        return hits[0][1] if hits else None


__all__ = ["Detector"]
