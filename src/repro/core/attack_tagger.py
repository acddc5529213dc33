"""Streaming factor-graph detector (the preemption model).

:class:`AttackTagger` is the detector the paper deploys on the testbed.
It consumes the filtered, normalised alert stream produced by the
telemetry pipeline, maintains one alert sequence per monitored entity
(user account or host, following the attribution rules of §III.B), and
after every alert re-infers the entity's hidden state trajectory with
the chain factor graph built from:

* observation factors (``log P(alert | state)``),
* transition factors (state persistence),
* pattern factors for the S1..S43 catalogue of recurring attack
  sequences mined from past incidents.

The entity is *detected* the first time the maximum-a-posteriori state
trajectory ends in the malicious state with sufficient posterior
confidence.  If that happens before the first damage-stage alert, the
attack was *preempted* (see :mod:`repro.core.preemption`).
"""

from __future__ import annotations

import dataclasses
import sys
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from . import streaming
from .alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY, NormalizedBatch
from .detector import Detector
from .factor_graph import chain_map_decode, chain_marginals
from .factors import FactorParameters, default_parameters, observation_log_for_sequence
from .sequences import matched_prefix_length
from .sliding_window import WindowArena
from .states import HiddenState
from .streaming import WeightedPattern

#: The production engine and the executable spec, in that order.
ENGINES = ("streaming", "naive")


class UnknownEngineError(ValueError):
    """An engine name that is not one of :data:`ENGINES`.

    Raised at every edge a name can arrive through: the constructor, an
    unpickled tagger (an old pickle may carry the removed ``rebuild`` /
    ``batched`` engines), the oracle's config specs and the service CLI.
    """

    def __init__(self, engine: object) -> None:
        super().__init__(engine)
        self.engine = engine

    def __str__(self) -> str:
        valid = " and ".join(repr(name) for name in ENGINES)
        return f"unknown engine {self.engine!r}: valid engines are {valid}"


@dataclasses.dataclass(frozen=True)
class PatternSpec:
    """Minimal view of an attack pattern the detector needs.

    ``repro.incidents.patterns.AttackPattern`` provides ``name`` and
    ``names`` attributes and can be passed directly; this dataclass
    exists so the core package does not depend on the incidents
    package.
    """

    name: str
    names: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Detection:
    """A detection decision emitted by :class:`AttackTagger`."""

    entity: str
    timestamp: float
    alert_index: int
    trigger: Alert
    state: HiddenState
    confidence: float
    matched_patterns: tuple[str, ...] = ()
    state_trajectory: tuple[int, ...] = ()

    @property
    def is_malicious(self) -> bool:
        """Whether the decision tagged the entity as malicious."""
        return self.state is HiddenState.MALICIOUS


@dataclasses.dataclass
class EntityTrack:
    """Per-entity detector state: the decode slot, and the window's alert
    names where the slot does not hold them.

    ``slot`` is the owning tagger's slot for the entity (see
    :class:`~repro.core.sliding_window.SlotTable`), which holds all of
    its decode state: scratch, never pickled, assigned again when a
    tagger is restored or adopts the track.  ``names`` is empty on a
    live streaming track, whose window is its slot's steps.  A detected
    one holds the window it was detected on (a tuple, written once); a
    restored or adopted one, the names it migrated with until its slot
    is rebuilt from them; a naive-engine one, its own
    ``deque(maxlen=max_window)``, which stops at detection.  An exported
    track carries its window as a ``deque(maxlen=max_window)``.
    """

    entity: str
    names: Sequence[str]
    detected: Optional[Detection] = None
    slot: int = dataclasses.field(default=-1, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("slot", None)
        return state


class AttackTagger(Detector):
    """Streaming per-entity preemption detector.

    Parameters
    ----------
    parameters:
        Learned factor parameters; :func:`repro.core.factors
        .default_parameters` provides an untrained prior-only model.
    patterns:
        Catalogue of known attack patterns (objects with ``name`` and
        ``names``).  Only patterns with a positive weight in
        ``parameters.pattern_weights`` (or, if empty, all patterns with
        ``default_pattern_weight``) contribute evidence.
    detection_threshold:
        Minimum posterior probability of the malicious state at the
        final step required to emit a detection.
    max_window:
        Maximum number of most-recent alerts kept per entity.  The
        paper's Insight 2 bounds the useful sequence length; a window
        also bounds per-alert inference cost in the live pipeline.
    default_pattern_weight:
        Weight used for catalogue patterns when the trained parameters
        carry no pattern weights (the untrained/prior-only deployment).
    engine:
        ``"streaming"`` (default, production) maintains incremental
        per-entity decode state (a slot of the arena, advanced by
        :mod:`repro.core.streaming`) so one alert
        costs O(K^2 + pattern advances) while the window fills and
        O(K^3) amortised once it saturates (the two-stack sliding
        aggregation of :mod:`repro.core.sliding_window` makes the
        ``max_window`` slide an eviction instead of a re-decode).  The
        batch entry points advance every entity touched by a sub-batch
        together through the vectorised cross-entity kernel
        (:class:`repro.core.batch_kernel.BatchedDecodeKernel`): one
        ``(K, K, N)`` stacked semiring reduce per depth of a pass
        instead of a small-matrix call per alert; :meth:`observe` is
        the same arithmetic for one alert.  ``"naive"`` is the
        executable spec: the seed behaviour of re-decoding the whole
        chain per alert.
        Both produce bit-identical detections; any other name raises
        :class:`UnknownEngineError`.

    The model is resolved once, here (and again only when a tagger is
    unpickled or cloned): the
    :class:`repro.core.sliding_window.WindowArena` for ``max_window``,
    which holds the weighted patterns both engines decode with and
    whose observation table resolves each alert name's row once.  Treat ``parameters``, ``patterns``,
    ``default_pattern_weight`` and ``max_window`` as frozen afterwards
    and build a new tagger to change the model.  The weights are copied
    into the table, so editing the caller's ``pattern_weights`` dict
    later changes no decision of either engine.
    ``detection_threshold`` is read per decision.
    """

    def __init__(
        self,
        parameters: Optional[FactorParameters] = None,
        patterns: Sequence = (),
        *,
        detection_threshold: float = 0.5,
        max_window: int = 64,
        default_pattern_weight: float = 2.0,
        vocabulary: Optional[AlertVocabulary] = None,
        engine: str = "streaming",
    ) -> None:
        self.vocabulary = vocabulary or (parameters.vocabulary if parameters else DEFAULT_VOCABULARY)
        self.parameters = parameters or default_parameters(self.vocabulary)
        self.patterns: list[PatternSpec] = [
            PatternSpec(name=p.name, names=tuple(p.names)) for p in patterns
        ]
        if not 0.0 < detection_threshold < 1.0:  # NaN included
            raise ValueError("detection_threshold must be in (0, 1)")
        if max_window < 2:
            raise ValueError("max_window must be at least 2")
        if engine not in ENGINES:
            raise UnknownEngineError(engine)
        self.detection_threshold = float(detection_threshold)
        self.max_window = int(max_window)
        self.default_pattern_weight = float(default_pattern_weight)
        self.engine = engine
        self._tracks: Dict[str, EntityTrack] = {}
        # Cumulative seconds spent inside the stacked decode kernel
        # (0.0 under ``naive``); surfaced per stage through the
        # pipeline's ``detect_kernel_seconds`` summary counter.
        self.kernel_seconds: float = 0.0
        self._batch_kernel = None
        self._resolve()

    def _resolve(self) -> None:
        """Build the model every entity decodes with (scratch, dropped on pickling).

        ``_arena``: the weighted patterns -- the non-empty catalogue
        patterns with a positive weight, in order, from
        ``parameters.pattern_weights`` or ``default_pattern_weight`` for
        all of them when there are none -- and every tracked entity's
        slot, match row, window row and fill page, and the observation
        row of every alert name seen.
        """
        weights = self.parameters.pattern_weights
        resolved = (
            (pattern, weights.get(pattern.name, 0.0) if weights else self.default_pattern_weight)
            for pattern in self.patterns
        )
        patterns = [
            WeightedPattern(pattern.name, pattern.names, weight)
            for pattern, weight in resolved
            if weight > 0.0 and pattern.names
        ]
        self._arena = WindowArena(self.max_window + 1, self.parameters, patterns)

    # -- public state ------------------------------------------------------
    def track(self, entity: str) -> EntityTrack:
        """The per-entity track (created on first use)."""
        track = self._tracks.get(entity)
        if track is None:
            self._open_tracks([entity])
            track = self._tracks[entity]
        return track

    def _tracks_for(self, entities: Iterable[str]) -> List[EntityTrack]:
        """The tracks of distinct ``entities``; those seen for the first
        time are opened together, in the order given."""
        tracks = self._tracks
        found = list(map(tracks.get, entities))
        missing = [entity for entity, track in zip(entities, found) if track is None]
        if missing:
            self._open_tracks(missing)
            found = list(map(tracks.__getitem__, entities))
        return found

    def _open_tracks(self, entities: Sequence[str]) -> None:
        """The one place tracks are created: an empty track and a fresh
        slot per entity."""
        naive, window = self.engine == "naive", self.max_window
        tracks = self._tracks
        for entity, slot in zip(entities, self._arena.slots.allocate(len(entities))):
            # The naive spec keeps its names (deque(maxlen) trims in O(1));
            # a streaming track's window is its slot's.
            track = tracks[entity] = EntityTrack(entity, deque(maxlen=window) if naive else ())
            track.slot = slot

    def _assign_slots(self, tracks: Sequence[EntityTrack]) -> None:
        """Slots for restored or adopted tracks: their decode state is
        rebuilt from their names when first needed."""
        slots = self._arena.slots
        taken = slots.allocate(len(tracks))
        detected = [track.detected is not None for track in tracks]
        slots.detected[taken] = detected
        slots.stale[taken] = [not flag for flag in detected]
        for track, slot in zip(tracks, taken):
            track.slot = slot

    def entities(self) -> list[str]:
        """All entities observed so far."""
        return list(self._tracks)

    def reset(self) -> None:
        """Forget all per-entity state."""
        self._tracks.clear()
        self._arena.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity (e.g. after remediation re-images the host)."""
        track = self._tracks.pop(entity, None)
        if track is not None:
            self._close(track)

    def _close(self, track: EntityTrack) -> None:
        """Hand a forgotten track's decode storage and slot back."""
        self._release(track)
        self._arena.slots.release(track.slot)

    def _release(self, track: EntityTrack) -> None:
        """Drop a track's decode state, handing its arena row, fill pages
        and match row back.

        The one way decode state leaves a live track: at detection, when
        the window's names move to the track.  It is a pure function of
        them, so :meth:`infer` rebuilds it for a read (:meth:`_replay`)
        and drops it again.
        """
        self._arena.drop(track.slot)

    # -- core inference -----------------------------------------------------
    def _replay(self, track: EntityTrack) -> None:
        """Rebuild a track's decode state in its empty slot from its names."""
        arena, slot = self._arena, track.slot
        for name in track.names:
            streaming.append(arena, slot, arena.intern(name))

    def _sync(self, track: EntityTrack) -> None:
        """Rebuild a stale (restored or adopted) track's decode state from
        its names, which its slot then holds instead."""
        slots = self._arena.slots
        if slots.stale[track.slot]:
            slots.stale[track.slot] = False
            self._replay(track)
            track.names = ()

    def _window(self, track: EntityTrack) -> Sequence[str]:
        """A track's window of alert names: its own, or, when it holds
        none, its slot's steps."""
        if track.names:
            return track.names
        names = self._arena.symbol_names
        return [names[symbol] for symbol in streaming.window_symbols(self._arena, track.slot).tolist()]

    def _build_unary(self, names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
        """Per-step log potentials including pattern-factor bonuses.

        The chain is kept exact by folding each (partially) matched
        pattern's bonus into the malicious-state unary potential of the
        step at which the match currently ends.
        """
        unary = observation_log_for_sequence(self.parameters, names).copy()
        if unary.shape[0] == 0:
            return unary, []
        unary[0] += self.parameters.initial_log
        matched_names: list[str] = []
        for pattern in self._arena.matches.patterns:
            matched = matched_prefix_length(pattern.names, names)
            if matched == 0:
                continue
            bonus = self.parameters.pattern_bonus(matched, len(pattern.names), pattern.weight)
            if bonus <= 0.0:
                continue
            # The bonus lands on the step where the matched prefix ends.
            end_index = self._prefix_end_index(pattern.names[:matched], names)
            unary[end_index, int(HiddenState.MALICIOUS)] += bonus
            if matched == len(pattern.names):
                matched_names.append(pattern.name)
        return unary, matched_names

    @staticmethod
    def _prefix_end_index(prefix: Sequence[str], names: Sequence[str]) -> int:
        """Index in ``names`` where the greedy match of ``prefix`` ends."""
        position = -1
        start = 0
        for symbol in prefix:
            for idx in range(start, len(names)):
                if names[idx] == symbol:
                    position = idx
                    start = idx + 1
                    break
        return max(0, position)

    def infer(self, entity: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Decode the current trajectory for an entity.

        Returns ``(map_states, final_marginal, matched_pattern_names)``
        where ``map_states`` is the Viterbi state per alert and
        ``final_marginal`` is the posterior over the entity's current
        state.  With the streaming engine this reads the incrementally
        maintained decode state (a detected entity's is rebuilt from the
        window it was detected on, read and dropped again); the naive
        engine re-decodes the whole chain (seed behaviour).
        """
        # A read-only query: an unknown entity is not tracked by asking.
        track = self._tracks.get(entity)
        if track is not None and self.engine != "naive":
            read = self._read(track)
            if read is not None:
                return read
        elif track is not None and track.names:
            unary, matched = self._build_unary(list(track.names))
            states = chain_map_decode(unary, self.parameters.transition_log)
            marginals = chain_marginals(unary, self.parameters.transition_log)
            return states, marginals[-1], matched
        prior = np.exp(self.parameters.initial_log)
        return np.zeros(0, dtype=np.int64), prior / prior.sum(), []

    def _read(self, track: EntityTrack) -> Optional[tuple[np.ndarray, np.ndarray, list[str]]]:
        """:meth:`infer` off a streaming track's slot (``None`` if it holds
        no step); a detected track's is rebuilt for the read and dropped."""
        arena, slot = self._arena, track.slot
        detected = track.detected is not None
        if detected:
            self._replay(track)
        else:
            self._sync(track)
        if not streaming.length(arena, slot):
            return None
        _, final_marginal, path = streaming.decode(arena, slot)
        if path is None:
            path = streaming.fill_path(arena, slot)
        matched = streaming.matched_pattern_names(arena, slot)
        if detected:
            self._release(track)
        return path, final_marginal, matched

    # -- streaming API ------------------------------------------------------
    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert; return a :class:`Detection` if one fires.

        A detection is emitted at most once per entity (the first time
        the entity crosses the threshold), and it is final: a detected
        entity records nothing more, so :meth:`infer` reads the window
        it was detected on.
        """
        track = self.track(alert.entity)
        if track.detected is not None:
            return None
        if self.engine == "naive":
            # The executable spec keeps the alert's own name: nothing of
            # the streaming arena, its symbol table included, is used.
            track.names.append(alert.name)
            return self._naive_decision(track, alert)
        self._sync(track)
        return self._advance(track, self._arena.intern(alert.name), lambda: alert)

    def _naive_decision(self, track: EntityTrack, alert: Alert) -> Optional[Detection]:
        """The seed decision: re-decode the whole window, then threshold it."""
        states, final_marginal, matched = self.infer(alert.entity)
        final_state = HiddenState(int(states[-1])) if states.size else HiddenState.BENIGN
        malicious_probability = float(final_marginal[int(HiddenState.MALICIOUS)])
        if (
            final_state is not HiddenState.MALICIOUS
            or malicious_probability < self.detection_threshold
        ):
            return None
        detection = Detection(
            entity=alert.entity,
            timestamp=alert.timestamp,
            alert_index=len(track.names) - 1,
            trigger=alert,
            state=final_state,
            confidence=malicious_probability,
            matched_patterns=tuple(matched),
            state_trajectory=tuple(int(s) for s in states),
        )
        self._mark_detected(track, detection)
        return detection

    def _mark_detected(self, track: EntityTrack, detection: Detection) -> None:
        track.detected = detection
        self._arena.slots.detected[track.slot] = True

    def _advance(self, track: EntityTrack, symbol: int, trigger: Callable[[], Alert]) -> Optional[Detection]:
        """One alert (interned as ``symbol``) through a track's slot: the
        per-entity streaming step.

        Tail of the per-alert path, and what the stacked kernel runs
        for a step that opens a window or a segment too small to stack.
        A filling slot that already holds ``max_window`` steps opens its
        window.  ``trigger`` returns the alert, called only if it fires.
        """
        arena, slot = self._arena, track.slot
        row = int(arena.slots.row[slot])
        if row >= 0:
            # Amortised slide: O(K^3) two-stack eviction.
            streaming.slide(arena, slot, symbol)
        else:
            opening = arena.slots.length[slot] >= self.max_window
            streaming.append(arena, slot, symbol)
            if not opening:
                return self._finalize_decision(track, trigger)
            row = streaming.open_window(arena, slot)
        if not streaming.may_fire(arena, row, self.detection_threshold):
            # The guard-banded aggregate decision is authoritative
            # for "cannot fire"; no exact decode is materialised.
            return None
        return self._finalize_decision(track, trigger)

    def _finalize_decision(self, track: EntityTrack, trigger: Callable[[], Alert]) -> Optional[Detection]:
        """Exact threshold decision + detection materialisation for a track's slot.

        Shared tail of the per-alert path and the stacked kernel: both
        arrive here only after their (guard-banded or stacked)
        pre-filter could not rule the entity out, and the exact
        read-out (:func:`repro.core.streaming.decode`) decides — and
        materialises — the detection bit-identically to the naive path.
        The triggering alert is built (``trigger()``) only for a detection.
        """
        arena, slot = self._arena, track.slot
        state, final_marginal, path = streaming.decode(arena, slot)
        final_state = HiddenState(state)
        malicious_probability = float(final_marginal[int(HiddenState.MALICIOUS)])
        if (
            final_state is not HiddenState.MALICIOUS
            or malicious_probability < self.detection_threshold
        ):
            return None
        # Only a firing detection pays for a filling slot's O(T) backtrack.
        states = streaming.fill_path(arena, slot) if path is None else path
        matched = streaming.matched_pattern_names(arena, slot)
        alert = trigger()
        detection = Detection(
            entity=alert.entity,
            timestamp=alert.timestamp,
            # The slot holds the window-bounded steps up to this alert.
            alert_index=streaming.length(arena, slot) - 1,
            trigger=alert,
            state=final_state,
            confidence=malicious_probability,
            matched_patterns=tuple(matched),
            state_trajectory=tuple(int(s) for s in states),
        )
        self._mark_detected(track, detection)
        # Detection is final: the window's names move to the track, once,
        # and its decode state (an arena row, once windowed) goes back.
        track.names = tuple(self._window(track))
        self._release(track)
        return detection

    def observe_batch_indexed(
        self, alerts: NormalizedBatch | Iterable[Alert]
    ) -> list[tuple[int, Detection]]:
        """:meth:`Detector.observe_batch_indexed` through the stacked kernel.

        Under ``"streaming"`` the whole sub-batch is advanced by the
        stacked cross-entity kernel, which reads a
        :class:`~repro.core.alerts.NormalizedBatch`'s entity and name
        columns and builds an alert only for a detection's trigger;
        ``"naive"`` takes the per-alert loop.  Both give the per-alert
        loop's results exactly.
        """
        if self.engine == "naive":
            return super().observe_batch_indexed(alerts)
        if self._batch_kernel is None:
            from .batch_kernel import BatchedDecodeKernel

            self._batch_kernel = BatchedDecodeKernel(self)
        if not isinstance(alerts, NormalizedBatch):
            alerts = NormalizedBatch.of_alerts(alerts)
        return self._batch_kernel.observe(alerts)

    @property
    def kernel_steps(self) -> tuple[int, int, int]:
        """:attr:`Detector.kernel_steps` of the stacked kernel, since it was
        (re)created: it is scratch, so a restored tagger counts from zero."""
        kernel = self._batch_kernel
        if kernel is None:
            return (0, 0, 0)
        return (kernel.rows_stacked, kernel.rows_patterned, kernel.rows_scalar)

    def clone(self) -> "AttackTagger":
        """A fresh, stateless tagger with the same configuration.

        Used by the sharded detector pool to stamp out one independent
        detector per shard: parameters and the pattern catalogue are
        shared (they are read-only on the inference path), the clone
        resolves its own model from them, per-entity state starts empty.
        """
        return AttackTagger(
            self.parameters,
            self.patterns,
            detection_threshold=self.detection_threshold,
            max_window=self.max_window,
            default_pattern_weight=self.default_pattern_weight,
            vocabulary=self.vocabulary,
            engine=self.engine,
        )

    # -- pickling (a pool's template crossing into a worker) -----------------
    def __getstate__(self) -> dict:
        """The tagger without its scratch: the stacked kernel (recreated
        on the next sub-batch) and the resolved model.  Its tracks are
        exported, so they carry the windows the arena holds, from which
        :meth:`_sync` rebuilds the decode state."""
        state = self.__dict__.copy()
        state["_batch_kernel"] = None
        state["_tracks"] = self.export_entity_tracks()
        state.pop("_arena", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Resolve the model again, refusing an engine this build cannot
        run (one pickled before ``rebuild`` and ``batched`` were removed)."""
        if state.get("engine") not in ENGINES:
            raise UnknownEngineError(state.get("engine"))
        # Interned keys, as default unpickling does: key identity feeds
        # pickle's memo, and re-pickled bytes must stay canonical.
        self.__dict__.update((sys.intern(key), value) for key, value in state.items())
        self._resolve()
        self._assign_slots(list(self._tracks.values()))

    # -- the migration pair -------------------------------------------------
    # The Detector contract's one state currency (see
    # repro.core.detector.Detector): checkpoint, heal and reshard move
    # per-entity state between replicas through these two methods.
    def export_entity_tracks(self) -> Dict[str, EntityTrack]:
        """Every per-entity track, without its slot, in tracking order.

        The returned tracks are safe to hand to another replica built
        from the same configuration: each carries its window's names (a
        live track's read off its slot) in a ``deque(maxlen=max_window)``
        of its own, and decode state is a pure function of them, so the
        adopting tagger rebuilds it lazily and bit-identically (same
        argument as :meth:`__getstate__`).
        """
        window = self.max_window
        return {
            entity: dataclasses.replace(track, names=deque(self._window(track), maxlen=window))
            for entity, track in self._tracks.items()
        }

    def adopt_entity_track(self, entity: str, track: EntityTrack) -> None:
        """Take ownership of one migrated per-entity track (a slot of this
        tagger's arena replaces whatever slot it carried)."""
        if entity in self._tracks:
            raise ValueError(f"entity {entity!r} is already tracked")
        self._tracks[entity] = track
        self._assign_slots([track])

    # -- convenience -----------------------------------------------------------
    def current_state(self, entity: str) -> HiddenState:
        """MAP state of an entity given everything observed so far."""
        states, _, _ = self.infer(entity)
        if states.size == 0:
            return HiddenState.BENIGN
        return HiddenState(int(states[-1]))

    def posterior(self, entity: str) -> Mapping[str, float]:
        """Posterior distribution over the entity's current hidden state."""
        _, marginal, _ = self.infer(entity)
        return {state.name.lower(): float(marginal[int(state)]) for state in HiddenState.domain()}


__all__ = [
    "ENGINES",
    "UnknownEngineError",
    "PatternSpec",
    "Detection",
    "EntityTrack",
    "AttackTagger",
]
