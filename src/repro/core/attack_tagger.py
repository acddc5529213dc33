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
from typing import Dict, Iterable, List, Mapping, MutableSequence, Optional, Sequence

import numpy as np

from .alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from .factor_graph import chain_map_decode, chain_marginals
from .factors import FactorParameters, default_parameters, observation_log_for_sequence
from .sequences import AlertSequence, matched_prefix_length
from .sliding_window import WindowArena
from .states import NUM_STATES, HiddenState
from .streaming import PatternTable, StreamingDecoder, WeightedPattern

#: The production engine and the executable spec, in that order.
ENGINES = ("streaming", "naive")


class UnknownEngineError(ValueError):
    """An engine name that is not one of :data:`ENGINES`.

    Raised at every edge a name can arrive through: the constructor, an
    unpickled or restored tagger state (old checkpoints and shard
    snapshots may carry the removed ``rebuild`` / ``batched`` engines),
    the oracle's config specs and the service CLI.
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
    """Per-entity detector state: the observed alerts and cached decode.

    ``alerts`` holds the window-bounded alert history.  The tagger
    creates it as a ``collections.deque(maxlen=max_window)`` so the
    window trim is O(1) per alert (appending to a full deque drops the
    oldest element) instead of an O(W) list shift -- the same sequence
    API (append/iterate/len) is preserved.
    """

    entity: str
    alerts: MutableSequence[Alert] = dataclasses.field(default_factory=list)
    detected: Optional[Detection] = None
    decoder: Optional[StreamingDecoder] = None

    @property
    def sequence(self) -> AlertSequence:
        """Current alert sequence for the entity."""
        return AlertSequence(tuple(self.alerts))


class AttackTagger:
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
        per-entity decoder state
        (:class:`repro.core.streaming.StreamingDecoder`) so one alert
        costs O(K^2 + pattern advances) while the window fills and
        O(K^3) amortised once it saturates (the two-stack sliding
        aggregation of :mod:`repro.core.sliding_window` makes the
        ``max_window`` slide an eviction instead of a re-decode).  The
        batch entry points advance every entity touched by a sub-batch
        together through the vectorised cross-entity kernel
        (:class:`repro.core.batch_kernel.BatchedDecodeKernel`): one
        ``(K, K, N)`` stacked semiring reduce per driver step instead
        of N small-matrix calls; :meth:`observe` is the same
        arithmetic for one alert.  ``"naive"`` is the executable spec:
        the seed behaviour of re-decoding the whole chain per alert.
        Both produce bit-identical detections; any other name raises
        :class:`UnknownEngineError`.  Pattern weights are resolved when
        an entity's decoder is created: decoders share one immutable
        :class:`repro.core.streaming.PatternTable`, re-resolved for the
        next new entity once ``parameters.pattern_weights`` (rebound or
        mutated in place), ``default_pattern_weight`` or ``patterns``
        differ from the values it was built from.  Live decoders keep
        theirs, so change those only between ``run_sequence`` calls
        (which reset the entity) under ``"streaming"``.
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
        if detection_threshold <= 0.0 or detection_threshold >= 1.0:
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
        self._detections: List[Detection] = []
        # Cumulative seconds spent inside the stacked decode kernel
        # (0.0 under ``naive``); surfaced per stage through the
        # pipeline's ``detect_kernel_seconds`` summary counter.
        self.kernel_seconds: float = 0.0
        self._batch_kernel = None
        # (values resolved from, table): scratch, dropped on pickling.
        self._pattern_table: Optional[tuple[tuple, PatternTable]] = None
        # Storage of every windowed decoder: scratch, dropped on pickling.
        self._arena: Optional[WindowArena] = None

    # -- public state ------------------------------------------------------
    @property
    def detections(self) -> list[Detection]:
        """All detections emitted so far, in order."""
        return list(self._detections)

    def track(self, entity: str) -> EntityTrack:
        """The per-entity track (created on first use)."""
        track = self._tracks.get(entity)
        if track is None:
            # deque(maxlen) keeps the per-alert window trim O(1).
            track = self._tracks[entity] = EntityTrack(
                entity=entity, alerts=deque(maxlen=self.max_window)
            )
        return track

    def entities(self) -> list[str]:
        """All entities observed so far."""
        return list(self._tracks)

    def reset(self) -> None:
        """Forget all per-entity state and past detections."""
        for track in self._tracks.values():
            self._release(track)
        self._tracks.clear()
        self._detections.clear()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity (e.g. after remediation re-images the host)."""
        track = self._tracks.pop(entity, None)
        if track is not None:
            self._release(track)

    @staticmethod
    def _release(track: EntityTrack) -> None:
        """Drop a track's decoder, handing its arena row back.

        The one way decode state leaves a track: at detection, on
        either reset, on adoption by another replica.  A decoder is a
        pure function of the track's alerts, so :meth:`_decoder_for`
        re-syncs one lazily should :meth:`infer` want it again.
        """
        decoder, track.decoder = track.decoder, None
        if decoder is not None:
            decoder.release()

    # -- core inference -----------------------------------------------------
    def _pattern_weight(self, name: str) -> float:
        if self.parameters.pattern_weights:
            return self.parameters.pattern_weights.get(name, 0.0)
        return self.default_pattern_weight

    def _shared_table(self) -> PatternTable:
        """Catalogue patterns with a positive resolved weight, in order.

        One table serves every decoder until a value it was resolved
        from changes (a dict and a list compare per new entity).
        """
        weights, default, catalogue = (
            self.parameters.pattern_weights, self.default_pattern_weight, self.patterns
        )
        cached = self._pattern_table
        if cached is not None and cached[0] == (weights, default, catalogue):
            return cached[1]
        table = PatternTable(
            WeightedPattern(pattern.name, pattern.names, weight)
            for pattern in self.patterns
            if (weight := self._pattern_weight(pattern.name)) > 0.0
        )
        # Snapshot copies: the live dict/list may be mutated in place.
        self._pattern_table = ((dict(weights), default, list(catalogue)), table)
        return table

    def _window_arena(self) -> WindowArena:
        """The arena every windowed decoder of this tagger takes its row from."""
        arena = self._arena
        if arena is None or arena.ring != self.max_window + 1:
            arena = self._arena = WindowArena(self.max_window + 1)
        return arena

    def _make_decoder(self) -> StreamingDecoder:
        """Fresh incremental decoder bound to the current parameters."""
        return StreamingDecoder(self.parameters, self._shared_table(), self._window_arena())

    def _trim_track(self, track: EntityTrack) -> None:
        """Defensive window trim for tracks not backed by a maxlen deque.

        :meth:`track` always creates ``deque(maxlen=max_window)`` (whose
        append already evicted the oldest alert, so this is a single
        length check), but an externally constructed
        :class:`EntityTrack` may carry a plain list.
        """
        while len(track.alerts) > self.max_window:
            del track.alerts[0]

    def _decoder_for(self, track: EntityTrack) -> StreamingDecoder:
        """The track's decoder, created (and synced to its alerts) on demand."""
        if track.decoder is None:
            track.decoder = self._make_decoder()
            for alert in track.alerts:
                track.decoder.append(alert.name)
        return track.decoder

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
        for pattern in self.patterns:
            weight = self._pattern_weight(pattern.name)
            if weight <= 0.0:
                continue
            matched = matched_prefix_length(pattern.names, names)
            if matched == 0:
                continue
            bonus = self.parameters.pattern_bonus(matched, len(pattern.names), weight)
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
        maintained decoder state; the naive engine re-decodes the whole
        chain (seed behaviour).
        """
        track = self.track(entity)
        if not track.alerts:
            prior = np.exp(self.parameters.initial_log)
            return np.zeros(0, dtype=np.int64), prior / prior.sum(), []
        if self.engine != "naive":
            decoder = self._decoder_for(track)
            return decoder.map_path(), decoder.final_marginal(), decoder.matched_pattern_names()
        names = [a.name for a in track.alerts]
        unary, matched = self._build_unary(names)
        states = chain_map_decode(unary, self.parameters.transition_log)
        marginals = chain_marginals(unary, self.parameters.transition_log)
        return states, marginals[-1], matched

    # -- streaming API ------------------------------------------------------
    def observe(self, alert: Alert) -> Optional[Detection]:
        """Consume one alert; return a :class:`Detection` if one fires.

        A detection is emitted at most once per entity (the first time
        the entity crosses the threshold); subsequent alerts for an
        already-detected entity are still recorded so the response path
        can keep building the incident timeline.
        """
        detection = self._observe_impl(alert)
        if detection is not None:
            self._detections.append(detection)
        return detection

    def _observe_impl(self, alert: Alert) -> Optional[Detection]:
        """Single-alert inference without the global detection-log append.

        The stacked kernel reuses this per-alert path for sub-batch
        rounds too small to be worth stacking, then appends all of a
        sub-batch's detections to ``_detections`` in stream order; the
        public :meth:`observe` is this plus the log append.
        """
        track = self.track(alert.entity)
        if track.detected is not None:
            # Already detected: record the alert for the incident
            # timeline but skip all inference work.  The deque drops the
            # evicted alert in O(1), so this fast path does no O(W)
            # work at all.  A decoder `infer` re-synced since the
            # detection is dropped rather than maintained.
            track.alerts.append(alert)
            self._trim_track(track)
            self._release(track)
            return None
        decoder = self._decoder_for(track) if self.engine != "naive" else None
        sliding = len(track.alerts) >= self.max_window
        track.alerts.append(alert)  # deque(maxlen) evicts the oldest in O(1)
        self._trim_track(track)
        if decoder is not None:
            return self._advance(track, alert, decoder, sliding)
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
            alert_index=len(track.alerts) - 1,
            trigger=alert,
            state=final_state,
            confidence=malicious_probability,
            matched_patterns=tuple(matched),
            state_trajectory=tuple(int(s) for s in states),
        )
        track.detected = detection
        return detection

    def _advance(
        self, track: EntityTrack, alert: Alert, decoder: StreamingDecoder, sliding: bool
    ) -> Optional[Detection]:
        """One alert through one decoder: the per-entity streaming step.

        Tail of the per-alert path, and what the stacked kernel runs
        for a row whose step touches pattern state.
        """
        decoder.append(alert.name)
        if sliding:
            # Amortised slide: O(K^3) two-stack eviction.
            decoder.evict_front()
        if decoder.windowed and not decoder.may_fire(self.detection_threshold):
            # The guard-banded aggregate decision is authoritative
            # for "cannot fire"; no exact decode is materialised.
            return None
        return self._finalize_decision(track, alert, decoder)

    def _finalize_decision(
        self, track: EntityTrack, alert: Alert, decoder: StreamingDecoder
    ) -> Optional[Detection]:
        """Exact threshold decision + detection materialisation for a decoder.

        Shared tail of the per-alert path and the stacked kernel: both
        arrive here only after their (guard-banded or stacked)
        pre-filter could not rule the entity out, and the exact decoder
        read-outs decide — and materialise — the detection
        bit-identically to the naive path.
        """
        final_marginal = decoder.final_marginal()
        final_state = HiddenState(decoder.final_state())
        malicious_probability = float(final_marginal[int(HiddenState.MALICIOUS)])
        if (
            final_state is not HiddenState.MALICIOUS
            or malicious_probability < self.detection_threshold
        ):
            return None
        # Only a firing detection pays for the full O(T) backtrack.
        states = decoder.map_path()
        matched = decoder.matched_pattern_names()
        detection = Detection(
            entity=alert.entity,
            timestamp=alert.timestamp,
            alert_index=len(track.alerts) - 1,
            trigger=alert,
            state=final_state,
            confidence=malicious_probability,
            matched_patterns=tuple(matched),
            state_trajectory=tuple(int(s) for s in states),
        )
        track.detected = detection
        # A detected entity infers nothing more: its decode state
        # (an arena row, once windowed) goes back now, not whenever
        # its next alert happens to arrive.
        self._release(track)
        return detection

    def observe_many(self, alerts: Iterable[Alert]) -> list[Detection]:
        """Consume a batch of alerts, returning any detections emitted."""
        return [detection for _, detection in self.observe_batch_indexed(alerts)]

    def observe_batch(self, alerts: Iterable[Alert]) -> list[Detection]:
        """Batch stage entry point of the :class:`repro.core.detector.Detector` protocol."""
        return self.observe_many(alerts)

    def observe_batch_indexed(
        self, alerts: Iterable[Alert]
    ) -> list[tuple[int, Detection]]:
        """Consume one sub-batch, returning ``(position, detection)`` pairs.

        Positions index into the sub-batch and are strictly increasing;
        they let sharded drivers reconstruct global stream order without
        assuming one-detection-per-alert.  Under ``"streaming"`` the
        whole sub-batch is advanced by the stacked cross-entity kernel;
        ``"naive"`` walks it per alert, with identical results.
        """
        alerts = list(alerts)
        if self.engine == "naive":
            hits = [
                (position, detection)
                for position, alert in enumerate(alerts)
                if (detection := self._observe_impl(alert)) is not None
            ]
        else:
            if self._batch_kernel is None:
                from .batch_kernel import BatchedDecodeKernel

                self._batch_kernel = BatchedDecodeKernel(self)
            hits = self._batch_kernel.observe_rounds(alerts)
        self._detections.extend(detection for _, detection in hits)
        return hits

    def clone(self) -> "AttackTagger":
        """A fresh, stateless tagger with the same configuration.

        Used by the sharded detector pool to stamp out one independent
        detector per shard: parameters and the pattern catalogue are
        shared (they are read-only on the inference path), per-entity
        state starts empty.
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

    # -- shard state transfer ----------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle-safe shard state: per-entity decoder caches are dropped.

        A :class:`~repro.core.streaming.StreamingDecoder` is a pure
        function of the track's (window-bounded) alert list, so
        ``_decoder_for`` rebuilds it lazily and bit-identically after
        unpickling.  Dropping the caches keeps the transferred state
        small when whole shards migrate between worker processes.
        """
        state = self.__dict__.copy()
        state["_tracks"] = {
            entity: dataclasses.replace(track, decoder=None)
            for entity, track in self._tracks.items()
        }
        # The kernel is pure scratch (stacked work buffers); recreated
        # lazily on the first sub-batch after unpickling.
        state["_batch_kernel"] = None
        # So are the pattern table and the window arena (every row of
        # it belonged to a dropped decoder); dropping the keys keeps
        # old bytes.
        state.pop("_pattern_table", None)
        state.pop("_arena", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore shard state, refusing an engine this build cannot run.

        Checkpoints and shard snapshots written before the ``rebuild``
        and ``batched`` engines were removed carry their names; running
        them silently as ``streaming`` would hide the change.
        """
        if state.get("engine") not in ENGINES:
            raise UnknownEngineError(state.get("engine"))
        # Interned keys, as default unpickling does: key identity feeds
        # pickle's memo, and re-pickled bytes must stay canonical.
        self.__dict__.update((sys.intern(key), value) for key, value in state.items())
        self._pattern_table = None
        self._arena = None

    # -- live reshard migration --------------------------------------------
    # The optional Detector migration extension (see
    # repro.core.detector.Detector): ShardedDetectorPool.reshard() moves
    # per-entity state between replicas through these three methods.
    def export_entity_tracks(self) -> Dict[str, EntityTrack]:
        """Every per-entity track, with decoder caches dropped.

        The returned tracks are safe to hand to another replica built
        from the same configuration: a decoder is a pure function of
        the track's window-bounded alert list, so the adopting tagger
        rebuilds it lazily and bit-identically (same argument as
        :meth:`__getstate__`).
        """
        return {
            entity: dataclasses.replace(track, decoder=None)
            for entity, track in self._tracks.items()
        }

    def adopt_entity_track(self, entity: str, track: EntityTrack) -> None:
        """Take ownership of one migrated per-entity track."""
        if entity in self._tracks:
            raise ValueError(f"entity {entity!r} is already tracked")
        # A decoder that came along lives in the other replica's arena.
        self._release(track)
        self._trim_track(track)
        self._tracks[entity] = track

    def replace_detections(self, detections: Sequence[Detection]) -> None:
        """Overwrite the emitted-detections log (reshard log rebuild)."""
        self._detections[:] = list(detections)

    def run_sequence(self, sequence: AlertSequence, entity: Optional[str] = None) -> Optional[Detection]:
        """Run a full stored sequence through a fresh per-entity track.

        Offline evaluation helper: the sequence's alerts are re-keyed to
        a dedicated entity so separate evaluations do not interfere.
        """
        entity = entity or (sequence[0].entity if len(sequence) else "entity:eval")
        self.reset_entity(entity)
        detection: Optional[Detection] = None
        for alert in sequence:
            result = self.observe(alert.with_entity(entity))
            if result is not None and detection is None:
                detection = result
        return detection

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
