"""Pickle round-trip properties for every checkpointed class.

The ``pickle-safety`` staticcheck rule audits these classes
*statically* (no lambdas/locks/handles outside the ``__getstate__``
drop-list); this suite is the dynamic counterpart.  For each class in
:data:`repro.staticcheck.rules.pickle_safety.CHECKPOINTED_CLASS_NAMES`
it pins three properties:

* **round-trips** — ``pickle.loads(pickle.dumps(x))`` succeeds on live,
  mid-stream state (Hypothesis drives bursty unicode streams into the
  stateful detectors);
* **drop-lists are honoured** — attributes ``__getstate__`` excludes
  (track decoder caches, the stacked kernel, the sliding window's
  scratch buffer) really are absent/reset after unpickling;
* **behavioural equivalence** — the restored object continues the
  stream exactly as the original would have (and re-pickling is
  canonical: same bytes regardless of lazily rebuilt caches).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger
from repro.core.alerts import Alert
from repro.core.attack_tagger import EntityTrack, UnknownEngineError
from repro.core.baselines import CriticalAlertDetector, NaiveBayesDetector
from repro.core.rule_based import RuleBasedDetector
from repro.core.sequences import AlertSequence
from repro.core.sliding_window import SlidingProductWindow, WindowArena
from repro.core.streaming import StreamingDecoder
from repro.core.training import LabeledSequence
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed.pipeline import TestbedPipeline
from repro.testbed.sharding import DetectorTemplate, ShardedDetectorPool, ShardWorkerError

_PATTERNS = list(DEFAULT_CATALOGUE)
_ALL_NAMES = sorted({name for pattern in _PATTERNS for name in pattern.names})

_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _split_stream(draw) -> tuple[list[Alert], list[Alert]]:
    """A bursty unicode stream split at a pickle point.

    Mirrors the checkpoint suite's adversarial shape: few entities with
    skewed volumes (so a small decode window saturates and evicts) and
    entity names spanning non-Latin scripts.
    """
    entity_pool = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", blacklist_categories=("Cs",), min_codepoint=33
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_ALL_NAMES),
                st.sampled_from(entity_pool),
                st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    stream, timestamp = [], 0.0
    for name, entity, delta in events:
        timestamp += delta
        stream.append(Alert(timestamp, name, entity))
    cut = draw(st.integers(min_value=0, max_value=len(stream)))
    return stream[:cut], stream[cut:]


def _round_trip(obj):
    blob = pickle.dumps(obj)
    return pickle.loads(blob), blob


# ---------------------------------------------------------------------------
# AttackTagger (and, through it, EntityTrack + StreamingDecoder state)
# ---------------------------------------------------------------------------
class TestAttackTaggerRoundTrip:
    @_SETTINGS
    @given(parts=_split_stream(), engine=st.sampled_from(("naive", "streaming")))
    def test_drop_list_honoured_and_continuation_identical(self, parts, engine):
        prefix, suffix = parts
        # max_window=4 saturates the sliding window on bursty entities —
        # the decoder state hardest to drop/rebuild correctly.
        original = AttackTagger(patterns=_PATTERNS, max_window=4, engine=engine)
        original.observe_many(prefix)

        restored, blob = _round_trip(original)

        # __getstate__ drop-list: decoder caches and the stacked kernel
        # never cross the pickle boundary.
        for track in restored._tracks.values():
            assert track.decoder is None
        assert restored._batch_kernel is None

        # Canonical bytes: re-pickling the restored tagger reproduces
        # the original pickle exactly (no cache-dependent payloads).
        assert pickle.dumps(restored) == blob

        # Behavioural equivalence: both continue the stream identically
        # (the restored side rebuilds decoders lazily, bit-identically).
        assert restored.observe_many(suffix) == original.observe_many(suffix)
        assert restored.detections == original.detections

    def test_decoder_rebuilt_lazily_and_bit_identically(self):
        # A threshold of 1 - 1e-9 keeps the entity undetected, so the live
        # decoder cache survives the whole stream on the original side.
        stream = [
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], "user:α")
            for i in range(12)
        ]
        original = AttackTagger(
            patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
        )
        original.observe_many(stream)
        (track,) = original._tracks.values()
        assert track.decoder is not None

        restored = pickle.loads(pickle.dumps(original))
        (restored_track,) = restored._tracks.values()
        assert restored_track.decoder is None

        # One more alert forces the lazy rebuild; the rebuilt decoder
        # must agree with the never-pickled one bit for bit.
        extra = Alert(99.0, _ALL_NAMES[0], "user:α")
        assert restored.observe(extra) == original.observe(extra)
        assert restored_track.decoder is not None
        np.testing.assert_array_equal(
            restored_track.decoder.final_marginal(),
            track.decoder.final_marginal(),
        )


    def test_shared_pattern_table_never_reaches_the_bytes(self, tmp_path):
        """Same bytes before and after decoders (and the table) exist."""
        stream = [
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], f"user:{i % 5}")
            for i in range(40)
        ]

        def tagger():
            return AttackTagger(
                patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
            )

        def open_every_decoder(detector):
            for entity in detector.entities():
                detector.infer(entity)
            assert detector._pattern_table is not None
            assert all(track.decoder is not None for track in detector._tracks.values())

        original = tagger()
        original.observe_many(stream)
        assert original._pattern_table is not None
        assert "_pattern_table" not in original.__getstate__()
        restored, blob = _round_trip(original)
        assert restored._pattern_table is None
        assert pickle.dumps(restored) == blob  # no decoder, no table yet
        open_every_decoder(restored)
        assert pickle.dumps(restored) == blob

        paths = [tmp_path / name for name in ("live.ckpt", "cold.ckpt", "warm.ckpt")]
        with TestbedPipeline(detectors={"factor_graph": tagger()}, n_shards=2) as live:
            live.ingest_alerts(stream)
            live.checkpoint(paths[0])
        with TestbedPipeline(detectors={"factor_graph": tagger()}, n_shards=2) as again:
            again.restore(paths[0])
            again.checkpoint(paths[1])
            for shard in again.detector_pools["factor_graph"].shards:
                open_every_decoder(shard)
            again.checkpoint(paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


#: Engine names old checkpoints may carry; the engines themselves are gone.
_REMOVED_ENGINES = ("rebuild", "batched")


class TestRemovedEngineStateIsRejected:
    """State written under a removed engine must not load silently."""

    @staticmethod
    def _tagger():
        tagger = AttackTagger(patterns=_PATTERNS, max_window=4)
        tagger.observe_many(
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], f"user:{i % 3}")
            for i in range(10)
        )
        return tagger

    @classmethod
    def _old_pool_state(cls, engine):
        # Byte-for-byte what a pre-removal build snapshotted: the same
        # state dicts with the old engine name in them.
        pool = ShardedDetectorPool.from_template(cls._tagger(), n_shards=2)
        for shard in pool.shards:
            shard.engine = engine
        return pool.snapshot_state()

    @pytest.mark.parametrize("engine", _REMOVED_ENGINES)
    def test_unpickle_raises_typed_error_naming_the_engine(self, engine):
        tagger = self._tagger()
        tagger.engine = engine
        blob = pickle.dumps(tagger)
        with pytest.raises(UnknownEngineError) as caught:
            pickle.loads(blob)
        assert caught.value.engine == engine
        message = str(caught.value)
        assert repr(engine) in message
        assert "'streaming'" in message and "'naive'" in message
        # Constructor edge: same type, and still a ValueError for callers
        # that caught the old untyped rejection.
        with pytest.raises(ValueError, match=engine) as constructed:
            AttackTagger(engine=engine)
        assert isinstance(constructed.value, UnknownEngineError)

    @pytest.mark.parametrize("engine", _REMOVED_ENGINES)
    def test_serial_pool_refuses_old_shard_snapshot(self, engine):
        # Typed like the process backend's refusal below; in-process the
        # shard error still carries the exception itself.
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=2)
        with pytest.raises(ShardWorkerError, match=f"unknown engine '{engine}'") as caught:
            pool.restore_state(self._old_pool_state(engine))
        assert isinstance(caught.value.__cause__, UnknownEngineError)
        assert caught.value.__cause__.engine == engine

    def test_process_pool_refuses_old_shard_snapshot(self):
        engine = _REMOVED_ENGINES[1]
        state = dict(self._old_pool_state(engine), backend="process")
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        try:
            with pytest.raises(ShardWorkerError, match=f"unknown engine '{engine}'"):
                pool.restore_state(state)
        finally:
            pool.close()

    def test_pipeline_refuses_old_checkpoint(self, tmp_path):
        path = tmp_path / "old.ckpt"
        with TestbedPipeline(
            detectors={"factor_graph": self._tagger()}, n_shards=2
        ) as old:
            for shard in old.detector_pools["factor_graph"].shards:
                shard.engine = _REMOVED_ENGINES[0]
            old.checkpoint(path)
        with TestbedPipeline(
            detectors={"factor_graph": self._tagger()}, n_shards=2
        ) as pipeline:
            with pytest.raises(ShardWorkerError, match=_REMOVED_ENGINES[0]) as caught:
                pipeline.restore(path)
            assert isinstance(caught.value.__cause__, UnknownEngineError)


# ---------------------------------------------------------------------------
# SlidingProductWindow
# ---------------------------------------------------------------------------
class TestSlidingWindowRoundTrip:
    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_push=st.integers(min_value=1, max_value=12),
        n_pop=st.integers(min_value=0, max_value=11),
    )
    def test_arena_dropped_and_apply_bit_identical(self, seed, n_push, n_pop):
        """A pickled view carries its row's contents, never the arena."""
        rng = np.random.default_rng(seed)
        pairwise = rng.standard_normal((3, 3))
        arena = WindowArena(16)
        neighbours = [SlidingProductWindow(pairwise, arena=arena) for _ in range(3)]
        window = SlidingProductWindow(pairwise, arena=arena)
        window.load(5, np.zeros((1, 3)), rng.standard_normal((1, 3)), ["head"])
        for _ in range(n_push):
            row = rng.standard_normal(3)
            window.stage(row, "step")
            window.push(row)
        for _ in range(min(n_pop, n_push - 1)):
            window.pop_front()

        head = rng.standard_normal(3)
        pristine = pickle.dumps(window)
        max_before, lse_before = window.apply(head)
        assert pickle.dumps(window) == pristine  # queries leave no trace

        restored = pickle.loads(pristine)
        assert restored.arena is not arena
        assert (restored.arena.capacity, restored.arena.live) == (1, 1)
        assert arena.live == len(neighbours) + 1
        assert len(restored) == len(window) and restored.span == window.span
        max_after, lse_after = restored.apply(head)
        np.testing.assert_array_equal(max_before, max_after)
        np.testing.assert_array_equal(lse_before, lse_after)


# ---------------------------------------------------------------------------
# StreamingDecoder + EntityTrack (pickled inside checkpoints/snapshots)
# ---------------------------------------------------------------------------
class TestDecoderAndTrackRoundTrip:
    def _live_track(self) -> EntityTrack:
        # Threshold 1 - 1e-9: no detection fires, so the tagger keeps
        # the incremental decoder cache alive on the track.
        tagger = AttackTagger(
            patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
        )
        for step, name in enumerate(_ALL_NAMES[:8]):
            tagger.observe(Alert(float(step + 1), name, "user:β"))
        (track,) = tagger._tracks.values()
        assert track.decoder is not None
        return track

    def test_streaming_decoder_round_trips_mid_window(self):
        decoder = self._live_track().decoder
        restored, _ = _round_trip(decoder)
        assert isinstance(restored, StreamingDecoder)
        np.testing.assert_array_equal(
            restored.final_marginal(), decoder.final_marginal()
        )
        restored.append(_ALL_NAMES[0])
        decoder.append(_ALL_NAMES[0])
        np.testing.assert_array_equal(
            restored.final_marginal(), decoder.final_marginal()
        )

    def test_entity_track_round_trips_with_dropped_decoder(self):
        import dataclasses

        track = dataclasses.replace(self._live_track(), decoder=None)
        restored, _ = _round_trip(track)
        assert restored.entity == track.entity
        assert list(restored.alerts) == list(track.alerts)
        assert restored.decoder is None
        assert restored.detected == track.detected


# ---------------------------------------------------------------------------
# DetectorTemplate (crosses worker pipes as the shard factory)
# ---------------------------------------------------------------------------
class TestDetectorTemplateRoundTrip:
    def test_factory_survives_pipe_and_stamps_fresh_detectors(self):
        template = DetectorTemplate(AttackTagger(patterns=_PATTERNS, max_window=4))
        restored, _ = _round_trip(template)
        first, second = restored(), restored()
        assert first is not second
        detection = first.observe(Alert(1.0, _ALL_NAMES[0], "user:γ"))
        assert second.detections == []
        assert first.detections == ([detection] if detection else [])


# ---------------------------------------------------------------------------
# Baseline detectors (checkpointed via the pipeline's detector map)
# ---------------------------------------------------------------------------
def _fitted_naive_bayes() -> NaiveBayesDetector:
    attack = AlertSequence(
        tuple(
            Alert(float(i + 1), name, "train:attack")
            for i, name in enumerate(_PATTERNS[0].names)
        )
    )
    benign = AlertSequence(
        tuple(Alert(float(i + 1), _ALL_NAMES[-1], "train:benign") for i in range(3))
    )
    detector = NaiveBayesDetector()
    detector.fit(
        [
            LabeledSequence(attack, labels=(2,) * len(attack), is_attack=True),
            LabeledSequence(benign, labels=(0,) * len(benign), is_attack=False),
        ]
    )
    return detector


@pytest.mark.parametrize(
    "factory",
    [CriticalAlertDetector, _fitted_naive_bayes, RuleBasedDetector],
    ids=["critical", "naive-bayes", "rule-based"],
)
class TestBaselineDetectorRoundTrip:
    @_SETTINGS
    @given(parts=_split_stream())
    def test_continuation_identical_after_round_trip(self, factory, parts):
        prefix, suffix = parts
        original = factory()
        original.observe_many(prefix)
        restored, blob = _round_trip(original)
        assert pickle.dumps(restored) == blob
        assert restored.observe_many(suffix) == original.observe_many(suffix)
        assert restored.detections == original.detections
