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
  (track slots with their window-arena rows, the stacked kernel)
  really are absent/reset after unpickling;
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

from repro.core import AttackTagger, streaming
from repro.core.alerts import Alert
from repro.core.attack_tagger import EntityTrack, UnknownEngineError
from repro.core.baselines import CriticalAlertDetector, NaiveBayesDetector
from repro.core.rule_based import RuleBasedDetector
from repro.core.sequences import AlertSequence
from repro.core.training import LabeledSequence
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed.checkpoint import CheckpointError
from repro.testbed.pipeline import TestbedPipeline
from repro.testbed.sharding import DetectorTemplate, ShardedDetectorPool

from test_window_arena import holds_no_decode_state

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
# AttackTagger (and, through it, EntityTrack state)
# ---------------------------------------------------------------------------
class TestAttackTaggerRoundTrip:
    @_SETTINGS
    @given(parts=_split_stream(), engine=st.sampled_from(("naive", "streaming")))
    def test_drop_list_honoured_and_continuation_identical(self, parts, engine):
        prefix, suffix = parts
        # max_window=4 saturates the sliding window on bursty entities —
        # the decode state hardest to drop/rebuild correctly.
        original = AttackTagger(patterns=_PATTERNS, max_window=4, engine=engine)
        original.observe_batch(prefix)

        restored, blob = _round_trip(original)

        # __getstate__ drop-list: decode state (slots) and the stacked
        # kernel never cross the pickle boundary.
        for entity in restored.entities():
            assert holds_no_decode_state(restored, entity)
        assert restored._batch_kernel is None

        # Canonical bytes: re-pickling the restored tagger reproduces
        # the original pickle exactly (no cache-dependent payloads).
        assert pickle.dumps(restored) == blob

        # Behavioural equivalence: both continue the stream identically
        # (the restored side rebuilds decode state lazily, bit-identically).
        assert restored.observe_batch(suffix) == original.observe_batch(suffix)

    def test_decode_state_rebuilt_lazily_and_bit_identically(self):
        # A threshold of 1 - 1e-9 keeps the entity undetected, so the live
        # decode state survives the whole stream on the original side.
        stream = [
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], "user:α")
            for i in range(12)
        ]
        original = AttackTagger(
            patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
        )
        original.observe_batch(stream)
        (track,) = original._tracks.values()
        assert not holds_no_decode_state(original, "user:α")

        restored = pickle.loads(pickle.dumps(original))
        (restored_track,) = restored._tracks.values()
        assert holds_no_decode_state(restored, "user:α")
        assert restored._arena.slots.stale[restored_track.slot]

        # One more alert forces the lazy rebuild; the rebuilt state
        # must agree with the never-pickled one bit for bit.
        extra = Alert(99.0, _ALL_NAMES[0], "user:α")
        assert restored.observe(extra) == original.observe(extra)
        assert not holds_no_decode_state(restored, "user:α")
        np.testing.assert_array_equal(
            streaming.decode(restored._arena, restored_track.slot)[1],
            streaming.decode(original._arena, track.slot)[1],
        )


    def test_shared_pattern_table_never_reaches_the_bytes(self, tmp_path):
        """Same bytes before and after decode state is rebuilt; the resolved
        model (pattern table, arena) is rebuilt on unpickling, never pickled."""
        stream = [
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], f"user:{i % 5}")
            for i in range(40)
        ]

        def tagger():
            return AttackTagger(
                patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
            )

        def rebuild_every_slot(detector):
            for entity in detector.entities():
                detector.infer(entity)
            assert not any(holds_no_decode_state(detector, entity) for entity in detector.entities())

        original = tagger()
        original.observe_batch(stream)
        assert "_arena" not in original.__getstate__()
        restored, blob = _round_trip(original)
        # Re-resolved on unpickling, to the same patterns and weights.
        assert restored._arena.matches is not original._arena.matches
        assert restored._arena.matches.patterns == original._arena.matches.patterns
        assert pickle.dumps(restored) == blob  # nothing rebuilt yet
        rebuild_every_slot(restored)
        assert pickle.dumps(restored) == blob

        paths = [tmp_path / name for name in ("live.ckpt", "cold.ckpt", "warm.ckpt")]
        with TestbedPipeline(detectors={"factor_graph": tagger()}, n_shards=2) as live:
            live.ingest_alerts(stream)
            live.checkpoint(paths[0])
        with TestbedPipeline(detectors={"factor_graph": tagger()}, n_shards=2) as again:
            again.restore(paths[0])
            again.checkpoint(paths[1])
            for shard in again.detector_pools["factor_graph"].shards:
                rebuild_every_slot(shard)
            again.checkpoint(paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


#: Engine names old checkpoints may carry; the engines themselves are gone.
_REMOVED_ENGINES = ("rebuild", "batched")


class TestRemovedEngineStateIsRejected:
    """State written under a removed engine must not load silently."""

    @staticmethod
    def _tagger():
        tagger = AttackTagger(patterns=_PATTERNS, max_window=4)
        tagger.observe_batch(
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], f"user:{i % 3}")
            for i in range(10)
        )
        return tagger

    @classmethod
    def _old_pool_state(cls, engine):
        # A pool whose replicas were switched to the old engine: what
        # its snapshot carries is their tracks, and nothing else.
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=2)
        pool.observe_batch(
            Alert(float(i + 1), _ALL_NAMES[i % len(_ALL_NAMES)], f"user:{i % 3}")
            for i in range(10)
        )
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
    def test_a_shard_snapshot_carries_no_engine(self, engine):
        # A shard snapshot is tracks, never a replica: the engine cannot
        # travel in it, so a restore runs the pool's own template.
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=2)
        pool.restore_state(self._old_pool_state(engine))
        assert [shard.engine for shard in pool.shards] == ["streaming", "streaming"]
        assert sorted(e for shard in pool.shards for e in shard.entities()) == [
            "user:0", "user:1", "user:2"
        ]

    def test_a_process_shard_restores_into_its_own_engine(self):
        engine = _REMOVED_ENGINES[1]
        state = dict(self._old_pool_state(engine), backend="process")
        reference = ShardedDetectorPool.from_template(AttackTagger(), n_shards=2)
        reference.restore_state(self._old_pool_state(engine))
        pool = ShardedDetectorPool.from_template(
            AttackTagger(), n_shards=2, backend="process"
        )
        extra = [Alert(11.0 + i, _ALL_NAMES[i], f"user:{i % 3}") for i in range(6)]
        try:
            pool.restore_state(state)
            assert pool.observe_batch(extra) == reference.observe_batch(extra)
        finally:
            pool.close()

    def test_pipeline_refuses_old_checkpoint(self, tmp_path):
        # The engine is the template's, so a checkpoint written under
        # another one differs in its model digest and is refused whole.
        path = tmp_path / "old.ckpt"
        with TestbedPipeline(
            detectors={"factor_graph": self._tagger()}, n_shards=2
        ) as old:
            old.detector_pools["factor_graph"].detector_factory.template.engine = _REMOVED_ENGINES[0]
            old.checkpoint(path)
        with TestbedPipeline(
            detectors={"factor_graph": self._tagger()}, n_shards=2
        ) as pipeline:
            with pytest.raises(CheckpointError, match="does not match"):
                pipeline.restore(path)
            assert pipeline.detections == [] and not pipeline._restored


# ---------------------------------------------------------------------------
# EntityTrack (pickled inside checkpoints/snapshots, never with its slot)
# ---------------------------------------------------------------------------
class TestTrackRoundTrip:
    def _live_track(self) -> EntityTrack:
        """A live track as it migrates: exported, its window read off its slot."""
        # Threshold 1 - 1e-9: no detection fires, so the tagger keeps
        # the incremental decode state alive in the track's slot, which
        # is the only copy of its window.
        tagger = AttackTagger(
            patterns=_PATTERNS, max_window=4, detection_threshold=1 - 1e-9
        )
        for step, name in enumerate(_ALL_NAMES[:8]):
            tagger.observe(Alert(float(step + 1), name, "user:β"))
        (track,) = tagger._tracks.values()
        assert not holds_no_decode_state(tagger, "user:β") and track.names == ()
        return tagger.export_entity_tracks()["user:β"]

    def test_entity_track_round_trips_without_its_slot(self):
        import dataclasses

        track = self._live_track()
        assert [field.name for field in dataclasses.fields(EntityTrack)] == ["entity", "names", "detected", "slot"]
        restored, _ = _round_trip(track)
        assert restored.entity == track.entity
        assert list(restored.names) == list(track.names) == list(_ALL_NAMES[4:8])
        assert restored.names.maxlen == track.names.maxlen == 4
        assert set(restored.__dict__) == {"entity", "names", "detected"}
        assert restored.slot == -1
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
        first.observe(Alert(1.0, _ALL_NAMES[0], "user:γ"))
        assert first.entities() == ["user:γ"] and second.entities() == []


# ---------------------------------------------------------------------------
# Baseline detectors (checkpointed as the base class's exported tracks)
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
        original.observe_batch(prefix)
        # What a checkpoint carries: the exported tracks, adopted by a
        # fresh replica of the same model.
        blob = pickle.dumps(original.export_entity_tracks())
        restored = factory()
        for entity, track in pickle.loads(blob).items():
            restored.adopt_entity_track(entity, track)
        assert pickle.dumps(restored.export_entity_tracks()) == blob
        assert restored.observe_batch(suffix) == original.observe_batch(suffix)
