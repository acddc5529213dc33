"""The window arena as the tagger sees it: rows, releases, and the plain-row test.

``AttackTagger(engine="streaming")`` keeps every windowed entity in one
``WindowArena`` (``core/sliding_window.py``); an entity is a row index.
Pinned here:

* **row accounting** -- a row is taken on the fill→windowed transition
  only and handed back the moment its entity is detected, reset or
  migrated, so live rows always equal live windowed decoders and a
  churning population never grows the arena;
* **the property** -- any interleaving of ``observe``, ragged
  ``observe_batch`` calls, ``reset_entity``, firing chains, bonus
  relocations and a pickle round-trip, with the arena starting at two
  rows so it grows mid-stream and rows are reused, is bit-identical to
  ``engine="naive"``;
* **the plain-row / exception-row boundary** -- one stacked round mixes
  rows advanced as arena arithmetic with rows that take the per-entity
  path (a seeded pattern, an eviction rescan, a window only now
  opening), and which rows do is what ``plain_step`` predicts.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger, sliding_window
from repro.core.alerts import Alert, AttackStage, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.batch_kernel import _MIN_BATCH
from repro.core.sliding_window import _INITIAL_ROWS, _MIN_SCAN
from repro.incidents import DEFAULT_CATALOGUE

BACKGROUND = list(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))
#: The shortest chain the default parameters flag: detected on its second alert.
CHAIN = ("alert_download_sensitive", "alert_privilege_escalation")
X, Y, Z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
PATTERNS = [
    PatternSpec(name="P0", names=(X, Y)),
    PatternSpec(name="P1", names=(Z, Y)),
    PatternSpec(name="P2", names=(X, Z)),
]


def _detection_key(detection):
    return (
        detection.entity,
        detection.alert_index,
        detection.timestamp,
        detection.state,
        detection.confidence,
        detection.matched_patterns,
        detection.state_trajectory,
    )


def _windowed_decoders(tagger) -> int:
    return sum(
        track.decoder is not None and track.decoder.windowed
        for track in tagger._tracks.values()
    )


def _assert_rows_accounted(tagger) -> None:
    arena = tagger._arena
    assert (0 if arena is None else arena.live) == _windowed_decoders(tagger)


def _saturate(taggers, entity, max_window, clock):
    """Benign alerts until the entity's window slides (it holds a row)."""
    for _ in range(max_window + 1):
        alert = Alert(next(clock), BACKGROUND[0], entity)
        for tagger in taggers:
            assert tagger.observe(alert) is None


class TestDetectionReleasesDecodeState:
    """A detected entity gives its decode state back at detection time."""

    def _pair(self, max_window=4):
        return (
            AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=max_window, engine=engine)
            for engine in ("streaming", "naive")
        )

    def test_firing_observe_releases_the_row(self):
        streaming, naive = taggers = tuple(self._pair())
        clock = iter(np.arange(1e6))
        _saturate(taggers, "user:a", 4, clock)
        _saturate(taggers, "user:b", 4, clock)
        assert streaming._arena.live == 2
        for name in CHAIN:
            alert = Alert(next(clock), name, "user:a")
            fired = [tagger.observe(alert) for tagger in taggers]
        assert fired[0] is not None and _detection_key(fired[0]) == _detection_key(fired[1])
        track = streaming.track("user:a")
        assert track.detected is not None and track.decoder is None
        assert streaming._arena.live == 1  # user:b keeps its row
        _assert_rows_accounted(streaming)
        # infer() after detection re-syncs a decoder and still equals the spec...
        for got, expected in zip(streaming.infer("user:a"), naive.infer("user:a")):
            assert np.array_equal(got, expected)
        # ... which the next alert of the detected entity drops again.
        streaming.observe(Alert(next(clock), BACKGROUND[1], "user:a"))
        assert streaming.track("user:a").decoder is None
        _assert_rows_accounted(streaming)

    def test_firing_observe_batch_releases_the_rows(self):
        streaming, naive = self._pair()
        entities = [f"user:{index}" for index in range(2 * _MIN_BATCH + 2)]
        clock = iter(np.arange(1e6))
        warm_up = [
            Alert(next(clock), BACKGROUND[step % 3], entity)
            for step in range(5)
            for entity in entities
        ]
        streaming.observe_batch(warm_up), naive.observe_batch(warm_up)
        assert streaming._arena.live == len(entities)
        attackers = entities[::2]
        for name in CHAIN:  # attackers fire on the second round, inside a stacked round
            batch = [
                Alert(next(clock), name if entity in attackers else BACKGROUND[0], entity)
                for entity in entities
            ]
            hits = streaming.observe_batch(batch)
            assert [_detection_key(d) for d in hits] == [
                _detection_key(d) for d in naive.observe_batch(batch)
            ]
        assert [d.entity for d in hits] == attackers
        assert all(streaming.track(entity).decoder is None for entity in attackers)
        assert streaming._arena.live == len(entities) - len(attackers)
        _assert_rows_accounted(streaming)
        for entity in attackers:
            for got, expected in zip(streaming.infer(entity), naive.infer(entity)):
                assert np.array_equal(got, expected)

    def test_ten_thousand_short_lived_windowed_entities_never_grow_the_arena(self):
        """Each entity saturates its window, then is detected or reset
        before the next one arrives: one row, reused 10 000 times."""
        tagger = AttackTagger(max_window=2)  # the chain needs no pattern to fire
        clock = iter(np.arange(1e6))
        for index in range(10_000):
            entity = f"user:{index}"
            _saturate((tagger,), entity, 2, clock)
            assert tagger._arena.live == 1
            if index % 2:
                tagger.reset_entity(entity)
            else:
                tagger.observe(Alert(next(clock), CHAIN[0], entity))
                assert tagger.observe(Alert(next(clock), CHAIN[1], entity)) is not None
            assert tagger._arena.live == 0
        assert tagger._arena.capacity == _INITIAL_ROWS
        assert len(tagger.detections) == 5_000

    def test_reset_and_adoption_release_too(self):
        source, target = (AttackTagger(max_window=3) for _ in range(2))
        clock = iter(np.arange(1e6))
        for entity in ("user:a", "user:b", "user:c"):
            _saturate((source,), entity, 3, clock)
        assert source._arena.live == 3
        # A track handed over with its decoder: the row goes back to the
        # arena it came from, the adopter re-syncs lazily.
        track = source._tracks.pop("user:a")
        target.adopt_entity_track("user:a", track)
        assert track.decoder is None and source._arena.live == 2
        assert target.observe(Alert(next(clock), BACKGROUND[0], "user:a")) is None
        _assert_rows_accounted(target)
        source.reset()
        assert source._arena.live == 0 and source.entities() == []
        restored = pickle.loads(pickle.dumps(target))
        assert restored._arena is None and "_arena" not in target.__getstate__()
        _assert_rows_accounted(restored)

    def test_entities_that_never_slide_never_get_a_row(self):
        """The ``entity_churn`` shape at toy size: two alerts per entity,
        stacked rounds of brand-new entities, no window ever saturates."""
        tagger = AttackTagger(patterns=list(DEFAULT_CATALOGUE), max_window=32)
        for base in range(0, 512, 64):
            members = [f"user:churn-{base + index}" for index in range(64)]
            tagger.observe_batch(
                [Alert(float(visit), BACKGROUND[visit], entity) for visit in range(2) for entity in members]
            )
        assert len(tagger.entities()) == 512
        assert (tagger._arena.live, tagger._arena.capacity) == (0, 0)


_ENTITIES = [f"host:{index}" for index in range(6)]
#: Pattern symbols (relocating bonuses), filler, and the firing chain.
_NAMES = [X, Y, Z, BACKGROUND[0], BACKGROUND[0], BACKGROUND[1], *CHAIN]
_ALERT = st.tuples(st.integers(0, len(_ENTITIES) - 1), st.integers(0, len(_NAMES) - 1))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _ALERT),
        # Ragged: duplicate entities layer into rounds of every size
        # from 1 (below _MIN_BATCH: the view) to 6 (stacked).
        st.tuples(st.just("batch"), st.lists(_ALERT, min_size=1, max_size=14)),
        st.tuples(st.just("reset"), st.integers(0, len(_ENTITIES) - 1)),
        st.tuples(st.just("pickle"), st.none()),
    ),
    min_size=5,
    max_size=60,
)


class TestArenaEqualsNaiveUnderAnyInterleaving:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=_OPS,
        # Windows on both sides of _MIN_SCAN: sequential and scanned refolds.
        max_window=st.sampled_from((2, 3, _MIN_SCAN + 1)),
        threshold=st.sampled_from((0.5, 0.9)),
    )
    def test_detections_and_inference_match_naive(self, ops, max_window, threshold):
        # Two rows to start with: the arena grows mid-stream, and rows
        # released by detections and resets are handed to new entities.
        with mock.patch.object(sliding_window, "_INITIAL_ROWS", 2):
            common = dict(patterns=PATTERNS, max_window=max_window, detection_threshold=threshold)
            streaming = AttackTagger(engine="streaming", **common)
            naive = AttackTagger(engine="naive", **common)
            clock = iter(np.arange(1e6))
            # Saturate every window first, so the ops act on arena rows.
            warm_up = [
                Alert(next(clock), BACKGROUND[0], entity)
                for _ in range(max_window + 1)
                for entity in _ENTITIES
            ]
            streaming.observe_batch(warm_up), naive.observe_batch(warm_up)
            assert streaming._arena.live == len(_ENTITIES) > 2
            for op, argument in ops:
                if op == "reset":
                    streaming.reset_entity(_ENTITIES[argument])
                    naive.reset_entity(_ENTITIES[argument])
                elif op == "pickle":
                    streaming = pickle.loads(pickle.dumps(streaming))
                else:
                    pairs = [argument] if op == "observe" else argument
                    alerts = [Alert(next(clock), _NAMES[n], _ENTITIES[e]) for e, n in pairs]
                    if op == "observe":
                        got = [streaming.observe(alerts[0])]
                        expected = [naive.observe(alerts[0])]
                    else:
                        got = streaming.observe_batch_indexed(alerts)
                        expected = naive.observe_batch_indexed(alerts)
                        assert [p for p, _ in got] == [p for p, _ in expected]
                        got, expected = ([d for _, d in hits] for hits in (got, expected))
                    assert [d and _detection_key(d) for d in got] == [
                        d and _detection_key(d) for d in expected
                    ]
                _assert_rows_accounted(streaming)
                for entity in _ENTITIES:
                    if streaming.track(entity).detected is None:
                        states, marginal, matched = streaming.infer(entity)
                        states_n, marginal_n, matched_n = naive.infer(entity)
                        assert np.array_equal(states, states_n)
                        assert np.array_equal(marginal, marginal_n)
                        assert matched == matched_n
            assert [_detection_key(d) for d in streaming.detections] == [
                _detection_key(d) for d in naive.detections
            ]


class TestPlainRowBoundary:
    def test_one_round_mixes_arena_arithmetic_and_the_per_entity_path(self):
        max_window = 4
        filler = BACKGROUND[0]
        common = dict(patterns=PATTERNS, max_window=max_window, detection_threshold=0.999)
        batched, scalar, naive = (
            AttackTagger(engine=engine, **common) for engine in ("streaming", "streaming", "naive")
        )
        plain = [f"host:plain-{index}" for index in range(4)]
        entities = plain + ["host:seeds", "host:rescans", "host:opens"]
        # Per entity: the alerts before the probed round, then its alert in it.
        history = {entity: [filler] * 7 for entity in plain}
        history["host:seeds"] = [filler] * 7  # ... then X: opens P0 and P2
        # X lands max_window alerts before the probe, so the probed
        # round evicts the step that anchors its cursors.
        history["host:rescans"] = [filler] * 3 + [X] + [filler] * 3
        history["host:opens"] = [filler] * max_window  # full, never slid: still filling
        probe = {entity: filler for entity in entities}
        probe["host:seeds"] = X
        clock = iter(np.arange(1e6))
        rounds = [
            [Alert(next(clock), names[step], entity) for entity, names in history.items() if step < len(names)]
            for step in range(7)
        ]
        final = [Alert(next(clock), probe[entity], entity) for entity in entities]
        for alerts in rounds:
            assert batched.observe_batch(alerts) == []
        decoders = {entity: batched.track(entity).decoder for entity in entities}
        assert not decoders["host:opens"].windowed
        predicted_plain = [
            entity
            for entity in entities
            if decoders[entity].windowed and decoders[entity].plain_step(probe[entity])
        ]
        assert predicted_plain == plain
        assert decoders["host:rescans"]._cursors  # a live cursor, anchored on the head
        kernel = batched._batch_kernel
        before = (kernel.rows_stacked, kernel.rows_scalar)
        assert batched.observe_batch(final) == []
        assert (kernel.rows_stacked - before[0], kernel.rows_scalar - before[1]) == (4, 3)
        assert decoders["host:opens"].windowed and not decoders["host:rescans"]._cursors
        assert batched._arena.live == len(entities)
        # The round equals the per-alert loop and the spec.
        for tagger in (scalar, naive):
            for alerts in rounds + [final]:
                for alert in alerts:
                    assert tagger.observe(alert) is None
        for entity in entities:
            states, marginal, matched = naive.infer(entity)
            for tagger in (batched, scalar):
                got = tagger.infer(entity)
                assert np.array_equal(got[0], states) and np.array_equal(got[1], marginal)
                assert got[2] == matched
            window_b = batched.track(entity).decoder._window
            window_s = scalar.track(entity).decoder._window
            assert pickle.dumps(window_b) == pickle.dumps(window_s)
