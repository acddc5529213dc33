"""The window arena as the tagger sees it: rows, releases, and the plain-row test.

``AttackTagger(engine="streaming")`` keeps every windowed entity in one
``WindowArena`` (``core/sliding_window.py``); an entity is a row index.
Pinned here:

* **row accounting** -- a row is taken on the fill→windowed transition
  only and handed back the moment its entity is detected, reset or
  migrated, so live rows always equal live windowed slots and a
  churning population never grows the arena;
* **fill-page accounting** -- the same for the filling phase's pages:
  every page is free or held by exactly one live filling slot, which
  holds just the pages its length needs, and two-alert entities that
  come and go never grow the fill storage;
* **the property** -- any interleaving of ``observe``, ragged
  ``observe_batch`` calls, ``reset_entity``, firing chains, bonus
  relocations and a pickle round-trip, with the arena starting at two
  rows so it grows mid-stream and rows are reused, is bit-identical to
  ``engine="naive"``;
* **the plain-row / exception-row boundary** -- one stacked pass mixes
  rows advanced as arena arithmetic with rows that take the per-entity
  path (a seeded pattern, an eviction rescan, a window only now
  opening), and which rows do is what ``plain_depth`` predicts.
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
from repro.core.sliding_window import _INITIAL_PAGES, _INITIAL_ROWS, _MIN_SCAN, _PAGE
from repro.core.streaming import plain_depth
from repro.incidents import DEFAULT_CATALOGUE

from test_sliding_window import assert_same_window, window_of

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


def _windowed_slots(tagger) -> int:
    slots = tagger._arena.slots
    return sum(slots.row[track.slot] >= 0 for track in tagger._tracks.values())


def holds_no_decode_state(tagger, entity) -> bool:
    """The entity's slot holds no row, no fill pages and no match row."""
    slots = tagger._arena.slots
    slot = tagger.track(entity).slot
    return slots.row[slot] == -1 and slots.pages_of(slot).size == 0 and slots.match[slot] == -1


def _assert_rows_accounted(tagger) -> None:
    """Every slot is held by exactly one live track and every freed slot
    is free; live rows are the windowed slots' rows; and every fill page
    is free or held by exactly one live filling slot, which holds what
    its length needs and no more."""
    arena = tagger._arena
    slots = arena.slots
    tracks = list(tagger._tracks.values())
    held_slots = [track.slot for track in tracks]
    assert sorted(held_slots + slots._free) == list(range(slots.capacity))
    assert not slots.stale[slots._free].any()  # a freed slot has nothing to rebuild
    assert arena.live == _windowed_slots(tagger)
    rows = [int(slots.row[slot]) for slot in held_slots if slots.row[slot] >= 0]
    assert sorted(rows + arena._free) == list(range(arena.capacity))
    fill = arena.fill
    held = []
    for track in tracks:
        slot = track.slot
        assert slots.detected[slot] == (track.detected is not None)
        pages = slots.pages_of(slot).tolist()
        assert not pages or slots.row[slot] < 0
        if slots.detected[slot] or slots.stale[slot]:
            # Dropped at detection (infer rebuilds it for one read only),
            # or not rebuilt yet: the track holds the window's names.
            assert slots.row[slot] < 0 and not slots.length[slot] and slots.match[slot] < 0
        else:
            # The slot holds a live window, and the track no names.
            assert not track.names and slots.length[slot] <= tagger.max_window
        held += pages
    assert len(held) == fill.live
    assert sorted(held + fill._free) == list(range(fill.capacity))


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
        assert track.detected is not None and holds_no_decode_state(streaming, "user:a")
        assert streaming._arena.live == 1  # user:b keeps its row
        _assert_rows_accounted(streaming)
        # infer() after detection rebuilds decode state for the read, still
        # equal to the spec, and drops it again; a later alert changes nothing.
        for alert in (None, Alert(next(clock), BACKGROUND[1], "user:a")):
            if alert is not None:
                assert [tagger.observe(alert) for tagger in taggers] == [None, None]
            for got, expected in zip(streaming.infer("user:a"), naive.infer("user:a")):
                assert np.array_equal(got, expected)
            assert holds_no_decode_state(streaming, "user:a")
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
        assert all(holds_no_decode_state(streaming, entity) for entity in attackers)
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

    def test_reset_and_adoption_release_too(self):
        source, target = (AttackTagger(max_window=3) for _ in range(2))
        clock = iter(np.arange(1e6))
        for entity in ("user:a", "user:b", "user:c"):
            _saturate((source,), entity, 3, clock)
        assert source._arena.live == 3
        # An exported track carries no decode state: the adopter
        # rebuilds it lazily, and the source's reset gives its row back.
        track = source.export_entity_tracks()["user:a"]
        source.reset_entity("user:a")
        target.adopt_entity_track("user:a", track)
        assert source._arena.live == 2 and target._arena.live == 0
        assert target._arena.slots.stale[track.slot]
        assert target.observe(Alert(next(clock), BACKGROUND[0], "user:a")) is None
        _assert_rows_accounted(target)
        source.reset()
        assert source._arena.live == 0 and source.entities() == []
        restored = pickle.loads(pickle.dumps(target))
        assert "_arena" not in target.__getstate__()
        assert restored._arena is not target._arena and restored._arena.live == 0
        _assert_rows_accounted(restored)

    def test_ten_thousand_short_lived_filling_entities_never_grow_the_fill_storage(self):
        """The filling twin: two alerts per entity, which is reset or
        detected before the next one arrives; one page, reused."""
        tagger = AttackTagger()  # max_window 64: two alerts never slide
        fill = tagger._arena.fill
        clock = iter(np.arange(1e6))
        for index in range(10_000):
            entity = f"user:{index}"
            if index % 2:
                for name in BACKGROUND[:2]:
                    assert tagger.observe(Alert(next(clock), name, entity)) is None
                assert fill.live == 1
                tagger.reset_entity(entity)
            else:
                tagger.observe(Alert(next(clock), CHAIN[0], entity))
                assert tagger.observe(Alert(next(clock), CHAIN[1], entity)) is not None
            assert fill.live == 0
        assert fill.capacity == _INITIAL_PAGES
        assert (tagger._arena.live, tagger._arena.capacity) == (0, 0)

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
        assert tagger._arena.fill.live == 512  # one page each
        _assert_rows_accounted(tagger)


class TestFillPagesAreAccounted:
    """Every event that drops or rebuilds a filling slot's decode state
    leaves each fill page free or held by exactly one live filling slot."""

    def _populated(self):
        """Filling entities of every length up to a full window, through
        both the kernel and ``observe``, some with a pattern bonus; none
        has slid or fired."""
        max_window = 8
        tagger = AttackTagger(patterns=PATTERNS, max_window=max_window)
        clock = iter(np.arange(1e6))
        batch = [
            Alert(next(clock), (Z, *BACKGROUND)[(index + step) % 4], f"host:{index}")
            for index in range(3 * _MIN_BATCH)
            for step in range(1 + index % max_window)
        ]
        assert tagger.observe_batch(batch) == []
        for step in range(_PAGE + 1):
            assert tagger.observe(Alert(next(clock), BACKGROUND[step % 3], "host:scalar")) is None
        assert _windowed_slots(tagger) == 0
        assert tagger._arena.fill.live > len(tagger.entities())
        _assert_rows_accounted(tagger)
        return tagger, clock

    def test_reset_and_reset_entity(self):
        tagger, _ = self._populated()
        for index in range(0, 3 * _MIN_BATCH, 2):
            tagger.reset_entity(f"host:{index}")
            _assert_rows_accounted(tagger)
        tagger._release(tagger.track("host:1"))
        assert holds_no_decode_state(tagger, "host:1")
        # A live slot whose state is dropped mid-life counts as a fresh one.
        _assert_rows_accounted(tagger)
        tagger.reset()
        assert tagger._arena.fill.live == 0
        _assert_rows_accounted(tagger)

    def test_detection_and_infer_resync(self):
        tagger, clock = self._populated()
        for name in CHAIN:
            detection = tagger.observe(Alert(next(clock), name, "host:fresh"))
        assert detection is not None and holds_no_decode_state(tagger, "host:fresh")
        _assert_rows_accounted(tagger)
        # infer() rebuilds decode state (pages again) for its read and gives
        # it back; a later alert of the detected entity takes none.
        pages = tagger._arena.fill.live
        for _ in range(2):
            assert tagger.infer("host:fresh")[0].size == len(CHAIN)
            assert tagger._arena.fill.live == pages and holds_no_decode_state(tagger, "host:fresh")
            _assert_rows_accounted(tagger)
        assert tagger.observe(Alert(next(clock), BACKGROUND[0], "host:fresh")) is None
        assert tagger._arena.fill.live == pages and holds_no_decode_state(tagger, "host:fresh")
        _assert_rows_accounted(tagger)
        # Detections inside a stacked filling pass release their pages too.
        late = [f"host:late-{index}" for index in range(_MIN_BATCH)]
        fired = tagger.observe_batch([Alert(next(clock), name, e) for name in CHAIN for e in late])
        assert [detection.entity for detection in fired] == late
        _assert_rows_accounted(tagger)

    def test_export_adopt_and_pickle(self):
        source, clock = self._populated()
        target = AttackTagger(patterns=PATTERNS, max_window=8)
        for entity, track in source.export_entity_tracks().items():
            target.adopt_entity_track(entity, track)
        _assert_rows_accounted(source), _assert_rows_accounted(target)
        assert target._arena.fill.live == 0  # adopted tracks re-sync lazily
        target.observe_batch(
            [Alert(next(clock), BACKGROUND[0], entity) for entity in target.entities()]
        )
        _assert_rows_accounted(target)
        # A migrated entity's pages and slot go back to the source when it forgets it.
        assert source._arena.slots.match[source.track("host:3").slot] >= 0  # Z seeded a pattern
        held = source._arena.slots.pages_of(source.track("host:3").slot).size
        before = source._arena.fill.live
        other = AttackTagger(patterns=PATTERNS, max_window=8)
        other.adopt_entity_track("host:3", source.export_entity_tracks()["host:3"])
        source.reset_entity("host:3")
        assert source._arena.fill.live == before - held
        assert source._arena.slots.live == len(source.entities())
        _assert_rows_accounted(source), _assert_rows_accounted(other)
        restored = pickle.loads(pickle.dumps(target))
        assert restored._arena.fill.live == 0
        _assert_rows_accounted(restored)
        restored.observe(Alert(next(clock), BACKGROUND[1], "host:5"))
        _assert_rows_accounted(restored)


_ENTITIES = [f"host:{index}" for index in range(6)]
#: Pattern symbols (relocating bonuses), filler, and the firing chain.
_NAMES = [X, Y, Z, BACKGROUND[0], BACKGROUND[0], BACKGROUND[1], *CHAIN]
_ALERT = st.tuples(st.integers(0, len(_ENTITIES) - 1), st.integers(0, len(_NAMES) - 1))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _ALERT),
        # Ragged: duplicate entities make runs of every depth, and
        # passes from 1 step (below _MIN_BATCH: per alert) up (stacked).
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


class TestPlainRowBoundary:
    def test_one_round_mixes_arena_arithmetic_and_the_per_entity_path(self):
        max_window = 4
        filler = BACKGROUND[0]
        common = dict(patterns=PATTERNS, max_window=max_window, detection_threshold=0.999)
        batched, scalar, naive = (
            AttackTagger(engine=engine, **common) for engine in ("streaming", "streaming", "naive")
        )
        plain = [f"host:plain-{index}" for index in range(_MIN_BATCH)]  # enough to stack
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
        arena = batched._arena
        slot_of = {entity: batched.track(entity).slot for entity in entities}
        assert arena.slots.row[slot_of["host:opens"]] == -1

        def plain_step(entity):
            slot = np.array([slot_of[entity]])
            symbol = np.array([[arena.symbol_ids[probe[entity]]]])
            return plain_depth(arena, slot, arena.slots.row[slot], symbol, np.ones(1, dtype=np.int64))[0] == 1

        predicted_plain = [
            entity for entity in entities if arena.slots.row[slot_of[entity]] >= 0 and plain_step(entity)
        ]
        assert predicted_plain == plain
        rescans = slot_of["host:rescans"]
        assert arena.slots.match[rescans] >= 0  # a live match, anchored on the head
        kernel = batched._batch_kernel
        counters = ("rows_stacked", "rows_patterned", "rows_scalar")
        before = [getattr(kernel, name) for name in counters]
        assert batched.observe_batch(final) == []
        moved = [getattr(kernel, name) - count for name, count in zip(counters, before)]
        # The seeder and the rescan have one step each: too few for the
        # pattern pass, so they go per alert with the window opening.
        assert moved == [len(plain), 0, 3]
        # The rescan matched nothing: the slot gave its match row back.
        assert arena.slots.row[slot_of["host:opens"]] >= 0 and arena.slots.match[rescans] == -1
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
            assert_same_window(window_of(batched, entity), window_of(scalar, entity))
