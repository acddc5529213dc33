"""Equivalence + unit suite for the amortised sliding-window decode.

The two-stack eviction path must be a pure performance optimisation:
for every stream, every window size, and every eviction/rescan/fallback
corner, the streaming engine must emit detections that are
*bit-identical* (exact ``==`` on confidences and trajectories) to the
seed re-decode path (``engine="naive"``).  These tests hammer that
claim with randomized eviction-heavy streams at windows on both sides
of the aggregator's scan threshold, plus deterministic probes of the
two-stack boundary fallback, the pattern-cursor rescan logic, and the
satellite optimisations (deque window trim, shard-routing memo,
sort-free bonus ordering).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger, default_parameters, streaming as streaming_steps
from repro.core.alerts import Alert, DEFAULT_VOCABULARY, NormalizedBatch
from repro.core.attack_tagger import PatternSpec
from repro.core.factor_graph import _logsumexp, chain_marginals, maxplus_vecmat
from repro.core.sliding_window import _INITIAL_ROWS, _MIN_SCAN, WindowArena
from repro.core.states import NUM_STATES, HiddenState
from repro.core.streaming import (
    _DECISION_GUARD,
    _GUARD_SLACK,
    WeightedPattern,
    _guard,
    forward_stage,
)
from repro.incidents import DEFAULT_CATALOGUE
from repro.testbed.sharding import ShardedDetectorPool, shard_of

ALL_NAMES = [spec.name for spec in DEFAULT_VOCABULARY]


def _random_stream(rng, length, entity="entity:x"):
    return [
        Alert(float(i), ALL_NAMES[rng.integers(len(ALL_NAMES))], entity)
        for i in range(length)
    ]


def _taggers(max_window, **kwargs):
    kwargs.setdefault("patterns", list(DEFAULT_CATALOGUE))
    return {
        engine: AttackTagger(max_window=max_window, engine=engine, **kwargs)
        for engine in ("streaming", "naive")
    }


def _assert_identical_detection(ds, dn):
    assert (ds is None) == (dn is None)
    if ds is None:
        return
    assert ds.alert_index == dn.alert_index
    assert ds.state is dn.state
    assert ds.confidence == dn.confidence  # bit-identical, not approx
    assert ds.matched_patterns == dn.matched_patterns
    assert ds.state_trajectory == dn.state_trajectory


def _arena(ring):
    """An arena under the default parameters (only its interned rows read them)."""
    return WindowArena(ring, default_parameters())


def load(arena, start, unary, symbols):
    """A fresh row of ``arena`` holding steps ``start .. start + len(symbols) - 1``,
    all in its front and not yet aggregated (as ``streaming.open_window``
    moves a filling slot's steps in)."""
    row = arena.allocate()
    cells = arena.cells(row, np.arange(start, start + len(symbols)))
    arena.unary[cells] = unary
    arena.symbols[cells] = symbols
    arena.start[row] = start
    arena.boundary[row] = arena.end[row] = start + len(symbols)
    return row


def _window(arena):
    """A row holding just a (zero) head at step 0; pushes are steps 1, 2, ..."""
    return load(arena, 0, np.zeros((1, NUM_STATES)), [arena.intern("head")])


def _push(arena, row, unary_row, pairwise):
    arena.stage(row, arena.intern("step"))
    arena.push(row, unary_row, pairwise)


def _queued(arena, row):
    """Steps a row holds past its head."""
    return int(arena.end[row] - arena.start[row]) - 1


def _span(arena, row):
    return int(arena.start[row]), int(arena.boundary[row]), int(arena.end[row])


def _fold_reference(pairwise, head, rows):
    """Brute-force ``(max, +)`` fold of the step matrices ``pairwise + row`` onto ``head``."""
    score = head
    for row in rows:
        score = maxplus_vecmat(score, pairwise + row[None, :])
    return score


class TestArenaRowOperations:
    """Unit checks of one arena row's two stacks against direct folds.

    Each window is a row of its own arena; its elements are unary rows,
    the step matrices are ``pairwise + row``.
    """

    RING = 256

    @pytest.mark.parametrize("seed", range(3))
    def test_random_push_pop_matches_direct_fold(self, seed):
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        arena = _arena(self.RING)
        row = _window(arena)
        live: deque = deque()
        next_index = 1
        head = rng.normal(size=NUM_STATES)
        for _ in range(200):
            if live and rng.random() < 0.45:
                assert arena.pop_front(row, pairwise) == live.popleft()[0]
            else:
                unary = rng.normal(size=NUM_STATES)
                _push(arena, row, unary, pairwise)
                live.append((next_index, unary))
                next_index += 1
            assert _queued(arena, row) == len(live)
            ref_score = _fold_reference(pairwise, head, [r for _, r in live])
            np.testing.assert_allclose(arena.fold(row, head), ref_score, rtol=0, atol=1e-9)

    def test_rebuild(self):
        """A loaded row + ``rebuild`` far from step 0, across the ring's wrap."""
        rng = np.random.default_rng(11)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        arena = _arena(8)
        rows = rng.normal(size=(6, NUM_STATES))  # the head (step 9) + steps 10..14
        names = ["a", "b", "a", "c", "b", "a"]
        row = load(arena, 9, rows, [arena.intern(name) for name in names])
        arena.rebuild(np.array([row]), pairwise)
        held = arena.symbols[arena.window_cells(row)].tolist()
        assert _queued(arena, row) == 5 and [arena.symbol_names[s] for s in held] == names
        assert arena.pop_front(row, pairwise) == 10
        head = rng.normal(size=NUM_STATES)
        ref_score = _fold_reference(pairwise, head, rows[2:])
        np.testing.assert_allclose(arena.fold(row, head), ref_score, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(arena.unary[arena.window_cells(row)], rows[1:])

    def test_pop_empty_raises(self):
        arena = _arena(4)
        with pytest.raises(IndexError):
            arena.pop_front(_window(arena), np.zeros((NUM_STATES, NUM_STATES)))

    def test_a_full_ring_refuses_the_next_step(self):
        pairwise = np.zeros((NUM_STATES, NUM_STATES))
        arena = _arena(3)
        row = _window(arena)  # the head + 2 steps
        for _ in range(2):
            _push(arena, row, np.zeros(NUM_STATES), pairwise)
        with pytest.raises(IndexError):
            arena.stage(row, arena.intern("step"))
        arena.pop_front(row, pairwise)
        _push(arena, row, np.ones(NUM_STATES), pairwise)
        assert _queued(arena, row) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # Stack depths straddle _MIN_SCAN: shallow runs keep every
        # refold sequential, deep ones flip through the scan.
        depth=st.sampled_from((_MIN_SCAN // 2, _MIN_SCAN - 1, _MIN_SCAN, 3 * _MIN_SCAN)),
        ops=st.lists(st.sampled_from(("push", "pop")), min_size=1, max_size=120),
    )
    def test_random_ops_match_brute_force_within_guard_band(self, seed, depth, ops):
        """push / pop_front vs a brute-force fold of the live queue.

        The bound is the one ``streaming.may_fire`` assumes of the
        aggregate: ``max(_DECISION_GUARD, _GUARD_SLACK * length *
        magnitude)``.
        """
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        arena = _arena(self.RING)
        row = _window(arena)
        live: deque = deque()
        next_index = 1
        head = rng.normal(size=NUM_STATES)
        for op in ops:
            if op == "pop" and len(live) < depth:
                op = "push"  # fill to the target depth before sliding
            if op == "push" or not live:
                unary = rng.normal(size=NUM_STATES)
                _push(arena, row, unary, pairwise)
                live.append((next_index, unary))
                next_index += 1
            else:
                assert arena.pop_front(row, pairwise) == live.popleft()[0]
            assert _queued(arena, row) == len(live)
            ref_score = _fold_reference(pairwise, head, [r for _, r in live])
            magnitude = float(np.max(np.abs(ref_score)))
            guard = max(_DECISION_GUARD, _GUARD_SLACK * (len(live) + 1) * magnitude)
            np.testing.assert_allclose(arena.fold(row, head), ref_score, rtol=0, atol=guard)


def window_of(tagger, entity):
    """``(arena, row)`` of a windowed entity."""
    arena = tagger._arena
    row = int(arena.slots.row[tagger.track(entity).slot])
    assert row >= 0, f"{entity} is not windowed"
    return arena, row


def unary_table(tagger, entity):
    """The entity's effective unary rows, filling or windowed (its decode
    state rebuilt first if stale, or, detected, for this read only, as
    ``infer`` does)."""
    track = tagger.track(entity)
    detected = track.detected is not None
    if detected:
        tagger._replay(track)
    else:
        tagger._sync(track)
    arena = tagger._arena
    row = arena.slots.row[track.slot]
    if row < 0:
        table = arena.fill.unary[arena.slots.cells_of(track.slot)]
    else:
        table = arena.unary[arena.window_cells(row)]
    if detected:
        tagger._release(track)
    return table


def matched_prefix_lengths(tagger, entity):
    """The matched-prefix length of every weighted pattern, off the entity's slot."""
    matches = tagger._arena.matches
    match = tagger._arena.slots.match[tagger.track(entity).slot]
    return [0] * len(matches.patterns) if match < 0 else matches.matched[match].tolist()


def _dense(window) -> dict:
    """A row's contents, dense and in step order: what a decode reads,
    independent of the row index, the ring phase and the arena."""
    arena, row = window
    start, _, end = span = _span(arena, row)
    cells = arena.window_cells(row)
    return {
        "span": span,
        "unary": arena.unary[cells],
        "observations": arena.observations[arena.symbols[cells]],
        "names": [arena.symbol_names[symbol] for symbol in arena.symbols[cells].tolist()],
        "agg_max": arena.agg_max[:, :, cells[1:]],
    }


def assert_same_window(got, expected):
    """Two ``(arena, row)`` windows hold the same row: spans, rows, names
    and the aggregate of every step."""
    ours, theirs = _dense(got), _dense(expected)
    for key, value in ours.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, theirs[key]), key
        else:
            assert value == theirs[key], key


class TestGroupFlip:
    """Flipping rows together must not be observable per row."""

    RING = 4 * _MIN_SCAN + 30

    @staticmethod
    def _filled(pairwise, rows, arena=None):
        arena = arena or _arena(TestGroupFlip.RING)
        row = _window(arena)
        for unary in rows:
            _push(arena, row, unary.copy(), pairwise)
        return arena, row

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from((1, 2, 8)),
        # Back lengths on both sides of _MIN_SCAN, repeated and unique,
        # so one call holds scanned groups, sequential ones and loners.
        lengths=st.lists(
            st.sampled_from((1, 2, _MIN_SCAN - 1, _MIN_SCAN, _MIN_SCAN + 3, 4 * _MIN_SCAN - 1)),
            min_size=8,
            max_size=8,
        ),
        ops=st.lists(st.sampled_from(("push", "pop")), min_size=1, max_size=25),
    )
    def test_group_flip_equals_lone_flip_then_tracks_brute_force(self, seed, m, lengths, ops):
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        contents = [
            [rng.normal(size=NUM_STATES) for _ in range(length)] for length in lengths[:m]
        ]
        # Rows taken first leave one free slot, so the group also
        # straddles the arena's growth.
        arena = _arena(self.RING)
        for _ in range(_INITIAL_ROWS - 1):
            arena.allocate()
        together = [self._filled(pairwise, rows, arena)[1] for rows in contents]
        arena.flip_together(np.array(together), pairwise)
        # No row aliases another's storage.
        cells = [set(arena.window_cells(row).tolist()) for row in together]
        assert sum(map(len, cells)) == len(set().union(*cells))
        head = rng.normal(size=NUM_STATES)
        for row, rows in zip(together, contents):
            alone = self._filled(pairwise, rows)
            alone[0].flip_together(np.array([alone[1]]), pairwise)
            assert _span(arena, row) == (0, len(rows) + 1, len(rows) + 1)  # all of it in the front
            assert_same_window((arena, row), alone)
            # The flipped window keeps working: the same op sequence on
            # it tracks a brute-force fold within the guard band.
            live = deque((index, unary) for index, unary in enumerate(rows, start=1))
            next_index = len(rows) + 1
            for op in ops:
                if op == "push" or len(live) < 2:
                    unary = rng.normal(size=NUM_STATES)
                    _push(arena, row, unary, pairwise)
                    live.append((next_index, unary))
                    next_index += 1
                else:
                    assert arena.pop_front(row, pairwise) == live.popleft()[0]
                ref_score = _fold_reference(pairwise, head, [r for _, r in live])
                magnitude = float(np.max(np.abs(ref_score)))
                guard = max(_DECISION_GUARD, _GUARD_SLACK * (len(live) + 1) * magnitude)
                np.testing.assert_allclose(arena.fold(row, head), ref_score, rtol=0, atol=guard)

    @pytest.mark.parametrize("length", [_MIN_SCAN - 1, 4 * _MIN_SCAN - 1])
    def test_dense_state_does_not_depend_on_the_group(self, length):
        """A row's contents must not record which driver flipped it
        (``pop_front`` alone, or a round next to seven others), nor
        where in which arena it lived."""
        rng = np.random.default_rng(length)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        contents = [[rng.normal(size=NUM_STATES) for _ in range(length)] for _ in range(8)]
        arena = _arena(self.RING)
        together = [self._filled(pairwise, rows, arena)[1] for rows in contents]
        arena.flip_together(np.array(together), pairwise)
        for row, rows in zip(together, contents):
            arena.pop_front(row, pairwise)
            alone = self._filled(pairwise, rows)
            alone[0].pop_front(alone[1], pairwise)
            assert_same_window((arena, row), alone)


class TestEvictionEquivalence:
    """Randomized eviction-heavy streams: streaming == naive."""

    @pytest.mark.parametrize("max_window", [2, 3, 5, 8, 3 * _MIN_SCAN])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_detections_and_inference(self, max_window, seed):
        rng = np.random.default_rng(1000 * max_window + seed)
        stream = _random_stream(rng, 6 * max_window + 5)
        taggers = _taggers(max_window, detection_threshold=0.7)
        for alert in stream:
            results = {name: tagger.observe(alert) for name, tagger in taggers.items()}
            _assert_identical_detection(results["streaming"], results["naive"])
            states = {}
            marginals = {}
            for name, tagger in taggers.items():
                s, m, matched = tagger.infer("entity:x")
                states[name], marginals[name] = s, m
                assert matched == taggers["naive"].infer("entity:x")[2] or name == "naive"
            assert np.array_equal(states["streaming"], states["naive"])
            assert np.array_equal(marginals["streaming"], marginals["naive"])

    @pytest.mark.parametrize("max_window", [3, 5])
    def test_long_stream_with_compaction(self, max_window):
        """Hundreds of evictions force buffer compaction several times."""
        rng = np.random.default_rng(max_window)
        stream = _random_stream(rng, 220)
        taggers = _taggers(max_window, detection_threshold=0.999)
        for alert in stream:
            ds = taggers["streaming"].observe(alert)
            dn = taggers["naive"].observe(alert)
            _assert_identical_detection(ds, dn)
        s_states, s_marg, s_matched = taggers["streaming"].infer("entity:x")
        n_states, n_marg, n_matched = taggers["naive"].infer("entity:x")
        assert np.array_equal(s_states, n_states)
        assert np.array_equal(s_marg, n_marg)
        assert s_matched == n_matched
        # The live entity really took the amortised path: one arena
        # row of max_window + 1 ring slots, its fill pages handed back --
        # nothing grew with the 220-alert stream.
        arena, _ = window_of(taggers["streaming"], "entity:x")
        assert arena.slots.length[taggers["streaming"].track("entity:x").slot] == 0
        assert (arena.live, arena.capacity, arena.ring) == (1, _INITIAL_ROWS, max_window + 1)
        assert arena.fill.live == 0

    def test_windowed_unary_table_matches_naive_build(self):
        rng = np.random.default_rng(42)
        taggers = _taggers(4, detection_threshold=0.999)
        streaming, naive = taggers["streaming"], taggers["naive"]
        for alert in _random_stream(rng, 37):
            streaming.observe(alert)
            naive.observe(alert)
        arena, row = window_of(streaming, "entity:x")
        names = list(naive.track("entity:x").names)
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(arena.unary[arena.window_cells(row)], unary)

    def test_observe_infer_equivalence_under_eviction(self):
        """Every step of a window-6 stream decodes as the naive re-decode does."""
        rng = np.random.default_rng(5)
        taggers = _taggers(6, detection_threshold=0.999)
        streaming, naive = taggers["streaming"], taggers["naive"]
        for t, alert in enumerate(_random_stream(rng, 40)):
            assert streaming.observe(alert) == naive.observe(alert), t
            states_s, marginal_s, matched_s = streaming.infer(alert.entity)
            states_n, marginal_n, matched_n = naive.infer(alert.entity)
            assert np.array_equal(states_s, states_n), t
            assert np.array_equal(marginal_s, marginal_n), t
            assert matched_s == matched_n, t
        window_of(streaming, "entity:x")


class TestEvictionCursorRescans:
    """Deterministic probes of the eviction-aware pattern-cursor logic."""

    FILLER = "alert_login_normal"
    SYM_A = "alert_port_scan"
    SYM_B = "alert_ssh_key_enumeration"

    def _pair(self, pattern_names, max_window):
        patterns = [PatternSpec(name="SX", names=tuple(pattern_names))]
        common = dict(
            patterns=patterns, max_window=max_window, detection_threshold=0.999
        )
        return (
            AttackTagger(engine="streaming", **common),
            AttackTagger(engine="naive", **common),
        )

    def _drive(self, streaming, naive, names):
        for i, name in enumerate(names):
            alert = Alert(float(i), name, "entity:x")
            _assert_identical_detection(streaming.observe(alert), naive.observe(alert))
            s_states, s_marg, s_matched = streaming.infer("entity:x")
            n_states, n_marg, n_matched = naive.infer("entity:x")
            assert np.array_equal(s_states, n_states), i
            assert np.array_equal(s_marg, n_marg), i
            assert s_matched == n_matched, i

    def test_evicting_first_matched_symbol_rescans(self):
        """Dropping a match's first step must shrink/relocate the match."""
        names = [self.SYM_A] + [self.FILLER] * 6 + [self.SYM_B] + [self.FILLER] * 6
        self._drive(*self._pair([self.SYM_A, self.SYM_B], 4), names)

    def test_duplicate_symbol_relocates_match_start(self):
        """Greedy match survives eviction by sliding onto a later duplicate."""
        names = (
            [self.SYM_A, self.SYM_A, self.SYM_B]
            + [self.FILLER] * 5
            + [self.SYM_B]
            + [self.FILLER] * 5
        )
        self._drive(*self._pair([self.SYM_A, self.SYM_B], 5), names)

    def test_completed_pattern_uncompletes_on_eviction(self):
        """A fully matched pattern loses the match as its steps evict."""
        streaming, naive = self._pair([self.SYM_A, self.SYM_B], 3)
        names = [self.SYM_A, self.SYM_B] + [self.FILLER] * 6
        self._drive(streaming, naive, names)
        assert streaming.infer("entity:x")[2] == []

    def test_bonus_relocation_across_two_stack_boundary(self):
        """Advancing a match whose bonus sits in the *front* region.

        The window is arranged so the partially matched symbol's step
        has been flipped into the front stack when the second symbol
        arrives; the partial front-suffix patch (and the simultaneous
        back-region insertion of the new bonus) must keep everything
        bit-identical across the two-stack boundary.
        """
        window = 8
        names = [self.FILLER] * 6 + [self.SYM_A, self.FILLER]  # fills the window
        names += [self.FILLER] * 4  # four evictions: SYM_A's step enters the front
        names += [self.SYM_B]  # advance relocates the bonus across the boundary
        names += [self.FILLER] * 10  # and keep evicting past both steps
        self._drive(*self._pair([self.SYM_A, self.SYM_B], window), names)


class TestBonusOrderingWithoutSort:
    """Effective rows must sum same-step bonuses in catalogue order."""

    def test_out_of_order_waiting_lists_still_sum_in_catalogue_order(self):
        # P0 waits on Y after X, P1 waits on Y after Z.  Feeding Z first
        # matches P1 ahead of P0, so both step-2 bonuses must still fold
        # in P0-then-P1 (catalogue) order to stay bit-identical with the
        # naive build.
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
        ]
        parameters = default_parameters()
        arena = WindowArena(8, parameters, [WeightedPattern(p.name, p.names, 2.0) for p in patterns])
        slot = arena.slots.allocate(1)[0]
        naive = AttackTagger(parameters, patterns=patterns, engine="naive")
        names = [z, x, y]
        for name in names:
            streaming_steps.append(arena, slot, arena.intern(name))
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(arena.fill.unary[arena.slots.cells_of(slot)], unary)

    def test_eviction_rescan_inserts_bonus_in_order(self):
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
            PatternSpec(name="P2", names=(x, z)),
        ]
        common = dict(patterns=patterns, max_window=4, detection_threshold=0.999)
        streaming = AttackTagger(engine="streaming", **common)
        naive = AttackTagger(engine="naive", **common)
        rng = np.random.default_rng(3)
        pool = [x, y, z, "alert_login_normal"]
        names = [pool[rng.integers(len(pool))] for _ in range(40)]
        for i, name in enumerate(names):
            alert = Alert(float(i), name, "entity:x")
            _assert_identical_detection(streaming.observe(alert), naive.observe(alert))
            s_states, s_marg, _ = streaming.infer("entity:x")
            n_states, n_marg, _ = naive.infer("entity:x")
            assert np.array_equal(s_states, n_states), i
            assert np.array_equal(s_marg, n_marg), i


class TestSatelliteOptimisations:
    def test_a_live_track_exports_its_window_off_the_arena(self):
        tagger = AttackTagger(max_window=4, detection_threshold=0.999)
        cycle = ["alert_login_normal", "alert_job_submission", "alert_file_transfer"]
        for i in range(12):
            # A fresh string per alert: the export carries the arena's one copy.
            tagger.observe(Alert(float(i), "".join(cycle[i % 3]), "user:a"))
        assert tagger.track("user:a").names == ()  # the arena is the only copy
        names = tagger.export_entity_tracks()["user:a"].names
        assert isinstance(names, deque) and names.maxlen == 4
        assert list(names) == [cycle[i % 3] for i in range(8, 12)]
        arena = tagger._arena
        assert all(name is arena.symbol_names[arena.symbol_ids[name]] for name in names)

    def test_a_detected_entity_records_nothing(self):
        tagger = AttackTagger(max_window=3)
        track = tagger.track("user:a")
        track.detected = object()  # sentinel: observe returns at once
        known = len(tagger._arena.symbol_names)
        for i in range(9):
            assert tagger.observe(Alert(float(i), f"alert_unseen_{i}", "user:a")) is None
        assert track.names == () and len(tagger._arena.symbol_names) == known
        assert tagger._arena.fill.live == 0

    def test_pool_routing_is_shard_of(self):
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=5)
        alerts = [
            Alert(float(i), "alert_login_normal", f"user:{i % 7}") for i in range(50)
        ]
        _, positions = pool._partition(NormalizedBatch.of_alerts(alerts))
        for shard, rows in enumerate(positions):
            assert all(shard_of(alerts[row].entity, 5) == shard for row in rows)
        pool.observe_batch(alerts)
        assert pool.alerts_routed == [len(rows) for rows in positions]
        pool.close()

    def test_hard_zero_observation_does_not_suppress_detections(self):
        """-inf log potentials must defer to the exact decode, not NaN out.

        The lean semiring helpers assume finite inputs; a user-supplied
        parameter table with a hard zero turns the window aggregate into
        NaN, and ``may_fire`` must then consult the exact decode instead
        of silently answering "cannot fire".
        """
        parameters = default_parameters()
        parameters.observation_log[0, 0] = -np.inf
        rng = np.random.default_rng(12)
        pool = [ALL_NAMES[0], ALL_NAMES[7], ALL_NAMES[16], ALL_NAMES[18]]
        common = dict(patterns=list(DEFAULT_CATALOGUE), max_window=6)
        streaming = AttackTagger(parameters, engine="streaming", **common)
        naive = AttackTagger(parameters, engine="naive", **common)
        fired = 0
        for i in range(40):
            name = pool[rng.integers(len(pool))]
            alert = Alert(float(i), name, "entity:x")
            ds, dn = streaming.observe(alert), naive.observe(alert)
            _assert_identical_detection(ds, dn)
            fired += ds is not None
        assert fired == 1  # the stream must actually cross the threshold

    def test_windowed_final_marginal_is_mutation_safe(self):
        """Read-outs hand back fresh arrays, never the arena's storage."""
        rng = np.random.default_rng(8)
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), max_window=5, detection_threshold=0.999
        )
        for alert in _random_stream(rng, 30):
            tagger.observe(alert)
        window_of(tagger, "entity:x")
        path, first, _ = tagger.infer("entity:x")
        expected_path, expected = path.copy(), first.copy()
        first[:] = 0.0
        path[:] = -1
        again = tagger.infer("entity:x")
        np.testing.assert_array_equal(again[1], expected)
        np.testing.assert_array_equal(again[0], expected_path)

    def test_window_scores_match_exact_decode_within_guard(self):
        """The aggregate score and the forward tree track the exact decode
        to ~reassociation error."""
        rng = np.random.default_rng(9)
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), max_window=6, detection_threshold=0.999
        )
        for alert in _random_stream(rng, 50):
            tagger.observe(alert)
        arena, row = window_of(tagger, "entity:x")
        pairwise = arena.parameters.transition_log
        score = arena.fold(row, arena.unary[arena.cells(row, arena.start[row])])
        forward = arena.forward(np.array([row]), pairwise)[:, 0]
        exact_prob = tagger.infer("entity:x")[1][int(HiddenState.MALICIOUS)]
        aggregate_prob = float(
            np.exp(forward[int(HiddenState.MALICIOUS)] - _logsumexp(forward))
        )
        assert abs(aggregate_prob - exact_prob) < 1e-9
        unary = arena.unary[arena.window_cells(row)]
        ref = unary[0]
        for step in unary[1:]:
            ref = maxplus_vecmat(ref, pairwise + step[None, :])
        np.testing.assert_allclose(score, ref, rtol=0, atol=1e-9)


def _sequential_forward(unary, pairwise):
    """The normalised forward log message of the window's last step, by
    ``chain_marginals``' sequential recursion (the backward message is
    zero there)."""
    with np.errstate(divide="ignore"):
        return np.log(chain_marginals(unary, pairwise)[-1])


class TestForwardStage:
    """``WindowArena.forward``, the pre-filter's on-demand forward
    message, against the sequential recursion."""

    LENGTHS = range(2, 34)

    @staticmethod
    def _rows(arena, pairwise, contents, phases):
        """One row per unary table, loaded at step ``phase`` (so across the ring's wrap)."""
        symbol = arena.intern("step")
        return np.array([load(arena, phase, unary, [symbol] * len(unary)) for unary, phase in zip(contents, phases)])

    def test_tree_matches_the_sequential_forward_within_guard(self):
        """Every window length 2-33 (odd tree sizes included), three rows
        each at different ring phases, all in one call: each row's
        message is the sequential one within the guard band, and the
        same bits as the row folded alone."""
        rng = np.random.default_rng(5)
        pairwise = np.log(rng.dirichlet(np.ones(NUM_STATES), size=NUM_STATES))
        arena = _arena(max(self.LENGTHS) + 1)
        contents = [
            np.log(rng.dirichlet(np.ones(NUM_STATES), size=length)) * rng.uniform(1, 20)
            for length in self.LENGTHS
            for _ in range(3)
        ]
        rows = self._rows(arena, pairwise, contents, rng.integers(0, 100, size=len(contents)))
        together = arena.forward(rows, pairwise)
        for j, unary in enumerate(contents):
            tree = together[:, j]
            reference = _sequential_forward(unary, pairwise)
            guard = float(_guard(np.array([len(unary)]), tree[:, None])[0])
            np.testing.assert_allclose(tree - _logsumexp(tree), reference, rtol=0, atol=guard)
            assert np.array_equal(tree, arena.forward(rows[j : j + 1], pairwise)[:, 0])

    def test_hard_zeros_defer_to_the_exact_decode(self):
        """A hard-zero (``-inf``) parameter table: where the tree turns
        NaN, ``forward_stage`` cannot rule the row out at any threshold;
        elsewhere the tree still tracks the sequential message."""
        parameters = default_parameters()
        parameters.observation_log[0, 0] = -np.inf
        arena = WindowArena(max(self.LENGTHS) + 1, parameters)
        pairwise = parameters.transition_log
        rng = np.random.default_rng(6)
        names = [ALL_NAMES[0], ALL_NAMES[7], ALL_NAMES[16], ALL_NAMES[18]]
        contents = []
        for length in self.LENGTHS:
            symbols = [arena.intern(names[k]) for k in rng.integers(len(names), size=length)]
            symbols[length // 2] = arena.intern(ALL_NAMES[0])  # a hard zero in every window
            unary = arena.observations[symbols]
            unary[0] += parameters.initial_log
            contents.append(unary)
        rows = self._rows(arena, pairwise, contents, rng.integers(0, 100, size=len(contents)))
        forward = arena.forward(rows, pairwise)
        deferred = forward_stage(arena, rows, threshold=2.0)  # no posterior reaches 2
        nan = np.isnan(forward).any(axis=0)
        assert nan.any()
        assert np.array_equal(deferred, nan)
        for j in np.flatnonzero(~nan).tolist():
            tree, reference = forward[:, j], _sequential_forward(contents[j], pairwise)
            finite = np.isfinite(reference)
            assert np.array_equal(np.isfinite(tree), finite)
            guard = float(_guard(np.array([len(contents[j])]), tree[finite][:, None])[0])
            np.testing.assert_allclose(
                (tree - _logsumexp(tree))[finite], reference[finite], rtol=0, atol=guard
            )
