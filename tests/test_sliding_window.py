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

from repro.core import AttackTagger, SlidingProductWindow, default_parameters
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.factor_graph import (
    _logsumexp,
    chain_step_matrix,
    logsumexp_vecmat,
    maxplus_vecmat,
)
from repro.core.sliding_window import _INITIAL_ROWS, _MIN_SCAN, WindowArena
from repro.core.states import NUM_STATES, HiddenState
from repro.core.streaming import (
    _DECISION_GUARD,
    _GUARD_SLACK,
    StreamingDecoder,
    WeightedPattern,
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


def _window(pairwise, arena):
    """A view holding just a (zero) head at step 0; pushes are steps 1, 2, ..."""
    window = SlidingProductWindow(pairwise, arena)
    window.load(0, np.zeros((1, NUM_STATES)), np.zeros((1, NUM_STATES)), ["head"])
    return window


def _push(window, row):
    window.stage(row, "step")
    window.push(row)


def _fold_reference(pairwise, head, rows):
    """Brute-force fold of the step matrices ``pairwise + row`` onto ``head``."""
    score, forward = head, head
    for row in rows:
        matrix = chain_step_matrix(pairwise, row)
        score = maxplus_vecmat(score, matrix)
        forward = logsumexp_vecmat(forward, matrix)
    return score, forward


class TestSlidingProductWindow:
    """Unit checks of the two-stack aggregator against direct folds.

    Each window is a row of its own arena; its elements are unary rows,
    the step matrices are ``pairwise + row``.
    """

    RING = 256

    @pytest.mark.parametrize("seed", range(3))
    def test_random_push_pop_matches_direct_fold(self, seed):
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        window = _window(pairwise, WindowArena(self.RING))
        live: deque = deque()
        next_index = 1
        head = rng.normal(size=NUM_STATES)
        for _ in range(200):
            if live and rng.random() < 0.45:
                assert window.pop_front() == live.popleft()[0]
            else:
                row = rng.normal(size=NUM_STATES)
                _push(window, row)
                live.append((next_index, row))
                next_index += 1
            assert len(window) == len(live)
            score, forward = window.apply(head)
            ref_score, ref_forward = _fold_reference(pairwise, head, [r for _, r in live])
            np.testing.assert_allclose(score, ref_score, rtol=0, atol=1e-9)
            np.testing.assert_allclose(forward, ref_forward, rtol=0, atol=1e-9)

    def test_replace_patches_both_regions(self):
        rng = np.random.default_rng(7)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        window = _window(pairwise, WindowArena(self.RING))
        rows = [None] + [rng.normal(size=NUM_STATES) for _ in range(6)]  # steps 1..6
        for row in rows[1:]:
            _push(window, row)
        assert window.pop_front() == 1  # flips everything into the front stack
        # Front-region edit: suffixes are partially recomputed in place.
        front_replacement = rng.normal(size=NUM_STATES)
        assert window.replace(4, front_replacement)
        rows[4] = front_replacement
        # Back-region edit: prefixes are partially refolded in place.
        _push(window, rng.normal(size=NUM_STATES))
        back_replacement = rng.normal(size=NUM_STATES)
        assert window.replace(7, back_replacement)
        # A step the two stacks do not hold is refused: evicted, the
        # head (in no aggregate), or not pushed yet.
        assert not window.replace(0, rng.normal(size=NUM_STATES))
        assert not window.replace(1, rng.normal(size=NUM_STATES))
        assert not window.replace(8, rng.normal(size=NUM_STATES))
        head = rng.normal(size=NUM_STATES)
        score, forward = window.apply(head)
        ref_score, ref_forward = _fold_reference(pairwise, head, rows[2:] + [back_replacement])
        np.testing.assert_allclose(score, ref_score, rtol=0, atol=1e-9)
        np.testing.assert_allclose(forward, ref_forward, rtol=0, atol=1e-9)

    def test_rebuild(self):
        """``load`` + ``rebuild`` far from step 0, across the ring's wrap."""
        rng = np.random.default_rng(11)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        window = SlidingProductWindow(pairwise, WindowArena(8))
        rows = rng.normal(size=(6, NUM_STATES))  # the head (step 9) + steps 10..14
        window.load(9, rows, rows, ["a", "b", "a", "c", "b", "a"])
        window.rebuild()
        assert len(window) == 5 and window.names() == ["a", "b", "a", "c", "b", "a"]
        assert window.pop_front() == 10
        head = rng.normal(size=NUM_STATES)
        score, _ = window.apply(head)
        ref_score, _ = _fold_reference(pairwise, head, rows[2:])
        np.testing.assert_allclose(score, ref_score, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(window.unary_table(), rows[1:])

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _window(np.zeros((NUM_STATES, NUM_STATES)), WindowArena(4)).pop_front()

    def test_a_full_ring_refuses_the_next_step(self):
        window = _window(np.zeros((NUM_STATES, NUM_STATES)), WindowArena(3))  # the head + 2 steps
        for _ in range(2):
            _push(window, np.zeros(NUM_STATES))
        with pytest.raises(IndexError):
            window.stage(np.zeros(NUM_STATES), "step")
        window.pop_front()
        _push(window, np.ones(NUM_STATES))
        assert len(window) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # Stack depths straddle _MIN_SCAN: shallow runs keep every
        # refold sequential, deep ones flip and patch through the scan.
        depth=st.sampled_from((_MIN_SCAN // 2, _MIN_SCAN - 1, _MIN_SCAN, 3 * _MIN_SCAN)),
        ops=st.lists(
            st.tuples(st.sampled_from(("push", "pop", "replace")), st.floats(0, 1)),
            min_size=1,
            max_size=120,
        ),
    )
    def test_random_ops_match_brute_force_within_guard_band(self, seed, depth, ops):
        """push / pop_front / replace vs a brute-force fold of the live queue.

        The bound is the one ``StreamingDecoder.may_fire`` assumes of
        the aggregate: ``max(_DECISION_GUARD, _GUARD_SLACK * length *
        magnitude)``.
        """
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        window = _window(pairwise, WindowArena(self.RING))
        live: deque = deque()
        next_index = 1
        head = rng.normal(size=NUM_STATES)
        for op, where in ops:
            if op == "pop" and len(live) < depth:
                op = "push"  # fill to the target depth before sliding
            if op == "push" or not live:
                row = rng.normal(size=NUM_STATES)
                _push(window, row)
                live.append([next_index, row])
                next_index += 1
            elif op == "pop":
                assert window.pop_front() == live.popleft()[0]
            else:
                slot = live[int(where * (len(live) - 1))]
                slot[1] = rng.normal(size=NUM_STATES)
                assert window.replace(slot[0], slot[1])
            assert len(window) == len(live)
            score, forward = window.apply(head)
            ref_score, ref_forward = _fold_reference(pairwise, head, [r for _, r in live])
            magnitude = float(np.max(np.abs(ref_score)))
            guard = max(_DECISION_GUARD, _GUARD_SLACK * (len(live) + 1) * magnitude)
            np.testing.assert_allclose(score, ref_score, rtol=0, atol=guard)
            np.testing.assert_allclose(forward, ref_forward, rtol=0, atol=guard)


def _dense(window) -> dict:
    """A row's contents, dense and in step order: what a decode reads,
    independent of the row index, the ring phase and the arena."""
    arena = window.arena
    start, _, end = window.span
    queued = window.cells(start + 1, end)
    return {
        "span": window.span,
        "unary": window.unary_table(),
        "base": arena.base[window.cells(start, end)],
        "names": window.names(),
        "agg_max": arena.agg_max[:, :, queued],
        "agg_lse": arena.agg_lse[:, :, queued],
    }


def assert_same_window(got, expected):
    """Two views hold the same row: spans, rows, names and every aggregate."""
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
        window = _window(pairwise, arena or WindowArena(TestGroupFlip.RING))
        for row in rows:
            _push(window, row.copy())
        return window

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
        ops=st.lists(
            st.tuples(st.sampled_from(("push", "pop", "replace")), st.floats(0, 1)),
            min_size=1,
            max_size=25,
        ),
    )
    def test_group_flip_equals_lone_flip_then_tracks_brute_force(self, seed, m, lengths, ops):
        rng = np.random.default_rng(seed)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        contents = [
            [rng.normal(size=NUM_STATES) for _ in range(length)] for length in lengths[:m]
        ]
        # Rows taken first leave one free slot, so the group also
        # straddles the arena's growth.
        arena = WindowArena(self.RING)
        for _ in range(_INITIAL_ROWS - 1):
            arena.allocate()
        together = [self._filled(pairwise, rows, arena) for rows in contents]
        arena.flip_together(np.array([window.row for window in together]), pairwise)
        # No row aliases another's storage.
        cells = [set(window.cells(window.start, window.end).tolist()) for window in together]
        assert sum(map(len, cells)) == len(set().union(*cells))
        head = rng.normal(size=NUM_STATES)
        for window, rows in zip(together, contents):
            alone = self._filled(pairwise, rows)
            alone.arena.flip_together(np.array([alone.row]), pairwise)
            assert window.span == (0, len(rows) + 1, len(rows) + 1)  # all of it in the front
            assert_same_window(window, alone)
            # The flipped window keeps working: the same op sequence on
            # it tracks a brute-force fold within the guard band.
            live = deque([index, row] for index, row in enumerate(rows, start=1))
            next_index = len(rows) + 1
            for op, where in ops:
                if op == "push" or len(live) < 2:
                    row = rng.normal(size=NUM_STATES)
                    _push(window, row)
                    live.append([next_index, row])
                    next_index += 1
                elif op == "pop":
                    assert window.pop_front() == live.popleft()[0]
                else:
                    slot = live[int(where * (len(live) - 1))]
                    slot[1] = rng.normal(size=NUM_STATES)
                    assert window.replace(slot[0], slot[1])
                score, forward = window.apply(head)
                ref_score, ref_forward = _fold_reference(pairwise, head, [r for _, r in live])
                magnitude = float(np.max(np.abs(ref_score)))
                guard = max(_DECISION_GUARD, _GUARD_SLACK * (len(live) + 1) * magnitude)
                np.testing.assert_allclose(score, ref_score, rtol=0, atol=guard)
                np.testing.assert_allclose(forward, ref_forward, rtol=0, atol=guard)

    @pytest.mark.parametrize("length", [_MIN_SCAN - 1, 4 * _MIN_SCAN - 1])
    def test_dense_state_does_not_depend_on_the_group(self, length):
        """A row's contents must not record which driver flipped it
        (``pop_front`` alone, or a round next to seven others), nor
        where in which arena it lived."""
        rng = np.random.default_rng(length)
        pairwise = rng.normal(size=(NUM_STATES, NUM_STATES))
        contents = [[rng.normal(size=NUM_STATES) for _ in range(length)] for _ in range(8)]
        arena = WindowArena(self.RING)
        together = [self._filled(pairwise, rows, arena) for rows in contents]
        arena.flip_together(np.array([window.row for window in together]), pairwise)
        for window, rows in zip(together, contents):
            window.pop_front()
            alone = self._filled(pairwise, rows)
            alone.pop_front()
            assert_same_window(window, alone)


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
        decoder = taggers["streaming"].track("entity:x").decoder
        # The live decoder really took the amortised path: one arena
        # row of max_window + 1 ring slots, its filling buffers freed --
        # nothing grew with the 220-alert stream.
        assert decoder is not None and decoder.windowed and decoder._base is None
        arena = taggers["streaming"]._arena
        assert (arena.live, arena.capacity, arena.ring) == (1, _INITIAL_ROWS, max_window + 1)

    def test_windowed_unary_table_matches_naive_build(self):
        rng = np.random.default_rng(42)
        taggers = _taggers(4, detection_threshold=0.999)
        streaming, naive = taggers["streaming"], taggers["naive"]
        for alert in _random_stream(rng, 37):
            streaming.observe(alert)
            naive.observe(alert)
        decoder = streaming.track("entity:x").decoder
        assert decoder.windowed
        names = [a.name for a in naive.track("entity:x").alerts]
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(decoder.unary_table(), unary)

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
        assert streaming.track("entity:x").decoder.windowed


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
    """`_refresh_unary` must sum same-step bonuses in catalogue order."""

    def test_out_of_order_waiting_lists_still_sum_in_catalogue_order(self):
        # P0 waits on Y after X, P1 waits on Y after Z.  Feeding Z first
        # queues P1 ahead of P0 in the waiting list for Y, so a sort-free
        # insertion must still fold both step-2 bonuses in P0-then-P1
        # (catalogue) order to stay bit-identical with the naive build.
        x, y, z = "alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan"
        patterns = [
            PatternSpec(name="P0", names=(x, y)),
            PatternSpec(name="P1", names=(z, y)),
        ]
        parameters = default_parameters()
        decoder = StreamingDecoder(
            parameters,
            [WeightedPattern(p.name, p.names, 2.0) for p in patterns],
            WindowArena(8),
        )
        naive = AttackTagger(parameters, patterns=patterns, engine="naive")
        names = [z, x, y]
        for name in names:
            decoder.append(name)
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(decoder.unary_table(), unary)

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
    def test_track_window_trim_is_constant_time_deque(self):
        tagger = AttackTagger(max_window=4, detection_threshold=0.999)
        for i in range(12):
            tagger.observe(Alert(float(i), "alert_login_normal", "user:a"))
        track = tagger.track("user:a")
        assert isinstance(track.alerts, deque)
        assert track.alerts.maxlen == 4
        assert len(track.alerts) == 4
        assert [a.timestamp for a in track.alerts] == [8.0, 9.0, 10.0, 11.0]

    def test_detected_fast_path_keeps_trimming(self):
        tagger = AttackTagger(max_window=3)
        track = tagger.track("user:a")
        track.detected = object()  # sentinel: fast path only records
        for i in range(9):
            tagger.observe(Alert(float(i), "alert_login_normal", "user:a"))
        assert len(track.alerts) == 3

    def test_shard_routing_memo_matches_source_of_truth(self):
        pool = ShardedDetectorPool.from_template(AttackTagger(), n_shards=5)
        alerts = [
            Alert(float(i), "alert_login_normal", f"user:{i % 7}") for i in range(50)
        ]
        pool.observe_batch(alerts)
        assert pool._shard_cache  # memo populated
        for entity, shard in pool._shard_cache.items():
            assert shard == shard_of(entity, pool.n_shards)
        assert pool.shard_of("user:0") == shard_of("user:0", 5)
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
        """Read-outs must hand back copies, never the decode cache."""
        rng = np.random.default_rng(8)
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), max_window=5, detection_threshold=0.999
        )
        for alert in _random_stream(rng, 30):
            tagger.observe(alert)
        decoder = tagger.track("entity:x").decoder
        assert decoder.windowed
        first = decoder.final_marginal()
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(decoder.final_marginal(), expected)
        path = decoder.map_path()
        path[:] = -1
        assert decoder.map_path()[0] != -1 or (decoder.map_path() != -1).any()

    def test_window_scores_match_exact_decode_within_guard(self):
        """Aggregate decisions track the exact decode to ~reassociation error."""
        rng = np.random.default_rng(9)
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), max_window=6, detection_threshold=0.999
        )
        for alert in _random_stream(rng, 50):
            tagger.observe(alert)
        decoder = tagger.track("entity:x").decoder
        assert decoder.windowed
        score, forward = decoder.window_scores()
        exact_prob = decoder.final_marginal()[int(HiddenState.MALICIOUS)]
        aggregate_prob = float(
            np.exp(forward[int(HiddenState.MALICIOUS)] - _logsumexp(forward))
        )
        assert abs(aggregate_prob - exact_prob) < 1e-9
        unary = decoder.unary_table()
        ref = unary[0]
        for row in unary[1:]:
            ref = maxplus_vecmat(ref, chain_step_matrix(decoder._pairwise, row))
        np.testing.assert_allclose(score, ref, rtol=0, atol=1e-9)
