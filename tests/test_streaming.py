"""Exact-equivalence regression suite for the incremental inference engine.

The streaming engine must be a pure performance optimisation: for every
stream it must produce the same unary tables, decodes, marginals,
detections, and confidences as the seed re-decode-everything path (kept
available as ``AttackTagger(engine="naive")``).  These tests assert that
equivalence alert-by-alert on randomized sequences, including window
eviction and late pattern-bonus relocation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AttackTagger,
    EvaluationExample,
    WeightedPattern,
    default_parameters,
    evaluate_detector,
    window_sweep,
)
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.factor_graph import _logsumexp, chain_map_decode, chain_marginals
from repro.core.sequences import matched_prefix_length
from repro.core.sliding_window import WindowArena
from repro.core.states import HiddenState
from repro.core import streaming as streaming_steps
from repro.incidents import DEFAULT_CATALOGUE

from test_sliding_window import matched_prefix_lengths, unary_table

ALL_NAMES = [spec.name for spec in DEFAULT_VOCABULARY]


def _random_stream(rng, length, entity="entity:x"):
    return [
        Alert(float(i), ALL_NAMES[rng.integers(len(ALL_NAMES))], entity)
        for i in range(length)
    ]


def _pair(max_window, **kwargs):
    streaming = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE), max_window=max_window, engine="streaming", **kwargs
    )
    naive = AttackTagger(
        patterns=list(DEFAULT_CATALOGUE), max_window=max_window, engine="naive", **kwargs
    )
    return streaming, naive


class TestStreamingEngineEquivalence:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            AttackTagger(engine="psychic")

    @pytest.mark.parametrize("seed", range(8))
    def test_alert_by_alert_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, int(rng.integers(5, 50)))
        streaming, naive = _pair(max_window=64)
        for alert in stream:
            ds, dn = streaming.observe(alert), naive.observe(alert)
            assert (ds is None) == (dn is None)
            if ds is not None:
                assert ds.alert_index == dn.alert_index
                assert ds.state is dn.state
                assert ds.confidence == dn.confidence
                assert ds.matched_patterns == dn.matched_patterns
                assert ds.state_trajectory == dn.state_trajectory
            states_s, marginal_s, matched_s = streaming.infer("entity:x")
            states_n, marginal_n, matched_n = naive.infer("entity:x")
            assert np.array_equal(states_s, states_n)
            np.testing.assert_allclose(marginal_s, marginal_n, rtol=0, atol=1e-12)
            assert matched_s == matched_n

    @pytest.mark.parametrize("max_window", [2, 3, 5, 8])
    def test_window_eviction_equivalence(self, max_window):
        """The window slide re-anchors the decoder; results must not drift."""
        rng = np.random.default_rng(max_window)
        stream = _random_stream(rng, 4 * max_window + 3)
        streaming, naive = _pair(max_window=max_window, detection_threshold=0.999)
        for alert in stream:
            streaming.observe(alert)
            naive.observe(alert)
            states_s, marginal_s, _ = streaming.infer("entity:x")
            states_n, marginal_n, _ = naive.infer("entity:x")
            assert np.array_equal(states_s, states_n)
            np.testing.assert_allclose(marginal_s, marginal_n, rtol=0, atol=1e-12)

    def test_late_pattern_bonus_relocation(self):
        """Extending a match moves its bonus off a *past* step.

        The pattern's second symbol arrives several alerts after the
        first, so the decoder must remove the partial-match bonus from
        the old end index and recompute forward messages from there.
        """
        parameters = default_parameters()
        patterns = list(DEFAULT_CATALOGUE)
        chosen = patterns[0]
        assert len(chosen.names) >= 2
        filler = "alert_login_normal"
        names = [chosen.names[0]] + [filler] * 4 + [chosen.names[1]]
        stream = [Alert(float(i), name, "entity:x") for i, name in enumerate(names)]
        streaming = AttackTagger(parameters, patterns=patterns, engine="streaming")
        naive = AttackTagger(parameters, patterns=patterns, engine="naive")
        for alert in stream:
            streaming.observe(alert)
            naive.observe(alert)
        # A detected entity's decode state is rebuilt for the read.
        unary, _ = naive._build_unary(list(naive.track("entity:x").names))
        np.testing.assert_array_equal(unary_table(streaming, "entity:x"), unary)
        states_s, marginal_s, _ = streaming.infer("entity:x")
        states_n, marginal_n, _ = naive.infer("entity:x")
        assert np.array_equal(states_s, states_n)
        np.testing.assert_allclose(marginal_s, marginal_n, rtol=0, atol=1e-12)

    def test_streaming_unary_matches_naive_build(self):
        """The incrementally maintained unary table equals the seed rebuild."""
        rng = np.random.default_rng(11)
        streaming, naive = _pair(max_window=64)
        for alert in _random_stream(rng, 40):
            streaming.observe(alert)
            naive.observe(alert)
        names = list(naive.track("entity:x").names)
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(unary_table(streaming, "entity:x"), unary)

    def test_slot_functions_match_chain_functions_stepwise(self):
        """The slot's read-out == chain_map_decode/chain_marginals per
        prefix while its window fills, and per window once it slides."""
        rng = np.random.default_rng(5)
        parameters = default_parameters()
        patterns = [
            WeightedPattern(p.name, tuple(p.names), 2.0) for p in list(DEFAULT_CATALOGUE)[:10]
        ]
        arena = WindowArena(31, parameters, patterns)
        slot = arena.slots.allocate(1)[0]
        slots = arena.slots
        for step in range(60):
            symbol = arena.intern(ALL_NAMES[rng.integers(len(ALL_NAMES))])
            if slots.row[slot] >= 0:
                streaming_steps.slide(arena, slot, symbol)
            else:
                streaming_steps.append(arena, slot, symbol)
                if slots.length[slot] == arena.ring:
                    streaming_steps.open_window(arena, slot)
            row = slots.row[slot]
            if row < 0:
                unary = arena.fill.unary[slots.cells_of(slot)]
            else:
                unary = arena.unary[arena.window_cells(row)]
            assert streaming_steps.length(arena, slot) == len(unary) == min(step + 1, arena.ring - 1)
            expected_path = chain_map_decode(unary, parameters.transition_log)
            expected_marginals = chain_marginals(unary, parameters.transition_log)
            state, marginal, path = streaming_steps.decode(arena, slot)
            assert (path is None) == (row < 0)
            if path is None:
                path = streaming_steps.fill_path(arena, slot)
            assert np.array_equal(path, expected_path)
            assert state == int(expected_path[-1])
            np.testing.assert_allclose(marginal, expected_marginals[-1], rtol=0, atol=1e-12)
        assert slots.row[slot] >= 0

    def test_run_sequence_equivalence_on_generated_corpus(self, corpus_examples):
        """Acceptance criterion: identical detections on the seed-7 corpus."""
        streaming, naive = _pair(max_window=64)
        for example in corpus_examples:
            ds = streaming.run_sequence(example.sequence)
            dn = naive.run_sequence(example.sequence)
            assert (ds is None) == (dn is None)
            if ds is not None:
                assert ds.alert_index == dn.alert_index
                assert abs(ds.confidence - dn.confidence) < 1e-9
                assert ds.state_trajectory == dn.state_trajectory


@pytest.fixture(scope="module")
def corpus_examples():
    from repro.incidents import IncidentGenerator

    generator = IncidentGenerator(seed=7)
    corpus = generator.generate_corpus()
    examples = [
        EvaluationExample(incident.sequence, True, incident.incident_id)
        for incident in list(corpus)[:60]
    ]
    benign = IncidentGenerator(seed=99).generate_benign_sequences(30)
    examples.extend(
        EvaluationExample(sequence, False, f"benign-{i}") for i, sequence in enumerate(benign)
    )
    return examples


class TestLogsumexpEdgeCases:
    def test_all_neg_inf_slice_is_neg_inf(self):
        array = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
        result = _logsumexp(array, axis=1)
        assert result[0] == -np.inf
        assert np.isfinite(result[1])

    def test_scalar_all_neg_inf(self):
        assert _logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_finite_values_unchanged(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(4, 5))
        expected = np.log(np.exp(array).sum(axis=1))
        np.testing.assert_allclose(_logsumexp(array, axis=1), expected, atol=1e-12)


class TestWindowSweep:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
    def test_window_sweep_streaming_matches_naive(self, corpus_examples, length):
        examples = corpus_examples[:40]
        streaming, naive = (
            window_sweep(
                lambda: AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine=engine),
                examples,
                [length],
            )[length]
            for engine in ("streaming", "naive")
        )
        assert streaming.summary() == naive.summary()


class TestThresholdEquivalence:
    """A threshold sweep is one evaluation per threshold; both engines agree."""

    @pytest.mark.parametrize("threshold", [0.4, 0.7, 0.9])
    def test_evaluation_at_threshold_streaming_matches_naive(self, corpus_examples, threshold):
        examples = corpus_examples[:20] + corpus_examples[60:]
        streaming, naive = (
            evaluate_detector(
                AttackTagger(
                    patterns=list(DEFAULT_CATALOGUE),
                    detection_threshold=threshold,
                    engine=engine,
                ),
                examples,
            )
            for engine in ("streaming", "naive")
        )
        assert streaming.summary() == naive.summary()


# ---------------------------------------------------------------------------
# Shared pattern table, lazy cursors
# ---------------------------------------------------------------------------
_FILLER = "alert_login_normal"
_SYMBOLS = [
    "alert_port_scan",
    "alert_ssh_key_enumeration",
    "alert_vuln_scan",
    "alert_download_sensitive",
]
_ENTITY = "entity:x"


def _detection_fields(detection):
    if detection is None:
        return None
    return (
        detection.alert_index,
        detection.state,
        detection.confidence,
        detection.matched_patterns,
        detection.state_trajectory,
    )


def _weighted_parameters(weights):
    parameters = default_parameters()
    parameters.pattern_weights = dict(weights)
    return parameters


def _assert_slot_is_the_spec(streaming, naive):
    """The entity's window and decode state equal what ``naive`` keeps
    and rebuilds from scratch (a detected entity's, rebuilt for a read)."""
    window = list(naive.track(_ENTITY).names)
    assert list(streaming.export_entity_tracks()[_ENTITY].names) == window
    unary, matched = naive._build_unary(window)
    assert np.array_equal(unary_table(streaming, _ENTITY), unary)
    if streaming.track(_ENTITY).detected is not None:
        assert streaming.infer(_ENTITY)[2] == matched
        return unary
    arena = streaming._arena
    assert streaming_steps.matched_pattern_names(arena, streaming.track(_ENTITY).slot) == matched
    assert matched_prefix_lengths(streaming, _ENTITY) == [
        matched_prefix_length(pattern.names, window) for pattern in arena.matches.patterns
    ]
    return unary


@st.composite
def _catalogue_and_stream(draw):
    """Small adversarial catalogue plus a stream that slides well past it.

    Four symbols and up to six patterns of length 0..4 make shared
    first symbols, repeated symbols inside a pattern and the empty
    pattern all common; windows of 2..6 against up to 80 alerts evict
    matches' first steps, and cross the 16-row buffer so ``_compact()``
    runs.
    """
    shapes = draw(
        st.lists(
            st.lists(st.sampled_from(_SYMBOLS), max_size=4).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    patterns = [PatternSpec(f"P{i}", names) for i, names in enumerate(shapes)]
    weights = {p.name: draw(st.sampled_from((0.0, 0.5, 2.0))) for p in patterns}
    max_window = draw(st.integers(min_value=2, max_value=6))
    threshold = draw(st.sampled_from((0.5, 1 - 1e-9)))
    names = draw(st.lists(st.sampled_from(_SYMBOLS + [_FILLER]), min_size=24, max_size=80))
    reset_at = draw(st.integers(min_value=0, max_value=len(names)))
    return patterns, weights, max_window, threshold, names, reset_at


class TestLazyCursorsAreEagerCursors:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_catalogue_and_stream())
    def test_every_readout_matches_naive_after_every_alert(self, case):
        patterns, weights, max_window, threshold, names, reset_at = case
        streaming, naive = (
            AttackTagger(
                _weighted_parameters(weights),
                patterns=patterns,
                max_window=max_window,
                detection_threshold=threshold,
                engine=engine,
            )
            for engine in ("streaming", "naive")
        )
        for step, name in enumerate(names):
            if step == reset_at:
                naive.reset_entity(_ENTITY)
                streaming.reset_entity(_ENTITY)
            alert = Alert(float(step), name, _ENTITY)
            assert _detection_fields(streaming.observe(alert)) == _detection_fields(
                naive.observe(alert)
            )
            _assert_slot_is_the_spec(streaming, naive)

    def test_slots_share_one_table_and_never_write_through_it(self):
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), detection_threshold=1 - 1e-9
        )
        matches = tagger._arena.matches
        shared = {name: getattr(matches, name).copy() for name in ("expect", "bonus", "length", "seeds")}
        tagger.observe(Alert(0.0, _FILLER, "entity:idle"))
        idle = tagger.track("entity:idle").slot
        longest = max(matches.patterns, key=lambda pattern: len(pattern.names))
        for step, name in enumerate(longest.names):
            tagger.observe(Alert(1.0 + step, name, "entity:busy"))
        busy = tagger.track("entity:busy").slot
        assert longest.name in streaming_steps.matched_pattern_names(tagger._arena, busy)
        slots = tagger._arena.slots
        assert slots.match[busy] >= 0 and matches.live == 1

        assert tagger._arena.matches is matches
        for name, table in shared.items():
            assert np.array_equal(getattr(matches, name), table), name
        # The idle entity awaits the first symbols only, holding no match row.
        assert slots.match[idle] == -1
        assert matched_prefix_lengths(tagger, "entity:idle") == [0] * len(matches.patterns)
        # A third entity opens pristine.
        assert slots.match[tagger.track("entity:third").slot] == -1

    def test_match_rows_are_taken_on_the_first_advance_only(self):
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), detection_threshold=1 - 1e-9
        )
        matches, slots = tagger._arena.matches, tagger._arena.slots
        seeds = {pattern.names[0] for pattern in matches.patterns}
        quiet_names = [name for name in ALL_NAMES if name not in seeds]
        assert quiet_names
        for step, name in enumerate(quiet_names):
            tagger.observe(Alert(float(step), name, "entity:quiet"))
        quiet = tagger.track("entity:quiet").slot
        # Fed only names no pattern starts with: still pristine.
        assert streaming_steps.length(tagger._arena, quiet) and slots.match[quiet] == -1 and matches.live == 0

        starters = sorted(seeds)
        tagger.observe(Alert(100.0, starters[0], "entity:other"))
        other = tagger.track("entity:other").slot
        other_row = matches.matched[slots.match[other]].copy()
        for step, name in enumerate(starters[1:]):
            tagger.observe(Alert(101.0 + step, name, "entity:seeding"))
        seeding = tagger.track("entity:seeding").slot
        assert slots.match[seeding] >= 0 and matches.live == 2
        # Neither a sibling nor a pristine slot saw the seeding slot's writes.
        assert slots.match[quiet] == -1
        assert np.array_equal(matches.matched[slots.match[other]], other_row)
        # Forgetting the stream gives the match row back.
        tagger._release(tagger.track("entity:seeding"))
        assert slots.match[seeding] == -1 and matches.live == 1

    def test_a_rescan_that_matches_nothing_gives_the_row_back(self):
        tagger = AttackTagger(
            patterns=[PatternSpec("P", ("alert_port_scan", "alert_vuln_scan"))],
            max_window=3,
            detection_threshold=1 - 1e-9,
        )
        names = ["alert_port_scan"] + [_FILLER] * 3
        for step, name in enumerate(names):
            assert tagger.observe(Alert(float(step), name, _ENTITY)) is None
        slot = tagger.track(_ENTITY).slot
        # The port scan left the window: nothing is matched any more.
        assert tagger._arena.slots.row[slot] >= 0 and tagger._arena.slots.match[slot] == -1
        assert tagger._arena.matches.live == 0


_CHOSEN = list(DEFAULT_CATALOGUE)[0]
_EXTRA = PatternSpec("EXTRA", (_CHOSEN.names[0], _FILLER))


def _mutate_weights_in_place(tagger):
    tagger.parameters.pattern_weights[_CHOSEN.name] = 7.5


def _append_to_catalogue(tagger):
    tagger.patterns.append(_EXTRA)


def _change_default_weight(tagger):
    tagger.default_pattern_weight = 5.0


class TestTheModelIsResolvedAtConstruction:
    """A tagger decides with the model it was built with.  Editing the
    caller's ``pattern_weights`` dict in place, the tagger's ``patterns``
    list or its ``default_pattern_weight`` afterwards moves neither
    engine, on a live entity or on a new one: both keep agreeing bit for
    bit with a tagger that never saw the edit."""

    NAMES = list(_CHOSEN.names) + [_FILLER]

    @pytest.mark.parametrize(
        "edit, weighted",
        [
            (_mutate_weights_in_place, True),
            (_append_to_catalogue, True),
            (_change_default_weight, False),
        ],
    )
    def test_an_edit_after_construction_changes_no_decision(self, edit, weighted):
        # Without explicit weights every pattern takes the default one.
        weights = {}
        if weighted:
            weights = {p.name: 3.0 for p in DEFAULT_CATALOGUE} | {_EXTRA.name: 4.0}
        streaming, naive, reference = (
            AttackTagger(
                _weighted_parameters(weights), patterns=list(DEFAULT_CATALOGUE), engine=engine
            )
            for engine in ("streaming", "naive", "naive")
        )
        taggers = (streaming, naive, reference)
        clock = iter(range(1_000))

        def feed(entity, names):
            for name in names:
                alert = Alert(float(next(clock)), name, entity)
                fields = [_detection_fields(tagger.observe(alert)) for tagger in taggers]
                assert fields[0] == fields[1] == fields[2]
                expected = reference.infer(entity)
                for tagger in (streaming, naive):
                    got = tagger.infer(entity)
                    assert np.array_equal(got[0], expected[0])
                    assert np.array_equal(got[1], expected[1])
                    assert got[2] == expected[2]

        half = len(self.NAMES) // 2
        feed("entity:live", self.NAMES[:half])
        for tagger in (streaming, naive):
            edit(tagger)
        feed("entity:live", self.NAMES[half:])
        feed("entity:new", self.NAMES)
        # The edit is one a tagger built afterwards (a clone) does see.
        edited = naive.clone()
        for name in self.NAMES:
            edited.observe(Alert(float(next(clock)), name, "entity:new"))
        assert not np.array_equal(edited.infer("entity:new")[1], reference.infer("entity:new")[1])


class TestReadOnlyQueriesTrackNothing:
    """``infer``, ``posterior`` and ``current_state`` on an entity never
    observed answer from the prior and leave the tagger as they found it:
    no track, no slot, and the same checkpoint bytes."""

    @pytest.mark.parametrize("engine", ["streaming", "naive"])
    def test_queries_on_an_unseen_entity_create_no_state(self, engine):
        fresh, queried = (
            AttackTagger(patterns=list(DEFAULT_CATALOGUE), engine=engine) for _ in range(2)
        )
        prior = np.exp(queried.parameters.initial_log)
        states, marginal, matched = queried.infer("user:ghost")
        assert states.size == 0 and matched == []
        assert np.array_equal(marginal, prior / prior.sum())
        posterior = queried.posterior("user:ghost")
        assert posterior["malicious"] == float(marginal[int(HiddenState.MALICIOUS)])
        assert queried.current_state("user:ghost") is HiddenState.BENIGN
        assert queried.entities() == []
        assert queried._arena.slots.live == 0
        assert pickle.dumps(queried) == pickle.dumps(fresh)
