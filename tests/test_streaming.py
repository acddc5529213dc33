"""Exact-equivalence regression suite for the incremental inference engine.

The streaming engine must be a pure performance optimisation: for every
stream it must produce the same unary tables, decodes, marginals,
detections, and confidences as the seed re-decode-everything path (kept
available as ``AttackTagger(engine="naive")``).  These tests assert that
equivalence alert-by-alert on randomized sequences, including window
eviction and late pattern-bonus relocation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AttackTagger,
    EvaluationExample,
    StreamingDecoder,
    WeightedPattern,
    default_parameters,
    evaluate_detector,
    window_sweep,
)
from repro.core.alerts import Alert, DEFAULT_VOCABULARY
from repro.core.attack_tagger import PatternSpec
from repro.core.factor_graph import _logsumexp, chain_map_decode, chain_marginals
from repro.core.sequences import AlertSequence, matched_prefix_length
from repro.core.sliding_window import WindowArena
from repro.incidents import DEFAULT_CATALOGUE

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
        # _decoder_for re-syncs lazily (observe drops the decoder once
        # the entity is detected, to keep post-detection alerts cheap).
        decoder = streaming._decoder_for(streaming.track("entity:x"))
        unary, _ = naive._build_unary([a.name for a in naive.track("entity:x").alerts])
        np.testing.assert_array_equal(decoder.unary_table(), unary)
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
        decoder = streaming._decoder_for(streaming.track("entity:x"))
        names = [a.name for a in naive.track("entity:x").alerts]
        unary, _ = naive._build_unary(names)
        np.testing.assert_array_equal(decoder.unary_table(), unary)

    def test_decoder_matches_chain_functions_stepwise(self):
        """StreamingDecoder == chain_map_decode/chain_marginals per prefix."""
        rng = np.random.default_rng(5)
        parameters = default_parameters()
        patterns = [
            WeightedPattern(p.name, tuple(p.names), 2.0) for p in list(DEFAULT_CATALOGUE)[:10]
        ]
        decoder = StreamingDecoder(parameters, patterns, WindowArena(31))
        for step in range(30):
            decoder.append(ALL_NAMES[rng.integers(len(ALL_NAMES))])
            unary = decoder.unary_table()
            expected_path = chain_map_decode(unary, parameters.transition_log)
            expected_marginals = chain_marginals(unary, parameters.transition_log)
            assert np.array_equal(decoder.map_path(), expected_path)
            assert decoder.final_state() == int(expected_path[-1])
            np.testing.assert_allclose(
                decoder.final_marginal(), expected_marginals[-1], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                decoder.marginals(), expected_marginals, rtol=0, atol=1e-12
            )

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


def _assert_decoder_is_the_spec(streaming, naive):
    """The entity's decoder state equals what ``naive`` rebuilds from scratch."""
    decoder = streaming._decoder_for(streaming.track(_ENTITY))
    window = [alert.name for alert in naive.track(_ENTITY).alerts]
    unary, matched = naive._build_unary(window)
    assert np.array_equal(decoder.unary_table(), unary)
    assert decoder.matched_pattern_names() == matched
    assert decoder.matched_prefix_lengths() == [
        matched_prefix_length(pattern.names, window) for pattern in decoder.patterns
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
                track = streaming.track(_ENTITY)
                track.alerts.clear()
                track.detected = None
                if track.decoder is not None:
                    track.decoder.reset()
            alert = Alert(float(step), name, _ENTITY)
            assert _detection_fields(streaming.observe(alert)) == _detection_fields(
                naive.observe(alert)
            )
            _assert_decoder_is_the_spec(streaming, naive)

    def test_decoders_share_one_table_and_never_write_through_it(self):
        tagger = AttackTagger(
            patterns=list(DEFAULT_CATALOGUE), detection_threshold=1 - 1e-9
        )
        tagger.observe(Alert(0.0, _FILLER, "entity:idle"))
        idle = tagger.track("entity:idle").decoder
        idle_waiting = dict(idle._waiting)
        table = tagger._shared_table()
        seed = dict(table.seed)  # buckets are tuples: a shallow copy pins them
        longest = max(table.patterns, key=lambda pattern: len(pattern.names))
        for step, name in enumerate(longest.names):
            tagger.observe(Alert(1.0 + step, name, "entity:busy"))
        busy = tagger.track("entity:busy").decoder
        assert longest.name in busy.matched_pattern_names()
        assert busy._cursors and busy._waiting != seed

        assert busy.patterns is idle.patterns is table.patterns
        assert tagger._shared_table() is table
        assert table.seed == seed
        assert idle._waiting == idle_waiting and idle._cursors == {}
        for waiting in (table.seed, idle._waiting, busy._waiting):
            assert all(type(bucket) is tuple for bucket in waiting.values())
        # A third entity opens on the untouched seed index.
        assert tagger._make_decoder()._waiting == seed


_CHOSEN = list(DEFAULT_CATALOGUE)[0]
_EXTRA = PatternSpec("EXTRA", (_CHOSEN.names[0], _FILLER))


def _mutate_weights_in_place(tagger):
    tagger.parameters.pattern_weights[_CHOSEN.name] = 7.5


def _rebind_to_ablated_parameters(tagger):
    tagger.parameters = tagger.parameters.without_patterns()


def _append_to_catalogue(tagger):
    tagger.patterns.append(_EXTRA)


def _change_default_weight(tagger):
    tagger.default_pattern_weight = 5.0


class TestPatternTableInvalidation:
    """The contract "weights are resolved when a decoder is created" holds
    with a table shared across decoders: every way the resolved values
    can change is seen by the next entity, exactly as ``naive`` sees it."""

    SEQUENCE = AlertSequence.from_names(list(_CHOSEN.names) + [_FILLER])

    @pytest.mark.parametrize(
        "edit, weighted",
        [
            (_mutate_weights_in_place, True),
            (_rebind_to_ablated_parameters, True),
            (_append_to_catalogue, True),
            (_change_default_weight, False),
        ],
    )
    def test_next_entity_decodes_with_the_edited_values(self, edit, weighted):
        # Without explicit weights every pattern takes the default one.
        weights = {}
        if weighted:
            weights = {p.name: 3.0 for p in DEFAULT_CATALOGUE} | {_EXTRA.name: 4.0}
        streaming, naive = (
            AttackTagger(
                _weighted_parameters(weights),
                patterns=list(DEFAULT_CATALOGUE),
                detection_threshold=1 - 1e-9,
                engine=engine,
            )
            for engine in ("streaming", "naive")
        )

        def run_both():
            assert _detection_fields(
                streaming.run_sequence(self.SEQUENCE, entity=_ENTITY)
            ) == _detection_fields(naive.run_sequence(self.SEQUENCE, entity=_ENTITY))
            return _assert_decoder_is_the_spec(streaming, naive)

        before = run_both()
        table = streaming._shared_table()
        assert np.array_equal(run_both(), before)
        assert streaming._shared_table() is table  # unchanged values: same table
        for tagger in (streaming, naive):
            edit(tagger)
        after = run_both()
        assert not np.array_equal(after, before)  # the edit really moved the decode
        assert streaming._shared_table() is not table
