"""Tests (including property-based) for alert sequences and similarity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alerts import DEFAULT_VOCABULARY
from repro.core.sequences import (
    AlertSequence,
    fraction_of_pairs_below,
    is_subsequence,
    jaccard_similarity,
    matched_prefix_length,
    pairwise_jaccard_matrix,
    similarity_cdf,
)

NAMES = DEFAULT_VOCABULARY.names()
name_strategy = st.sampled_from(NAMES[:12])
sequence_strategy = st.lists(name_strategy, min_size=0, max_size=12)


class TestAlertSequence:
    def test_from_names_orders_and_lengths(self):
        seq = AlertSequence.from_names(["alert_port_scan", "alert_login_normal"])
        assert len(seq) == 2
        assert seq.names == ("alert_port_scan", "alert_login_normal")
        assert seq.duration == 60.0

    def test_rejects_unordered_alerts(self):
        from repro.core.alerts import Alert

        with pytest.raises(ValueError):
            AlertSequence((Alert(5.0, "alert_port_scan", "e"), Alert(1.0, "alert_port_scan", "e")))

    def test_prefix_and_up_to(self):
        seq = AlertSequence.from_names(["alert_port_scan"] * 5)
        assert len(seq.prefix(3)) == 3
        assert len(seq.prefix(100)) == 5
        assert len(seq.up_to(seq[2].timestamp)) == 3

    def test_filtered_keeps_only_requested_names(self):
        seq = AlertSequence.from_names(
            ["alert_port_scan", "alert_login_normal", "alert_port_scan"]
        )
        filtered = seq.filtered(["alert_port_scan"])
        assert filtered.names == ("alert_port_scan", "alert_port_scan")

    def test_critical_alerts_extraction(self):
        seq = AlertSequence.from_names(
            ["alert_login_normal", "alert_privilege_escalation", "alert_pii_in_http"]
        )
        assert [a.name for a in seq.critical_alerts()] == [
            "alert_privilege_escalation",
            "alert_pii_in_http",
        ]

    def test_inter_alert_gaps(self):
        seq = AlertSequence.from_names(["alert_port_scan"] * 4, step=30.0)
        assert np.allclose(seq.inter_alert_gaps(), [30.0, 30.0, 30.0])


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard_similarity(["a", "b"], ["b", "a"]) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_similarity(["a"], ["b"]) == 0.0

    def test_empty_sets(self):
        assert jaccard_similarity([], []) == 0.0

    def test_known_value(self):
        assert jaccard_similarity(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(0.5)

    @given(sequence_strategy, sequence_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        sim = jaccard_similarity(a, b)
        assert 0.0 <= sim <= 1.0
        assert sim == pytest.approx(jaccard_similarity(b, a))

    @given(st.lists(sequence_strategy, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_scalar(self, name_lists):
        sequences = [AlertSequence.from_names(names) for names in name_lists]
        matrix = pairwise_jaccard_matrix(sequences)
        for i in range(len(sequences)):
            for j in range(len(sequences)):
                if i == j:
                    continue
                expected = jaccard_similarity(sequences[i].names, sequences[j].names)
                assert matrix[i, j] == pytest.approx(expected, abs=1e-9)

    def test_cdf_is_monotone(self):
        sequences = [
            AlertSequence.from_names(["alert_port_scan", "alert_vuln_scan"]),
            AlertSequence.from_names(["alert_port_scan", "alert_login_normal"]),
            AlertSequence.from_names(["alert_outbound_c2"]),
        ]
        matrix = pairwise_jaccard_matrix(sequences)
        values, fractions = similarity_cdf(matrix)
        assert np.all(np.diff(fractions) >= 0)
        assert fractions[-1] == pytest.approx(1.0)

    def test_fraction_below_threshold_bounds(self):
        sequences = [
            AlertSequence.from_names(["alert_port_scan"]),
            AlertSequence.from_names(["alert_port_scan"]),
        ]
        matrix = pairwise_jaccard_matrix(sequences)
        assert fraction_of_pairs_below(matrix, 0.99) == 0.0
        assert fraction_of_pairs_below(matrix, 1.0) == 1.0


class TestSubsequence:
    def test_empty_pattern_always_matches(self):
        assert is_subsequence((), ("a", "b"))

    def test_order_matters(self):
        assert is_subsequence(("a", "b"), ("a", "x", "b"))
        assert not is_subsequence(("b", "a"), ("a", "x", "b"))

    def test_matched_prefix_length(self):
        assert matched_prefix_length(("a", "b", "c"), ("a", "x", "b")) == 2
        assert matched_prefix_length(("a", "b"), ()) == 0

    @given(sequence_strategy, sequence_strategy)
    @settings(max_examples=50, deadline=None)
    def test_prefix_length_consistent_with_containment(self, pattern, names):
        matched = matched_prefix_length(pattern, names)
        assert 0 <= matched <= len(pattern)
        if matched == len(pattern) and pattern:
            assert is_subsequence(pattern, names)
