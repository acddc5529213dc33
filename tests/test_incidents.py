"""Tests for the incident dataset: patterns, generator, corpus."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DEFAULT_VOCABULARY
from repro.incidents import (
    AttackPattern,
    DEFAULT_CATALOGUE,
    DOWNLOAD_COMPILE_ERASE,
    GeneratorConfig,
    GroundTruth,
    Incident,
    IncidentCorpus,
    IncidentGenerator,
    PatternCatalogue,
    contains_download_compile_erase,
    download_compile_erase_prevalence,
)
from repro.incidents.generator import TARGET_MOTIF_PREVALENCE, _contained_in_some_interleaving
from repro.core.sequences import AlertSequence, is_subsequence


class TestPatternCatalogue:
    def test_has_43_patterns(self):
        assert len(DEFAULT_CATALOGUE) == 43

    def test_names_are_s1_to_s43(self):
        assert DEFAULT_CATALOGUE.names() == [f"S{i}" for i in range(1, 44)]

    def test_lengths_between_2_and_14(self):
        lengths = [p.length for p in DEFAULT_CATALOGUE]
        assert min(lengths) == 2
        assert max(lengths) == 14

    def test_every_pattern_alert_in_vocabulary(self):
        for pattern in DEFAULT_CATALOGUE:
            for name in pattern.names:
                assert name in DEFAULT_VOCABULARY, name

    def test_max_base_frequency_is_14_for_s1(self):
        frequencies = {p.name: p.base_frequency for p in DEFAULT_CATALOGUE}
        assert frequencies["S1"] == 14
        assert max(frequencies.values()) == 14

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            AttackPattern("X", ("alert_port_scan",), family="f")
        with pytest.raises(ValueError):
            AttackPattern("X", tuple(["alert_port_scan"] * 15), family="f")

    def test_duplicate_names_rejected(self):
        pattern = AttackPattern("X", ("alert_port_scan", "alert_vuln_scan"), family="f")
        with pytest.raises(ValueError):
            PatternCatalogue([pattern, pattern])

    def test_motif_semantic_containment(self):
        assert contains_download_compile_erase(DOWNLOAD_COMPILE_ERASE)
        weak = ("alert_download_sensitive", "alert_suspicious_compile", "alert_erase_forensic_trace")
        assert contains_download_compile_erase(weak)
        assert not contains_download_compile_erase(weak[::-1])

    def test_families_cover_paper_spectrum(self):
        families = {p.family for p in DEFAULT_CATALOGUE}
        assert {"rootkit", "credential_theft", "ransomware", "lateral_movement"} <= families

    def test_no_pattern_contained_in_other_same_length(self):
        """Equal-length catalogue patterns must be distinct sequences."""
        patterns = list(DEFAULT_CATALOGUE)
        for a in patterns:
            for b in patterns:
                if a.name != b.name and a.length == b.length:
                    assert a.names != b.names


class TestInterleavingCheck:
    @given(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
        st.lists(st.sampled_from("abcde"), min_size=0, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_concatenations_are_interleavings(self, backbone, motif):
        combined = list(backbone) + list(motif)
        assert _contained_in_some_interleaving(combined, backbone, motif)

    def test_impossible_pattern_rejected(self):
        assert not _contained_in_some_interleaving(["z"], ["a"], ["b"])


class TestIncident:
    def _incident(self, names=None, year=2015):
        names = names or ["alert_login_stolen_credential", "alert_download_sensitive"]
        return Incident(
            incident_id=f"NCSA-{year}-001",
            year=year,
            family="rootkit",
            sequence=AlertSequence.from_names(names, entity="user:x"),
            ground_truth=GroundTruth(("x",), ("login00",), ("1.2.3.4",), "ssh"),
        )

    def test_invalid_year_rejected(self):
        with pytest.raises(ValueError):
            self._incident(year=1900)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            Incident(
                incident_id="NCSA-2015-001", year=2015, family="rootkit",
                sequence=AlertSequence(()),
                ground_truth=GroundTruth((), (), (), "ssh"),
            )

    def test_critical_alerts_of_an_incident(self):
        incident = self._incident(
            ["alert_login_stolen_credential", "alert_privilege_escalation"]
        )
        critical = incident.sequence.critical_alerts()
        assert [a.name for a in critical] == ["alert_privilege_escalation"]


class TestGenerator:
    def test_corpus_size_and_period(self, corpus):
        assert len(corpus) == 228
        assert corpus.start_year == 2000 and corpus.end_year == 2024
        assert all(2000 <= i.year <= 2024 for i in corpus)

    def test_motif_prevalence_matches_paper(self, corpus):
        prevalence = download_compile_erase_prevalence(corpus.alert_name_sequences())
        assert prevalence == pytest.approx(TARGET_MOTIF_PREVALENCE, abs=0.02)

    def test_every_pattern_backed_incident_contains_its_pattern(self, corpus):
        for incident in corpus:
            for pattern_name in incident.pattern_names:
                pattern = DEFAULT_CATALOGUE.get(pattern_name)
                assert is_subsequence(pattern.names, incident.alert_names)

    def test_critical_alert_types_match_vocabulary(self, corpus):
        critical = [a for i in corpus for a in i.sequence.critical_alerts()]
        types = {a.name for a in critical}
        assert len(types) == 19
        assert types <= set(DEFAULT_VOCABULARY.critical_names())
        assert len(critical) < corpus.stats().filtered_alerts

    def test_determinism(self):
        config = GeneratorConfig(num_incidents=40)
        a = IncidentGenerator(seed=5, config=config).generate_corpus()
        b = IncidentGenerator(seed=5, config=config).generate_corpus()
        assert [i.alert_names for i in a] == [i.alert_names for i in b]
        c = IncidentGenerator(seed=6, config=config).generate_corpus()
        assert [i.alert_names for i in a] != [i.alert_names for i in c]

    def test_small_corpus_config(self):
        corpus = IncidentGenerator(seed=1, config=GeneratorConfig(num_incidents=30)).generate_corpus()
        assert len(corpus) == 30

    def test_benign_sequences_have_no_critical_alerts(self, benign_sequences):
        for sequence in benign_sequences:
            assert not sequence.critical_alerts()

    def test_daily_volumes_positive_and_calibrated(self, generator):
        volumes = IncidentGenerator(seed=11).daily_alert_volumes(120)
        assert np.all(volumes > 0)
        assert abs(volumes.mean() - 94_238) < 0.15 * 94_238

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(num_incidents=0)
        with pytest.raises(ValueError):
            GeneratorConfig(start_year=2020, end_year=2010)
        with pytest.raises(ValueError):
            GeneratorConfig(motif_prevalence=1.5)

    def test_incident_timing_is_monotone(self, corpus):
        for incident in corpus:
            gaps = incident.sequence.inter_alert_gaps()
            assert np.all(gaps >= 0)


class TestCorpus:
    def test_stats_reproduce_table1_shape(self, corpus):
        stats = corpus.stats()
        assert 20e6 < stats.total_raw_alerts < 30e6
        assert 150e3 < stats.filtered_alerts < 230e3
        assert 25 < stats.data_size_terabytes < 35
        assert len(stats.as_table()) == 5

    def test_families_include_ransomware(self, corpus):
        assert "ransomware" in {i.family for i in corpus}

    def test_chronological_split(self, corpus):
        train, test = corpus.chronological_split(0.7)
        assert len(train) + len(test) == len(corpus)
        assert max(i.start_time for i in train) <= min(i.start_time for i in test)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            IncidentCorpus([], 2000, 2024, 0, 0)
