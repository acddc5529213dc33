"""Tests for graph visualisation and the longitudinal analysis modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    attribute_incident,
    catalogue_frequency_study,
    corpus_similarity_study,
    criticality_study,
    render_daily_series,
    run_longitudinal_study,
    scan_fraction_of_daily_volume,
    summarize_daily_volumes,
    timing_study,
    triage_load_without_filtering,
)
from repro.attacks import MassScanEmulator
from repro.incidents import DEFAULT_CATALOGUE, IncidentGenerator
from repro.testbed import BlackHoleRouter
from repro.viz import (
    ConnectionGraphBuilder,
    GraphAnnotator,
    ROLE_ATTACKER,
    ROLE_SCANNER,
    ROLE_TARGET,
    export_dot,
    export_gexf,
    export_json,
    fruchterman_reingold_layout,
    hub_centrality_check,
    multilevel_layout,
    render_ascii_summary,
)


@pytest.fixture(scope="module")
def small_graph():
    """A Fig. 1-shaped graph at test scale: one scanner star plus an attack."""
    emulator = MassScanEmulator(seed=6)
    profiles = emulator.default_profiles(total_scans=1_200, dominant_fraction=0.85)
    records = emulator.generate_scan_records(profiles, duration_seconds=600.0)
    sample = emulator.sample_most_frequent(records, sample_size=400)
    builder = ConnectionGraphBuilder()
    builder.add_scan_records(sample, dominant_scanner=profiles[0].source_ip)
    builder.add_attack("132.17.9.3", ["141.142.10.20", "141.142.10.21"])
    return builder, profiles[0].source_ip


class TestGraphBuilder:
    def test_stats_counts(self, small_graph):
        builder, _ = small_graph
        stats = builder.stats()
        assert stats.attack_edges == 2
        assert stats.scanner_edges == 400
        assert stats.nodes > 300
        assert stats.edges >= stats.attack_edges

    def test_roles_assigned(self, small_graph):
        builder, scanner = small_graph
        assert scanner in builder.nodes_with_role(ROLE_SCANNER)
        assert "132.17.9.3" in builder.nodes_with_role(ROLE_ATTACKER)
        assert len(builder.nodes_with_role(ROLE_TARGET)) == 2

    def test_graphviz_output_format(self, small_graph):
        builder, _ = small_graph
        dot = export_dot(builder, max_edges=5)
        assert dot.startswith("digraph {")
        assert "->" in dot
        assert dot.rstrip().endswith("}")
        # Anonymised labels keep only two octets.
        assert ".xxx" not in dot.split("->")[0]

    def test_degree_distribution_has_hub(self, small_graph):
        builder, scanner = small_graph
        degrees = dict(builder.graph.degree())
        assert degrees[scanner] == max(degrees.values())


class TestLayout:
    def test_small_graph_layout_converges(self, small_graph):
        builder, scanner = small_graph
        layout = fruchterman_reingold_layout(builder.graph.to_undirected(), iterations=40, seed=2)
        assert len(layout.positions) == builder.graph.number_of_nodes()
        ratio = hub_centrality_check(layout, builder.graph, scanner)
        assert ratio < 0.5, "the mass scanner should sit at the centre of its scan disc"

    def test_multilevel_layout_matches_node_set(self, small_graph):
        builder, _ = small_graph
        layout = multilevel_layout(builder.graph, iterations=20, refine_iterations=5, seed=2)
        assert set(layout.positions) == set(builder.graph.nodes)

    def test_deterministic_for_fixed_seed(self, small_graph):
        builder, _ = small_graph
        graph = builder.graph.to_undirected()
        a = fruchterman_reingold_layout(graph, iterations=10, seed=5)
        b = fruchterman_reingold_layout(graph, iterations=10, seed=5)
        assert np.allclose(a.as_array(list(graph.nodes)), b.as_array(list(graph.nodes)))

    def test_empty_graph(self):
        import networkx as nx

        layout = fruchterman_reingold_layout(nx.Graph(), iterations=5)
        assert layout.positions == {}


class TestAnnotationAndExport:
    def test_annotator_cross_examines_router_and_detections(self, small_graph):
        builder, scanner = small_graph
        router = BlackHoleRouter()
        emulator = MassScanEmulator(seed=8)
        emulator.feed_router(
            router, emulator.default_profiles(total_scans=8_000, dominant_ip=scanner)
        )
        summary = GraphAnnotator(builder).annotate(
            router=router, known_attacker_ips=["132.17.9.3"]
        )
        assert summary.mass_scanners >= 1
        assert summary.attackers == 1
        assert summary.targets == 2
        assert summary.total == builder.graph.number_of_nodes()

    def test_json_export_round_trip(self, small_graph):
        import json

        builder, _ = small_graph
        layout = fruchterman_reingold_layout(builder.graph.to_undirected(), iterations=5, seed=1)
        payload = json.loads(export_json(builder, layout))
        assert len(payload["nodes"]) == builder.graph.number_of_nodes()
        assert len(payload["edges"]) == builder.graph.number_of_edges()
        assert all("x" in node for node in payload["nodes"])

    def test_gexf_export(self, small_graph, tmp_path):
        builder, _ = small_graph
        path = export_gexf(builder, tmp_path / "fig1.gexf")
        assert path.exists() and path.stat().st_size > 0

    def test_ascii_rendering(self, small_graph):
        builder, _ = small_graph
        layout = fruchterman_reingold_layout(builder.graph.to_undirected(), iterations=5, seed=1)
        art = render_ascii_summary(builder, layout)
        assert len(art.splitlines()) >= 10


class TestSimilarityStudy:
    def test_fig3a_claim_on_corpus(self, corpus):
        result = corpus_similarity_study(corpus)
        assert result.num_attacks == len(corpus)
        assert result.fraction_below_threshold >= 0.95
        assert result.meets_paper_claim()
        assert 0.0 <= result.mean_similarity <= 1.0
        assert result.cdf_at(1.0) == pytest.approx(1.0)

    def test_including_benign_changes_little(self, corpus):
        strict = corpus_similarity_study(corpus, include_benign=False)
        loose = corpus_similarity_study(corpus, include_benign=True)
        assert abs(strict.fraction_below_threshold - loose.fraction_below_threshold) < 0.1


class TestLCSStudy:
    def test_fig3b_histogram_matches_base_frequencies(self, corpus):
        result = catalogue_frequency_study(corpus)
        assert result.most_frequent_pattern == "S1"
        assert result.max_frequency == 14
        assert result.length_range == (2, 14)
        expected = {p.name: p.base_frequency for p in DEFAULT_CATALOGUE}
        for name, count in result.histogram.items():
            assert count == expected[name], f"{name}: {count} != {expected[name]}"
        assert result.unattributed_incidents == 228 - sum(expected.values())

    def test_attribute_incident_prefers_longest(self):
        s1 = DEFAULT_CATALOGUE.get("S1")
        assert attribute_incident(s1.names, DEFAULT_CATALOGUE).name == "S1"
        assert attribute_incident(("alert_login_normal",), DEFAULT_CATALOGUE) is None


class TestDailyStatsAndTiming:
    def test_fig2_volume_statistics(self):
        generator = IncidentGenerator(seed=21)
        breakdown = generator.daily_volume_breakdown(90)
        stats = summarize_daily_volumes(breakdown["total"], scan_volumes=breakdown["scans"])
        assert abs(stats.mean - 94_238) < 0.15 * 94_238
        assert stats.scan_mean is not None and stats.scan_mean > 0.6 * stats.mean
        assert stats.days == 90

    def test_render_daily_series(self):
        volumes = np.array([10, 20, 30, 40, 50])
        art = render_daily_series(volumes, width=10, height=4)
        assert len(art.splitlines()) == 5

    def test_timing_study_confirms_insight3(self, corpus):
        result = timing_study(corpus)
        assert result.incidents_analyzed > 200
        assert result.post_foothold.mean_seconds > result.reconnaissance.mean_seconds
        # Post-foothold gaps vary more than reconnaissance ones (coefficient of variation).
        recon, manual = result.reconnaissance, result.post_foothold
        assert manual.std_seconds / manual.mean_seconds > recon.std_seconds / recon.mean_seconds

    def test_scan_fraction(self):
        assert scan_fraction_of_daily_volume(94_238, 80_000) == pytest.approx(0.849, abs=0.01)


class TestCriticalityStudy:
    def test_insight4_statistics(self, corpus):
        result = criticality_study(corpus)
        assert result.unique_critical_types == 19
        assert result.total_occurrences > 0
        assert result.coverage < 0.75, "many incidents must have no critical alert at all"
        assert result.mean_relative_position > 0.5, "critical alerts arrive late in the sequence"

    def test_triage_load(self):
        assert triage_load_without_filtering(94_238, 30.0) == pytest.approx(785.3, abs=1.0)
        with pytest.raises(ValueError):
            triage_load_without_filtering(-1)


class TestLongitudinalStudy:
    def test_full_report(self, corpus, generator):
        report = run_longitudinal_study(corpus, generator=IncidentGenerator(seed=13))
        rows = report.paper_comparison()
        assert len(rows) >= 12
        text = report.render_text()
        assert "download/compile/erase prevalence" in text
        assert report.motif_prevalence == pytest.approx(137 / 228, abs=0.02)
        assert report.patterns.max_frequency == 14
        assert report.similarity.meets_paper_claim()
