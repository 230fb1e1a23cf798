"""Unit tests for the MST application (Kruskal reference and Boruvka-over-shortcuts)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.applications import (
    boruvka_mst,
    default_shortcut_factory,
    estimate_aggregation_rounds,
    kruskal_mst,
)
from repro.graphs import (
    WeightedGraph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hub_diameter_graph,
    is_connected,
    with_random_weights,
)
from repro.shortcuts import Shortcut, build_ghaffari_haeupler_shortcut, build_naive_shortcut


def to_networkx(wg: WeightedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(wg.vertices())
    for u, v, w in wg.weighted_edges():
        g.add_edge(u, v, weight=w)
    return g


def networkx_mst_weight(wg: WeightedGraph) -> float:
    t = nx.minimum_spanning_tree(to_networkx(wg))
    return sum(d["weight"] for _, _, d in t.edges(data=True))


class TestKruskal:
    def test_simple_triangle(self):
        wg = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        edges, weight = kruskal_mst(wg)
        assert weight == 3.0
        assert set(edges) == {(0, 1), (1, 2)}

    def test_against_networkx(self):
        for seed in range(5):
            g = erdos_renyi_graph(40, 0.15, rng=seed)
            wg = with_random_weights(g, rng=seed)
            _, weight = kruskal_mst(wg)
            assert weight == pytest.approx(networkx_mst_weight(wg))

    def test_disconnected_graph_gives_forest(self):
        wg = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
        edges, weight = kruskal_mst(wg)
        assert len(edges) == 2
        assert weight == 3.0

    def test_edge_count(self):
        g = grid_graph(5, 5)
        wg = with_random_weights(g, rng=1)
        edges, _ = kruskal_mst(wg)
        assert len(edges) == 24


class TestBoruvkaCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_kruskal_on_random_graphs(self, seed):
        g = erdos_renyi_graph(35, 0.2, rng=seed)
        wg = with_random_weights(g, rng=seed + 10)
        result = boruvka_mst(wg)
        _, kruskal_weight = kruskal_mst(wg)
        assert result.weight == pytest.approx(kruskal_weight)

    def test_matches_kruskal_on_hub_graph(self, weighted_hub):
        result = boruvka_mst(weighted_hub)
        _, kruskal_weight = kruskal_mst(weighted_hub)
        assert result.weight == pytest.approx(kruskal_weight)
        assert len(result.edges) == weighted_hub.num_vertices - 1

    def test_mst_edges_form_spanning_tree(self, weighted_hub):
        result = boruvka_mst(weighted_hub)
        from repro.graphs import Graph

        tree = Graph(weighted_hub.num_vertices, result.edges)
        assert is_connected(tree)
        assert tree.num_edges == weighted_hub.num_vertices - 1

    def test_with_duplicate_weights(self):
        # All weights equal: tie-breaking must still produce a spanning tree.
        g = grid_graph(5, 5)
        wg = WeightedGraph(25)
        for u, v in g.edges():
            wg.add_weighted_edge(u, v, 1.0)
        result = boruvka_mst(wg)
        assert len(result.edges) == 24
        assert result.weight == pytest.approx(24.0)

    def test_empty_graph(self):
        result = boruvka_mst(WeightedGraph(0))
        assert result.edges == []
        assert result.weight == 0.0

    def test_single_vertex(self):
        result = boruvka_mst(WeightedGraph(1))
        assert result.edges == []
        assert result.phases == 0

    def test_phase_count_logarithmic(self, weighted_hub):
        result = boruvka_mst(weighted_hub)
        import math

        assert result.phases <= math.ceil(math.log2(weighted_hub.num_vertices)) + 2


class TestBoruvkaRoundAccounting:
    def test_rounds_recorded_per_phase(self, weighted_hub):
        result = boruvka_mst(weighted_hub)
        assert len(result.rounds_per_phase) == result.phases
        assert result.total_rounds == sum(result.rounds_per_phase)
        assert all(r > 0 for r in result.rounds_per_phase)
        assert len(result.quality_per_phase) == result.phases

    def test_each_phase_measures_once_and_charges_build_plus_aggregation(
        self, weighted_hub, monkeypatch
    ):
        reports = []
        measure = Shortcut.quality_report

        def counting(shortcut, **kwargs):
            reports.append(measure(shortcut, **kwargs))
            return reports[-1]

        monkeypatch.setattr(Shortcut, "quality_report", counting)
        factory = default_shortcut_factory(diameter_value=6, log_factor=0.25, rng=2)
        result = boruvka_mst(weighted_hub, shortcut_factory=factory)
        assert len(reports) == result.phases
        n = weighted_hub.num_vertices
        assert result.rounds_per_phase == [
            2 * estimate_aggregation_rounds(q, n) for q in reports
        ]

    def test_naive_engine_charges_more_than_kp(self):
        g = hub_diameter_graph(150, 6, rng=3)
        wg = with_random_weights(g, rng=4)

        kp = boruvka_mst(wg, shortcut_factory=default_shortcut_factory(
            diameter_value=6, log_factor=0.25, rng=1))
        naive = boruvka_mst(wg, shortcut_factory=build_naive_shortcut)
        assert kp.weight == pytest.approx(naive.weight)
        assert naive.total_rounds > kp.total_rounds

    def test_gh_engine_correct(self, weighted_hub):
        result = boruvka_mst(weighted_hub, shortcut_factory=build_ghaffari_haeupler_shortcut)
        _, kruskal_weight = kruskal_mst(weighted_hub)
        assert result.weight == pytest.approx(kruskal_weight)
