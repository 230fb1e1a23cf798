"""Unit tests for the 2-ECSS approximation."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.applications import (
    find_bridges,
    is_two_edge_connected,
    kruskal_mst,
    shortcut_boruvka_mst,
    two_ecss_approximation,
)
from repro.graphs import (
    GENERATOR_FAMILIES,
    Graph,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    make_family_graph,
    path_graph,
    planted_cut_graph,
    with_random_weights,
)


class TestFindBridges:
    def test_path_all_bridges(self):
        g = path_graph(5)
        assert find_bridges(g) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_cycle_no_bridges(self):
        assert find_bridges(cycle_graph(6)) == set()

    def test_mixed_graph(self):
        # two triangles joined by a single edge (the bridge)
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert find_bridges(g) == {(2, 3)}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_networkx(self, seed):
        g = erdos_renyi_graph(30, 0.1, rng=seed)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges())
        expected = {tuple(sorted(e)) for e in nx.bridges(nxg)}
        assert find_bridges(g) == expected


class TestIsTwoEdgeConnected:
    def test_cycle_is_2ec(self):
        g = cycle_graph(6)
        assert is_two_edge_connected(g, list(g.edges()))

    def test_path_is_not(self):
        g = path_graph(5)
        assert not is_two_edge_connected(g, list(g.edges()))

    def test_non_spanning_subgraph_is_not(self):
        g = cycle_graph(6)
        assert not is_two_edge_connected(g, [(0, 1), (1, 2), (2, 0)] if g.has_edge(0, 2) else [(0, 1)])


class TestTwoECSSApproximation:
    def test_on_planted_cut_graph(self):
        wg = planted_cut_graph(12, 4, rng=1)
        result = two_ecss_approximation(wg, rng=1)
        assert result.is_two_edge_connected
        assert result.uncovered_edges == []
        assert result.weight >= result.mst_weight

    def test_weight_at_most_twice_a_2ecss_lower_bound(self):
        """The output weight is at most MST + (cover edges), and each cover is
        the cheapest edge re-connecting a tree cut, so the total is at most
        2x the optimum; check the weaker, directly verifiable bound against
        the full graph weight and the MST."""
        wg = planted_cut_graph(10, 3, rng=2)
        result = two_ecss_approximation(wg, rng=1)
        assert result.weight <= wg.total_weight()
        assert result.weight <= 2.5 * result.mst_weight

    def test_on_complete_graph(self):
        g = complete_graph(10)
        wg = with_random_weights(g, rng=3)
        result = two_ecss_approximation(wg, rng=1)
        assert result.is_two_edge_connected
        _, mst_weight = kruskal_mst(wg)
        assert result.mst_weight == pytest.approx(mst_weight)

    def test_graph_with_bridge_reports_uncovered(self):
        # Two triangles joined by a bridge: the bridge can never be covered.
        wg = WeightedGraph(6)
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            wg.add_weighted_edge(u, v, 1.0)
        wg.add_weighted_edge(2, 3, 1.0)
        result = two_ecss_approximation(wg, rng=1)
        assert not result.is_two_edge_connected
        assert (2, 3) in result.uncovered_edges

    def test_round_accounting(self):
        # The rounds are the simulated MST's; the central cover choice
        # is not charged.
        wg = planted_cut_graph(10, 3, rng=5)
        result = two_ecss_approximation(wg, rng=1)
        assert result.total_rounds > 0
        assert result.total_rounds == shortcut_boruvka_mst(wg, rng=1).total_rounds

    def test_cycle_input_returns_cycle(self):
        g = cycle_graph(8)
        wg = with_random_weights(g, rng=6)
        result = two_ecss_approximation(wg, rng=1)
        # The only 2-ECSS of a cycle is the cycle itself.
        assert sorted(result.edges) == sorted(g.edges())
        assert result.is_two_edge_connected

    def test_edges_exist_in_graph(self):
        g = grid_graph(4, 4)
        wg = with_random_weights(g, rng=7)
        result = two_ecss_approximation(wg, rng=1)
        for u, v in result.edges:
            assert wg.has_edge(u, v)


def family_weighted_graph(family: str) -> WeightedGraph:
    return with_random_weights(make_family_graph(family, 40, rng=3), rng=4)


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


@pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
class TestTwoECSSAcrossFamilies:
    def test_covers_match_brute_force(self, family):
        """The output is the MST plus, for every MST edge, the cheapest
        non-tree edge crossing the cut that removing it leaves (ties broken
        by edge key), found here by brute force over all non-tree edges."""
        wg = family_weighted_graph(family)
        result = two_ecss_approximation(wg, rng=1)
        tree_edges = set(shortcut_boruvka_mst(wg, rng=1).edges)
        expected = set(tree_edges)
        for a, b in tree_edges:
            forest = nx.Graph()
            forest.add_nodes_from(wg.vertices())
            forest.add_edges_from(tree_edges - {(a, b)})
            side = nx.node_connected_component(forest, a)
            crossing = [
                (w, *sorted((u, v)))
                for u, v, w in wg.weighted_edges()
                if tuple(sorted((u, v))) not in tree_edges and (u in side) != (v in side)
            ]
            if crossing:
                _, u, v = min(crossing)
                expected.add((u, v))
        assert set(result.edges) == expected
        assert result.weight == pytest.approx(wg.total_weight(expected))

    def test_uncovered_edges_are_the_input_bridges(self, family):
        wg = family_weighted_graph(family)
        result = two_ecss_approximation(wg, rng=1)
        nxg = to_networkx(wg)
        bridges = {tuple(sorted(e)) for e in nx.bridges(nxg)}
        assert set(result.uncovered_edges) == bridges
        assert result.is_two_edge_connected == nx.is_k_edge_connected(nxg, 2)
        _, mst_weight = kruskal_mst(wg)
        assert result.mst_weight == pytest.approx(mst_weight)


def test_edge_set_does_not_depend_on_rng():
    # The rng drives only the MST run's sampling and delays, so it may move
    # the rounds but never the chosen edges.
    wg = with_random_weights(erdos_renyi_graph(40, 0.15, rng=8), rng=9)
    first = two_ecss_approximation(wg, rng=1)
    second = two_ecss_approximation(wg, rng=2)
    assert first.edges == second.edges
    assert first.weight == second.weight
