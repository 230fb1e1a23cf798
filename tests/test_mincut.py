"""Unit tests for the minimum-cut application."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.applications import (
    approximate_min_cut,
    cut_value,
    default_shortcut_factory,
    stoer_wagner_min_cut,
)
from repro.graphs import (
    WeightedGraph,
    cycle_graph,
    erdos_renyi_graph,
    planted_cut_graph,
    with_random_weights,
)


def to_networkx(wg: WeightedGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(wg.vertices())
    for u, v, w in wg.weighted_edges():
        g.add_edge(u, v, weight=w)
    return g


class TestCutValue:
    def test_simple(self):
        wg = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 0, 8.0)])
        assert cut_value(wg, {0, 1}) == pytest.approx(2.0 + 8.0)

    def test_empty_side(self):
        wg = WeightedGraph(3, [(0, 1, 1.0)])
        assert cut_value(wg, set()) == 0.0


class TestStoerWagner:
    def test_two_vertices(self):
        wg = WeightedGraph(2, [(0, 1, 3.5)])
        value, side = stoer_wagner_min_cut(wg)
        assert value == 3.5
        assert side in ({0}, {1})

    def test_cycle(self):
        wg = WeightedGraph(5)
        for i in range(5):
            wg.add_weighted_edge(i, (i + 1) % 5, 1.0)
        value, _ = stoer_wagner_min_cut(wg)
        assert value == 2.0

    def test_planted_cut_found(self):
        wg = planted_cut_graph(12, 3, rng=1)
        value, side = stoer_wagner_min_cut(wg)
        assert value == pytest.approx(3.0)
        assert side in ({*range(12)}, {*range(12, 24)})
        assert cut_value(wg, side) == pytest.approx(value)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_networkx(self, seed):
        g = erdos_renyi_graph(18, 0.35, rng=seed)
        wg = with_random_weights(g, rng=seed, low=1, high=10)
        nxg = to_networkx(wg)
        if not nx.is_connected(nxg):
            pytest.skip("disconnected instance")
        expected, _ = nx.stoer_wagner(nxg)
        value, side = stoer_wagner_min_cut(wg)
        assert value == pytest.approx(expected)
        assert cut_value(wg, side) == pytest.approx(value)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            stoer_wagner_min_cut(WeightedGraph(1))

    def test_disconnected_graph_zero_cut(self):
        wg = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        value, _ = stoer_wagner_min_cut(wg)
        assert value == 0.0


class TestApproximateMinCut:
    def test_planted_cut_recovered(self):
        wg = planted_cut_graph(15, 3, rng=2)
        factory = default_shortcut_factory(log_factor=0.25, rng=1)
        result = approximate_min_cut(wg, num_trees=4, shortcut_factory=factory)
        exact, _ = stoer_wagner_min_cut(wg)
        assert result.value == pytest.approx(exact)
        assert cut_value(wg, result.side) == pytest.approx(result.value)

    def test_value_is_upper_bound_on_min_cut(self):
        for seed in range(3):
            g = erdos_renyi_graph(20, 0.3, rng=seed)
            wg = with_random_weights(g, rng=seed)
            nxg = to_networkx(wg)
            if not nx.is_connected(nxg):
                continue
            exact, _ = stoer_wagner_min_cut(wg)
            result = approximate_min_cut(wg, num_trees=3)
            assert result.value >= exact - 1e-9
            # and within a small factor on these easy instances
            assert result.value <= 3 * exact + 1e-9

    def test_round_accounting(self):
        wg = planted_cut_graph(10, 2, rng=3)
        result = approximate_min_cut(wg, num_trees=3)
        assert result.num_trees == 3
        assert len(result.tree_rounds) == 3
        assert result.total_rounds == sum(result.tree_rounds)
        assert result.total_rounds > 0

    def test_single_vertex_cut_considered(self):
        # A star with one very light leaf edge: the min cut is that leaf.
        wg = WeightedGraph(5)
        wg.add_weighted_edge(0, 1, 10.0)
        wg.add_weighted_edge(0, 2, 10.0)
        wg.add_weighted_edge(0, 3, 10.0)
        wg.add_weighted_edge(0, 4, 0.5)
        result = approximate_min_cut(wg, num_trees=2)
        assert result.value == pytest.approx(0.5)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            approximate_min_cut(WeightedGraph(1))

    def test_epsilon_controls_default_trees(self):
        wg = planted_cut_graph(8, 2, rng=4)
        loose = approximate_min_cut(wg, epsilon=2.0)
        tight = approximate_min_cut(wg, epsilon=0.4)
        assert tight.num_trees >= loose.num_trees
