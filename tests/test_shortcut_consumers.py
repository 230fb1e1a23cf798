"""Oracle equivalence for the shortcut-consumer applications.

The acceptance contract of the applications layer: the fully simulated
Boruvka MST reproduces the Kruskal oracle (weight *and* edge set) on every
generator family and both routing engines, and the hooking
connected-components consumer reproduces the sequential traversal labels.
"""

from __future__ import annotations

import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import (
    CONSUMER_ENGINES,
    shortcut_boruvka_mst,
)
from repro.graphs import cycle_graph, grid_graph, hub_diameter_graph
from repro.graphs.components import connected_components
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    disjoint_union,
    make_family_graph,
    with_random_weights,
)
from repro.graphs.graph import Graph
from repro.graphs.lower_bound import lower_bound_instance


def _components_of_labels(labels):
    by_label: dict[int, set[int]] = {}
    for v, label in enumerate(labels):
        by_label.setdefault(label, set()).add(v)
    return sorted(by_label.values(), key=min)


class TestShortcutMSTOracle:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_every_family_matches_kruskal(self, family, engine):
        graph = make_family_graph(family, 70, rng=4)
        weighted = with_random_weights(graph, rng=11)
        result = shortcut_boruvka_mst(weighted, engine=engine, rng=2)
        kruskal_edges, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert result.edges == sorted(kruskal_edges)
        assert result.engine == engine
        assert result.phases == len(result.rounds_per_phase)
        assert result.total_rounds == sum(result.rounds_per_phase)

    def test_lower_bound_instance(self):
        inst = lower_bound_instance(200, 6)
        weighted = with_random_weights(inst.graph, rng=5)
        result = shortcut_boruvka_mst(weighted, engine="shortcut",
                                      diameter_value=inst.diameter, rng=3)
        _, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9

    def test_spanning_forest_on_disconnected_graph(self):
        blocks = [make_family_graph("torus", 40, rng=1),
                  make_family_graph("expander", 40, rng=2)]
        weighted = with_random_weights(disjoint_union(blocks), rng=7)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", rng=1)
        kruskal_edges, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert result.edges == sorted(kruskal_edges)
        assert len(result.edges) == weighted.num_vertices - 2

    def test_determinism(self):
        weighted = with_random_weights(make_family_graph("hub", 90, rng=3), rng=9)
        a = shortcut_boruvka_mst(weighted, engine="shortcut", rng=6)
        b = shortcut_boruvka_mst(weighted, engine="shortcut", rng=6)
        assert a.edges == b.edges
        assert a.rounds_per_phase == b.rounds_per_phase

    def test_phase_rounds_are_simulated(self):
        weighted = with_random_weights(make_family_graph("torus", 80, rng=2), rng=3)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", rng=4)
        # Later phases have multi-node fragments, hence real simulation.
        assert result.phases >= 2
        assert any(r > 1 for r in result.rounds_per_phase)
        assert result.messages > 0
        assert len(result.bfs_rounds_per_phase) == result.phases
        assert len(result.aggregation_rounds_per_phase) == result.phases

    def test_unknown_engine_rejected(self):
        weighted = with_random_weights(make_family_graph("hub", 40, rng=1), rng=1)
        with pytest.raises(ValueError):
            shortcut_boruvka_mst(weighted, engine="warp")

    def test_empty_graph(self):
        from repro.graphs.graph import WeightedGraph

        result = shortcut_boruvka_mst(WeightedGraph(0))
        assert result.edges == [] and result.weight == 0.0


class TestBoruvkaSmallInstances:
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_matches_kruskal_on_grid(self, engine):
        weighted = with_random_weights(grid_graph(5, 5), rng=1)
        result = shortcut_boruvka_mst(weighted, engine=engine, rng=2)
        _, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert len(result.edges) == 24
        assert result.engine == engine

    def test_matches_kruskal_on_hub_graph(self):
        graph = hub_diameter_graph(80, 6, extra_edge_prob=0.03, rng=3)
        weighted = with_random_weights(graph, rng=4)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", log_factor=0.3, rng=5)
        _, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9

    def test_matches_kruskal_on_cycle(self):
        weighted = with_random_weights(cycle_graph(20), rng=6)
        result = shortcut_boruvka_mst(weighted, engine="raw", rng=7)
        _, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert len(result.edges) == 19

    def test_round_bookkeeping(self):
        weighted = with_random_weights(grid_graph(5, 5), rng=8)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", rng=9)
        assert result.phases == len(result.bfs_rounds_per_phase)
        assert result.phases == len(result.aggregation_rounds_per_phase)
        # Each phase pays one fragment-id exchange round on top of the two
        # simulated aggregation stages.
        for total, bfs, agg in zip(result.rounds_per_phase,
                                   result.bfs_rounds_per_phase,
                                   result.aggregation_rounds_per_phase):
            assert total == 1 + bfs + agg
        assert all(r > 0 for r in result.rounds_per_phase)

    def test_engines_agree_on_long_fragment_instance(self):
        # On the lower-bound topology fragments quickly become long paths;
        # both routings must still return the same (Kruskal) tree.
        inst = lower_bound_instance(120, 6)
        weighted = with_random_weights(inst.graph, rng=10)
        with_sc = shortcut_boruvka_mst(weighted, engine="shortcut",
                                       diameter_value=6, log_factor=0.3, rng=11)
        raw = shortcut_boruvka_mst(weighted, engine="raw", rng=12)
        kruskal_edges, _ = kruskal_mst(weighted)
        assert with_sc.edges == raw.edges == sorted(kruskal_edges)


class TestComponentsOracle:
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_disconnected_pieces_match_traversal(self, engine):
        blocks = [make_family_graph("torus", 50, rng=i) for i in range(3)]
        graph = disjoint_union(blocks)
        result = shortcut_connected_components(graph, engine=engine, rng=3)
        assert _components_of_labels(result.labels) == connected_components(graph)
        assert result.num_components == 3

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_connected_family_single_component(self, family):
        graph = make_family_graph(family, 60, rng=8)
        result = shortcut_connected_components(graph, engine="shortcut", rng=5)
        assert result.num_components == 1
        assert set(result.labels) == {0}
        assert _components_of_labels(result.labels) == connected_components(graph)

    def test_isolated_vertices_and_mixed_sizes(self):
        graph = Graph(12)
        for u, v in [(0, 1), (1, 2), (2, 0), (4, 5), (7, 8), (8, 9), (9, 10)]:
            graph.add_edge(u, v)
        for engine in CONSUMER_ENGINES:
            result = shortcut_connected_components(graph, engine=engine, rng=2)
            assert _components_of_labels(result.labels) == connected_components(graph)
            assert result.num_components == 6  # {0,1,2},{3},{4,5},{6},{7..10},{11}

    def test_edgeless_graph(self):
        graph = Graph(5)
        result = shortcut_connected_components(graph, rng=1)
        assert result.labels == list(range(5))
        assert result.num_components == 5
        assert result.total_rounds == 0

    def test_multi_phase_hooking_simulates_aggregations(self):
        graph = make_family_graph("torus", 100, rng=6)
        result = shortcut_connected_components(graph, engine="shortcut", rng=6)
        assert result.phases >= 2
        assert any(r > 1 for r in result.rounds_per_phase)
        assert result.messages > 0

    def test_determinism(self):
        graph = disjoint_union([make_family_graph("expander", 40, rng=i)
                                 for i in range(2)])
        a = shortcut_connected_components(graph, rng=9)
        b = shortcut_connected_components(graph, rng=9)
        assert a.labels == b.labels
        assert a.rounds_per_phase == b.rounds_per_phase

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            shortcut_connected_components(Graph(3), engine="warp")

    # (family, drop rate, block sizes, rounds per phase, messages) of a
    # two-block union (80- and 40-vertex family graphs), captured before
    # the components consumer ran on the MST consumer's phase loop (the
    # 5%-drop rows with the reliable channel's per-unit timers).
    PINS = [
        ("broom", 0.0, (80, 40), [1, 24], 2018),
        ("broom", 0.05, (80, 40), [1, 57], 4308),
        ("caterpillar", 0.0, (79, 39), [1, 36, 14], 5391),
        ("caterpillar", 0.05, (79, 39), [1, 151, 49], 13430),
        ("expander", 0.0, (80, 40), [1, 35, 33], 8241),
        ("expander", 0.05, (80, 40), [1, 74, 109], 23310),
        ("hub", 0.0, (80, 40), [1, 37, 26], 8460),
        ("hub", 0.05, (80, 40), [1, 110, 86], 24000),
        ("preferential", 0.0, (80, 40), [1, 35, 28], 10906),
        ("preferential", 0.05, (80, 40), [1, 101, 81], 32663),
        ("torus", 0.0, (72, 36), [1, 33, 38], 6712),
        ("torus", 0.05, (72, 36), [1, 104, 94], 18753),
    ]

    @pytest.mark.parametrize("family, drop_rate, sizes, rounds, messages", PINS)
    def test_pinned_labels_rounds_and_messages(self, family, drop_rate, sizes,
                                               rounds, messages):
        blocks = [make_family_graph(family, 80, rng=1),
                  make_family_graph(family, 40, rng=2)]
        assert tuple(b.num_vertices for b in blocks) == sizes
        result = shortcut_connected_components(
            disjoint_union(blocks), rng=3, drop_rate=drop_rate
        )
        assert result.labels == [0] * sizes[0] + [sizes[0]] * sizes[1]
        assert result.rounds_per_phase == rounds
        assert result.messages == messages
