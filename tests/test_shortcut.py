"""Unit tests for the Shortcut container and its quality measures."""

from __future__ import annotations

import pytest

from repro.graphs import INFINITY, cycle_graph, grid_graph, path_graph, star_graph
from repro.graphs.generators import make_family_graph
from repro.graphs.partitions import random_connected_partition, singleton_free
from repro.rng import derive_rng
from repro.shortcuts import Partition, QualityReport, Shortcut, build_kogan_parter_shortcut
from repro.shortcuts.shortcut import surviving_shortcut


class TestShortcutConstruction:
    def test_basic_construction(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1, 2}, {4, 5}])
        sc = Shortcut(p, [[(2, 3)], []])
        assert sc.num_parts == 2
        assert sc.subgraph_edges(0) == {(2, 3)}
        assert sc.subgraph_edges(1) == set()

    def test_missing_trailing_subgraphs_are_empty(self):
        g = cycle_graph(6)
        p = Partition(g, [{0, 1}, {3, 4}])
        sc = Shortcut(p, [[(1, 2)]])
        assert sc.subgraph_edges(1) == set()

    def test_too_many_subgraphs_rejected(self):
        g = cycle_graph(6)
        p = Partition(g, [{0, 1}])
        with pytest.raises(ValueError):
            Shortcut(p, [[], [], []])

    def test_non_edge_rejected(self):
        g = path_graph(6)
        p = Partition(g, [{0, 1}])
        with pytest.raises(ValueError):
            Shortcut(p, [[(0, 5)]])

    @pytest.mark.parametrize("ids", [[-1], [5], [0, 7]])
    def test_out_of_range_edge_id_rejected(self, ids):
        p = Partition(path_graph(6), [{0, 1}])  # edge ids 0..4
        with pytest.raises(ValueError):
            Shortcut.from_edge_ids(p, [ids])

    def test_edge_canonicalisation(self):
        g = cycle_graph(6)
        p = Partition(g, [{0, 1}])
        sc = Shortcut(p, [[(2, 1), (1, 2)]])
        assert sc.subgraph_edges(0) == {(1, 2)}

    def test_total_shortcut_edges(self):
        g = cycle_graph(6)
        p = Partition(g, [{0, 1}, {3, 4}])
        sc = Shortcut(p, [[(1, 2)], [(4, 5), (2, 3)]])
        assert sc.total_shortcut_edges() == 3


class TestAugmentedSubgraph:
    def test_augmented_edges_include_induced_part_edges(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1, 2}])
        sc = Shortcut(p, [[(3, 4)]])
        assert sc.augmented_edges(0) == {(0, 1), (1, 2), (3, 4)}

    def test_augmented_subgraph_contains_isolated_part_vertices(self):
        g = path_graph(5)
        p = Partition(g, [{4}])
        sc = Shortcut(p, [[]])
        sub = sc.augmented_subgraph(0)
        assert 4 in sub.vertex_set

    def test_augmented_adjacency(self):
        g = cycle_graph(6)
        p = Partition(g, [{0, 1}])
        sc = Shortcut(p, [[(1, 2)]])
        adj = sc.augmented_adjacency(0)
        assert adj[1] == {0, 2}
        assert adj[2] == {1}
        assert adj[0] == {1}


class TestCongestion:
    def test_disjoint_subgraphs_congestion_one(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1}, {4, 5}])
        sc = Shortcut(p, [[], []])
        assert sc.congestion() == 1

    def test_shared_edge_counted(self):
        g = star_graph(6)
        p = Partition(g, [{1}, {2}, {3}])
        shared = [(0, 5)]
        sc = Shortcut(p, [shared, shared, shared])
        assert sc.congestion() == 3

    def test_induced_edge_plus_shortcut_membership(self):
        g = path_graph(4)
        p = Partition(g, [{0, 1}, {2, 3}])
        # part 1's shortcut borrows part 0's internal edge
        sc = Shortcut(p, [[], [(0, 1)]])
        loads = sc.edge_loads()
        assert loads[(0, 1)] == 2

    def test_empty_shortcut_on_uncovered_graph(self):
        g = path_graph(6)
        p = Partition(g, [{0}])
        sc = Shortcut(p, [[]])
        assert sc.congestion() == 0  # no part has any edge


class TestDilation:
    def test_dilation_of_connected_part(self):
        g = cycle_graph(10)
        p = Partition(g, [set(range(6))])
        sc = Shortcut(p, [[]])
        # induced path of 6 vertices
        assert sc.dilation() == 5

    def test_shortcut_edge_reduces_dilation(self):
        g = cycle_graph(10)
        p = Partition(g, [set(range(6))])
        # add the chord closing the cycle: 0 - 9 - ... no, use edge (0, 9)
        # and (5, 6)? Use the two cycle edges leaving the part to route
        # around: 0-9, 9-8, 8-7, 7-6, 6-5 gives a 5-hop alternative, not
        # shorter.  Instead shortcut through vertex 9 adjacent to 0 only:
        # pick the part {0..6} below for a clearer case.
        p2 = Partition(g, [set(range(7))])
        sc_without = Shortcut(p2, [[]])
        sc_with = Shortcut(p2, [[(0, 9), (9, 8), (8, 7), (7, 6)]])
        assert sc_without.dilation() == 6
        assert sc_with.dilation() < 6

    def test_part_disconnected_in_augmented_graph_is_infinite(self):
        g = path_graph(5)
        p = Partition(g, [{0, 4}], validate=False)  # disconnected part
        sc = Shortcut(p, [[]])
        assert sc.dilation() == INFINITY

    def test_singleton_part_dilation_zero(self):
        g = path_graph(5)
        p = Partition(g, [{3}])
        sc = Shortcut(p, [[]])
        assert sc.dilation() == 0

    def test_approximate_dilation_within_factor_two(self):
        g = grid_graph(6, 6)
        p = Partition(g, [set(range(36))], validate=False)
        sc = Shortcut(p, [[]])
        exact = sc.dilation(exact=True)
        approx = sc.dilation(exact=False)
        assert exact / 2 <= approx <= exact

    def test_dilation_per_part_maximum(self):
        g = path_graph(12)
        p = Partition(g, [{0, 1, 2}, set(range(4, 12))])
        sc = Shortcut(p, [[], []])
        assert sc.part_dilation(0) == 2
        assert sc.part_dilation(1) == 7
        assert sc.dilation() == 7


class TestQualityReport:
    def test_report_fields(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1, 2}, {4, 5, 6}])
        sc = Shortcut(p, [[(3, 4)], [(7, 0)]])
        report = sc.quality_report()
        assert isinstance(report, QualityReport)
        assert report.num_parts == 2
        assert report.num_shortcut_edges == 2
        assert report.max_part_shortcut_edges == 1
        assert report.quality == report.congestion + report.dilation

    def test_quality_is_sum(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1, 2, 3}])
        sc = Shortcut(p, [[]])
        report = sc.quality_report()
        assert report.congestion == 1
        assert report.dilation == 3
        assert report.quality == 4


class TestSurvivingShortcut:
    """The fault projection draws one coin per non-victim edge, part by part
    in ascending edge-id order — never in a container's iteration order."""

    @staticmethod
    def _e15_shortcut(family):
        # E15's default cell (seed 61, size 96): in the hub and preferential
        # families one H_i held as a Python set iterated out of id order.
        seed, size = 61, 96
        graph = make_family_graph(family, size, rng=derive_rng(seed, "E15", family, size, "graph"))
        parts = singleton_free(random_connected_partition(
            graph, max(2, graph.num_vertices // 16),
            rng=derive_rng(seed, "E15", family, size, "parts"), cover_all=True,
        ))
        partition = Partition(graph, parts, validate=False)
        return build_kogan_parter_shortcut(
            graph, partition, rng=derive_rng(seed, "E15", family, size, "sample")
        ).shortcut

    @pytest.mark.parametrize("family", ["hub", "preferential"])
    @pytest.mark.parametrize("drop_rate, num_victims", [(0.15, 0), (0.05, 2), (0.0, 2)])
    def test_matches_brute_force_in_ascending_id_order(self, family, drop_rate, num_victims):
        sc = self._e15_shortcut(family)
        eid_map = sc.graph.csr().edge_id_map
        victims = set(range(0, 2 * num_victims, 2))
        brute_rng = derive_rng(5, "survive")
        expected = []
        for i in range(sc.num_parts):
            kept = set()
            for e in sorted(eid_map[edge] for edge in sc.subgraph_edges(i)):
                u, v = sc.graph.csr().edge_list[e]
                if u in victims or v in victims:
                    continue
                if drop_rate and brute_rng.random() < drop_rate:
                    continue
                kept.add((u, v))
            expected.append(kept)
        rng = derive_rng(5, "survive")
        survived = surviving_shortcut(sc, victims, drop_rate, rng)
        assert [survived.subgraph_edges(i) for i in range(sc.num_parts)] == expected
        assert rng.random() == brute_rng.random()  # same number of draws
