"""Unit tests for the Partition class."""

from __future__ import annotations

import math

import pytest

from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.params import k_d_value
from repro.shortcuts import Partition, build_kogan_parter_shortcut
from repro.shortcuts.kogan_parter import radius_large_parts


class TestPartitionBasics:
    def test_construction_and_lookup(self):
        g = path_graph(10)
        p = Partition(g, [{0, 1, 2}, {5, 6}])
        assert p.num_parts == 2
        assert p.part(0) == frozenset({0, 1, 2})
        assert p.part_of(1) == 0
        assert p.part_of(6) == 1
        assert p.part_of(9) is None

    def test_len_and_iter(self):
        g = path_graph(6)
        p = Partition(g, [{0, 1}, {3, 4}])
        assert len(p) == 2
        assert [set(s) for s in p] == [{0, 1}, {3, 4}]

    def test_covered_vertices(self):
        g = path_graph(6)
        p = Partition(g, [{0, 1}, {3, 4}])
        assert p.covered_vertices() == {0, 1, 3, 4}

    def test_validation_rejects_disconnected_part(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            Partition(g, [{0, 3}])

    def test_validation_rejects_overlap(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            Partition(g, [{0, 1}, {1, 2}])

    def test_validation_can_be_skipped(self):
        g = path_graph(6)
        # invalid (disconnected) part accepted when validation is off — the
        # caller takes responsibility (used by internal hot loops)
        p = Partition(g, [{0, 3}], validate=False)
        assert p.num_parts == 1

    def test_repr(self):
        g = path_graph(6)
        p = Partition(g, [{0, 1, 2}])
        assert "num_parts=1" in repr(p)


class TestLeaders:
    def test_leader_is_max_id(self):
        g = cycle_graph(10)
        p = Partition(g, [{0, 1, 2}, {5, 6, 7}])
        assert p.leader(0) == 2
        assert p.leader(1) == 7
        assert p.leaders() == [2, 7]

    def test_leaders_cached_not_rescanned(self):
        # Leaders are computed once in __init__; hot driver loops call
        # leader() per part per round and must not pay an O(|part|) max()
        # scan each time.
        g = cycle_graph(10)
        p = Partition(g, [{0, 1, 2}, {5, 6, 7}])
        assert p._leaders == [2, 7]
        p._leaders[0] = 99  # simulate: cached value is what leader() returns
        assert p.leader(0) == 99
        # leaders() hands out a copy, so callers cannot corrupt the cache
        p2 = Partition(g, [{0, 1, 2}])
        p2.leaders().append(123)
        assert p2.leaders() == [2]


class TestPartEdgesAndDiameter:
    def test_part_edges(self):
        g = cycle_graph(8)
        p = Partition(g, [{0, 1, 2, 3}])
        assert sorted(p.part_edges(0)) == [(0, 1), (1, 2), (2, 3)]

    def test_induced_diameter(self):
        g = cycle_graph(12)
        p = Partition(g, [{0, 1, 2, 3, 4}])
        # induced subgraph is a path of 5 vertices
        assert p.induced_diameter(0) == 4

    def test_singleton_part_diameter(self):
        g = path_graph(4)
        p = Partition(g, [{2}])
        assert p.induced_diameter(0) == 0


class TestRadiusClassification:
    """A part is sampled when its leader-rooted radius in ``G[S_i]`` exceeds
    the depth (the one large-part rule, ``radius_large_parts``)."""

    def test_depth_decides(self):
        g = grid_graph(6, 6)
        # Row 0 is a path led by 5 (radius 5); {10, 11} has radius 1.
        p = Partition(g, [set(range(6)), {10, 11}], validate=False)
        assert radius_large_parts(p, 3) == [0]
        assert radius_large_parts(p, 5) == []
        assert radius_large_parts(p, 0) == [0, 1]

    def test_sampler_uses_ceil_k_d(self):
        g = grid_graph(10, 10)
        big = set(range(30))  # rows 0-2: radius 11 from leader 29
        small = {90, 91}
        p = Partition(g, [big, small], validate=False)
        result = build_kogan_parter_shortcut(g, p, diameter_value=4, rng=1)
        depth = result.parameters.detection_depth
        assert depth == math.ceil(k_d_value(100, 4))
        assert result.large_part_indices == [0]

    def test_unreachable_member_is_beyond_every_depth(self):
        g = path_graph(5)
        p = Partition(g, [{0, 4}, {2}], validate=False)
        assert radius_large_parts(p, 10) == [0]
