"""Unit tests for the explicit odd-diameter (edge subdivision) construction."""

from __future__ import annotations

import pytest

from repro.graphs import (
    cycle_graph,
    diameter,
    hub_diameter_graph,
    lower_bound_instance,
    path_graph,
    path_partition,
)
from repro.shortcuts import (
    Partition,
    build_kogan_parter_shortcut,
    build_odd_diameter_shortcut,
    subdivide_graph,
    verify_shortcut,
)


class TestSubdivideGraph:
    def test_vertex_and_edge_counts(self):
        g = cycle_graph(6)
        sub = subdivide_graph(g)
        assert sub.graph.num_vertices == 6 + 6
        assert sub.graph.num_edges == 12

    def test_diameter_doubles(self):
        g = path_graph(5)  # diameter 4
        sub = subdivide_graph(g)
        assert diameter(sub.graph) == 8

    def test_dummy_maps_are_inverse(self):
        g = cycle_graph(5)
        sub = subdivide_graph(g)
        for edge, dummy in sub.dummy_of.items():
            assert sub.edge_of[dummy] == edge
            u, v = edge
            assert sub.graph.has_edge(u, dummy)
            assert sub.graph.has_edge(dummy, v)
            assert not sub.graph.has_edge(u, v)

    def test_original_vertices_keep_ids(self):
        g = path_graph(4)
        sub = subdivide_graph(g)
        for v in range(4):
            assert sub.graph.has_vertex(v)


class TestOddDiameterConstruction:
    @pytest.fixture
    def odd_setup(self):
        g = hub_diameter_graph(140, 5, extra_edge_prob=0.04, rng=1)
        parts = path_partition(g, 6, 12, rng=2)
        return g, Partition(g, parts)

    def test_even_diameter_rejected(self, odd_setup):
        g, partition = odd_setup
        with pytest.raises(ValueError):
            build_odd_diameter_shortcut(g, partition, diameter_value=6)

    def test_result_is_valid_shortcut(self, odd_setup):
        g, partition = odd_setup
        result = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=3
        )
        assert verify_shortcut(result.shortcut).valid
        # every shortcut edge is an original graph edge (the projection back
        # from the subdivision keeps no dummy endpoints)
        for i in range(partition.num_parts):
            for u, v in result.shortcut.subgraph_edges(i):
                assert g.has_edge(u, v)

    def test_sampler_stream_digest(self, shortcut_digest, odd_setup):
        # Pinned across versions: sha256 over every part's H_i id list.
        g, partition = odd_setup
        result = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=3
        )
        assert shortcut_digest(result.shortcut) == (
            "21fa518572120473e5e1b0066048d14021925cb7bcf91e41f463f38876972e6e"
        )

    def test_half_edge_probability_is_sqrt(self, odd_setup):
        g, partition = odd_setup
        result = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=3
        )
        assert result.half_edge_probability == pytest.approx(
            result.parameters.probability ** 0.5
        )

    def test_statistically_matches_direct_construction(self, odd_setup):
        """The explicit two-half sampling and the direct Bernoulli(p) sampling
        produce shortcut sets of comparable size (same law, different RNG
        streams — compare coarse statistics over the large parts)."""
        g, partition = odd_setup
        explicit = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=11
        )
        direct = build_kogan_parter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=12
        )
        e_total = explicit.shortcut.total_shortcut_edges()
        d_total = direct.shortcut.total_shortcut_edges()
        assert 0.6 <= (e_total + 1) / (d_total + 1) <= 1.7

    def test_samples_radius_large_parts_like_direct_construction(self, shortcut_digest):
        """No part of ``odd_setup`` has radius above ``ceil(k_D)``, so the
        two-half sampling is exercised here, on long lower-bound paths: both
        builders sample the same parts and keep comparably many edges."""
        inst = lower_bound_instance(200, 5)
        partition = Partition(inst.graph, inst.parts)
        explicit = build_odd_diameter_shortcut(
            inst.graph, partition, diameter_value=5, log_factor=0.05, rng=11
        )
        direct = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=5, log_factor=0.05, rng=12
        )
        assert explicit.large_part_indices == direct.large_part_indices
        assert explicit.large_part_indices == list(range(partition.num_parts))
        e_total = explicit.shortcut.total_shortcut_edges()
        d_total = direct.shortcut.total_shortcut_edges()
        assert 0.6 <= (e_total + 1) / (d_total + 1) <= 1.7
        assert shortcut_digest(explicit.shortcut) == (
            "64724a81a6ae805af0c1e4e9c23e93f171b35b07a5262b998db3ccc7a79b1865"
        )

    def test_step_one_edges_always_present(self, odd_setup):
        g, partition = odd_setup
        result = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, probability=0.0, rng=5
        )
        for i in range(partition.num_parts):
            hi = result.shortcut.subgraph_edges(i)
            for u in partition.part(i):
                for v in g.neighbors(u):
                    key = (u, v) if u < v else (v, u)
                    assert key in hi

    def test_dilation_improves_over_empty(self, odd_setup):
        g, partition = odd_setup
        from repro.shortcuts import build_empty_shortcut

        empty_dil = build_empty_shortcut(g, partition).dilation()
        result = build_odd_diameter_shortcut(
            g, partition, diameter_value=5, log_factor=0.3, rng=6
        )
        assert result.shortcut.dilation() <= empty_dil
