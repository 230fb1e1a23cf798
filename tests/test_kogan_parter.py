"""Unit tests for the centralized Kogan-Parter construction."""

from __future__ import annotations

import math
import random

import pytest

from repro.graphs import (
    bfs_distances,
    cluster_star_graph,
    complete_graph,
    hub_diameter_graph,
    lower_bound_instance,
    path_partition,
)
from repro.params import k_d_value, num_large_parts
from repro.shortcuts import (
    Partition,
    build_kogan_parter_shortcut,
    resolve_parameters,
    verify_shortcut,
)


@pytest.fixture
def lb_setup():
    inst = lower_bound_instance(200, 6)
    partition = Partition(inst.graph, inst.parts)
    return inst, partition


class TestResolveParameters:
    def test_measures_diameter_when_missing(self):
        g = hub_diameter_graph(80, 5, rng=1)
        params = resolve_parameters(g)
        assert params.diameter == 5

    def test_uses_given_diameter(self):
        g = hub_diameter_graph(80, 5, rng=1)
        params = resolve_parameters(g, diameter_value=8)
        assert params.diameter == 8
        assert params.k_d == pytest.approx(k_d_value(80, 8))

    def test_default_repetitions_equal_diameter(self):
        g = hub_diameter_graph(60, 6, rng=2)
        params = resolve_parameters(g, diameter_value=6)
        assert params.repetitions == 6

    def test_probability_clamped_to_one(self):
        g = hub_diameter_graph(60, 6, rng=3)
        params = resolve_parameters(g, diameter_value=6, log_factor=100.0)
        assert params.probability == 1.0

    def test_probability_override(self):
        g = hub_diameter_graph(60, 6, rng=3)
        params = resolve_parameters(g, diameter_value=6, probability=0.125)
        assert params.probability == 0.125

    def test_invalid_probability(self):
        g = hub_diameter_graph(60, 6, rng=3)
        with pytest.raises(ValueError):
            resolve_parameters(g, diameter_value=6, probability=1.5)

    def test_invalid_repetitions(self):
        g = hub_diameter_graph(60, 6, rng=3)
        with pytest.raises(ValueError):
            resolve_parameters(g, diameter_value=6, repetitions=0)

    def test_clique_treated_as_diameter_two(self):
        g = complete_graph(20)
        params = resolve_parameters(g)
        assert params.diameter == 2
        assert params.k_d == 1.0

    def test_num_large_parts_bound(self):
        g = hub_diameter_graph(200, 6, rng=4)
        params = resolve_parameters(g, diameter_value=6)
        assert params.num_large_parts_bound == num_large_parts(200, 6)


class TestConstructionStructure:
    def test_step_one_edges_present(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, probability=0.0, rng=1
        )
        # With probability 0 only Step 1 contributes: every edge incident to
        # a part must be in that part's subgraph.
        for i in range(partition.num_parts):
            hi = result.shortcut.subgraph_edges(i)
            for u in partition.part(i):
                for v in inst.graph.neighbors(u):
                    key = (u, v) if u < v else (v, u)
                    assert key in hi

    def test_zero_probability_no_extra_edges(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, probability=0.0, rng=1
        )
        for i in range(partition.num_parts):
            part = partition.part(i)
            for u, v in result.shortcut.subgraph_edges(i):
                assert u in part or v in part

    def test_probability_one_gives_whole_graph_to_large_parts(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, probability=1.0, rng=1
        )
        all_edges = set(inst.graph.edges())
        for i in result.large_part_indices:
            assert result.shortcut.subgraph_edges(i) == all_edges

    def test_small_parts_get_only_incident_edges(self):
        g = cluster_star_graph(6, 3, rng=1)  # clusters of 3 vertices
        parts = [set(range(1 + c * 3, 1 + (c + 1) * 3)) for c in range(6)]
        partition = Partition(g, parts)
        result = build_kogan_parter_shortcut(g, partition, diameter_value=4, rng=2)
        # k_D(19, 4) ~ 2.7, so every cluster has more than k_D vertices, but
        # none has leader-rooted radius above ceil(k_D) = 3: none is sampled.
        depth = result.parameters.detection_depth
        assert depth == 3
        for i in range(partition.num_parts):
            assert len(parts[i]) > result.parameters.k_d
            assert max(bfs_distances(g, partition.leader(i), allowed=parts[i]).values()) <= depth
        assert result.large_part_indices == []
        for i in range(partition.num_parts):
            for u, v in result.shortcut.subgraph_edges(i):
                assert u in parts[i] or v in parts[i]

    def test_large_part_classification(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(inst.graph, partition, diameter_value=6, rng=1)
        depth = result.parameters.detection_depth
        radius = [
            max(bfs_distances(inst.graph, partition.leader(i),
                              allowed=set(partition.part(i))).values())
            for i in range(partition.num_parts)
        ]
        assert result.large_part_indices == [i for i, r in enumerate(radius) if r > depth]
        assert result.large_part_indices
        for i in result.large_part_indices:
            assert len(partition.part(i)) > result.parameters.k_d

    def test_result_shortcut_is_valid(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=5
        )
        verification = verify_shortcut(result.shortcut)
        assert verification.valid

    def test_determinism_same_seed(self, lb_setup):
        inst, partition = lb_setup
        r1 = build_kogan_parter_shortcut(inst.graph, partition, diameter_value=6, rng=9,
                                         log_factor=0.3)
        r2 = build_kogan_parter_shortcut(inst.graph, partition, diameter_value=6, rng=9,
                                         log_factor=0.3)
        for i in range(partition.num_parts):
            assert r1.shortcut.subgraph_edges(i) == r2.shortcut.subgraph_edges(i)

    def test_different_seeds_differ(self, lb_setup):
        # log_factor low enough that the sampling stays clearly below
        # saturation (at 0.3 the union over D repetitions and both edge
        # directions covers every edge w.h.p., making the sets equal for
        # almost every seed pair).
        inst, partition = lb_setup
        r1 = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, rng=1, log_factor=0.1
        )
        r2 = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, rng=2, log_factor=0.1
        )
        different = any(
            r1.shortcut.subgraph_edges(i) != r2.shortcut.subgraph_edges(i)
            for i in range(partition.num_parts)
        )
        assert different


class TestTrackRepetitions:
    def test_repetition_edges_recorded(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=3,
            track_repetitions=True,
        )
        assert result.repetition_edges is not None
        assert set(result.repetition_edges) == set(result.large_part_indices)
        for part_idx, reps in result.repetition_edges.items():
            assert len(reps) == result.parameters.repetitions
            hi = result.shortcut.subgraph_edges(part_idx)
            for rep in reps:
                for u, v in rep:
                    key = (u, v) if u < v else (v, u)
                    assert key in hi

    def test_not_tracked_by_default(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=3
        )
        assert result.repetition_edges is None


class TestQualityBounds:
    def test_congestion_within_predicted_bound(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=7
        )
        n = inst.graph.num_vertices
        params = result.parameters
        # Expected per-edge load: 2 * D * N_large * p (+2 for step 1); allow
        # a generous constant factor for the high-probability deviation.
        expected = 2 * params.repetitions * len(result.large_part_indices) * params.probability
        measured = result.shortcut.congestion()
        assert measured <= 4 * expected + 10

    def test_dilation_small_on_lower_bound_instance(self, lb_setup):
        inst, partition = lb_setup
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=7
        )
        n = inst.graph.num_vertices
        bound = 4 * k_d_value(n, 6) * math.log(n)
        assert result.shortcut.dilation(exact=False) <= bound

    def test_dilation_never_worse_than_induced(self):
        # Shortcut edges can only shorten distances inside a part.
        g = hub_diameter_graph(100, 6, extra_edge_prob=0.05, rng=11)
        parts = path_partition(g, 6, 10, rng=3)
        partition = Partition(g, parts)
        from repro.shortcuts import build_empty_shortcut

        empty_dil = build_empty_shortcut(g, partition).dilation()
        kp = build_kogan_parter_shortcut(g, partition, diameter_value=6, log_factor=0.3, rng=5)
        assert kp.shortcut.dilation() <= empty_dil


class TestOddDiameterEquivalence:
    def test_odd_diameter_accepted_directly(self):
        g = hub_diameter_graph(90, 5, rng=13)
        parts = path_partition(g, 5, 8, rng=1)
        partition = Partition(g, parts)
        result = build_kogan_parter_shortcut(g, partition, diameter_value=5, log_factor=0.3, rng=2)
        assert result.parameters.diameter == 5
        assert verify_shortcut(result.shortcut).valid

    def test_subdivision_sampling_equivalence(self):
        """Sampling both halves of a subdivided edge with sqrt(p) each is the
        same Bernoulli(p) law as sampling the original edge once — check the
        acceptance frequency statistically."""
        rng = random.Random(42)
        p = 0.3
        sqrt_p = math.sqrt(p)
        trials = 20_000
        direct = sum(1 for _ in range(trials) if rng.random() < p)
        both_halves = sum(
            1 for _ in range(trials) if rng.random() < sqrt_p and rng.random() < sqrt_p
        )
        assert abs(direct - both_halves) / trials < 0.02


class TestSamplerStream:
    """The sampled edge sets are pinned across versions: a layout or loop
    change that reorders or skips an rng draw changes these digests."""

    @pytest.mark.parametrize("log_factor, expected", [
        (1.0, "f98a9e149eb87ca2840e268082d2dfd43d3b44f5c255e0e83ce16303f01d095b"),
        (0.05, "7bc6923e5dcec8e3827a0901ecd8a7752939a5ec765eeaa9b5bfda151cf5217b"),
    ])
    def test_lower_bound_1k_digest(self, shortcut_digest, log_factor, expected):
        inst = lower_bound_instance(1000, 6)
        partition = Partition(inst.graph, inst.parts)
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=log_factor, rng=7
        )
        assert shortcut_digest(result.shortcut) == expected
