"""Unit tests for the part-wise aggregation primitive."""

from __future__ import annotations

import pytest

from repro.congest.primitives.aggregation import aggregate_over_shortcut
from repro.graphs import cluster_star_graph, grid_graph, grid_strip_partition
from repro.shortcuts import Partition, Shortcut, build_kogan_parter_shortcut

from partwise_oracle import partwise_fold


@pytest.fixture
def cluster_setup():
    g = cluster_star_graph(5, 4, rng=1)
    parts = [set(range(1 + c * 4, 1 + (c + 1) * 4)) for c in range(5)]
    partition = Partition(g, parts)
    shortcut = Shortcut(partition, [[] for _ in parts])
    return g, partition, shortcut


class TestAggregateValues:
    def test_min_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        result = aggregate_over_shortcut(shortcut, values, "min", rng=1)
        for idx in range(partition.num_parts):
            assert result.values[idx] == float(min(partition.part(idx)))

    def test_max_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        result = aggregate_over_shortcut(shortcut, values, "max", rng=1)
        for idx in range(partition.num_parts):
            assert result.values[idx] == float(max(partition.part(idx)))

    def test_sum_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: 1 for v in g.vertices()}
        result = aggregate_over_shortcut(shortcut, values, "sum", rng=1)
        for idx in range(partition.num_parts):
            assert result.values[idx] == len(partition.part(idx))

    def test_missing_values_skipped(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {min(partition.part(0)): 5.0}
        result = aggregate_over_shortcut(shortcut, values, "min", rng=1)
        assert result.values == {0: 5.0}

    def test_unsupported_op(self, cluster_setup):
        _, _, shortcut = cluster_setup
        with pytest.raises(ValueError):
            aggregate_over_shortcut(shortcut, {}, "median", rng=1)


class TestSimulatedAggregation:
    """The simulated aggregation over ``G[S_i] ∪ H_i`` agrees with the
    sequential per-part fold part for part."""

    def test_simulated_matches_oracle_on_clusters(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        simulated = aggregate_over_shortcut(shortcut, values, "min", rng=3)
        assert simulated.values == partwise_fold(partition, values, "min")
        assert simulated.rounds > 0
        assert simulated.rounds == simulated.bfs_rounds + simulated.aggregation_rounds

    def test_simulated_with_kp_shortcut(self):
        g = grid_graph(6, 6)
        partition = Partition(g, grid_strip_partition(6, 6, strip_height=2))
        kp = build_kogan_parter_shortcut(g, partition, diameter_value=10, log_factor=0.3, rng=1)
        values = {v: float(v % 7) for v in g.vertices()}
        simulated = aggregate_over_shortcut(kp.shortcut, values, "min", rng=5)
        assert simulated.values == partwise_fold(partition, values, "min")
        assert sorted(simulated.simulated_parts) == list(range(partition.num_parts))

    def test_simulated_sum(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: 2 for v in g.vertices()}
        simulated = aggregate_over_shortcut(shortcut, values, "sum", rng=7)
        for idx in range(partition.num_parts):
            assert simulated.values[idx] == 2 * len(partition.part(idx))
