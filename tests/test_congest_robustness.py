"""Robustness and consistency tests for the CONGEST simulator.

These tests pin down behaviours the measurements rely on: bandwidth only
changes *when* messages arrive (never the final outputs), congestion shows
up as backlog and extra rounds, strict mode catches overloads, and the
simulated part-wise aggregation agrees with the sequential per-part fold
under varying bandwidth.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    BandwidthExceededError,
    Network,
    draw_random_delays,
)
from repro.congest.primitives import DistributedBFS, extract_bfs_tree
from repro.congest.primitives.aggregation import aggregate_over_shortcut
from repro.graphs import bfs_distances, erdos_renyi_graph, grid_graph, path_graph
from repro.shortcuts import Partition, build_kogan_parter_shortcut

from partwise_oracle import partwise_fold
from random_delay_scheduler import RandomDelayScheduler


class TestBandwidthEffects:
    def test_higher_bandwidth_same_bfs_result(self):
        g = grid_graph(6, 6)
        results = []
        for bandwidth in (1, 4):
            net = Network(g, bandwidth=bandwidth)
            net.run(DistributedBFS({0}))
            _, dist = extract_bfs_tree(net)
            results.append(dist)
        assert results[0] == results[1] == bfs_distances(g, 0)

    def test_higher_bandwidth_fewer_rounds_under_congestion(self):
        g = path_graph(10)
        num = 6
        def make_algos():
            return [
                DistributedBFS({0}, prefix=f"p{i}_", algorithm_id=i) for i in range(num)
            ]
        slow = Network(g, bandwidth=1).run(RandomDelayScheduler(make_algos(), [0] * num))
        fast = Network(g, bandwidth=num).run(RandomDelayScheduler(make_algos(), [0] * num))
        assert fast.rounds <= slow.rounds
        assert slow.max_link_backlog >= fast.max_link_backlog

    def test_strict_bandwidth_raises_on_overload(self):
        g = path_graph(6)
        num = 4
        algos = [DistributedBFS({0}, prefix=f"s{i}_", algorithm_id=i) for i in range(num)]
        net = Network(g, strict_bandwidth=True)
        with pytest.raises(BandwidthExceededError):
            net.run(RandomDelayScheduler(algos, [0] * num))

    def test_strict_bandwidth_fine_for_single_algorithm(self):
        g = grid_graph(5, 5)
        net = Network(g, strict_bandwidth=True)
        metrics = net.run(DistributedBFS({0}))
        assert metrics.terminated

    def test_message_conservation(self):
        g = grid_graph(5, 5)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}))
        assert metrics.messages_delivered == metrics.messages_sent
        assert sum(metrics.per_edge_messages.values()) == metrics.messages_delivered


class TestSimulatedAggregationConsistency:
    @pytest.mark.parametrize("bandwidth", [1, 2])
    def test_simulated_matches_oracle_under_bandwidth(self, bandwidth, lb_instance):
        partition = Partition(lb_instance.graph, lb_instance.parts)
        shortcut = build_kogan_parter_shortcut(
            lb_instance.graph, partition, diameter_value=6, log_factor=0.3, rng=2
        ).shortcut
        values = {v: float((v * 7) % 23) for v in lb_instance.graph.vertices()}
        # The bulk kernels only model unit bandwidth, so bandwidth 2 runs
        # the per-node engine.
        simulated = aggregate_over_shortcut(
            shortcut, values, "min",
            network=Network(lb_instance.graph, bandwidth=bandwidth), rng=4,
        )
        assert simulated.values == partwise_fold(partition, values, "min")
        assert simulated.rounds > 0


class TestSchedulerProperties:
    @given(st.integers(0, 6), st.integers(2, 5))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_delays_preserve_bfs_correctness(self, max_delay, num_sources):
        g = erdos_renyi_graph(25, 0.2, rng=7)
        sources = list(range(num_sources))
        algos = [
            DistributedBFS({s}, prefix=f"h{i}_", algorithm_id=i)
            for i, s in enumerate(sources)
        ]
        delays = draw_random_delays(len(algos), max_delay, rng=max_delay + num_sources)
        net = Network(g)
        metrics = net.run(RandomDelayScheduler(algos, delays))
        assert metrics.terminated
        for i, s in enumerate(sources):
            dist = {
                v: ctx.state[f"h{i}_dist"]
                for v, ctx in net.nodes.items()
                if f"h{i}_dist" in ctx.state
            }
            assert dist == bfs_distances(g, s)
