"""Robustness and consistency tests for the CONGEST simulator.

These tests pin down behaviours the measurements rely on: congestion shows
up as link backlog (a single algorithm never holds more than one message
on a link), messages are conserved, and the simulated part-wise
aggregation agrees with the sequential per-part fold.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import Network, draw_random_delays
from repro.congest.primitives import DistributedBFS, extract_bfs_tree
from repro.congest.primitives.aggregation import aggregate_over_shortcut
from repro.graphs import bfs_distances, erdos_renyi_graph, grid_graph, path_graph
from repro.shortcuts import Partition, build_kogan_parter_shortcut

from partwise_oracle import partwise_fold
from random_delay_scheduler import RandomDelayScheduler


class TestBandwidthEffects:
    def test_concurrent_algorithms_overload_links(self):
        g = path_graph(6)
        num = 4
        algos = [DistributedBFS({0}, prefix=f"s{i}_", algorithm_id=i) for i in range(num)]
        metrics = Network(g).run(RandomDelayScheduler(algos, [0] * num))
        assert metrics.max_link_backlog == num

    def test_backlog_leaves_every_bfs_result_unchanged(self):
        # Queueing only changes when messages arrive: each of the
        # concurrent BFS waves still labels the grid with exact distances.
        g = grid_graph(6, 6)
        num = 4
        sources = [0, 5, 30, 35]
        algos = [
            DistributedBFS({s}, prefix=f"c{i}_", algorithm_id=i)
            for i, s in enumerate(sources)
        ]
        net = Network(g)
        metrics = net.run(RandomDelayScheduler(algos, [0] * num))
        assert metrics.max_link_backlog > 1
        for i, s in enumerate(sources):
            _, dist = extract_bfs_tree(net, prefix=f"c{i}_")
            assert dist == bfs_distances(g, s)

    def test_single_algorithm_never_overloads(self):
        g = grid_graph(5, 5)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}))
        assert metrics.terminated
        assert metrics.max_link_backlog == 1
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_message_conservation(self):
        g = grid_graph(5, 5)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}))
        assert metrics.messages_delivered == metrics.messages_sent
        assert sum(metrics.per_edge_messages.values()) == metrics.messages_delivered


class TestSimulatedAggregationConsistency:
    @pytest.mark.parametrize("op", ["min", "max", "sum"])
    def test_simulated_matches_oracle(self, op, lb_instance):
        partition = Partition(lb_instance.graph, lb_instance.parts)
        shortcut = build_kogan_parter_shortcut(
            lb_instance.graph, partition, diameter_value=6, log_factor=0.3, rng=2
        ).shortcut
        values = {v: float((v * 7) % 23) for v in lb_instance.graph.vertices()}
        simulated = aggregate_over_shortcut(
            shortcut, values, op, network=Network(lb_instance.graph), rng=4,
        )
        assert simulated.values == partwise_fold(partition, values, op)
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
