"""Unit tests for the distributed primitives: BFS, flooding, aggregation,
diameter estimation and the random-delay scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import Network, draw_random_delays
from repro.congest.primitives import (
    DistributedBFS,
    FloodMax,
    PartAggregation,
    estimate_diameter,
    extract_bfs_tree,
    read_leaders,
)
from repro.congest.primitives import diameter as diameter_module
from repro.congest.primitives.concurrent_bfs import UNREACHED
from repro.graphs import (
    Graph,
    bfs_distances,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hub_diameter_graph,
    path_graph,
    star_graph,
)
from repro.graphs.csr import CSRLinkMask

from random_delay_scheduler import RandomDelayScheduler


class TestDistributedBFS:
    def test_matches_centralized_bfs(self):
        g = grid_graph(5, 6)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}))
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)
        assert metrics.terminated

    def test_round_count_close_to_eccentricity(self):
        g = path_graph(20)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}))
        _, dist = extract_bfs_tree(net)
        ecc = max(dist.values())
        # one round per BFS level plus the final quiescence check
        assert ecc <= metrics.rounds <= ecc + 2

    def test_multi_source(self):
        g = path_graph(11)
        net = Network(g)
        net.run(DistributedBFS({0, 10}))
        _, dist = extract_bfs_tree(net)
        assert dist[5] == 5
        assert dist[2] == 2
        assert dist[8] == 2

    def test_max_depth_truncation(self):
        g = path_graph(12)
        net = Network(g)
        net.run(DistributedBFS({0}, max_depth=4))
        _, dist = extract_bfs_tree(net)
        assert max(dist.values()) == 4
        assert len(dist) == 5

    def test_allowed_adjacency_restriction(self):
        g = cycle_graph(8)
        # Only the edges of the upper half are usable.
        allowed = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        net = Network(g)
        net.run(DistributedBFS({0}, allowed_adjacency=allowed))
        _, dist = extract_bfs_tree(net)
        assert set(dist) == {0, 1, 2, 3}
        assert dist[3] == 3  # cannot use the short way around the cycle

    def test_parent_pointers_form_tree(self):
        g = erdos_renyi_graph(40, 0.15, rng=2)
        net = Network(g)
        net.run(DistributedBFS({0}))
        parent, dist = extract_bfs_tree(net)
        for v, p in parent.items():
            if v != 0:
                assert dist[v] == dist[p] + 1

    def test_requires_source(self):
        with pytest.raises(ValueError):
            DistributedBFS(set())

    def test_root_state(self):
        g = star_graph(5)
        net = Network(g)
        net.run(DistributedBFS({0}, prefix="x_"))
        assert net.node(3).state["x_root"] == 0
        assert net.node(0).state["x_parent"] == 0


class TestFloodMax:
    def test_elects_global_max(self):
        g = erdos_renyi_graph(30, 0.2, rng=3)
        net = Network(g)
        net.run(FloodMax())
        leaders = read_leaders(net)
        # every vertex in the same component as 29 learns 29
        dist = bfs_distances(g, 29)
        for v in dist:
            assert leaders[v] == 29

    def test_rounds_bounded_by_diameter(self):
        g = hub_diameter_graph(80, 6, rng=4)
        net = Network(g)
        metrics = net.run(FloodMax())
        assert metrics.rounds <= 6 + 2

    def test_restricted_to_parts(self):
        g = path_graph(10)
        allowed = {0: {1}, 1: {0}, 5: {6}, 6: {5}}
        net = Network(g)
        net.run(FloodMax(allowed_adjacency=allowed))
        leaders = read_leaders(net)
        assert leaders[0] == 1 and leaders[1] == 1
        assert leaders[5] == 6 and leaders[6] == 6
        assert 3 not in leaders  # non-participants produce no output


def convergecast(g: Graph, root: int, values: dict, op: str, *,
                 max_depth=None, broadcast_result=False) -> PartAggregation:
    """A one-instance ``PartAggregation`` over the BFS tree from ``root``:
    its mask permits every link, and nodes the BFS never reached relay
    announcements but contribute nothing."""
    net = Network(g)
    net.run(DistributedBFS({root}, max_depth=max_depth))
    parent, _ = extract_bfs_tree(net)
    csr = g.csr()
    agg = PartAggregation(
        [CSRLinkMask(csr, np.ones(csr.num_edges, dtype=bool))],
        [[parent.get(v, UNREACHED) for v in range(g.num_vertices)]],
        [values], op, broadcast_result=broadcast_result,
    )
    assert net.run(agg, reset=False).terminated
    return agg


class TestConvergecast:
    def test_count_nodes(self):
        g = grid_graph(4, 5)
        agg = convergecast(g, 0, dict.fromkeys(range(20), 1), "count")
        assert agg.results == [20]
        assert agg.delivered[0] == {0: 20}  # no broadcast: the root only

    def test_sum_values(self):
        agg = convergecast(star_graph(6), 0, {v: v for v in range(6)}, "sum")
        assert agg.results == [sum(range(6))]

    def test_min_and_broadcast(self):
        agg = convergecast(cycle_graph(9), 0, {v: 100 - v for v in range(9)},
                           "min", broadcast_result=True)
        # every node received the broadcast
        assert agg.delivered[0] == dict.fromkeys(range(9), 100 - 8)

    def test_max_aggregation(self):
        agg = convergecast(path_graph(7), 3, {v: v * v for v in range(7)}, "max")
        assert agg.results == [36]

    def test_unsupported_op(self):
        with pytest.raises(ValueError, match="unsupported aggregation op"):
            PartAggregation([], [], [], "median")

    def test_non_participants_ignored(self):
        # BFS truncated at depth 2: nodes 3..5 are unreached, so their
        # values never travel up.
        agg = convergecast(path_graph(6), 0, dict.fromkeys(range(6), 1),
                           "count", max_depth=2)
        assert agg.results == [3]


class TestDiameterEstimation:
    @pytest.mark.parametrize("target", [3, 4, 6])
    def test_bounds_contain_true_diameter(self, target):
        g = hub_diameter_graph(70, target, rng=5)
        lower, upper, _ = estimate_diameter(Network(g))
        assert lower <= target <= upper
        assert upper == 2 * lower

    def test_path_graph(self):
        lower, upper, _ = estimate_diameter(Network(path_graph(12)))
        assert lower <= 11 <= upper

    # (graph, true diameter, bounds, summed rounds, summed messages) of
    # the three chained stages: FloodMax, BFS from the leader, convergecast.
    PINS = [
        (lambda: hub_diameter_graph(70, 3, rng=5), 3, (3, 6), 15, 764),
        (lambda: hub_diameter_graph(70, 4, rng=5), 4, (3, 6), 15, 786),
        (lambda: hub_diameter_graph(70, 6, rng=5), 6, (4, 8), 19, 796),
        (lambda: path_graph(12), 11, (11, 22), 47, 209),
    ]

    @pytest.mark.parametrize("make_graph, true_diameter, bounds, rounds, messages", PINS)
    def test_pinned_bounds_and_costs(self, make_graph, true_diameter, bounds,
                                     rounds, messages, monkeypatch):
        made = []

        class Recorded(PartAggregation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(diameter_module, "PartAggregation", Recorded)
        net = Network(make_graph())
        lower, upper, runs = estimate_diameter(net)
        assert (lower, upper) == bounds
        assert lower <= true_diameter <= upper
        assert len(runs) == 3
        assert all(run.terminated and run.bulk_declined is None for run in runs)
        assert sum(run.rounds for run in runs) == rounds
        assert sum(run.messages_sent for run in runs) == messages
        assert sum(run.messages_delivered for run in runs) == messages
        (convergecast,) = made
        assert convergecast.delivered[0] == dict.fromkeys(range(len(net.nodes)), lower)

    def test_disconnected_graph_raises(self):
        g = Graph(6)
        for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            g.add_edge(u, v)
        with pytest.raises(ValueError, match="graph must be connected"):
            estimate_diameter(Network(g))


class TestRandomDelayScheduler:
    def test_draw_delays_range(self):
        delays = draw_random_delays(50, 7, rng=1)
        assert len(delays) == 50
        assert all(0 <= d <= 7 for d in delays)

    def test_draw_delays_validation(self):
        with pytest.raises(ValueError):
            draw_random_delays(-1, 5)
        with pytest.raises(ValueError):
            draw_random_delays(5, -1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RandomDelayScheduler([DistributedBFS({0})], [1, 2])

    def test_concurrent_bfs_all_correct(self):
        g = grid_graph(6, 6)
        sources = [0, 17, 35]
        algos = [
            DistributedBFS({s}, prefix=f"b{i}_", algorithm_id=i)
            for i, s in enumerate(sources)
        ]
        delays = draw_random_delays(len(algos), 3, rng=2)
        net = Network(g)
        metrics = net.run(RandomDelayScheduler(algos, delays))
        assert metrics.terminated
        for i, s in enumerate(sources):
            dist = {
                v: ctx.state[f"b{i}_dist"]
                for v, ctx in net.nodes.items()
                if f"b{i}_dist" in ctx.state
            }
            assert dist == bfs_distances(g, s)

    def test_delays_do_not_lose_algorithms(self):
        g = path_graph(6)
        algos = [
            DistributedBFS({0}, prefix="a_", algorithm_id=0),
            DistributedBFS({5}, prefix="b_", algorithm_id=1),
        ]
        net = Network(g)
        net.run(RandomDelayScheduler(algos, [0, 4]))
        assert net.node(5).state["a_dist"] == 5
        assert net.node(0).state["b_dist"] == 5

    def test_congestion_stretches_rounds(self):
        # Many BFS instances sharing one path: with bandwidth 1 the rounds
        # must exceed the single-BFS rounds because messages queue.
        g = path_graph(12)
        num = 8
        algos = [
            DistributedBFS({0}, prefix=f"c{i}_", algorithm_id=i) for i in range(num)
        ]
        net = Network(g)
        many = net.run(RandomDelayScheduler(algos, [0] * num))
        net_single = Network(g)
        single = net_single.run(DistributedBFS({0}))
        assert many.rounds > single.rounds
        assert many.terminated
