"""Unit tests for the distributed (CONGEST) shortcut construction."""

from __future__ import annotations

import math
import random

import pytest

from repro.congest import Network
from repro.congest.primitives.aggregation import PartAggregation
from repro.graphs import (
    GENERATOR_FAMILIES,
    hub_diameter_graph,
    lower_bound_instance,
    path_partition,
    random_connected_partition,
)
from repro.graphs.traversal import bfs_distances
from repro.params import k_d_value
from repro.shortcuts import (
    Partition,
    build_distributed_kogan_parter,
    detect_large_parts,
    verify_shortcut,
)


@pytest.fixture
def small_lb():
    inst = lower_bound_instance(80, 6)
    return inst, Partition(inst.graph, inst.parts)


class TestDetectLargeParts:
    def test_long_paths_detected(self, small_lb):
        inst, partition = small_lb
        network = Network(inst.graph)
        network.reset()
        depth = max(1, math.ceil(k_d_value(inst.graph.num_vertices, 6)))
        large, rounds = detect_large_parts(network, partition, depth)
        # every path part is much longer than k_D, so radius from the leader
        # (an endpoint or interior vertex) exceeds the detection depth
        for i in large:
            assert len(partition.part(i)) > depth
        assert rounds > depth

    def test_small_parts_not_detected(self):
        g = hub_diameter_graph(100, 6, rng=1)
        # tiny parts near the hubs
        parts = [{7, 8} if g.has_edge(7, 8) else {7}]
        parts = [p for p in parts if len(p) > 0]
        partition = Partition(g, [{i} for i in range(10, 16)])
        network = Network(g)
        network.reset()
        large, _ = detect_large_parts(network, partition, depth=3)
        assert large == []


class TestDistributedConstruction:
    def test_spanning_and_valid(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=1
        )
        assert result.spanning_ok
        assert verify_shortcut(result.shortcut).valid

    def test_rounds_breakdown_structure(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=2
        )
        breakdown = result.rounds_breakdown
        expected_keys = {
            "detect_large_parts",
            "number_large_parts",
            "local_sampling",
            "concurrent_bfs",
            "verification",
        }
        assert set(breakdown) == expected_keys
        assert result.total_rounds == sum(breakdown.values())
        assert breakdown["local_sampling"] == 0
        assert breakdown["concurrent_bfs"] > 0  # the paths are large parts

    def test_rounds_within_polylog_of_k_d(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=3
        )
        n = inst.graph.num_vertices
        bound = 20 * k_d_value(n, 6) * (math.log(n) ** 2)
        assert result.total_rounds <= bound

    def test_measures_diameter_when_omitted(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph, partition, log_factor=0.3, rng=4
        )
        assert result.accepted_guess == 6

    def test_unknown_diameter_guessing(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph,
            partition,
            known_diameter=False,
            log_factor=0.3,
            rng=5,
        )
        assert result.spanning_ok
        # The first guess is the measured BFS 2-approximation: at least
        # D/2, at most D (for this instance ecc(0) = D = 6).
        assert 3 <= result.attempted_guesses[0] <= 6
        assert result.probe_rounds > 0
        # Geometric doubling: O(log D) guesses, never the linear crawl.
        assert len(result.attempted_guesses) <= 2
        assert result.accepted_guess <= 2 * 6
        # The accepted guess's shortcut must still span every part.
        assert verify_shortcut(result.shortcut).valid

    def test_bfs_metrics_recorded(self, small_lb):
        inst, partition = small_lb
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=6
        )
        assert result.bfs_metrics is not None
        assert result.bfs_metrics.rounds == result.rounds_breakdown["concurrent_bfs"]
        assert result.bfs_metrics.messages_delivered > 0

    def test_same_distribution_as_centralized(self, small_lb):
        """The distributed construction samples from the same law as the
        centralized one; with equal seeds and parameters the number of
        shortcut edges should be comparable (they use different RNG streams,
        so only compare coarse statistics)."""
        inst, partition = small_lb
        from repro.shortcuts import build_kogan_parter_shortcut

        central = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=7
        )
        distributed = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=8
        )
        c_edges = central.shortcut.total_shortcut_edges()
        d_edges = distributed.shortcut.total_shortcut_edges()
        assert 0.5 <= (d_edges + 1) / (c_edges + 1) <= 2.0

    def test_disconnected_graph_rejected(self):
        from repro.graphs import Graph

        g = Graph(6, [(0, 1), (2, 3)])
        partition = Partition(g, [{0, 1}])
        with pytest.raises(ValueError):
            build_distributed_kogan_parter(g, partition, rng=1)

    def test_hub_graph_with_path_parts(self):
        g = hub_diameter_graph(90, 6, extra_edge_prob=0.05, rng=9)
        parts = path_partition(g, 4, 12, rng=2)
        partition = Partition(g, parts)
        result = build_distributed_kogan_parter(
            g, partition, diameter_value=6, log_factor=0.3, rng=10
        )
        assert result.spanning_ok
        assert verify_shortcut(result.shortcut).valid


def _spanning_oracle(graph, partition, result, depth_budget_factor) -> bool:
    """Sequential stage-1/5 oracle: every part whose radius in ``G[S_i]``
    exceeds the detection depth reaches all its members within the depth
    budget in ``G[S_i] ∪ H_i``."""
    n = graph.num_vertices
    k_d = result.parameters.k_d
    depth = max(1, math.ceil(k_d))
    budget = max(depth, math.ceil(depth_budget_factor * k_d * math.log(max(n, 2))))
    for i in range(partition.num_parts):
        part = set(partition.part(i))
        leader = partition.leader(i)
        if max(bfs_distances(graph, leader, allowed=part).values()) <= depth:
            continue
        reached = bfs_distances(result.shortcut.augmented_subgraph(i), leader,
                                max_depth=budget)
        if not part <= reached.keys():
            return False
    return True


class TestSpanningVerdict:
    """The accept / reject bit of stage 5, including rejected guesses."""

    @pytest.fixture(scope="class")
    def forced(self):
        inst = lower_bound_instance(393, 4)
        return inst, Partition(inst.graph, inst.parts)

    @pytest.mark.parametrize("rng", [1, 2, 3])
    @pytest.mark.parametrize("known, attempted", [(True, [4]), (False, [4, 8])])
    def test_forced_rejection(self, forced, rng, known, attempted):
        # A near-zero sampling probability and depth budget leave the long
        # paths unspanned, so every guess is rejected.
        inst, partition = forced
        result = build_distributed_kogan_parter(
            inst.graph, partition, known_diameter=known,
            diameter_value=4 if known else None,
            probability=1e-3, depth_budget_factor=0.01, rng=rng,
        )
        assert result.attempted_guesses == attempted
        assert result.accepted_guess == attempted[-1]
        assert not result.spanning_ok
        assert not _spanning_oracle(inst.graph, partition, result, 0.01)

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    @pytest.mark.parametrize("depth_budget_factor", [4.0, 0.3])
    def test_matches_sequential_oracle(self, family, depth_budget_factor):
        # The guess D = 2 gives k_D = 1, so every part of radius > 1 is
        # large and the small factor leaves a depth budget of 2.
        g = GENERATOR_FAMILIES[family](120, random.Random(3))
        partition = Partition(g, random_connected_partition(g, 4, rng=4))
        result = build_distributed_kogan_parter(
            g, partition, diameter_value=2, log_factor=0.2,
            depth_budget_factor=depth_budget_factor, rng=5,
        )
        assert result.rounds_breakdown["concurrent_bfs"] > 0
        assert result.spanning_ok == _spanning_oracle(
            g, partition, result, depth_budget_factor
        )


class TestCheckRunsBulk:
    """Both spanning checks (stage 1's per-part radius convergecast and
    stage 5's global-tree convergecast) run on the aggregation kernel and
    match the per-node path."""

    @staticmethod
    def _build(family, factor, enabled, monkeypatch):
        monkeypatch.setattr(PartAggregation, "bulk_capable", enabled)
        runs = []
        original = Network.run

        def recording_run(self, algorithm, *args, **kwargs):
            metrics = original(self, algorithm, *args, **kwargs)
            if isinstance(algorithm, PartAggregation):
                runs.append((algorithm, metrics))
            return metrics

        monkeypatch.setattr(Network, "run", recording_run)
        g = GENERATOR_FAMILIES[family](120, random.Random(3))
        partition = Partition(g, random_connected_partition(g, 4, rng=4))
        result = build_distributed_kogan_parter(
            g, partition, diameter_value=2, log_factor=0.2,
            depth_budget_factor=factor, rng=5,
        )
        return result, runs

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_bulk_matches_per_node(self, family, monkeypatch):
        for factor in (4.0, 0.3):
            outcomes = []
            for enabled in (True, False):
                result, runs = self._build(family, factor, enabled, monkeypatch)
                (detect, m_detect), (verify, m_verify) = runs
                if enabled:
                    assert m_detect.bulk_declined is None
                    assert m_verify.bulk_declined is None
                large = [i for i, flag in enumerate(detect.results) if flag == 1]
                assert large  # stage 5 ran
                outcomes.append((
                    large, result.spanning_ok, result.rounds_breakdown,
                    [(m.rounds, m.messages_sent, m.messages_delivered,
                      dict(m.per_edge_messages)) for m in (m_detect, m_verify)],
                ))
            assert outcomes[0] == outcomes[1]
