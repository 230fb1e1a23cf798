"""Equivalence suite: CSR-backed hot paths vs the legacy set/dict semantics.

The CSR refactor promises bit-identical measured quantities.  This module
pins that promise down by re-implementing the seed repository's set/dict
algorithms (BFS, components, per-edge congestion counting) as reference
oracles, and by running the CONGEST engine against the reference engine of
``reference_engine.py``, comparing them with the production implementations
on randomized graphs across many seeds.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.congest.network import Network
from repro.congest.primitives.bfs import DistributedBFS
from repro.graphs.csr import CSRGraph, UNREACHED, bfs_levels, component_labels
from repro.graphs.components import connected_components, components_from_edges
from repro.graphs.generators import random_connected_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.graphs.lower_bound import lower_bound_instance
from repro.graphs.traversal import bfs_distances, bfs_tree, distances_to_set
from repro.shortcuts.kogan_parter import build_kogan_parter_shortcut
from repro.shortcuts.partition import Partition

from reference_engine import PreRefactorNetwork

SEEDS = list(range(20))


def _random_graph(seed: int) -> Graph:
    if seed % 2:
        return random_connected_graph(40 + seed, extra_edge_prob=0.08, rng=seed)
    g = erdos_renyi_graph(30 + seed, 0.12, rng=seed)
    return g


# ----------------------------------------------------------------------
# legacy reference implementations (seed semantics)
# ----------------------------------------------------------------------
def legacy_bfs_distances(graph, source, max_depth=None):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def legacy_components(graph):
    verts = set(graph.vertices())
    seen: set[int] = set()
    components = []
    for start in sorted(verts):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v in verts and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def legacy_edge_loads(shortcut):
    load: dict[tuple[int, int], int] = {}
    for i in range(shortcut.num_parts):
        part = shortcut.partition.part(i)
        edges = set()
        for u in part:
            for v in shortcut.graph.neighbors(u):
                if u < v and v in part:
                    edges.add((u, v))
        edges |= shortcut.subgraph_edges(i)
        for e in edges:
            load[e] = load.get(e, 0) + 1
    return load


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------
class TestCSRStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_snapshot_matches_graph(self, seed):
        g = _random_graph(seed)
        csr = g.csr()
        assert csr.num_vertices == g.num_vertices
        assert csr.num_edges == g.num_edges
        assert csr.edge_list == sorted(g.edges())
        for v in g.vertices():
            assert sorted(g.neighbors(v)) == list(csr.neighbors(v))
            assert csr.degree(v) == g.degree(v)
        for eid, (u, v) in enumerate(csr.edge_list):
            assert csr.edge_id(u, v) == eid
            assert csr.edge_id(v, u) == eid

    def test_cache_invalidation_on_mutation(self):
        g = random_connected_graph(20, rng=0)
        first = g.csr()
        assert g.csr() is first
        u, v = first.edge_list[0]
        g.remove_edge(u, v)
        second = g.csr()
        assert second is not first
        assert second.num_edges == first.num_edges - 1
        g.add_edge(u, v)
        assert g.csr().edge_list == first.edge_list

    def test_neighbors_sorted_ascending(self):
        g = _random_graph(3)
        csr = g.csr()
        for v in g.vertices():
            row = list(csr.neighbors(v))
            assert row == sorted(row)


# ----------------------------------------------------------------------
# traversal equivalence
# ----------------------------------------------------------------------
class TestTraversalEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_distances_match(self, seed):
        g = _random_graph(seed)
        assert bfs_distances(g, 0) == legacy_bfs_distances(g, 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_truncated_bfs_matches(self, seed):
        g = _random_graph(seed)
        for depth in (0, 1, 2, 3):
            assert bfs_distances(g, 0, max_depth=depth) == legacy_bfs_distances(
                g, 0, max_depth=depth
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_tree_distances_match(self, seed):
        g = _random_graph(seed)
        parent, dist = bfs_tree(g, 0)
        assert dist == legacy_bfs_distances(g, 0)
        for v, p in parent.items():
            if v == 0:
                assert p == 0
            else:
                assert dist[v] == dist[p] + 1
                assert g.has_edge(v, p)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_source_matches(self, seed):
        g = _random_graph(seed)
        targets = [v for v in g.vertices() if v % 5 == 0]
        expected = {}
        queue = deque()
        for t in targets:
            expected[t] = 0
            queue.append(t)
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in expected:
                    expected[v] = expected[u] + 1
                    queue.append(v)
        assert distances_to_set(g, targets) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_components_match(self, seed):
        g = erdos_renyi_graph(40, 0.04, rng=seed)  # deliberately fragmented
        assert connected_components(g) == legacy_components(g)

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_components_from_edges_match(self, seed):
        g = erdos_renyi_graph(30, 0.06, rng=seed)
        edges = list(g.edges())
        comps = components_from_edges(g.num_vertices, edges, include_isolated=True)
        assert sorted(map(sorted, comps)) == sorted(
            map(sorted, legacy_components(g))
        )

    @pytest.mark.parametrize("seed", SEEDS[:8])
    def test_kernels_against_subgraph_restriction(self, seed):
        g = _random_graph(seed)
        csr = CSRGraph.from_graph(g)
        labels, count = component_labels(csr)
        comps = connected_components(g)
        assert count == len(comps)
        for comp_idx, comp in enumerate(comps):
            assert {v for v in g.vertices() if labels[v] == comp_idx} == comp
        dist, visited = bfs_levels(csr, (0,))
        legacy = legacy_bfs_distances(g, 0)
        assert {v: dist[v] for v in visited} == legacy
        assert all(dist[v] == UNREACHED for v in g.vertices() if v not in legacy)


# ----------------------------------------------------------------------
# congestion counters
# ----------------------------------------------------------------------
class TestCongestionEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_loads_match_legacy(self, seed):
        inst = lower_bound_instance(60 + 4 * seed, 4)
        partition = Partition(inst.graph, inst.parts, validate=False)
        result = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=4, log_factor=0.2, rng=seed
        )
        shortcut = result.shortcut
        assert shortcut.edge_loads() == legacy_edge_loads(shortcut)
        legacy_max = max(legacy_edge_loads(shortcut).values(), default=0)
        assert shortcut.congestion() == legacy_max


# ----------------------------------------------------------------------
# CONGEST engine metrics
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_metrics_match_legacy_engine(self, seed):
        g = _random_graph(seed)
        sources = {0}
        new_metrics = Network(g).run(DistributedBFS(sources))
        legacy = PreRefactorNetwork(g).run(DistributedBFS(sources))
        assert new_metrics.rounds == legacy["rounds"]
        assert new_metrics.messages_sent == legacy["messages_sent"]
        assert new_metrics.messages_delivered == legacy["messages_delivered"]
        assert new_metrics.max_link_backlog == legacy["max_link_backlog"]
        assert new_metrics.per_edge_messages == legacy["per_edge_messages"]
        assert new_metrics.terminated

    @pytest.mark.parametrize("seed", [7, 13, 21])
    def test_multi_source_metrics_match_legacy_engine(self, seed):
        g = random_connected_graph(25, extra_edge_prob=0.15, rng=seed)
        new_metrics = Network(g).run(DistributedBFS({0, 5}))
        legacy = PreRefactorNetwork(g).run(DistributedBFS({0, 5}))
        assert new_metrics.rounds == legacy["rounds"]
        assert new_metrics.messages_delivered == legacy["messages_delivered"]
        assert new_metrics.per_edge_messages == legacy["per_edge_messages"]

    def test_node_states_match_legacy_engine(self):
        g = random_connected_graph(30, extra_edge_prob=0.1, rng=11)
        net = Network(g)
        net.run(DistributedBFS({0}))
        legacy = PreRefactorNetwork(g)
        legacy.run(DistributedBFS({0}))
        for v in g.vertices():
            assert net.node(v).state.get("bfs_dist") == legacy.nodes[v].state.get("bfs_dist")
