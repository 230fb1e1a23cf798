"""Oracle canaries at benchmark scale: 1k to 100k nodes.

Each test runs one fixed, seeded workload end to end and checks its answer
against a sequential oracle or a built-in verification flag: the spanning
flag of the distributed construction, the MST weight against Kruskal (fault
free and at 5% message loss), component labels against the traversal, and
aggregation results against the per-part minimum.  The inputs are the
scale tiers the rest of the suite does not reach; the layered benchmark
(``layerbench/``) times the same consumers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import shortcut_boruvka_mst
from repro.congest.network import Network
from repro.congest.primitives.aggregation import PartAggregation
from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from repro.congest.primitives.leader import FloodMax, read_leaders
from repro.congest.scheduler import draw_random_delays
from repro.graphs.components import connected_components
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import disjoint_union, hub_diameter_graph, with_random_weights
from repro.graphs.lower_bound import lower_bound_instance
from repro.shortcuts.distributed import build_distributed_kogan_parter
from repro.shortcuts.partition import Partition


def _labels_match_components(graph, labels) -> bool:
    """Whether ``labels[v]`` partitions the vertices into the graph's components."""
    by_label: dict[int, set] = {}
    for v, label in enumerate(labels):
        by_label.setdefault(label, set()).add(v)
    return sorted(by_label.values(), key=min) == connected_components(graph)


def test_distributed_pipeline_1k_unknown_diameter_spans():
    inst = lower_bound_instance(1_000, 6)
    partition = Partition(inst.graph, inst.parts, validate=False)
    result = build_distributed_kogan_parter(
        inst.graph, partition, known_diameter=False, log_factor=0.25, rng=3,
    )
    assert result.spanning_ok


def test_distributed_10k_spans():
    inst = lower_bound_instance(10_000, 6)
    partition = Partition(inst.graph, inst.parts, validate=False)
    result = build_distributed_kogan_parter(
        inst.graph, partition, diameter_value=6, log_factor=0.25, rng=3,
    )
    assert result.spanning_ok


@pytest.mark.slow
@pytest.mark.faults
# The lossy leg runs under an adversary, where the bulk path must decline.
@pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
def test_mst_1k_matches_kruskal_clean_and_under_loss():
    inst = lower_bound_instance(1_000, 6)
    weighted = with_random_weights(inst.graph, rng=3)
    _, kruskal_weight = kruskal_mst(weighted)
    clean = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    assert abs(clean.weight - kruskal_weight) < 1e-6
    faulty = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
        drop_rate=0.05, adversary_seed=17,
    )
    assert abs(faulty.weight - kruskal_weight) < 1e-6


@pytest.mark.slow
def test_shortcut_components_10k_match_traversal():
    graph = disjoint_union([
        hub_diameter_graph(2_500, 6, extra_edge_prob=0.0016, rng=11 + i)
        for i in range(4)
    ])
    result = shortcut_connected_components(
        graph, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    assert _labels_match_components(graph, result.labels)


def test_flood_label_components_100k_match_traversal():
    graph = disjoint_union([lower_bound_instance(2_500, 6).graph for _ in range(40)])
    network = Network(graph)
    network.run(FloodMax())
    leaders = read_leaders(network)
    labels = [leaders[v] for v in range(graph.num_vertices)]
    assert _labels_match_components(graph, labels)


def test_fleet_then_aggregation_100k_finds_part_minima():
    """Eight masked BFS trees over the largest parts, then a min convergecast."""
    inst = lower_bound_instance(100_000, 6)
    n = inst.graph.num_vertices
    partition = Partition(inst.graph, inst.parts, validate=False)
    largest = sorted(range(len(inst.parts)), key=lambda i: -len(inst.parts[i]))[:8]
    labels = np.full(n, -1, dtype=np.int64)
    for k, i in enumerate(largest):
        labels[np.asarray(list(inst.parts[i]), dtype=np.int64)] = k
    csr = inst.graph.csr()
    tails = np.asarray([e[0] for e in csr.edge_list], dtype=np.int64)
    heads = np.asarray([e[1] for e in csr.edge_list], dtype=np.int64)
    masks = [
        CSRLinkMask(csr, (labels[tails] == k) & (labels[heads] == k))
        for k in range(8)
    ]
    rng = random.Random(5)
    network = Network(inst.graph)
    fleet = ConcurrentMaskedBFS(
        [partition.leader(i) for i in largest], masks,
        draw_random_delays(8, 4, rng), n,
        [f"pa{i}_" for i in range(8)], n,
        suppress_parent_echo=True, sparse_labels=True,
    )
    network.run(fleet, reset=False, max_rounds=400_000)
    values = [
        {int(v): int(v) for v in np.flatnonzero(labels == k)}
        for k in range(8)
    ]
    aggregation = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(8, 4, rng),
    )
    network.run(aggregation, reset=False, max_rounds=400_000)
    assert list(aggregation.results) == [min(vals) for vals in values]
