"""Per-node state exists only once something reads it.

A fresh :class:`Network` allocates flat tables only; its contexts
are built by the first per-node run or the first read of ``nodes``,
``node(v)`` or ``_node_list``.  Until then the awake set says which nodes
are halted, and bulk kernels queue their per-node outputs for the build.

* **Allocation pin.**  A fresh network at 10k nodes creates a bounded
  number of GC-tracked objects, none per node.
* **Built on read equals built up front.**  Bulk-only sequences (BFS then
  FloodMax; a fleet and an aggregation as the shortcut consumer runs them)
  leave an unread network unbuilt, and the contexts built afterwards equal
  those of a network read before the runs — state, halted flags and the
  awake set — on every generator family and on edgeless and
  isolated-vertex graphs.  The clean shortcut consumer builds none.
* **Continuations and cutoffs.**  A ``reset=False`` BFS over queued
  outputs (a preload after a bulk BFS) equals the eager path; a cut-off
  BFS or fleet leaves the same state queued that an eager network holds,
  and neither takes a ``reset=False`` follow-up; a reset of an unread
  network drops the queue and builds nothing.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import shortcut_boruvka_mst
from repro.congest import Network, RoundLimitExceeded
from repro.congest.primitives.aggregation import run_part_aggregation
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from repro.congest.primitives.leader import FloodMax
from repro.graphs.generators import with_random_weights
from repro.graphs.lower_bound import lower_bound_instance

from test_bulk_kernels import label_masks, metrics_tuple
from test_network_wiring import WIRING_GRAPHS

GRAPHS = sorted(WIRING_GRAPHS)


def snapshot(net):
    """Every node's state and halted flag, and the awake set.

    The per-node path's ``<prefix>__allowed`` entries memoize adjacency
    against the algorithm object, which differs between two networks.
    """
    return (
        [({k: s for k, s in ctx.state.items() if not k.endswith("__allowed")},
          ctx.halted) for ctx in net.nodes.values()],
        set(net._awake),
    )


def lazy_and_eager(graph):
    """One network nobody has read and one whose contexts exist up front."""
    eager = Network(graph)
    eager.nodes
    return Network(graph), eager


def test_fresh_network_creates_no_per_node_object():
    graph = lower_bound_instance(10_000, 6).graph
    graph.csr().adjacency_arrays()
    gc.collect()
    before = len(gc.get_objects())
    net = Network(graph)
    gc.collect()
    assert len(gc.get_objects()) - before <= 64
    assert net._contexts is None


def _bfs_then_floodmax(graph, net):
    bfs = net.run(DistributedBFS({0, graph.num_vertices // 2}))
    flood = net.run(FloodMax(), reset=False)
    return [metrics_tuple(bfs), metrics_tuple(flood)]


def _fleet_then_aggregation(graph, net):
    masks, roots, values = label_masks(graph)
    res = run_part_aggregation(net, roots, masks, values, "min",
                               rng=random.Random(3))
    return res.rounds, res.messages, res.results


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("sequence", [_bfs_then_floodmax, _fleet_then_aggregation],
                         ids=["bfs-floodmax", "fleet-aggregation"])
def test_bulk_runs_build_no_context_and_read_back_as_eager(name, sequence):
    graph = WIRING_GRAPHS[name]()
    lazy, eager = lazy_and_eager(graph)
    assert sequence(graph, lazy) == sequence(graph, eager)
    assert lazy._contexts is None
    assert snapshot(lazy) == snapshot(eager)


def test_clean_shortcut_consumer_builds_no_context(monkeypatch):
    built = []
    build = Network._build_contexts

    def record(self):
        built.append(self.graph.num_vertices)
        return build(self)

    monkeypatch.setattr(Network, "_build_contexts", record)
    inst = lower_bound_instance(1_000, 6)
    weighted = with_random_weights(inst.graph, rng=3)
    result = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    assert abs(result.weight - kruskal_mst(weighted)[1]) < 1e-6
    assert built == []


@pytest.mark.parametrize("name", GRAPHS)
def test_bfs_preload_reads_queued_labels(name):
    """A ``reset=False`` BFS resumes from the labels a bulk BFS queued,
    without building a context."""
    graph = WIRING_GRAPHS[name]()
    n = graph.num_vertices

    def once(net):
        first = net.run(DistributedBFS({0}, max_depth=2))
        second = net.run(DistributedBFS({n - 1}), reset=False)
        return metrics_tuple(first), metrics_tuple(second)

    lazy, eager = lazy_and_eager(graph)
    assert once(lazy) == once(eager)
    assert lazy._contexts is None
    assert snapshot(lazy) == snapshot(eager)


@pytest.mark.parametrize("name", [name for name in GRAPHS if name != "edgeless"])
def test_cut_off_bfs_reads_back_as_eager(name):
    """A bulk BFS cut off at round 0 raises alike on an unread and a read
    network, and its labels wait in the queue: contexts built on read
    hold what the run reached.  Neither network takes a ``reset=False``
    follow-up."""
    graph = WIRING_GRAPHS[name]()
    n = graph.num_vertices

    def once(net):
        with pytest.raises(RoundLimitExceeded) as cut:
            net.run(DistributedBFS({0, n - 1}, max_depth=2), max_rounds=0)
        with pytest.raises(ValueError, match="reset"):
            net.run(DistributedBFS({n - 1}), reset=False)
        return metrics_tuple(cut.value.metrics), cut.value.last_active_set

    lazy, eager = lazy_and_eager(graph)
    assert once(lazy) == once(eager)
    assert lazy._contexts is None
    assert lazy._state_fills
    assert snapshot(lazy) == snapshot(eager)


def test_fleet_cutoff_leaves_ticks_queued():
    graph = WIRING_GRAPHS["isolated-vertices"]()
    masks, roots, _ = label_masks(graph)
    lazy, eager = lazy_and_eager(graph)
    cuts = []
    for net in (lazy, eager):
        fleet = ConcurrentMaskedBFS(
            roots, masks, [0, 3, 5, 2], graph.num_vertices,
            [f"pa{i}_" for i in range(4)], graph.num_vertices,
        )
        with pytest.raises(RoundLimitExceeded) as cut:
            net.run(fleet, reset=False, max_rounds=2)
        cuts.append((metrics_tuple(cut.value.metrics), cut.value.last_active_set))
    assert cuts[0] == cuts[1]
    assert lazy._contexts is None
    assert lazy._state_fills
    assert snapshot(lazy) == snapshot(eager)


def test_reset_of_unread_network_drops_queue_and_builds_nothing():
    graph = WIRING_GRAPHS["family-expander"]()
    net = Network(graph)
    net.run(DistributedBFS({0}))
    net.run(FloodMax(), reset=False)
    assert len(net._state_fills) == 2 and not net._awake
    net.reset()
    assert net._contexts is None
    assert net._state_fills == []
    assert len(net._awake) == graph.num_vertices
    assert all(ctx.state == {} and not ctx.halted for ctx in net.nodes.values())


@pytest.mark.parametrize("read_first", [False, True])
def test_node_outside_the_id_range_raises_key_error(read_first):
    graph = WIRING_GRAPHS["isolated-vertices"]()
    net = Network(graph)
    if read_first:
        net.node(0)
    n = graph.num_vertices
    for v in (-1, -n, n, n + 3):
        with pytest.raises(KeyError):
            net.node(v)
    assert net.node(n - 1).node_id == n - 1

