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
* **Link dicts on first send.**  A read builds no ``neighbor -> link``
  row: a context fetches it from the topology's shared table on its first
  ``send``, ``multicast`` or ``out_link_ids``, onto exactly the edge-loop
  reference links (``multicast_links`` needs none, even onto a busy
  link), and a per-node run after a read equals one with no earlier
  read.  The table holds no reference to the network, so a
  dropped network is freed without the cyclic collector, and the build
  leaves the collector as enabled or disabled as it found it.
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

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
from test_network_wiring import WIRING_GRAPHS, _Listen, reference_tables

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


# ----------------------------------------------------------------------
# link dicts on first send
# ----------------------------------------------------------------------
def per_node(algorithm):
    """``algorithm`` with its bulk kernel switched off."""
    algorithm.bulk_capable = False
    return algorithm


@pytest.mark.parametrize("name", GRAPHS)
def test_read_after_bulk_runs_builds_no_link_row(name):
    graph = WIRING_GRAPHS[name]()
    net = Network(graph)
    _bfs_then_floodmax(graph, net)
    assert net._contexts is None
    contexts = list(net.nodes.values())
    assert net._link_table._rows is None
    assert all(ctx._out_link is None for ctx in contexts)


@pytest.mark.parametrize("name", GRAPHS)
def test_read_context_sends_onto_reference_links(name):
    """Contexts that were only read send, multicast and resolve link ids
    from outside a run; a per-node follow-up delivers exactly those."""
    graph = WIRING_GRAPHS[name]()
    receiver_of, neighbors, out_links = reference_tables(graph)
    net = Network(graph)
    net.run(DistributedBFS({0}))
    expected = []
    for v, ctx in net.nodes.items():
        if v % 3 == 0:
            for w in neighbors[v]:
                ctx.send(w, "x", v)
        elif v % 3 == 1:
            ctx.multicast(neighbors[v], "x", v)
        else:
            assert ctx.out_link_ids(neighbors[v]) == [out_links[v][w] for w in neighbors[v]]
            continue
        expected += [(out_links[v][w], v) for w in neighbors[v]]
    # A context whose loop made no send (no neighbour) fetched nothing.
    assert [ctx._out_link for ctx in net.nodes.values()] == [
        out_links[v] if v % 3 or neighbors[v] else None
        for v in range(graph.num_vertices)
    ]
    queued = [(link, msg.sender) for link in net._active for msg in net._queues[link]]
    assert sorted(queued) == sorted(expected)

    metrics = net.run(_Listen(), reset=False)
    assert metrics.messages_delivered == len(expected)
    got = Counter(receiver_of[link] for link, _ in expected)
    assert [ctx.state["got"] for ctx in net.nodes.values()] == [
        got[v] for v in range(graph.num_vertices)
    ]


def test_read_context_multicasts_links_onto_a_busy_link_without_a_row():
    graph = WIRING_GRAPHS["isolated-vertices"]()
    _, _, out_links = reference_tables(graph)
    net = Network(graph)
    hub = net.node(5)
    link = out_links[5][7]
    hub.multicast_links([link], "x", algorithm_id=0)
    hub.multicast_links([link], "x", algorithm_id=1)
    assert hub._out_link is None
    metrics = net.run(_Listen(), reset=False)
    # The second message waited a round behind the first.
    assert (metrics.rounds, metrics.max_link_backlog) == (2, 2)
    assert net.node(7).state["got"] == 2


@pytest.mark.parametrize("name", GRAPHS)
def test_per_node_run_after_read_equals_unread(name):
    graph = WIRING_GRAPHS[name]()
    n = graph.num_vertices

    def once(net, read):
        net.run(DistributedBFS({0}))
        if read:
            net.nodes
        follow = net.run(per_node(FloodMax()), reset=False)
        again = net.run(per_node(DistributedBFS({n - 1})))
        return [metrics_tuple(follow), metrics_tuple(again)]

    read, unread = Network(graph), Network(graph)
    assert once(read, True) == once(unread, False)
    assert snapshot(read) == snapshot(unread)


def test_dropped_network_is_freed_without_the_collector():
    graph = WIRING_GRAPHS["family-expander"]()
    net = Network(graph)
    net.nodes
    net.run(per_node(FloodMax()))
    net.node(0).send(net.node(0).neighbors[0], "x")
    ref = weakref.ref(net)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del net
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_context_build_leaves_collector_state(enabled):
    net = Network(WIRING_GRAPHS["isolated-vertices"]())
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        net._build_contexts()
        assert gc.isenabled() is enabled
        net.node(0).send(1, "x")  # builds the link rows
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
