"""How a fresh :class:`Network` is wired, and the send guards that wiring
feeds.

* **Wiring tables.**  The receiver table, every context's neighbour tuple
  and every context's ``neighbor -> directed link`` dict (fetched on the
  context's first ``out_link_ids`` call, not on read) are read off the
  snapshot's adjacency arrays; they must equal a reference built by a loop
  over ``csr.edge_list`` on every generator family and on graphs with
  isolated vertices or no edges at all.
* **Allocation pin.**  Wiring allocates flat tables plus one context per
  node: link queues and inboxes are created on first use, and wired
  contexts have no outbox and share one duplicate-send set.  The pin is a
  count of GC-tracked objects, so it repeats exactly.
* **Duplicate-send guard.**  The shared set keys on the directed link id
  (packed with small algorithm ids, paired with large ones), so a repeated
  send over one link raises while sends of different nodes never collide.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.congest import DistributedAlgorithm, Network
from repro.congest.primitives.leader import FloodMax
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    random_connected_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.lower_bound import lower_bound_instance

from test_active_set_engine import PreRefactorNetwork

LARGE_ID = 1 << 20


def reference_tables(graph):
    """Receiver table, neighbour tuples and link dicts by the edge loop."""
    csr = graph.csr()
    receiver_of = [0] * (2 * csr.num_edges)
    out_links = [{} for _ in range(csr.num_vertices)]
    for eid, (u, v) in enumerate(csr.edge_list):
        receiver_of[2 * eid] = v
        receiver_of[2 * eid + 1] = u
        out_links[u][v] = 2 * eid
        out_links[v][u] = 2 * eid + 1
    neighbors = [tuple(sorted(graph.neighbors(v))) for v in range(csr.num_vertices)]
    return receiver_of, neighbors, out_links


def isolated_vertices_graph():
    # Vertices 3, 4 and 9 have no edge; vertex 5 is a hub.
    return Graph(10, [(0, 1), (1, 2), (5, 6), (5, 7), (5, 8), (2, 5), (0, 8)])


WIRING_GRAPHS = {
    **{f"family-{name}": (lambda make=make: make(40, random.Random(3)))
       for name, make in sorted(GENERATOR_FAMILIES.items())},
    "edgeless": lambda: Graph(6),
    "isolated-vertices": isolated_vertices_graph,
}


@pytest.mark.parametrize("name", sorted(WIRING_GRAPHS))
def test_wiring_tables_match_edge_loop_reference(name):
    graph = WIRING_GRAPHS[name]()
    receiver_of, neighbors, out_links = reference_tables(graph)
    net = Network(graph)
    assert net._receiver_of == receiver_of
    contexts = [net.node(v) for v in range(graph.num_vertices)]
    assert all(type(ctx.neighbors) is tuple for ctx in contexts)
    assert [ctx.neighbors for ctx in contexts] == neighbors
    # A read builds no link dict; the first out_link_ids call fetches it.
    assert all(ctx._out_link is None for ctx in contexts)
    assert [ctx.out_link_ids(ctx.neighbors) for ctx in contexts] == [
        [out_links[v][w] for w in neighbors[v]] for v in range(graph.num_vertices)
    ]
    assert [ctx._out_link for ctx in contexts] == out_links


def test_adjacency_endpoints_follow_edge_ids_for_any_edge_order():
    # The constructor keeps the edge list it is given; the endpoint arrays
    # are indexed by edge id whatever that order is.
    edges = [(2, 5), (0, 1), (4, 5), (1, 3), (0, 4)]
    arrays = CSRGraph(6, edges).adjacency_arrays()
    assert list(zip(arrays.edge_u.tolist(), arrays.edge_v.tolist())) == edges


def test_fresh_network_tracks_one_object_per_node():
    graph = lower_bound_instance(10_000, 6).graph
    graph.csr().adjacency_arrays()
    gc.collect()
    before = len(gc.get_objects())
    net = Network(graph)
    gc.collect()
    created = len(gc.get_objects()) - before
    assert created <= graph.num_vertices + 64
    assert len(net._node_list) == graph.num_vertices


def test_idle_network_holds_no_queue_or_inbox():
    graph = random_connected_graph(30, extra_edge_prob=0.1, rng=2)
    net = Network(graph)
    assert set(net._queues) == {None}
    assert set(net._inbox_of) == {None}
    net.run(FloodMax())
    # Drained queues are dropped again; receivers keep their inbox.
    assert set(net._queues) == {None}
    assert not net._active
    assert all(inbox is None or inbox == [] for inbox in net._inbox_of)


# ----------------------------------------------------------------------
# duplicate-send guard
# ----------------------------------------------------------------------
class _SendTwice(DistributedAlgorithm):
    """Node 0 sends to node 1 twice with one algorithm id, in ``initialize``
    or in its first round."""

    name = "send_twice"

    def __init__(self, algorithm_id, in_round):
        self.algorithm_id = algorithm_id
        self.in_round = in_round

    def _send_twice(self, node):
        node.send(1, "x", 1, algorithm_id=self.algorithm_id)
        node.send(1, "x", 2, algorithm_id=self.algorithm_id)

    def initialize(self, node):
        if node.node_id == 0 and not self.in_round:
            self._send_twice(node)

    def on_round(self, node, messages):
        if node.node_id == 0 and self.in_round:
            self._send_twice(node)
        node.halt()


@pytest.mark.parametrize("in_round", [False, True])
@pytest.mark.parametrize("algorithm_id", [0, LARGE_ID])
def test_second_send_over_one_link_raises(algorithm_id, in_round):
    net = Network(star_graph(4))
    with pytest.raises(ValueError, match="already sent to 1"):
        net.run(_SendTwice(algorithm_id, in_round))


@pytest.mark.parametrize("algorithm_id", [0, LARGE_ID])
def test_multicast_with_repeated_target_raises(algorithm_id):
    net = Network(star_graph(4))
    with pytest.raises(ValueError, match="already sent to 2"):
        net.node(0).multicast([1, 2, 2], "x", algorithm_id=algorithm_id)


class _LeavesToHub(DistributedAlgorithm):
    """Every leaf of a star sends to the hub with one algorithm id, twice
    in a row: in ``initialize`` and again in its first round."""

    name = "leaves_to_hub"

    def __init__(self, algorithm_id):
        self.algorithm_id = algorithm_id

    def initialize(self, node):
        node.state["got"] = 0
        if node.node_id:
            node.send(0, "x", node.node_id, algorithm_id=self.algorithm_id)

    def on_round(self, node, messages):
        node.state["got"] += len(messages)
        if node.node_id and not node.state.get("again"):
            node.state["again"] = True
            node.broadcast("x", node.node_id, algorithm_id=self.algorithm_id)
        node.halt()


class _Listen(DistributedAlgorithm):
    name = "listen"

    def initialize(self, node):
        node.state["got"] = 0

    def on_round(self, node, messages):
        node.state["got"] += len(messages)
        node.halt()


@pytest.mark.parametrize("algorithm_id", [0, LARGE_ID])
def test_different_senders_to_one_neighbour_do_not_collide(algorithm_id):
    leaves = 5
    net = Network(star_graph(leaves + 1))
    metrics = net.run(_LeavesToHub(algorithm_id))
    assert metrics.terminated
    assert metrics.messages_delivered == 2 * leaves
    assert net.node(0).state["got"] == 2 * leaves

    # Sends made outside a handler are not cleared between senders, so
    # here the keys of all leaves share the set at once.
    for leaf in range(1, leaves + 1):
        net.node(leaf).send(0, "x", leaf, algorithm_id=algorithm_id)
    metrics = net.run(_Listen(), reset=False)
    assert metrics.messages_delivered == leaves
    assert net.node(0).state["got"] == leaves


class _LeaderBurst(DistributedAlgorithm):
    """Follow-up to FloodMax: the leader queues ``burst`` messages (one per
    algorithm id) on every link in ``initialize``, then one more onto the
    still-busy links in its first round; everyone else just listens."""

    name = "leader_burst"

    def __init__(self, burst):
        self.burst = burst

    def initialize(self, node):
        if node.state.get("flood_leader") == node.node_id:
            node.wake()  # FloodMax left it halted
            for aid in range(self.burst):
                node.broadcast("burst", aid, algorithm_id=aid)
        else:
            node.halt()

    def on_round(self, node, messages):
        if node.state.get("flood_leader") == node.node_id and "burst_tail" not in node.state:
            node.state["burst_tail"] = True
            node.broadcast("burst", -1)
        node.state["burst_got"] = node.state.get("burst_got", 0) + len(messages)
        node.halt()


def test_reset_false_follow_up_meters_busy_links_per_node(monkeypatch):
    monkeypatch.setattr(FloodMax, "bulk_capable", False)
    burst = 4
    graph = random_connected_graph(24, extra_edge_prob=0.12, rng=11)
    net = Network(graph)
    net.run(FloodMax())
    second = net.run(_LeaderBurst(burst), reset=False)

    reference = PreRefactorNetwork(graph)
    reference.run(FloodMax())
    expected = reference.run(_LeaderBurst(burst))
    assert second.terminated
    assert second.max_link_backlog == burst == expected["max_link_backlog"]
    assert second.rounds == expected["rounds"]
    assert second.messages_sent == expected["messages_sent"]
    assert second.messages_delivered == expected["messages_delivered"]
    assert second.per_edge_messages == expected["per_edge_messages"]
    leader = graph.num_vertices - 1
    for v in graph.neighbors(leader):
        assert net.node(v).state["burst_got"] == burst + 1
