"""Unit tests for the CONGEST simulator core: messages, nodes, network engine."""

from __future__ import annotations

import inspect

import pytest

from repro.congest import (
    DistributedAlgorithm,
    Network,
    NodeContext,
    RoundLimitExceeded,
    check_payload,
)
from repro.graphs import cycle_graph, path_graph, star_graph


class TestPayloadCheck:
    def test_scalars_accepted(self):
        for payload in (None, 1, 2.5, "tag", True):
            check_payload(payload)

    def test_small_tuple_accepted(self):
        check_payload((1, 2, "x", None))

    def test_long_tuple_rejected(self):
        with pytest.raises(ValueError):
            check_payload(tuple(range(20)))

    def test_nested_structure_rejected(self):
        with pytest.raises(ValueError):
            check_payload(([1, 2], 3))
        with pytest.raises(ValueError):
            check_payload({"a": 1})


class _Record(DistributedAlgorithm):
    """Starts halted; every node records ``(sender, tag, payload,
    algorithm_id)`` of each message it receives."""

    name = "record"

    def initialize(self, node: NodeContext) -> None:
        node.halt()

    def on_round(self, node: NodeContext, messages) -> None:
        got = node.state.setdefault("got", [])
        got.extend((m.sender, m.tag, m.payload, m.algorithm_id) for m in messages)
        node.halt()


class _SendTwice(_Record):
    """Node 1 sends to node 0 in ``initialize`` and again in round 1."""

    name = "send_twice"

    def initialize(self, node: NodeContext) -> None:
        if node.node_id == 1:
            node.send(0, "t", 1)
        else:
            node.halt()

    def on_round(self, node: NodeContext, messages) -> None:
        if node.node_id == 1 and "sent_again" not in node.state:
            node.state["sent_again"] = True
            node.send(0, "t", 2)
        super().on_round(node, messages)


class TestNodeContext:
    """The context API on the wired contexts of a three-node path; node 1
    has neighbours 0 and 2.  Sends made outside a run wait on their links
    until a ``reset=False`` run delivers them."""

    def make_network(self):
        return Network(path_graph(3))

    def test_send_to_neighbor(self):
        net = self.make_network()
        net.node(1).send(0, "t", 5)
        metrics = net.run(_Record(), reset=False)
        assert metrics.messages_delivered == 1
        assert net.node(0).state["got"] == [(1, "t", 5, 0)]
        assert "got" not in net.node(2).state

    def test_send_to_non_neighbor_rejected(self):
        net = self.make_network()
        with pytest.raises(ValueError, match="no neighbor"):
            net.node(0).send(2, "t", 1)

    def test_double_send_same_round_rejected(self):
        net = self.make_network()
        node = net.node(1)
        node.send(0, "t", 1)
        with pytest.raises(ValueError, match="already sent"):
            node.send(0, "t", 2)

    def test_double_send_different_algorithm_ids_allowed(self):
        net = self.make_network()
        node = net.node(1)
        node.send(0, "t", 1, algorithm_id=0)
        node.send(0, "t", 2, algorithm_id=1)
        metrics = net.run(_Record(), reset=False)
        # One link, one message per round: the second waits a round.
        assert (metrics.rounds, metrics.max_link_backlog) == (2, 2)
        assert net.node(0).state["got"] == [(1, "t", 1, 0), (1, "t", 2, 1)]

    def test_send_guard_clears_per_round(self):
        net = self.make_network()
        metrics = net.run(_SendTwice())
        assert metrics.messages_delivered == 2
        assert metrics.max_link_backlog == 1
        assert net.node(0).state["got"] == [(1, "t", 1, 0), (1, "t", 2, 0)]

    def test_broadcast(self):
        net = self.make_network()
        net.node(1).broadcast("t", 3)
        net.run(_Record(), reset=False)
        assert net.node(0).state["got"] == [(1, "t", 3, 0)]
        assert net.node(2).state["got"] == [(1, "t", 3, 0)]

    def test_halt_and_wake(self):
        net = self.make_network()
        node = net.node(1)
        node.halt()
        assert node.halted
        node.wake()
        assert not node.halted


class _Load(DistributedAlgorithm):
    """In ``initialize``, each ``(sender, receiver, count)`` entry queues
    ``count`` messages on one directed link (payloads ``0..count-1``,
    distinct algorithm ids).  Receivers record ``(round, sender, payload)``
    for every delivery."""

    name = "load"

    def __init__(self, loads) -> None:
        self.loads = loads

    def initialize(self, node: NodeContext) -> None:
        for sender, receiver, count in self.loads:
            if sender == node.node_id:
                for i in range(count):
                    node.send(receiver, "t", i, algorithm_id=i)
        node.halt()

    def on_round(self, node: NodeContext, messages) -> None:
        got = node.state.setdefault("got", [])
        got.extend((self.current_round, m.sender, m.payload) for m in messages)
        node.halt()


class TestLinkDelivery:
    """Every directed link delivers at most one message per round, first in
    first out, and queues the rest."""

    def test_fifo_delivery(self):
        net = Network(path_graph(2))
        net.run(_Load([(0, 1, 3)]))
        assert net.node(1).state["got"] == [(1, 0, 0), (2, 0, 1), (3, 0, 2)]

    def test_one_message_per_link_per_round(self):
        net = Network(path_graph(2))
        metrics = net.run(_Load([(0, 1, 5)]))
        assert [r for r, _, _ in net.node(1).state["got"]] == [1, 2, 3, 4, 5]
        assert (metrics.rounds, metrics.messages_delivered) == (5, 5)

    def test_max_backlog_tracked(self):
        metrics = Network(path_graph(2)).run(_Load([(0, 1, 4)]))
        assert metrics.max_link_backlog == 4
        assert metrics.per_edge_messages == {(0, 1): 4}

    def test_opposite_directions_are_separate_links(self):
        net = Network(path_graph(2))
        metrics = net.run(_Load([(0, 1, 2), (1, 0, 2)]))
        assert metrics.rounds == 2
        assert net.node(0).state["got"] == [(1, 1, 0), (2, 1, 1)]
        assert net.node(1).state["got"] == [(1, 0, 0), (2, 0, 1)]
        assert metrics.per_edge_messages == {(0, 1): 4}

    def test_links_to_different_neighbours_are_separate(self):
        net = Network(path_graph(3))
        metrics = net.run(_Load([(1, 0, 3), (1, 2, 3)]))
        assert (metrics.rounds, metrics.max_link_backlog) == (3, 3)
        expected = [(1, 1, 0), (2, 1, 1), (3, 1, 2)]
        assert net.node(0).state["got"] == net.node(2).state["got"] == expected

    def test_links_into_one_node_are_separate(self):
        net = Network(path_graph(3))
        metrics = net.run(_Load([(0, 1, 2), (2, 1, 2)]))
        assert metrics.rounds == 2
        assert sorted(net.node(1).state["got"]) == [
            (1, 0, 0), (1, 2, 0), (2, 0, 1), (2, 2, 1),
        ]


class _PingPong(DistributedAlgorithm):
    """Node 0 sends a counter to node 1 and back, `hops` times in total."""

    name = "ping_pong"

    def __init__(self, hops: int) -> None:
        self.hops = hops

    def initialize(self, node: NodeContext) -> None:
        if node.node_id == 0:
            node.send(1, "ping", 1)
        node.halt()

    def on_round(self, node: NodeContext, messages) -> None:
        for msg in messages:
            count = msg.payload
            node.state["count"] = count
            if count < self.hops:
                node.send(msg.sender, "ping", count + 1)
        node.halt()


class _Spammer(DistributedAlgorithm):
    """Every node floods every neighbour every round, forever."""

    name = "spammer"

    def initialize(self, node: NodeContext) -> None:
        node.broadcast("spam", 0)

    def on_round(self, node: NodeContext, messages) -> None:
        node.broadcast("spam", 0)


class TestNetworkEngine:
    def test_ping_pong_round_count(self):
        net = Network(path_graph(2))
        metrics = net.run(_PingPong(hops=6))
        assert metrics.terminated
        # One round per hop (plus the final delivery round).
        assert metrics.messages_delivered == 6
        assert metrics.rounds == 6

    def test_state_readable_after_run(self):
        net = Network(path_graph(2))
        net.run(_PingPong(hops=5))
        assert net.node(1).state["count"] in (4, 5)
        assert net.node(0).state["count"] in (4, 5)

    def test_round_limit_raises(self):
        net = Network(cycle_graph(4))
        with pytest.raises(RoundLimitExceeded):
            net.run(_Spammer(), max_rounds=10)

    def test_round_limit_keeps_partial_metrics(self):
        net = Network(cycle_graph(4))
        with pytest.raises(RoundLimitExceeded) as cut:
            net.run(_Spammer(), max_rounds=10)
        metrics = cut.value.metrics
        assert not metrics.terminated
        assert metrics.rounds == 10
        assert cut.value.last_active_set == 4
        # The cut network cannot be continued, only reset.
        with pytest.raises(ValueError, match="reset"):
            net.run(_Spammer(), reset=False, max_rounds=10)

    def test_per_edge_message_counts(self):
        net = Network(path_graph(2))
        metrics = net.run(_PingPong(hops=4))
        assert metrics.per_edge_messages == {(0, 1): 4}
        assert metrics.max_edge_messages == 4

    def test_network_takes_only_the_graph(self):
        # One link model: no bandwidth or capacity setting to choose.
        assert list(inspect.signature(Network).parameters) == ["graph"]
        with pytest.raises(TypeError):
            Network(path_graph(3), bandwidth=2)

    def test_reset_clears_state(self):
        net = Network(path_graph(2))
        net.run(_PingPong(hops=2))
        net.reset()
        assert net.node(1).state == {}

    def test_run_without_reset_preserves_state(self):
        net = Network(path_graph(2))
        net.run(_PingPong(hops=2))
        net.node(0).state["marker"] = 42
        net.run(_PingPong(hops=2), reset=False)
        assert net.node(0).state.get("marker") == 42

    def test_invalid_link_send_detected(self):
        # A send over a non-edge must be caught on the engine-wired fast
        # path: node 0's out-link table has no entry for the non-neighbour 2,
        # so the message can never reach a link queue.
        net = Network(path_graph(3))
        ctx = net.node(0)
        with pytest.raises(ValueError):
            ctx.send(2, "forged", 1)


class _TwoStage(DistributedAlgorithm):
    """Stage used to test sequencing of runs chained with reset=False."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.name = f"stage_{key}"

    def initialize(self, node: NodeContext) -> None:
        node.state.setdefault("order", []).append(f"init_{self.key}")
        if node.node_id == 0:
            node.broadcast(self.key, self.key)
        node.halt()

    def on_round(self, node: NodeContext, messages) -> None:
        for msg in messages:
            node.state.setdefault("order", []).append(f"recv_{msg.payload}")
        node.halt()


class TestChainedStages:
    def test_stages_run_in_order(self):
        net = Network(star_graph(4))
        first = net.run(_TwoStage("a"))
        second = net.run(_TwoStage("b"), reset=False)
        assert first.terminated and second.terminated
        order = net.node(1).state["order"]
        assert order == ["init_a", "recv_a", "init_b", "recv_b"]

    def test_second_stage_sees_first_stage_state(self):
        net = Network(path_graph(3))

        class Writer(DistributedAlgorithm):
            name = "writer"

            def initialize(self, node):
                node.state["written"] = node.node_id * 10
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        class Reader(DistributedAlgorithm):
            name = "reader"

            def initialize(self, node):
                node.state["read_back"] = node.state["written"]
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        net.run(Writer())
        net.run(Reader(), reset=False)
        assert net.node(2).state["read_back"] == 20

    def test_reset_run_drops_earlier_stage_state(self):
        net = Network(path_graph(3))
        net.run(_TwoStage("a"))
        net.run(_TwoStage("b"))
        assert net.node(1).state["order"] == ["init_b", "recv_b"]
