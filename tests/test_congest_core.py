"""Unit tests for the CONGEST simulator core: messages, nodes, network engine."""

from __future__ import annotations

import pytest

from repro.congest import (
    BandwidthExceededError,
    DistributedAlgorithm,
    LinkQueue,
    Message,
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


class TestLinkQueue:
    def test_fifo_delivery(self):
        q = LinkQueue(capacity_per_round=1)
        m1 = Message(0, 1, "t", 1)
        m2 = Message(0, 1, "t", 2)
        q.enqueue(m1)
        q.enqueue(m2)
        assert q.drain() == [m1]
        assert q.drain() == [m2]
        assert q.drain() == []

    def test_capacity_respected(self):
        q = LinkQueue(capacity_per_round=2)
        for i in range(5):
            q.enqueue(Message(0, 1, "t", i))
        assert len(q.drain()) == 2
        assert q.backlog == 3

    def test_strict_mode_raises(self):
        q = LinkQueue(capacity_per_round=1)
        q.enqueue(Message(0, 1, "t", 1), strict=True)
        with pytest.raises(BandwidthExceededError):
            q.enqueue(Message(0, 1, "t", 2), strict=True)

    def test_max_backlog_tracked(self):
        q = LinkQueue()
        for i in range(4):
            q.enqueue(Message(0, 1, "t", i))
        assert q.max_backlog == 4


class TestNodeContext:
    def make_node(self):
        return NodeContext(node_id=0, neighbors=(1, 2))

    def test_send_to_neighbor(self):
        node = self.make_node()
        node.send(1, "t", 5)
        out = node._collect_outbox()
        assert len(out) == 1
        assert out[0].receiver == 1 and out[0].payload == 5

    def test_send_to_non_neighbor_rejected(self):
        node = self.make_node()
        with pytest.raises(ValueError):
            node.send(7, "t", 1)

    def test_double_send_same_round_rejected(self):
        node = self.make_node()
        node.send(1, "t", 1)
        with pytest.raises(ValueError):
            node.send(1, "t", 2)

    def test_double_send_different_algorithm_ids_allowed(self):
        node = self.make_node()
        node.send(1, "t", 1, algorithm_id=0)
        node.send(1, "t", 2, algorithm_id=1)
        assert len(node._collect_outbox()) == 2

    def test_outbox_clears_per_round(self):
        node = self.make_node()
        node.send(1, "t", 1)
        node._collect_outbox()
        node.send(1, "t", 2)  # allowed again after collection
        assert len(node._collect_outbox()) == 1

    def test_broadcast(self):
        node = self.make_node()
        node.broadcast("t", 3)
        out = node._collect_outbox()
        assert {m.receiver for m in out} == {1, 2}

    def test_halt_and_wake(self):
        node = self.make_node()
        node.halt()
        assert node.halted
        node.wake()
        assert not node.halted


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

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            Network(path_graph(3), bandwidth=0)

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
