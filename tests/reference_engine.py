"""The reference CONGEST engine the production engine is pinned against.

:class:`PreRefactorNetwork` replays the engine as it stood before the
active-set refactor: dense directed link ids, plain-list queues drained one
message per round in link-activation order, a full scan over all nodes
every round, and outbox collection after the scan.  It shares no code with
:class:`repro.congest.network.Network` beyond :class:`Message`, so metric
equality between the two (rounds, messages sent and delivered, the largest
link backlog, per-edge traffic, node state) checks the production engine's
bookkeeping against an independent implementation.

Its nodes are :class:`OutboxContext` objects: a small node context that
buffers sends in an outbox for its owner to collect.  Tests that drive a
primitive by hand (delivering each side's messages themselves) use it too.
"""

from __future__ import annotations

from repro.congest.message import Message, check_payload


class OutboxContext:
    """A node context that buffers its sends until :meth:`collect_outbox`.

    It offers the algorithm-facing API of
    :class:`repro.congest.node.NodeContext` with the same checks (neighbours
    only, small payloads, one message per neighbour per round per algorithm
    id), but routes by receiver: :meth:`multicast_links` maps each directed
    link id back to its receiver through ``csr``, the graph's snapshot (edge
    ``e = (lo, hi)`` owns link ``2e`` for ``lo -> hi`` and ``2e + 1`` for
    ``hi -> lo``).
    """

    def __init__(self, node_id: int, neighbors: tuple[int, ...], csr) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self._csr = csr
        self.state: dict = {}
        self.halted = False
        self._neighbor_set = set(neighbors)
        self._outbox: list[Message] = []
        self._sent: set = set()

    def send(self, neighbor, tag, payload=None, algorithm_id=0) -> None:
        if neighbor not in self._neighbor_set:
            raise ValueError(f"node {self.node_id} has no neighbor {neighbor}")
        check_payload(payload)
        key = (neighbor, algorithm_id)
        if key in self._sent:
            raise ValueError(
                f"node {self.node_id} already sent to {neighbor} for algorithm "
                f"{algorithm_id} this round"
            )
        self._sent.add(key)
        self._outbox.append(Message(self.node_id, neighbor, tag, payload, algorithm_id))

    def multicast(self, targets, tag, payload=None, algorithm_id=0) -> None:
        for v in targets:
            self.send(v, tag, payload, algorithm_id)

    def multicast_links(self, links, tag, payload=None, algorithm_id=0) -> None:
        edge_list = self._csr.edge_list
        for link in links:
            lo, hi = edge_list[link >> 1]
            self.send(lo if link & 1 else hi, tag, payload, algorithm_id)

    def out_link_ids(self, targets) -> list[int]:
        u = self.node_id
        return [2 * self._csr.edge_id(u, v) + (u > v) for v in targets]

    def broadcast(self, tag, payload=None, *, algorithm_id=0) -> None:
        self.multicast(self.neighbors, tag, payload, algorithm_id)

    def halt(self) -> None:
        self.halted = True

    def wake(self) -> None:
        self.halted = False

    def collect_outbox(self) -> list[Message]:
        """Hand over this round's sends and reset the duplicate-send guard."""
        out, self._outbox = self._outbox, []
        self._sent.clear()
        return out


class PreRefactorNetwork:
    """The pre-refactor engine: one message per link per round, delivered in
    link-activation order, with a full per-round scan over all nodes.

    :meth:`run` returns a metrics dict with the keys ``rounds``,
    ``messages_sent``, ``messages_delivered``, ``max_link_backlog`` and
    ``per_edge_messages``.  Node state persists across runs, so chained runs
    model ``Network.run(..., reset=False)``.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        csr = graph.csr()
        self.nodes = {
            v: OutboxContext(v, tuple(sorted(graph.neighbors(v))), csr)
            for v in graph.vertices()
        }
        num_links = 2 * csr.num_edges
        self._link_of = {}
        self._receiver_of = [0] * num_links
        for eid, (u, v) in enumerate(csr.edge_list):
            self._link_of[(u, v)] = 2 * eid
            self._link_of[(v, u)] = 2 * eid + 1
            self._receiver_of[2 * eid] = v
            self._receiver_of[2 * eid + 1] = u
        self._edge_list = csr.edge_list
        self._queues = [[] for _ in range(num_links)]
        self._heads = [0] * num_links
        self._link_max = [0] * num_links
        self._active = []
        self._is_active = bytearray(num_links)

    def run(self, algorithm, max_rounds=100_000):
        metrics = {
            "rounds": 0, "messages_sent": 0, "messages_delivered": 0,
            "max_link_backlog": 0, "edge_counts": {},
        }
        for ctx in self.nodes.values():
            algorithm.initialize(ctx)
        self._collect(metrics)
        while metrics["rounds"] < max_rounds:
            if not self._active and all(c.halted for c in self.nodes.values()):
                metrics["per_edge_messages"] = dict(metrics.pop("edge_counts"))
                return metrics
            metrics["rounds"] += 1
            inboxes = self._deliver(metrics)
            for v, ctx in self.nodes.items():
                incoming = inboxes.get(v)
                if incoming:
                    ctx.wake()
                    algorithm.on_round(ctx, incoming)
                elif not ctx.halted:
                    algorithm.on_round(ctx, [])
            self._collect(metrics)
        raise AssertionError("pre-refactor reference engine hit the round limit")

    def _deliver(self, metrics):
        inboxes = {}
        still_active = []
        for link in self._active:
            buf = self._queues[link]
            head = self._heads[link]
            message = buf[head]
            head += 1
            if head >= len(buf):
                buf.clear()
                head = 0
                self._is_active[link] = 0
            else:
                still_active.append(link)
            self._heads[link] = head
            inboxes.setdefault(self._receiver_of[link], []).append(message)
            metrics["messages_delivered"] += 1
            edge = self._edge_list[link >> 1]
            metrics["edge_counts"][edge] = metrics["edge_counts"].get(edge, 0) + 1
            if self._link_max[link] > metrics["max_link_backlog"]:
                metrics["max_link_backlog"] = self._link_max[link]
        self._active = still_active
        return inboxes

    def _collect(self, metrics):
        for ctx in self.nodes.values():
            for message in ctx.collect_outbox():
                link = self._link_of[(message.sender, message.receiver)]
                buf = self._queues[link]
                buf.append(message)
                backlog = len(buf) - self._heads[link]
                if backlog > self._link_max[link]:
                    self._link_max[link] = backlog
                if not self._is_active[link]:
                    self._is_active[link] = 1
                    self._active.append(link)
                metrics["messages_sent"] += 1
