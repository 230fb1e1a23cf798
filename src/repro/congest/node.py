"""Per-node state and the API exposed to distributed algorithms.

A distributed algorithm in the CONGEST model is written from the point of
view of a single node: in each round it receives the messages sent to it in
the previous round, updates its local state, and sends at most one message
per incident edge.  The :class:`NodeContext` object is that point of view —
it exposes the node id, its neighbour list, a local state dictionary and a
``send`` method, and deliberately nothing else (in particular no access to
the global graph), so algorithms written against it are honest CONGEST
algorithms.

Engine wiring
-------------
A context created by :class:`~repro.congest.network.Network` is *wired*: it
holds direct references to the engine's link arrays plus a precomputed
``neighbor -> directed link id`` table derived from the graph's CSR
snapshot, so :meth:`send` resolves the target link with a single int-keyed
dict lookup and enqueues the message straight onto the link's ring buffer —
no per-message ``(sender, receiver)`` tuple key, no global link dict, no
intermediate outbox list, and no neighbour-set rebuild.  :meth:`halt` /
:meth:`wake` incrementally maintain the engine's awake-node worklist, which
is what makes a round cost proportional to the nodes actually touched.

A context created standalone (``NodeContext(node_id=..., neighbors=...)``,
as the unit tests and the legacy reference engine do) has no engine; sends
then fall back to buffering messages in an outbox that the owner collects
with ``_collect_outbox``, preserving the seed repository's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .message import (
    MAX_PAYLOAD_FIELDS,
    BandwidthExceededError,
    Message,
    check_payload,
)


@dataclass(slots=True)
class NodeContext:
    """The local view a node has of itself during a simulation.

    Attributes:
        node_id: this node's id.
        neighbors: ids of adjacent nodes (sorted, fixed for the run).
        state: per-node scratch space for the algorithm; survives across
            rounds and is inspected by drivers after the run.
        halted: set by :meth:`halt` when the node has locally terminated.
    """

    node_id: int
    neighbors: tuple[int, ...]
    state: dict[str, Any] = field(default_factory=dict)
    halted: bool = False
    _outbox: list[Message] = field(default_factory=list)
    _sent_this_round: set[tuple[int, int]] = field(default_factory=set)
    # Engine wiring (all None/empty for standalone contexts).  The link
    # arrays are shared with — and mutated in place by — the owning Network;
    # keeping direct references here saves two attribute hops per message on
    # the hottest path in the simulator.
    _out_link: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    _queues: Optional[list] = field(default=None, repr=False, compare=False)
    _heads: Optional[Any] = field(default=None, repr=False, compare=False)
    _link_max: Optional[Any] = field(default=None, repr=False, compare=False)
    _link_is_active: Optional[bytearray] = field(default=None, repr=False, compare=False)
    _link_active: Optional[list] = field(default=None, repr=False, compare=False)
    _awake: Optional[set] = field(default=None, repr=False, compare=False)
    _strict_limit: Any = field(default=None, repr=False, compare=False)
    # One-slot payload-validation memo: a broadcast/announce passes the same
    # payload object to every neighbour, so re-validating it per send is
    # pure overhead.  Holding the reference keeps the identity test sound
    # (validated payloads are scalars or tuples of scalars — immutable).
    _payload_ok: Any = field(default=None, repr=False, compare=False)
    # Express-lane wiring, set by the engine per run for single-channel
    # algorithms (see Network.run): sends bypass the link ring buffers and
    # append straight to the receiver's next-round inbox.
    _express_pending: Optional[list] = field(default=None, repr=False, compare=False)
    _pending_receivers: Optional[list] = field(default=None, repr=False, compare=False)
    _edge_counts: Optional[list] = field(default=None, repr=False, compare=False)

    def send(self, neighbor: int, tag: str, payload: Any = None, algorithm_id: int = 0) -> None:
        """Queue a message to ``neighbor`` for delivery next round.

        A node may send at most one message per neighbour per round *per
        algorithm id* (the random-delay scheduler multiplexes several
        sub-algorithms over one link; the link queue then meters them out).

        Raises:
            ValueError: if ``neighbor`` is not adjacent, the payload is too
                large, or a second message to the same neighbour is attempted
                for the same algorithm id in one round.
            BandwidthExceededError: on a strict-bandwidth network, if the
                target link already holds a full round's worth of messages.
        """
        queues = self._queues
        if queues is None:
            # Standalone mode (unit tests, the legacy reference engine):
            # validate against the neighbour set and buffer in the outbox.
            if neighbor not in self._neighbor_set():
                raise ValueError(f"node {self.node_id} has no neighbor {neighbor}")
            check_payload(payload)
            key = (neighbor, algorithm_id)
            if key in self._sent_this_round:
                raise ValueError(
                    f"node {self.node_id} already sent to {neighbor} for algorithm {algorithm_id} this round"
                )
            self._sent_this_round.add(key)
            self._outbox.append(
                Message(
                    sender=self.node_id,
                    receiver=neighbor,
                    tag=tag,
                    payload=payload,
                    algorithm_id=algorithm_id,
                )
            )
            return

        # Wired fast path: resolve the directed link from the precomputed
        # per-node table.
        try:
            link = self._out_link[neighbor]
        except KeyError:
            raise ValueError(f"node {self.node_id} has no neighbor {neighbor}") from None
        if payload is not None and payload is not self._payload_ok:
            check_payload(payload)
            self._payload_ok = payload
        sent = self._sent_this_round
        pending = self._express_pending
        if pending is not None:
            # Express lane (single-channel run): the one-message-per-link
            # guard doubles as the bandwidth proof, so the message can skip
            # the ring buffer and land in the receiver's next-round inbox.
            if link in sent:
                raise ValueError(
                    f"node {self.node_id} already sent to {neighbor} for algorithm {algorithm_id} this round"
                )
            sent.add(link)
            plist = pending[neighbor]
            if not plist:
                self._pending_receivers.append(neighbor)
            plist.append(Message(self.node_id, neighbor, tag, payload, algorithm_id))
            self._edge_counts[link >> 1] += 1
            return
        # Ring path: enqueue onto the link's ring buffer.  Duplicate-send
        # keys are packed into one int when the algorithm id is small
        # (always, in practice) so the guard costs no allocation.
        key = (link << 20) | algorithm_id if 0 <= algorithm_id < 1048576 else (neighbor, algorithm_id)
        if key in sent:
            raise ValueError(
                f"node {self.node_id} already sent to {neighbor} for algorithm {algorithm_id} this round"
            )
        sent.add(key)
        buf = queues[link]
        backlog = len(buf) - self._heads[link]
        if backlog:
            # Already-queued traffic: enforce strict capacity and track the
            # backlog maximum.  A backlog of exactly 1 (the uncongested
            # norm) is implied by any delivery, so only larger backlogs are
            # recorded; _deliver floors the reported maximum at 1 once
            # anything has been delivered.
            if backlog >= self._strict_limit:
                raise BandwidthExceededError(
                    f"link {self.node_id}->{neighbor} exceeded capacity "
                    f"{self._strict_limit} per round"
                )
            backlog += 1
            link_max = self._link_max
            if backlog > link_max[link]:
                link_max[link] = backlog
        buf.append(Message(self.node_id, neighbor, tag, payload, algorithm_id))
        if not self._link_is_active[link]:
            self._link_is_active[link] = 1
            self._link_active.append(link)

    def multicast(self, targets, tag: str, payload: Any = None, algorithm_id: int = 0) -> None:
        """Send the same message to every neighbour in ``targets``.

        Semantically identical to calling :meth:`send` once per target (the
        CONGEST cost is still one message per link), but the engine-wired
        implementation validates the payload once, allocates a *single*
        :class:`Message` shared by every target, and enqueues in one pass
        with the hot locals hoisted — this is the per-message fast path the
        flooding primitives use.  The shared message's ``receiver`` field is
        the sentinel ``-1``: delivery routes by directed link id, never by
        the field, and no algorithm-facing API exposes it for multicasts
        (the engine reads it only on per-receiver pending lists, where the
        receiver is the list index).
        """
        queues = self._queues
        if queues is None:
            for v in targets:
                self.send(v, tag, payload, algorithm_id)
            return
        if not (0 <= algorithm_id < 1048576):
            for v in targets:
                self.send(v, tag, payload, algorithm_id)
            return
        if payload is not None and payload is not self._payload_ok:
            # check_payload, inlined: announce payloads are fresh tuples, so
            # the identity memo rarely hits and the call overhead would land
            # on every flood step.
            if type(payload) is tuple:
                if len(payload) > MAX_PAYLOAD_FIELDS:
                    raise ValueError(
                        f"payload tuple has {len(payload)} fields; "
                        "CONGEST messages must be O(log n) bits"
                    )
                for item in payload:
                    if not (item is None or isinstance(item, (int, float, str, bool))):
                        raise ValueError(f"payload field {item!r} is not a scalar")
            elif not isinstance(payload, (int, float, str, bool)):
                check_payload(payload)
            self._payload_ok = payload
        out_link = self._out_link
        sent = self._sent_this_round
        pending = self._express_pending
        node_id = self.node_id
        message = Message(node_id, -1, tag, payload, algorithm_id)
        if pending is not None:
            receivers = self._pending_receivers
            edge_counts = self._edge_counts
            for v in targets:
                try:
                    link = out_link[v]
                except KeyError:
                    raise ValueError(f"node {node_id} has no neighbor {v}") from None
                if link in sent:
                    raise ValueError(
                        f"node {node_id} already sent to {v} for algorithm {algorithm_id} this round"
                    )
                sent.add(link)
                plist = pending[v]
                if not plist:
                    receivers.append(v)
                plist.append(message)
                edge_counts[link >> 1] += 1
            return
        heads = self._heads
        link_max = self._link_max
        is_active = self._link_is_active
        active = self._link_active
        strict_limit = self._strict_limit
        for v in targets:
            try:
                link = out_link[v]
            except KeyError:
                raise ValueError(f"node {node_id} has no neighbor {v}") from None
            key = (link << 20) | algorithm_id
            if key in sent:
                raise ValueError(
                    f"node {node_id} already sent to {v} for algorithm {algorithm_id} this round"
                )
            sent.add(key)
            buf = queues[link]
            backlog = len(buf) - heads[link]
            if backlog:
                if backlog >= strict_limit:
                    raise BandwidthExceededError(
                        f"link {node_id}->{v} exceeded capacity "
                        f"{strict_limit} per round"
                    )
                backlog += 1
                if backlog > link_max[link]:
                    link_max[link] = backlog
            buf.append(message)
            if not is_active[link]:
                is_active[link] = 1
                active.append(link)

    def multicast_links(self, links, targets, tag: str, payload: Any = None,
                        algorithm_id: int = 0) -> None:
        """Send one shared message over precomputed directed link ids.

        The link-mask variant of :meth:`multicast`, used by the primitives
        that carry a :class:`~repro.graphs.csr.CSRLinkMask`: ``links`` and
        ``targets`` are the parallel per-node slices of the mask (link ids
        and the neighbours they lead to), so the engine-wired path skips the
        per-target ``neighbor -> link`` dict lookups entirely.

        Trust contract: the caller guarantees that (a) every link id is a
        valid out-link of this node for the wired network's topology (true
        by construction for slices of a mask over the same CSR snapshot),
        (b) it sends at most once per link per round per algorithm id —
        the announce-once-per-round discipline of the BFS primitives — so
        the duplicate-send guard is skipped on the ring path, and (c) the
        payload is a scalar or small scalar tuple, so per-send payload
        validation is skipped too (the in-tree primitives only ever send
        ``(int, int)`` announcements over this path, plus the reliable
        channel's wire tuples, whose fields it validates once per unit).
        Per-link bandwidth accounting (strict capacity, backlog maxima) is
        identical to :meth:`multicast`.
        """
        queues = self._queues
        if queues is None:
            # Standalone mode: fall back to validated per-target sends.
            for v in targets:
                self.send(v, tag, payload, algorithm_id)
            return
        node_id = self.node_id
        message = Message(node_id, -1, tag, payload, algorithm_id)
        pending = self._express_pending
        if pending is not None:
            # Express lane (single-channel run): land straight in the
            # receivers' next-round inboxes, accounting per edge.
            receivers = self._pending_receivers
            edge_counts = self._edge_counts
            sent = self._sent_this_round
            for link, v in zip(links, targets):
                sent.add(link)
                plist = pending[v]
                if not plist:
                    receivers.append(v)
                plist.append(message)
                edge_counts[link >> 1] += 1
            return
        heads = self._heads
        link_max = self._link_max
        is_active = self._link_is_active
        active = self._link_active
        strict_limit = self._strict_limit
        for link in links:
            buf = queues[link]
            backlog = len(buf) - heads[link]
            if backlog:
                if backlog >= strict_limit:
                    raise BandwidthExceededError(
                        f"link {node_id}->{self._link_receiver(link)} exceeded "
                        f"capacity {strict_limit} per round"
                    )
                backlog += 1
                if backlog > link_max[link]:
                    link_max[link] = backlog
            buf.append(message)
            if not is_active[link]:
                is_active[link] = 1
                active.append(link)

    def out_link_ids(self, targets) -> Optional[list[int]]:
        """Directed link ids of sends to these neighbours, or ``None``.

        ``None`` on standalone (engine-less) contexts, where no link table
        exists; callers then fall back to :meth:`multicast`.  Used by
        primitives that repeatedly multicast to a fixed neighbour set (e.g.
        the pipelined numbering's down-stream) to precompute their
        :meth:`multicast_links` arguments once.
        """
        if self._queues is None:
            return None
        out = self._out_link
        return [out[v] for v in targets]

    def _link_receiver(self, link: int) -> int:
        """Best-effort reverse lookup of a link's receiver (error paths only)."""
        for neighbor, out in self._out_link.items():
            if out == link:
                return neighbor
        return -1

    def broadcast(self, tag: str, payload: Any = None, *, algorithm_id: int = 0) -> None:
        """Send the same message to every neighbour."""
        self.multicast(self.neighbors, tag, payload, algorithm_id)

    def halt(self) -> None:
        """Mark this node as locally terminated.

        A halted node still receives messages (and is woken up again if any
        arrive), matching the usual convention that termination is only
        final when the whole system is quiescent.
        """
        if not self.halted:
            self.halted = True
            awake = self._awake
            if awake is not None:
                awake.discard(self.node_id)

    def wake(self) -> None:
        """Clear the halted flag (called by the engine on message arrival)."""
        if self.halted:
            self.halted = False
            awake = self._awake
            if awake is not None:
                awake.add(self.node_id)

    # ------------------------------------------------------------------
    # engine-side helpers (not part of the algorithm-facing API)
    # ------------------------------------------------------------------
    def _collect_outbox(self) -> list[Message]:
        out, self._outbox = self._outbox, []
        self._sent_this_round.clear()
        return out

    def _neighbor_set(self) -> set[int]:
        cached = self.state.get("__neighbors_set")
        if cached is None:
            cached = set(self.neighbors)
            self.state["__neighbors_set"] = cached
        return cached
