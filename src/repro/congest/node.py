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
Every context is created by a :class:`~repro.congest.network.Network` and
is *wired* to it: it holds direct references to the engine's link arrays
plus a precomputed ``neighbor -> directed link id`` dict derived from the
graph's CSR snapshot, so :meth:`send` resolves the target link with a
single int-keyed dict lookup and enqueues the message straight onto the
link's queue — no per-message ``(sender, receiver)`` tuple key, no global
link dict, no outbox, and no neighbour-set rebuild.  The engine delivers
one message per link per round; a send onto an idle link (one whose
``is_active`` flag is clear, so its queue is empty) starts a fresh queue
list, and only a send onto a busy link reads the backlog to track the
backlog maximum.  Every wired context of one network shares a
single duplicate-send set: its keys pack the directed link id, which already
names the sender, and the engine clears it after every handler.
:meth:`halt` / :meth:`wake` incrementally maintain the engine's awake-node
worklist, which is what makes a round cost proportional to the nodes
actually touched.

A network builds its wired contexts only when something needs them: the
first per-node run, or the first read of ``Network.nodes`` /
``Network.node(v)``.  A context built that way is halted exactly when its
node is missing from the awake set (which stands in for the flags until
then) and already holds every per-node output the bulk kernels left since
the last reset, so it equals a context that existed throughout.  It starts
without its link dict: :meth:`send`, :meth:`multicast` and
:meth:`out_link_ids` fetch it from the topology's shared link table on
their first call (one ``is None`` test per call), and that table builds
every node's dict at once on the first request.  A context that is only
read never builds one; :meth:`multicast_links` needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .message import MAX_PAYLOAD_FIELDS, Message, check_payload


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
    state: dict[str, Any]
    halted: bool
    # The owning Network's duplicate-send set, shared by all its contexts.
    _sent_this_round: set = field(repr=False, compare=False)
    # Fetched from the network's shared link table
    # (``_link_table.row(node_id)``) on the first send, so a context that
    # is only read never builds one.
    _out_link: Optional[dict[int, int]] = field(repr=False, compare=False)
    _link_table: Any = field(repr=False, compare=False)
    # The link arrays are shared with — and mutated in place by — the
    # owning Network; keeping direct references here saves two attribute
    # hops per message on the hottest path in the simulator.
    _queues: list = field(repr=False, compare=False)
    _heads: list = field(repr=False, compare=False)
    _link_max: list = field(repr=False, compare=False)
    _link_is_active: bytearray = field(repr=False, compare=False)
    _link_active: list = field(repr=False, compare=False)
    _awake: set = field(repr=False, compare=False)
    # One-slot payload-validation memo: a broadcast/announce passes the same
    # payload object to every neighbour, so re-validating it per send is
    # pure overhead.  Holding the reference keeps the identity test sound
    # (validated payloads are scalars or tuples of scalars — immutable).
    _payload_ok: Any = field(default=None, repr=False, compare=False)

    def send(self, neighbor: int, tag: str, payload: Any = None, algorithm_id: int = 0) -> None:
        """Queue a message to ``neighbor`` for delivery next round.

        A node may send at most one message per neighbour per round *per
        algorithm id* (the random-delay scheduler multiplexes several
        sub-algorithms over one link; the link queue then meters them out).

        Raises:
            ValueError: if ``neighbor`` is not adjacent, the payload is too
                large, or a second message to the same neighbour is attempted
                for the same algorithm id in one round.
        """
        # Resolve the directed link from the precomputed per-node table.
        out_link = self._out_link
        if out_link is None:
            out_link = self._wire_links()
        try:
            link = out_link[neighbor]
        except KeyError:
            raise ValueError(f"node {self.node_id} has no neighbor {neighbor}") from None
        if payload is not None and payload is not self._payload_ok:
            check_payload(payload)
            self._payload_ok = payload
        sent = self._sent_this_round
        # Duplicate-send keys pack the directed link id (which also names
        # the sender, so one set serves the whole network) into one int
        # when the algorithm id is small (always, in practice), so the
        # guard costs no allocation.
        key = (link << 20) | algorithm_id if 0 <= algorithm_id < 1048576 else (link, algorithm_id)
        if key in sent:
            raise ValueError(
                f"node {self.node_id} already sent to {neighbor} for algorithm {algorithm_id} this round"
            )
        sent.add(key)
        queues = self._queues
        if self._link_is_active[link]:
            # Already-queued traffic: track the backlog maximum.  A backlog
            # of exactly 1 (the uncongested norm) is implied by any
            # delivery, so only larger backlogs are recorded; _deliver
            # floors the reported maximum at 1 once anything has been
            # delivered.
            buf = queues[link]
            backlog = len(buf) - self._heads[link] + 1
            link_max = self._link_max
            if backlog > link_max[link]:
                link_max[link] = backlog
            buf.append(Message(self.node_id, neighbor, tag, payload, algorithm_id))
        else:
            # An idle link has an empty queue: start a fresh one.
            queues[link] = [Message(self.node_id, neighbor, tag, payload, algorithm_id)]
            self._link_is_active[link] = 1
            self._link_active.append(link)

    def multicast(self, targets, tag: str, payload: Any = None, algorithm_id: int = 0) -> None:
        """Send the same message to every neighbour in ``targets``.

        Semantically identical to calling :meth:`send` once per target (the
        CONGEST cost is still one message per link), but it validates the
        payload once, allocates a *single* :class:`Message` shared by every
        target, and enqueues in one pass with the hot locals hoisted — this
        is the per-message fast path the flooding primitives use.  The shared message's ``receiver`` field is
        the sentinel ``-1``: delivery routes by directed link id, never by
        the field, and no algorithm-facing API exposes it for multicasts.
        """
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
        if out_link is None:
            out_link = self._wire_links()
        sent = self._sent_this_round
        node_id = self.node_id
        message = Message(node_id, -1, tag, payload, algorithm_id)
        queues = self._queues
        heads = self._heads
        link_max = self._link_max
        is_active = self._link_is_active
        active = self._link_active
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
            if is_active[link]:
                buf = queues[link]
                backlog = len(buf) - heads[link] + 1
                if backlog > link_max[link]:
                    link_max[link] = backlog
                buf.append(message)
            else:
                queues[link] = [message]
                is_active[link] = 1
                active.append(link)

    def multicast_links(self, links, tag: str, payload: Any = None,
                        algorithm_id: int = 0) -> None:
        """Send one shared message over precomputed directed link ids.

        The link-mask variant of :meth:`multicast`, used by the primitives
        that carry a :class:`~repro.graphs.csr.CSRLinkMask`: ``links`` is
        the per-node slice of the mask's directed link ids, so a send skips
        the per-target ``neighbor -> link`` dict lookups entirely.

        Trust contract: the caller guarantees that (a) every link id is a
        valid out-link of this node for the wired network's topology (true
        by construction for slices of a mask over the same CSR snapshot),
        (b) it sends at most once per link per round per algorithm id —
        the announce-once-per-round discipline of the BFS primitives — so
        the duplicate-send guard is skipped, and (c) the
        payload is a scalar or small scalar tuple, so per-send payload
        validation is skipped too (the in-tree primitives only ever send
        ``(int, int)`` announcements over this path, plus the reliable
        channel's wire tuples, whose fields it validates once per unit).
        Backlog accounting is identical to :meth:`multicast`.
        """
        message = Message(self.node_id, -1, tag, payload, algorithm_id)
        queues = self._queues
        heads = self._heads
        link_max = self._link_max
        is_active = self._link_is_active
        active = self._link_active
        for link in links:
            if is_active[link]:
                buf = queues[link]
                backlog = len(buf) - heads[link] + 1
                if backlog > link_max[link]:
                    link_max[link] = backlog
                buf.append(message)
            else:
                queues[link] = [message]
                is_active[link] = 1
                active.append(link)

    def out_link_ids(self, targets) -> list[int]:
        """Directed link ids of sends to these neighbours.

        Used by primitives that repeatedly multicast to a fixed neighbour
        set (e.g. the pipelined numbering's down-stream) to precompute
        their :meth:`multicast_links` arguments once.
        """
        out = self._out_link
        if out is None:
            out = self._wire_links()
        return [out[v] for v in targets]

    def _wire_links(self) -> dict[int, int]:
        """Fetch this wired context's ``neighbor -> link`` dict (first use)."""
        out = self._out_link = self._link_table.row(self.node_id)
        return out

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
            self._awake.discard(self.node_id)

    def wake(self) -> None:
        """Clear the halted flag (called by the engine on message arrival)."""
        if self.halted:
            self.halted = False
            self._awake.add(self.node_id)
