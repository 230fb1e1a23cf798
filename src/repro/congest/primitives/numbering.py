"""Pipelined convergecast / broadcast numbering over a global BFS tree.

Stage 2 of the distributed shortcut construction numbers the large parts
``1 .. N'`` "using a global BFS tree, in ``O(D + N')`` rounds with
pipelining".  :class:`PipelinedNumbering` is that primitive, made concrete:

* every contributor (a large-part leader) injects one token (its id);
* tokens stream *up* the tree — one token per tree link per round, so a
  deep chain of tokens pipelines instead of serialising — each stream
  terminated by an ``end`` marker once all of a node's children have ended;
* the root ranks the collected tokens in ascending order and streams the
  results back *down*, again pipelined one item per round.  In ``"full"``
  broadcast mode every ``(token, rank)`` pair floods the whole tree and
  every node records the count plus any watched token's rank; in
  ``"count"`` mode each pair instead retraces the *reverse convergecast
  path* recorded while its token travelled up — so only the contributor
  that injected the token learns its rank — and only the final count
  floods the full tree.

``"count"`` is what the shortcut construction needs: a node sampling edges
for the large parts ``1 .. N'`` only needs the count (its samples are
tagged with abstract indices), and only each part *leader* must know which
index is its own (it tags its stage-4 BFS with it).  Full dissemination
costs ``Θ(N'·n)`` messages; the reverse-path mode ``O(N'·D + n)`` — the
rounds are ``O(D + N')`` pipelined either way.

Child discovery costs one round: each non-root node tells its tree parent
"I am your child" during initialization; because the algorithm is
single-channel (at most one message per directed link per round — claims,
up-stream and down-stream each occupy disjoint rounds per link), the engine
delivers all claims synchronously in round 1 and the child sets are final
from round 2 onward.

Total rounds are ``O(depth + N')`` — measured, not modelled: the engine
counts every queueing and pipelining round like any other algorithm.
"""

from __future__ import annotations

from sys import intern
from typing import Callable, Optional

from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext

#: Up-stream / down-stream message kinds.
_KIND_TOKEN = 0
_KIND_END = 1


class PipelinedNumbering(DistributedAlgorithm):
    """Collect, rank and re-broadcast tokens over an existing BFS tree.

    Args:
        tokens: map ``node id -> token`` of the contributors (each
            contributes exactly one token; tokens must be distinct ints).
        watch_token_of: optional callable ``node id -> token or None``; a
            node watching a token stores that token's rank in
            ``<prefix>rank`` when the down-stream passes.  (A part member
            watches its leader's id.)  Passing a sequence indexed by node
            id instead of a callable avoids a Python call per broadcast
            pair per node on the hot path.  Only meaningful in ``"full"``
            broadcast mode.
        broadcast: ``"full"`` floods every ranked pair to every tree node;
            ``"count"`` routes each pair back to its contributor only and
            floods just the count (see the module docstring).
        tree_prefix: state prefix under which a previous
            :class:`~repro.congest.primitives.bfs.DistributedBFS` left the
            tree's ``parent`` pointers.  Nodes without a parent pointer do
            not participate.
        prefix: state/tag prefix of this run.
        algorithm_id: message tag id for concurrent scheduling.

    Outputs:

    * ``<prefix>count`` (every tree node): the number of tokens ``N'``;
    * ``<prefix>rank``: the 1-based rank — on watching nodes in ``"full"``
      mode, on the contributors themselves in ``"count"`` mode;
    * :attr:`ranking` (driver-side, written at the root): the full
      ``token -> rank`` map.
    """

    name = "pipelined_numbering"

    def __init__(
        self,
        tokens: dict[int, int],
        *,
        watch_token_of: Optional[Callable[[int], Optional[int]]] = None,
        tree_prefix: str = "gt_",
        prefix: str = "num_",
        algorithm_id: int = 0,
        broadcast: str = "full",
    ) -> None:
        if broadcast not in ("full", "count"):
            raise ValueError(f"unknown broadcast mode {broadcast!r}")
        self.tokens = dict(tokens)
        if len(set(self.tokens.values())) != len(self.tokens):
            raise ValueError("contributor tokens must be distinct")
        self.watch_token_of = watch_token_of
        self._watch_seq = (
            watch_token_of
            if watch_token_of is not None and not callable(watch_token_of)
            else None
        )
        self.tree_prefix = tree_prefix
        self.prefix = prefix
        self.algorithm_id = algorithm_id
        self.broadcast_mode = broadcast
        self.ranking: dict[int, int] = {}
        self._tag_claim = intern(prefix + "claim")
        self._tag_up = intern(prefix + "up")
        self._tag_down = intern(prefix + "down")
        self._key_parent = intern(tree_prefix + "parent")
        self._key_children = intern(prefix + "children")
        self._key_queue = intern(prefix + "queue")
        self._key_ended = intern(prefix + "ended")
        self._key_sent_end = intern(prefix + "sent_end")
        self._key_collected = intern(prefix + "collected")
        self._key_down_queue = intern(prefix + "down_queue")
        self._key_count = intern(prefix + "count")
        self._key_rank = intern(prefix + "rank")
        self._key_child_links = intern(prefix + "child_links")
        self._key_route = intern(prefix + "route")

    # ------------------------------------------------------------------
    def initialize(self, node: NodeContext) -> None:
        parent = node.state.get(self._key_parent)
        if parent is None:
            node.halt()
            return
        state = node.state
        state[self._key_children] = []
        state[self._key_queue] = (
            [self.tokens[node.node_id]] if node.node_id in self.tokens else []
        )
        state[self._key_ended] = 0
        state[self._key_sent_end] = False
        # Reverse-path memory: which child handed us each token (``None``
        # marks a token contributed at this very node).
        state[self._key_route] = (
            {self.tokens[node.node_id]: None} if node.node_id in self.tokens else {}
        )
        if parent == node.node_id:
            state[self._key_collected] = list(state[self._key_queue])
            state[self._key_queue] = []
        else:
            node.send(parent, self._tag_claim, None, algorithm_id=self.algorithm_id)
        # Stay awake: every participant must run in round 1, when the claim
        # batch arrives and the child sets become final (leaves act on an
        # empty batch).  The explicit wake matters for ``reset=False`` runs,
        # where nodes arrive halted from the tree-building run.
        node.wake()

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        state = node.state
        if len(messages) == 1:
            # Broadcast-phase fast path: a finished (sent_end) non-root node
            # receiving one down-stream item — the dominant shape while the
            # ranked pairs pipeline through the tree.
            msg = messages[0]
            if (
                msg.tag == self._tag_down
                and msg.algorithm_id == self.algorithm_id
                and state.get(self._key_sent_end)
            ):
                self._handle_down(node, msg.payload)
                node.halt()
                return
        parent = state.get(self._key_parent)
        if parent is None or self._key_children not in state:
            node.halt()
            return
        children = state[self._key_children]
        algorithm_id = self.algorithm_id
        is_root = parent == node.node_id
        for msg in messages:
            if msg.algorithm_id != algorithm_id:
                continue
            tag = msg.tag
            if tag == self._tag_claim:
                children.append(msg.sender)
            elif tag == self._tag_up:
                kind, value = msg.payload
                if kind == _KIND_TOKEN:
                    state[self._key_route][value] = msg.sender
                    if is_root:
                        state[self._key_collected].append(value)
                    else:
                        state[self._key_queue].append(value)
                else:
                    state[self._key_ended] += 1
            elif tag == self._tag_down:
                self._handle_down(node, msg.payload)
        # All claims were sent during initialization, one per link, so by
        # the time any handler runs (round >= 1) the child set is final: an interior node's claims are in this very inbox,
        # processed above before any end-of-stream decision below.
        if self._key_down_queue in state:
            self._stream_down(node)
            return
        if state[self._key_sent_end]:
            node.halt()
            return
        if is_root:
            if state[self._key_ended] == len(children):
                # Convergecast complete: rank ascending and start streaming.
                collected = sorted(state[self._key_collected])
                self.ranking = {t: r for r, t in enumerate(collected, start=1)}
                state[self._key_sent_end] = True
                down = [(_KIND_TOKEN, t, r) for t, r in self.ranking.items()]
                down.append((_KIND_END, len(collected), 0))
                state[self._key_down_queue] = down
                self._record_count(node, len(collected))
                if self.broadcast_mode == "full":
                    for t, r in self.ranking.items():
                        self._record_rank(node, t, r)
                self._stream_down(node)
                return
            node.halt()
            return
        queue = state[self._key_queue]
        if queue:
            # Pipelining: one token per round towards the root; stay awake
            # while the local buffer drains.
            node.send(parent, self._tag_up, (_KIND_TOKEN, queue.pop(0)),
                      algorithm_id=algorithm_id)
            if node.halted:
                node.wake()
            return
        if state[self._key_ended] == len(children):
            node.send(parent, self._tag_up, (_KIND_END, 0), algorithm_id=algorithm_id)
            state[self._key_sent_end] = True
        node.halt()

    # ------------------------------------------------------------------
    def _forward_down(self, node: NodeContext, payload) -> None:
        """Multicast one down-stream item to the (fixed) children.

        The child set never changes once the down-phase starts, so the
        directed link ids are resolved once and reused (``None`` marks an
        engine-less context, which keeps the validated multicast path).
        """
        state = node.state
        children = state[self._key_children]
        if not children:
            return
        cached = state.get(self._key_child_links)
        if cached is None:
            cached = state[self._key_child_links] = node.out_link_ids(children)
        if cached is None:
            node.multicast(children, self._tag_down, payload, self.algorithm_id)
        else:
            node.multicast_links(cached, children, self._tag_down, payload,
                                 self.algorithm_id)

    def _route_or_record(self, node: NodeContext, payload) -> None:
        """Count mode: hand a ranked pair back down its reverse up-path."""
        token = payload[1]
        child = node.state[self._key_route].get(token, -1)
        if child is None:
            # The contributor itself: this is its rank.
            node.state[self._key_rank] = payload[2]
        elif child != -1:
            node.send(child, self._tag_down, payload, algorithm_id=self.algorithm_id)

    def _handle_down(self, node: NodeContext, payload) -> None:
        if payload[0] == _KIND_TOKEN:
            if self.broadcast_mode == "count":
                self._route_or_record(node, payload)
                return
            _, token, rank = payload
            self._record_rank(node, token, rank)
        else:
            self._record_count(node, payload[1])
        # Forward immediately: the root emits one item per round, so at most
        # one down message arrives per round and per-link bandwidth holds.
        self._forward_down(node, payload)

    def _stream_down(self, node: NodeContext) -> None:
        state = node.state
        down = state[self._key_down_queue]
        if down:
            item = down.pop(0)
            if self.broadcast_mode == "count" and item[0] == _KIND_TOKEN:
                self._route_or_record(node, item)
            else:
                self._forward_down(node, item)
        if down:
            if node.halted:
                node.wake()
        else:
            del state[self._key_down_queue]
            node.halt()

    def _record_count(self, node: NodeContext, count: int) -> None:
        node.state[self._key_count] = count

    def _record_rank(self, node: NodeContext, token: int, rank: int) -> None:
        seq = self._watch_seq
        if seq is not None:
            if seq[node.node_id] == token:
                node.state[self._key_rank] = rank
            return
        watcher = self.watch_token_of
        if watcher is not None and watcher(node.node_id) == token:
            node.state[self._key_rank] = rank
