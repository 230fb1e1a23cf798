"""Distributed BFS (full and truncated) in the CONGEST model.

BFS is the central primitive of the distributed shortcut construction: it is
used to detect large parts (truncated BFS of depth ``k_D`` inside each
``G[S_i]``), to build the trees along which part-wise aggregation runs, and
— under the random-delay scheduler — to grow all the augmented-subgraph
trees ``G[S_i] ∪ H_i`` in parallel.

The implementation is a distance-relaxation flood (unweighted Bellman-Ford):
a node adopts the smallest ``dist + 1`` it has heard and re-announces
whenever its distance improves.  With unit link bandwidth and no competing
traffic this completes in ``depth`` rounds and sends O(1) messages per edge;
under congestion (several BFS instances sharing a link) the link queues
stretch the round count, which is exactly the effect the random-delay
scheduling theorem (Theorem 2.1 in the paper, [Gha15]) controls.

Retry mode (``retry=RetryPolicy(...)``) tolerates message loss by changing
only the transport: the same start and relaxation code runs over a
:class:`~repro.congest.primitives.reliable.ReliableChannel`, whose units
carry the clean ``(dist, root)`` announcements (an improved distance
supersedes the neighbour's pending older one); numbering, acks and
retransmission all live in the channel.
"""

from __future__ import annotations

from sys import intern
from typing import Optional

from ..adversary import RetryPolicy
from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext
from .reliable import ReliableChannel

#: Unit kind of a retry-mode announcement on the reliable channel.
_ANNOUNCE = 0


class DistributedBFS(DistributedAlgorithm):
    """Grow a BFS tree from one or more sources, optionally truncated.

    Outputs (in ``node.state``), all prefixed by ``prefix``:

    * ``<prefix>dist``: hop distance from the nearest source (missing if the
      node was not reached);
    * ``<prefix>parent``: BFS parent (sources point to themselves);
    * ``<prefix>root``: id of the source whose tree the node joined.

    Args:
        sources: the BFS roots.
        allowed_adjacency: optional map ``node -> iterable of neighbours``
            restricting which edges the BFS may use; nodes absent from the
            map never participate.  This is how a BFS "inside ``G[S_i] ∪
            H_i``" is expressed — each node knows its incident shortcut
            edges, which is exactly the local knowledge the distributed
            construction provides.
        allowed_links: the CSR-native form of the same restriction — a
            :class:`~repro.graphs.csr.CSRLinkMask` whose per-node slices
            give the permitted neighbours *and* the directed link ids to
            send over, so announcements take the allocation-free
            ``multicast_links`` path.  Mutually exclusive with
            ``allowed_adjacency``; produces the identical tree (pinned by
            ``tests/test_distributed_pipeline.py``).
        max_depth: truncate the tree at this depth (``None`` = unbounded).
        prefix: state-key prefix, so several BFS results can coexist.
        algorithm_id: id used to tag messages when running under the
            random-delay scheduler.
        retry: optional :class:`~repro.congest.adversary.RetryPolicy`
            enabling the drop-tolerant mode: the same start and relaxation
            logic, with every announcement carried as a unit of a
            :class:`~repro.congest.primitives.reliable.ReliableChannel`
            (sequence numbers, cumulative acks, per-unit retransmission
            timers; a re-announced better distance supersedes the
            neighbour's pending older one).
            The channel sends at most one wire message per link per round,
            so the CONGEST discipline is unchanged.  A retry-mode instance
            is single-run, like the fleet primitives.
    """

    name = "bfs"

    def __init__(
        self,
        sources: set[int],
        *,
        allowed_adjacency: Optional[dict[int, set[int]]] = None,
        allowed_links=None,
        max_depth: Optional[int] = None,
        prefix: str = "bfs_",
        algorithm_id: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not sources:
            raise ValueError("at least one BFS source is required")
        if allowed_adjacency is not None and allowed_links is not None:
            raise ValueError("pass either allowed_adjacency or allowed_links, not both")
        self.sources = set(sources)
        self.allowed_adjacency = allowed_adjacency
        self.allowed_links = allowed_links
        self.max_depth = max_depth
        self.prefix = prefix
        self.algorithm_id = algorithm_id
        # Interned tag and precomputed state keys: the round handler runs
        # once per touched node per round, so it must not rebuild these
        # strings by concatenation on every call.  Interning the tag makes
        # the receive-side comparison a pointer check.
        self._tag_explore = intern(prefix + "explore")
        self._key_dist = intern(prefix + "dist")
        self._key_parent = intern(prefix + "parent")
        self._key_root = intern(prefix + "root")
        self._key_allowed = intern(prefix + "__allowed")
        self.retry = retry
        self._channel = None
        if retry is not None:
            self._channel = ReliableChannel({algorithm_id: self._tag_explore}, retry)

    # ------------------------------------------------------------------
    bulk_capable = True

    def bulk_supported(self) -> bool:
        # Retry mode re-introduces per-node timer logic; a dict-of-sets
        # adjacency keeps per-node filtered lists.  A CSR ``allowed_links``
        # mask (or no restriction) vectorizes.
        return self.retry is None and self.allowed_adjacency is None

    def bulk_kernel(self, network):
        from ..bulk import BFSKernel

        return BFSKernel.build(self, network)

    # ------------------------------------------------------------------
    def _allowed_neighbors(self, node: NodeContext) -> list[int]:
        # Cached per node (under this BFS's prefix): the filtered neighbour
        # list is re-announced on every distance improvement, so rebuilding
        # it from the allowed-set each time is pure per-round overhead.  The
        # entry is owned by this instance — a later ``reset=False`` run of a
        # *different* BFS with the same prefix must not inherit a filter
        # built from someone else's allowed_adjacency.
        entry = node.state.get(self._key_allowed)
        if entry is not None and entry[0] is self:
            return entry[1]
        if self.allowed_adjacency is None:
            cached = list(node.neighbors)
        else:
            allowed = self.allowed_adjacency.get(node.node_id)
            if allowed is None:
                cached = []
            else:
                cached = [v for v in node.neighbors if v in allowed]
        node.state[self._key_allowed] = (self, cached)
        return cached

    def _announce(self, node: NodeContext) -> None:
        dist = node.state[self._key_dist]
        if self.max_depth is not None and dist >= self.max_depth:
            return
        mask = self.allowed_links
        channel = self._channel
        if channel is not None:
            v = node.node_id
            if mask is not None:
                targets = mask.targets[mask.starts[v]:mask.starts[v + 1]]
            else:
                targets = self._allowed_neighbors(node)
            channel.send_units(
                self.algorithm_id, v, targets, _ANNOUNCE,
                (dist, node.state[self._key_root]),
            )
            return
        if mask is not None:
            starts = mask.starts
            v = node.node_id
            s = starts[v]
            e = starts[v + 1]
            if s != e:
                node.multicast_links(
                    mask.links[s:e],
                    mask.targets[s:e],
                    self._tag_explore,
                    (dist, node.state[self._key_root]),
                    self.algorithm_id,
                )
            return
        node.multicast(
            self._allowed_neighbors(node),
            self._tag_explore,
            (dist, node.state[self._key_root]),
            self.algorithm_id,
        )

    # ------------------------------------------------------------------
    def initialize(self, node: NodeContext) -> None:
        if node.node_id in self.sources:
            node.state[self._key_dist] = 0
            node.state[self._key_parent] = node.node_id
            node.state[self._key_root] = node.node_id
            self._announce(node)
        if self._channel is not None:
            self._channel.end_round(node, self.current_round)
            return
        node.halt()

    @property
    def abandoned(self) -> int:
        """Units the retry channel gave up on (0 without retry)."""
        return 0 if self._channel is None else self._channel.abandoned

    def on_crash(self, node: NodeContext) -> None:
        if self._channel is not None:
            self._channel.on_crash(node.node_id)

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        channel = self._channel
        if channel is not None:
            # Retry mode: the clean relaxation below over the decoded units.
            self._relax(node, channel.receive(node, messages, (channel.tags,)))
            channel.end_round(node, self.current_round)
            return
        self._relax(node, messages)

    def _relax(self, node: NodeContext, messages: list[Message]) -> None:
        tag = self._tag_explore
        algorithm_id = self.algorithm_id
        if len(messages) == 1:
            # Unit bandwidth delivers one message per round per link, so
            # single-message inboxes dominate; skip the candidate ranking.
            msg = messages[0]
            if msg.tag == tag and msg.algorithm_id == algorithm_id:
                dist, root = msg.payload
                new_dist = dist + 1
                state = node.state
                current = state.get(self._key_dist)
                if current is None or new_dist < current:
                    state[self._key_dist] = new_dist
                    state[self._key_parent] = msg.sender
                    state[self._key_root] = root
                    self._announce(node)
            node.halt()
            return
        best: Optional[tuple[int, int, int]] = None  # (dist, root, sender)
        for msg in messages:
            if msg.tag != tag or msg.algorithm_id != algorithm_id:
                continue
            dist, root = msg.payload
            candidate = (dist + 1, root, msg.sender)
            if best is None or candidate < best:
                best = candidate
        if best is not None:
            current = node.state.get(self._key_dist)
            new_dist, root, sender = best
            if current is None or new_dist < current:
                node.state[self._key_dist] = new_dist
                node.state[self._key_parent] = sender
                node.state[self._key_root] = root
                self._announce(node)
        node.halt()


def extract_bfs_tree(network, prefix: str = "bfs_") -> tuple[dict[int, int], dict[int, int]]:
    """Read back the ``(parent, dist)`` maps of a finished BFS from a network.

    Only nodes that were reached appear in the maps.
    """
    parent: dict[int, int] = {}
    dist: dict[int, int] = {}
    for v, ctx in network.nodes.items():
        d = ctx.state.get(prefix + "dist")
        if d is not None:
            dist[v] = d
            parent[v] = ctx.state[prefix + "parent"]
    return parent, dist
