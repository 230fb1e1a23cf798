"""Leader election and component identification by max-id flooding.

The distributed shortcut construction assumes (following [GH16]) that every
part ``S_i`` is identified by the maximum node id inside it and that all
part members know that id.  When the input does not come pre-labelled (for
example the Boruvka fragments of the MST application), this flooding
primitive establishes the labels: every node repeatedly announces the
largest id it has heard of, restricted to edges inside its part, and the
values stabilise after (induced) diameter rounds.

The same primitive run on the whole graph elects a global leader.
"""

from __future__ import annotations

from sys import intern
from typing import Optional

from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext


class FloodMax(DistributedAlgorithm):
    """Flood the maximum node id within each connected region.

    Outputs in ``node.state``:

    * ``<prefix>leader``: the largest id reachable through allowed edges;
    * ``<prefix>is_leader``: ``True`` on exactly the node achieving it.

    Args:
        allowed_adjacency: optional restriction of usable edges per node
            (``node -> set of neighbours``); nodes missing from the map do
            not participate and produce no output.
        prefix: state-key prefix.
        algorithm_id: message tag id for concurrent scheduling.
    """

    name = "flood_max"

    def __init__(
        self,
        *,
        allowed_adjacency: Optional[dict[int, set[int]]] = None,
        prefix: str = "flood_",
        algorithm_id: int = 0,
    ) -> None:
        self.allowed_adjacency = allowed_adjacency
        self.prefix = prefix
        self.algorithm_id = algorithm_id
        # Interned tag + precomputed keys, mirroring DistributedBFS: the
        # round handler is the per-touched-node hot path.
        self._tag_max = intern(prefix + "max")
        self._key_leader = intern(prefix + "leader")
        self._key_allowed = intern(prefix + "__allowed")

    def _allowed_neighbors(self, node: NodeContext) -> list[int]:
        # Instance-owned cache entry (see DistributedBFS._allowed_neighbors):
        # a same-prefix follow-up run must not inherit another instance's
        # filtered list.
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

    def _participates(self, node: NodeContext) -> bool:
        return self.allowed_adjacency is None or node.node_id in self.allowed_adjacency

    # ------------------------------------------------------------------
    bulk_capable = True

    def bulk_supported(self) -> bool:
        # A restricted adjacency keeps per-node filtered neighbour lists;
        # only the all-participate configuration vectorizes.
        return self.allowed_adjacency is None

    def bulk_kernel(self, network):
        from ..bulk import FloodMaxKernel

        return FloodMaxKernel.build(self, network)

    def initialize(self, node: NodeContext) -> None:
        if self._participates(node):
            node.state[self._key_leader] = node.node_id
            node.multicast(
                self._allowed_neighbors(node), self._tag_max, node.node_id, self.algorithm_id
            )
        node.halt()

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        if not self._participates(node):
            node.halt()
            return
        tag = self._tag_max
        algorithm_id = self.algorithm_id
        best = node.state[self._key_leader]
        improved = False
        for msg in messages:
            if msg.tag != tag or msg.algorithm_id != algorithm_id:
                continue
            if msg.payload > best:
                best = msg.payload
                improved = True
        if improved:
            node.state[self._key_leader] = best
            node.multicast(self._allowed_neighbors(node), tag, best, algorithm_id)
        node.halt()

    def finalize(self, network) -> None:
        """Mark the winning node in each region (driver-side convenience)."""
        for v, ctx in network.nodes.items():
            leader = ctx.state.get(self.prefix + "leader")
            if leader is not None:
                ctx.state[self.prefix + "is_leader"] = leader == v


def read_leaders(network, prefix: str = "flood_") -> dict[int, int]:
    """Return the map ``node -> elected leader`` from a finished FloodMax run."""
    result = {}
    for v, ctx in network.nodes.items():
        leader = ctx.state.get(prefix + "leader")
        if leader is not None:
            result[v] = leader
    return result
