"""Part-wise spanning verification by negative-flag convergecast.

Two stages of the distributed shortcut construction ask the same question,
part by part: *did the truncated BFS tree of this part reach every member?*

* Stage 1 (large-part detection): a part whose depth-``k_D`` tree from its
  leader missed a member has radius greater than ``k_D`` and is therefore
  large.
* Stage 5 (verification): a diameter guess is accepted only if every large
  part's augmented-subgraph tree spans its part.

:class:`PartwiseFlagConvergecast` answers it with measured rounds:

1. every *unreached* part member announces itself over its intra-part links
   (parts are connected and each contains its reached leader, so a missed
   member always implies a reached member adjacent to an unreached one);
2. a reached member that hears such an announcement raises a flag and sends
   it to its tree parent; every tree node forwards each part's flag at most
   once, so flags race up to the part leader (the tree root);
3. the leader waits out a ``timeout`` of ``depth + 2`` rounds (the flag's
   worst congestion-free travel time) before concluding "no flag = the tree
   spans" — the timeout is declared through the engine's timer protocol
   (``wake_at_rounds``), so the waiting rounds are charged without ticking
   every node.

On congestion-free trees the measured round count is exactly the timeout,
which coincides with the ``depth + 2`` the driver used to add analytically;
when flag traffic overruns the timeout (overlapping stage-5 trees), the
extra queueing rounds are measured like any others.
"""

from __future__ import annotations

from sys import intern
from typing import Callable, Optional, Sequence

from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext

#: ``tree_lookup`` result for nodes outside the tree.
_NOT_IN_TREE = (None, None)


class PartwiseFlagConvergecast(DistributedAlgorithm):
    """Check, for many parts at once, whether each part's tree spans it.

    Args:
        part_of: callable ``node id -> part index or None`` (the standard
            distributed input: every node knows its part).
        active_parts: the part indices to check; members of other parts do
            not participate.
        intra_mask: :class:`~repro.graphs.csr.CSRLinkMask` permitting
            exactly the intra-part edges (used for the unreached-member
            announcements; parts are vertex-disjoint so these links never
            collide across parts).
        tree_lookup: callable ``(part index, node id) -> (dist, parent)``
            describing each part's tree, with ``(None, None)`` for nodes
            the tree did not reach.  Works over ``node.state`` entries of a
            :class:`~repro.congest.primitives.bfs.DistributedBFS` as well
            as over the flat arrays of a
            :class:`~repro.congest.primitives.concurrent_bfs.ConcurrentMaskedBFS`.
        timeout: rounds the leaders wait before declaring success
            (``depth + 2`` for a depth-truncated tree).
        prefix: message tag prefix.

    Output: :attr:`flagged` — the set of part indices whose leader received
    a flag (i.e. whose tree does **not** span the part).
    """

    name = "partwise_flag_convergecast"

    def __init__(
        self,
        part_of: Callable[[int], Optional[int]],
        active_parts: Sequence[int],
        intra_mask,
        tree_lookup: Callable[[int, int], tuple[Optional[int], Optional[int]]],
        *,
        timeout: int,
        prefix: str = "span_",
    ) -> None:
        if timeout < 1:
            raise ValueError("timeout must be at least 1 round")
        self.part_of = part_of
        self.active_parts = frozenset(active_parts)
        self.intra_mask = intra_mask
        self.tree_lookup = tree_lookup
        self.timeout = timeout
        self.prefix = prefix
        self._tag_orphan = intern(prefix + "orphan")
        self._tag_flag = intern(prefix + "flag")
        self._key_forwarded = intern(prefix + "forwarded")
        self.flagged: set[int] = set()
        # Timer protocol: nothing executes at the deadline, but declaring it
        # makes the engine charge the leaders' waiting rounds, so the
        # measured round count includes the timeout.
        self.wake_at_rounds = (timeout,)

    # ------------------------------------------------------------------
    def initialize(self, node: NodeContext) -> None:
        part = self.part_of(node.node_id)
        if part is None or part not in self.active_parts:
            node.halt()
            return
        dist, _parent = self.tree_lookup(part, node.node_id)
        if dist is None:
            # Unreached member: tell the intra-part neighbours.  At least
            # one of them is reached (the part is connected and contains
            # its reached leader on the boundary side), and that neighbour
            # raises the flag.
            mask = self.intra_mask
            starts = mask.starts
            v = node.node_id
            s = starts[v]
            e = starts[v + 1]
            if s != e:
                node.multicast_links(
                    mask.links[s:e], mask.targets[s:e],
                    self._tag_orphan, part, part,
                )
        node.halt()

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        for msg in messages:
            tag = msg.tag
            if tag == self._tag_orphan or tag == self._tag_flag:
                self._raise_flag(node, msg.algorithm_id)
        node.halt()

    # ------------------------------------------------------------------
    def _raise_flag(self, node: NodeContext, part: int) -> None:
        v = node.node_id
        dist, parent = self.tree_lookup(part, v)
        if dist is None:
            # An orphan heard a fellow orphan: it is not in the tree and
            # cannot forward — the boundary neighbour will.
            return
        forwarded = node.state.get(self._key_forwarded)
        if forwarded is None:
            forwarded = node.state[self._key_forwarded] = set()
        if part in forwarded:
            return
        forwarded.add(part)
        if parent == v:
            # The leader: its part's tree does not span the part.
            self.flagged.add(part)
        else:
            node.send(parent, self._tag_flag, None, algorithm_id=part)
