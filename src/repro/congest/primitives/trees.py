"""Convergecast and broadcast over already-built trees.

Once a BFS tree is available (from :class:`DistributedBFS`), the two
workhorse operations of the shortcut framework are:

* **convergecast**: combine a value from every tree node at the root with an
  associative, commutative operator (min / max / sum / count);
* **broadcast**: push a value from the root to every tree node.

The part-wise aggregation primitive (Fact 4.1 machinery) is exactly these
two operations executed simultaneously on all augmented part subgraphs, so
getting their message discipline right — one message per tree edge per
direction — is what makes the measured round complexities meaningful.

Child discovery is explicit: in the first phase every participating node
tells each tree neighbour whether it considers it its parent, so a node
knows precisely how many child contributions to wait for and the algorithm
is robust to message delays introduced by link congestion.
"""

from __future__ import annotations

from sys import intern
from typing import Any, Callable, Optional

from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext

#: Supported aggregation operators, mapping name -> (binary op, identity).
AGGREGATE_OPS: dict[str, tuple[Callable[[Any, Any], Any], Any]] = {
    "min": (min, float("inf")),
    "max": (max, float("-inf")),
    "sum": (lambda a, b: a + b, 0),
    "count": (lambda a, b: a + b, 0),
}


class TreeAggregate(DistributedAlgorithm):
    """Convergecast + optional broadcast over a parent-pointer tree.

    The tree is described by per-node state written by an earlier algorithm
    (typically :class:`DistributedBFS`): ``<tree_prefix>parent`` and
    ``<tree_prefix>root``.  Nodes without these keys do not participate.

    Phases per node:

    1. announce to every tree-adjacent neighbour whether it is this node's
       parent;
    2. once contributions from all children have arrived, send the combined
       value to the parent;
    3. (optional) the root broadcasts the final value back down the tree.

    Outputs in ``node.state``:

    * ``<prefix>result`` on the root (and, if ``broadcast_result`` is set,
      on every tree node): the aggregated value.

    Args:
        op: one of ``"min"``, ``"max"``, ``"sum"``, ``"count"``.
        value_key: state key holding each node's input value.  For
            ``"count"`` the key may be missing; each participating node then
            contributes 1.
        tree_prefix: prefix under which the tree's parent pointers live.
        prefix: prefix for this aggregation's own state and message tags.
        broadcast_result: whether to push the result back down the tree.
        algorithm_id: message tag id for concurrent scheduling.
    """

    name = "tree_aggregate"

    def __init__(
        self,
        op: str,
        *,
        value_key: Optional[str] = None,
        tree_prefix: str = "bfs_",
        prefix: str = "agg_",
        broadcast_result: bool = False,
        algorithm_id: int = 0,
        identity: Any = None,
    ) -> None:
        if op not in AGGREGATE_OPS:
            raise ValueError(f"unsupported aggregation op {op!r}")
        self.op_name = op
        self.op, self.identity = AGGREGATE_OPS[op]
        if identity is not None:
            # Custom identity: needed when the aggregated values are not
            # plain numbers (e.g. (weight, u, v) MWOE candidate tuples, whose
            # comparison with the numeric default identity would fail).
            self.identity = identity
        self.value_key = value_key
        self.tree_prefix = tree_prefix
        self.prefix = prefix
        self.broadcast_result = broadcast_result
        self.algorithm_id = algorithm_id
        # Interned tags + precomputed state keys: every touched node compares
        # its message tags against these once per round.
        self._tag_announce = intern(prefix + "announce")
        self._tag_up = intern(prefix + "up")
        self._tag_down = intern(prefix + "down")
        self._key_parent = intern(tree_prefix + "parent")
        self._key_children = intern(prefix + "children")
        self._key_child_values = intern(prefix + "child_values")
        self._key_sent_up = intern(prefix + "sent_up")
        self._key_announcements = intern(prefix + "announcements")
        self._key_result = intern(prefix + "result")

    # ------------------------------------------------------------------
    def _participates(self, node: NodeContext) -> bool:
        return self._key_parent in node.state

    def _parent(self, node: NodeContext) -> int:
        return node.state[self._key_parent]

    def _is_root(self, node: NodeContext) -> bool:
        return self._parent(node) == node.node_id

    def _own_value(self, node: NodeContext) -> Any:
        if self.op_name == "count":
            return 1 if self.value_key is None else node.state.get(self.value_key, 0)
        if self.value_key is None:
            raise ValueError(f"aggregation op {self.op_name!r} requires a value_key")
        return node.state.get(self.value_key, self.identity)

    # ------------------------------------------------------------------
    def initialize(self, node: NodeContext) -> None:
        if not self._participates(node):
            # A node outside the tree still answers the child-discovery
            # question: it tells every neighbour "I am not your child", so
            # tree nodes bordering non-participants know not to wait for
            # them.  This costs one message per incident edge.
            node.multicast(node.neighbors, self._tag_announce, 0, self.algorithm_id)
            node.halt()
            return
        parent = self._parent(node)
        node.state[self._key_children] = []
        node.state[self.prefix + "pending_children"] = None
        node.state[self._key_child_values] = []
        node.state[self._key_sent_up] = False
        node.state[self._key_announcements] = 0
        # Phase 1: tell every neighbour whether it is our parent.  Only
        # neighbours can possibly be tree-adjacent, and non-participating
        # neighbours simply ignore the announcement.
        is_root = self._is_root(node)
        for v in node.neighbors:
            is_parent = 1 if (v == parent and not is_root) else 0
            node.send(v, self._tag_announce, is_parent, algorithm_id=self.algorithm_id)
        node.halt()

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        if not self._participates(node):
            node.halt()
            return
        state = node.state
        algorithm_id = self.algorithm_id
        for msg in messages:
            if msg.algorithm_id != algorithm_id:
                continue
            if msg.tag == self._tag_announce:
                state[self._key_announcements] += 1
                if msg.payload == 1:
                    state[self._key_children].append(msg.sender)
            elif msg.tag == self._tag_up:
                state[self._key_child_values].append(msg.payload)
            elif msg.tag == self._tag_down:
                self._receive_result(node, msg.payload)
        self._maybe_send_up(node)
        node.halt()

    # ------------------------------------------------------------------
    def _maybe_send_up(self, node: NodeContext) -> None:
        state = node.state
        if state[self._key_sent_up]:
            return
        # We know our children only after every neighbour has announced.
        if state[self._key_announcements] < len(node.neighbors):
            return
        children = state[self._key_children]
        values = state[self._key_child_values]
        if len(values) < len(children):
            return
        combined = self._own_value(node)
        for v in values:
            combined = self.op(combined, v)
        state[self._key_sent_up] = True
        if self._is_root(node):
            self._receive_result(node, combined, is_root=True)
        else:
            node.send(self._parent(node), self._tag_up, combined, algorithm_id=self.algorithm_id)

    def _receive_result(self, node: NodeContext, value: Any, *, is_root: bool = False) -> None:
        node.state[self._key_result] = value
        if self.broadcast_result:
            node.multicast(node.state[self._key_children], self._tag_down, value, self.algorithm_id)


def read_aggregate(network, roots: Optional[set[int]] = None, prefix: str = "agg_") -> dict[int, Any]:
    """Return ``{node: aggregated value}`` from a finished :class:`TreeAggregate` run.

    Without broadcast, only tree roots hold a result; with
    ``broadcast_result=True`` every tree node does.

    Args:
        roots: if given, restrict the report to these node ids.
    """
    results: dict[int, Any] = {}
    for v, ctx in network.nodes.items():
        if prefix + "result" in ctx.state:
            if roots is None or v in roots:
                results[v] = ctx.state[prefix + "result"]
    return results
