"""Part-wise aggregation over shortcut-augmented part trees (Fact 4.1).

Every Section-4 application consumes shortcuts through one runtime
operation: *given a value at some nodes of every part, compute an
associative aggregate (min / max / sum) per part over the part's
shortcut-augmented subgraph, and make the result known to the part*.  This
module is the CONGEST runtime for that operation — the piece that actually
routes aggregates through shortcut edges instead of charging their cost
analytically.

The execution is the paper's recipe, fully simulated and CSR-native:

1. **Trees.**  One truncated BFS instance per part grows a tree of its
   augmented subgraph ``G[S_i] ∪ H_i`` from the part leader; all instances
   run simultaneously under random start delays (Theorem 2.1) as a
   :class:`~repro.congest.primitives.concurrent_bfs.ConcurrentMaskedBFS`
   fleet whose allowed subgraphs are
   :class:`~repro.graphs.csr.CSRLinkMask` flat link views.
2. **Convergecast + broadcast.**  :class:`PartAggregation` (below) runs the
   upward combine and the downward result broadcast of every instance
   concurrently over those trees, again metering all traffic through the
   engine's per-link queues, so the measured round count genuinely reflects
   congestion + dilation.

Message discipline of :class:`PartAggregation`, per instance:

* **announce** — every node with permitted links in the instance's mask
  multicasts the id of its tree parent (``-1`` if the BFS never reached it)
  over exactly those links.  A receiver counts announcements against its
  own mask degree, so it learns its children — and that its child set is
  complete — from local knowledge only, robustly to queueing delays.
* **up** — once a node has heard all announcements and one value per
  child, it combines them with its own input value (nodes outside the part
  carry no input and act as relays) and sends the result to its parent.
* **down** — the root (the part leader) combines the final value and, when
  ``broadcast_result`` is set, pushes it back down the tree edges.

Everything a node acts on is local: its mask slice, its own parent pointer
from the BFS stage, and received messages.  State lives on the algorithm
object, never in the engine-facing ``node.state`` dicts.  A per-node run
keeps it in per-instance dicts keyed by touched node, so memory follows the
touched set, not ``instances × n``.  A bulk run keeps it in the kernel's
slot arrays (:mod:`repro.congest.bulk`); those dicts, ``delivered``
included, are built from the arrays only when something reads them — a
caller indexing ``delivered``, or a per-node rerun of the object, which
builds them all before its first step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from numbers import Integral
from sys import intern
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ...graphs.csr import CSRLinkMask
from ...rng import RandomLike, ensure_rng
from ..adversary import Adversary, RetryPolicy
from ..algorithm import DistributedAlgorithm
from ..bulk import LazyRows, SlotLayout
from ..message import Message
from ..network import Network
from ..node import NodeContext
from ..scheduler import draw_random_delays, mask_congestion
from .concurrent_bfs import UNREACHED, ConcurrentMaskedBFS
from .reliable import ReliableChannel

#: Supported aggregation operators, mapping name -> (binary op, identity).
AGGREGATE_OPS: dict[str, tuple[Callable[[Any, Any], Any], Any]] = {
    "min": (min, float("inf")),
    "max": (max, float("-inf")),
    "sum": (lambda a, b: a + b, 0),
    "count": (lambda a, b: a + b, 0),
}

#: Sentinel distinguishing "no input value at this node" from any real value.
_MISSING = object()

#: Unit kinds of the retry-mode reliable channel: positions in the
#: ``(ann, up, down)`` clean-tag table the channel decodes units into.
_ANN = 0
_UP = 1
_DOWN = 2


class PartAggregation(DistributedAlgorithm):
    """Concurrent convergecast + broadcast over masked part trees.

    Args:
        masks: one :class:`~repro.graphs.csr.CSRLinkMask` per instance — the
            augmented subgraph whose tree the instance aggregates over.
            Masks must permit both directions of every allowed edge (all
            mask constructors in :mod:`repro.graphs.csr` do), which is how
            a node's mask degree doubles as its announcement quota.
        parents: per-instance tree parent pointers indexed by node id
            (typically the ``parent`` output of a
            :class:`ConcurrentMaskedBFS` fleet over the same masks): roots
            point to themselves, unreached nodes carry
            :data:`~repro.congest.primitives.concurrent_bfs.UNREACHED`.
        values: per-instance input values, ``{node: value}``; only part
            members should carry entries (relay nodes of an augmented
            subgraph must not contribute to the part's aggregate).
        op: ``"min"``, ``"max"``, ``"sum"`` or ``"count"``.  Only
            ``"min"``/``"max"`` over totally ordered values run on the bulk
            kernel; the rest run per-node (``bulk_declined`` says so).
        delays: per-instance start delays in rounds (Theorem 2.1); declared
            through the engine's timer protocol so waiting nodes halt.
        identity: override the operator identity (required when values are
            non-numeric, e.g. ``(weight, u, v)`` MWOE candidate tuples).
        broadcast_result: push each instance's result back down its tree.
        prefixes: per-instance message-tag prefixes (default ``pa<i>_``).
        retry: optional :class:`~repro.congest.adversary.RetryPolicy`
            enabling the drop-tolerant mode: every announce/up/down unit is
            carried by a :class:`~repro.congest.primitives.reliable.
            ReliableChannel` (sequence numbers, cumulative acks,
            per-unit retransmission timers) over per-instance
            ``<prefix>rel`` tags, so the protocol completes correctly
            under message loss.  The channel sends at most one wire
            message per (instance, neighbour) per round, preserving the
            CONGEST discipline.  A retry-mode instance is single-run.

    Outputs on the algorithm object:

    * ``results[i]`` — instance ``i``'s aggregate (the identity if nothing
      contributed), available once the root completed;
    * ``delivered[i]`` — ``{node: value}`` broadcast receipts (root
      included), when ``broadcast_result`` is set; after a bulk run each
      dict is built when first read.

    Raises:
        ValueError: a value key is not a vertex id in ``[0, n)`` (the same
            on the bulk and the per-node path).
    """

    name = "part_aggregation"

    def __init__(
        self,
        masks: Sequence[CSRLinkMask],
        parents: Sequence,
        values: Sequence[dict[int, Any]],
        op: str,
        *,
        delays: Optional[Sequence[int]] = None,
        identity: Any = None,
        broadcast_result: bool = True,
        prefixes: Optional[Sequence[str]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        num = len(masks)
        if not (num == len(parents) == len(values)):
            raise ValueError("masks, parents and values must align")
        if op not in AGGREGATE_OPS:
            raise ValueError(f"unsupported aggregation op {op!r}")
        if delays is None:
            delays = [0] * num
        if len(delays) != num:
            raise ValueError("need exactly one delay per instance")
        if prefixes is None:
            prefixes = [f"pa{i}_" for i in range(num)]
        if len(prefixes) != num:
            raise ValueError("need exactly one prefix per instance")
        self.masks = list(masks)
        # A fleet's label view stays a view: the bulk kernel takes its parent
        # array as it is, and a per-node run builds the rows.
        self.parents = parents if isinstance(parents, LazyRows) else list(parents)
        self.values = list(values)
        self.op, default_identity = AGGREGATE_OPS[op]
        self.identity = default_identity if identity is None else identity
        self.broadcast_result = broadcast_result
        self.delays = list(delays)
        self._tags_ann = [intern(p + "ann") for p in prefixes]
        self._tags_up = [intern(p + "up") for p in prefixes]
        self._tags_down = [intern(p + "down") for p in prefixes]

        # Value holders are participants, so their keys must be vertex ids.
        n = max((mask.num_vertices for mask in self.masks), default=0)
        self._n = n
        holder_i: list[int] = []
        holder_v: list[int] = []
        for idx, vals in enumerate(self.values):
            for v in vals:
                if not (isinstance(v, Integral) and 0 <= v < n):
                    raise ValueError(
                        f"instance {idx}: value key {v!r} is not a vertex id "
                        f"in [0, {n})"
                    )
                holder_i.append(idx)
                holder_v.append(v)
        self._holders = (np.asarray(holder_i, dtype=np.int64),
                         np.asarray(holder_v, dtype=np.int64))

        self.results: list[Any] = [self.identity] * num
        # Per-instance sparse bookkeeping, keyed by touched node only.  The
        # rows are built on first read (see the module docstring); a
        # per-node run turns every view into a plain list first.
        self.delivered: Sequence[dict[int, Any]] = LazyRows(num, dict)
        self._heard = LazyRows(num, dict)
        self._child_targets = LazyRows(num, dict)
        self._child_links = LazyRows(num, dict)
        self._child_values = LazyRows(num, dict)
        self._done = LazyRows(num, set)
        # node -> ascending [(delay, idx)] of the instances the node has yet
        # to start, built for the first per-node run (``None`` until then);
        # a bulk run only notes the last start round it executed.
        self._pending: Optional[dict[int, list[tuple[int, int]]]] = None
        self._started_through: Optional[int] = None
        self._layout: Optional[SlotLayout] = None
        self._kernel_state = False
        # Timer protocol: the delays are globally known start rounds, so
        # waiting nodes halt and the engine revives everyone exactly then.
        self.wake_at_rounds = tuple(sorted({d for d in self.delays if d > 0}))
        self.retry = retry
        self._channel = None
        if retry is not None:
            self._channel = ReliableChannel(
                {idx: intern(p + "rel") for idx, p in enumerate(prefixes)}, retry
            )

    # ------------------------------------------------------------------
    bulk_capable = True

    def bulk_supported(self) -> bool:
        # The retry channel interleaves acks with payload traffic; only the
        # plain fire-and-forget configuration vectorizes.
        return self.retry is None

    def bulk_kernel(self, network):
        from ..bulk import PartAggregationKernel

        return PartAggregationKernel.build(self, network)

    def _slot_layout(self, n: int) -> SlotLayout:
        """The participants of every instance: the mask participants (the
        tree fleet's layout, when the parents come from a fleet over these
        masks) plus every value holder outside them."""
        layout = self._layout
        if layout is None or not layout.matches(self.masks, n):
            fleet = getattr(self.parents, "layout", None)
            if fleet is not None and fleet.matches(self.masks, n):
                base = fleet.base
            else:
                base = SlotLayout(self.masks, n)
            layout = self._layout = base.with_extras(*self._holders)
        return layout

    def _resumed(self) -> bool:
        """Whether a run already left per-node state (or started per-node)."""
        return self._kernel_state or self._pending is not None

    def _leave_state(self, final_round: int, fills: dict) -> None:
        """Take a bulk run's outcome: the start rounds it executed, and row
        fillers building each per-node container from its arrays on read."""
        through = self._started_through
        self._started_through = (
            final_round if through is None else max(through, final_round)
        )
        for name, fill in fills.items():
            getattr(self, name).absorb(fill)
        if fills:
            self._kernel_state = True

    def _materialize(self) -> None:
        """Build every per-node container before a per-node run's first
        step: its handlers index plain lists and dicts."""
        self.parents = list(self.parents)
        self.delivered = list(self.delivered)
        self._heard = list(self._heard)
        self._child_targets = list(self._child_targets)
        self._child_links = list(self._child_links)
        self._child_values = list(self._child_values)
        self._done = list(self._done)
        # Participants of an instance are the nodes with permitted links
        # plus any node holding an input value (covers isolated singleton
        # parts, whose mask is empty); instances a bulk run started are
        # done.
        pending: dict[int, list[tuple[int, int]]] = {}
        if self.masks:
            layout = self._slot_layout(self._n)
            slot_i, slot_v = layout.slot_i, layout.slot_v
            if self._started_through is not None:
                keep = np.asarray(self.delays)[slot_i] > self._started_through
                slot_i, slot_v = slot_i[keep], slot_v[keep]
            pairs = [(delay, idx) for idx, delay in enumerate(self.delays)]
            setd = pending.setdefault
            for i, v in zip(slot_i.tolist(), slot_v.tolist()):
                setd(v, []).append(pairs[i])
            for lst in pending.values():
                lst.sort()
        self._pending = pending

    # ------------------------------------------------------------------
    def _link_to(self, idx: int, v: int, target: int) -> int:
        """Directed link id of ``v -> target`` in instance ``idx``'s mask.

        Mask targets are ascending per node, so a bounded bisect on the
        flat target list finds the adjacency position without slicing.
        """
        mask = self.masks[idx]
        starts = mask.starts
        pos = bisect_left(mask.targets, target, starts[v], starts[v + 1])
        return mask.links[pos]

    def _start_instance(self, idx: int, node: NodeContext) -> None:
        v = node.node_id
        mask = self.masks[idx]
        starts = mask.starts
        s = starts[v]
        e = starts[v + 1]
        if s != e:
            parent = self.parents[idx][v]
            if self._channel is not None:
                self._channel.send_units(idx, v, mask.targets[s:e], _ANN, parent)
                return
            node.multicast_links(mask.links[s:e], self._tags_ann[idx], parent, idx)
        else:
            # Isolated participant (a singleton part with no permitted
            # links): its aggregate is its own value, available at once.
            self._maybe_send_up(idx, v, node)

    def initialize(self, node: NodeContext) -> None:
        if self._pending is None:
            self._materialize()
        lst = self._pending.get(node.node_id)
        if lst:
            while lst and lst[0][0] <= 0:
                self._start_instance(lst.pop(0)[1], node)
            if not lst:
                del self._pending[node.node_id]
        if self._channel is not None:
            self._channel.end_round(node, self.current_round)
            return
        node.halt()

    # ------------------------------------------------------------------
    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        pending = self._pending
        if pending:
            v = node.node_id
            lst = pending.get(v)
            if lst:
                # current_round is engine-maintained on every per-node run;
                # with all delays zero this branch is unreachable because
                # initialize drained every pending list.
                rnd = self.current_round
                while lst and lst[0][0] <= rnd:
                    self._start_instance(lst.pop(0)[1], node)
                if not lst:
                    del pending[v]
        channel = self._channel
        if channel is not None and messages:
            # Retry mode: the units decode to the clean-mode messages.
            messages = channel.receive(
                node, messages, (self._tags_ann, self._tags_up, self._tags_down)
            )
        if messages:
            v = node.node_id
            touched: list[int] = []
            for msg in messages:
                idx = msg.algorithm_id
                tag = msg.tag
                if tag == self._tags_ann[idx]:
                    heard = self._heard[idx]
                    heard[v] = heard.get(v, 0) + 1
                    if msg.payload == v:
                        self._child_targets[idx].setdefault(v, []).append(msg.sender)
                        self._child_links[idx].setdefault(v, []).append(
                            self._link_to(idx, v, msg.sender)
                        )
                    touched.append(idx)
                elif tag == self._tags_up[idx]:
                    self._child_values[idx].setdefault(v, []).append(msg.payload)
                    touched.append(idx)
                elif tag == self._tags_down[idx]:
                    self._deliver_down(idx, v, node, msg.payload)
            for idx in touched:
                self._maybe_send_up(idx, v, node)
        if channel is not None:
            channel.end_round(node, self.current_round)
            return
        node.halt()

    # ------------------------------------------------------------------
    def _maybe_send_up(self, idx: int, v: int, node: NodeContext) -> None:
        done = self._done[idx]
        if v in done:
            return
        mask = self.masks[idx]
        starts = mask.starts
        expected = starts[v + 1] - starts[v]
        if self._heard[idx].get(v, 0) < expected:
            return
        children = self._child_targets[idx].get(v)
        child_values = self._child_values[idx].get(v)
        if children and len(child_values or ()) < len(children):
            return
        own = self.values[idx].get(v, _MISSING)
        combined = self.identity if own is _MISSING else own
        if child_values:
            op = self.op
            for value in child_values:
                combined = op(combined, value)
        done.add(v)
        parent = self.parents[idx][v]
        if parent == v:
            self.results[idx] = combined
            self._deliver_down(idx, v, node, combined)
        elif parent != UNREACHED:
            if self._channel is not None:
                self._channel.send_unit(idx, v, parent, _UP, combined)
            else:
                node.send(
                    parent, self._tags_up[idx], combined,
                    algorithm_id=idx,
                )
        # Unreached nodes have no parent and contribute nothing: after
        # announcing they only relay announcement counts and fall silent.

    def _deliver_down(self, idx: int, v: int, node: NodeContext, value: Any) -> None:
        if not self.broadcast_result:
            if self.parents[idx][v] == v:
                self.delivered[idx][v] = value
            return
        self.delivered[idx][v] = value
        targets = self._child_targets[idx].get(v)
        if targets:
            if self._channel is not None:
                self._channel.send_units(idx, v, targets, _DOWN, value)
                return
            node.multicast_links(
                self._child_links[idx][v], self._tags_down[idx], value, idx,
            )

    # ------------------------------------------------------------------
    @property
    def abandoned(self) -> int:
        """Units the retry channel gave up on (0 without retry)."""
        return 0 if self._channel is None else self._channel.abandoned

    def on_crash(self, node: NodeContext) -> None:
        if self._pending is None:
            self._materialize()
        v = node.node_id
        if self._channel is not None:
            self._channel.on_crash(v)
        for idx in range(len(self.masks)):
            self._heard[idx].pop(v, None)
            self._child_targets[idx].pop(v, None)
            self._child_links[idx].pop(v, None)
            self._child_values[idx].pop(v, None)
            self._done[idx].discard(v)
            self.delivered[idx].pop(v, None)

    def on_recover(self, node: NodeContext) -> None:
        # Passive recovery: re-announcing would increment neighbours'
        # announcement counts past their mask-degree quota and duplicate
        # child registrations.  A recovered node rejoins as a silent
        # relay; the instance's aggregate may degrade (the orchestration
        # layer surfaces that as a partial run), but never double-counts.
        node.halt()


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
@dataclass
class FleetAggregationResult:
    """Measured outcome of one two-stage part-aggregation run.

    Attributes:
        results: per-instance aggregates, in instance order.
        delivered: per-instance broadcast receipts ``{node: value}``.
        rounds: total simulated rounds (tree stage + aggregation stage).
        bfs_rounds: rounds of the concurrent tree-growing stage.
        aggregation_rounds: rounds of the convergecast/broadcast stage.
        messages: messages delivered across both stages.
        congestion: the masks' congestion ``ĉ`` (see
            :func:`~repro.congest.scheduler.mask_congestion`), which bounded
            both stages' start delays to ``[0, ĉ - 1]``.
        fleet: the tree-stage fleet (per-instance ``dist``/``parent``
            labels, for callers that need the trees).
    """

    results: list[Any]
    delivered: list[dict[int, Any]]
    rounds: int
    bfs_rounds: int
    aggregation_rounds: int
    messages: int
    congestion: int
    fleet: ConcurrentMaskedBFS


def run_part_aggregation(
    network: Network,
    roots: Sequence[int],
    masks: Sequence[CSRLinkMask],
    values: Sequence[dict[int, Any]],
    op: str,
    *,
    identity: Any = None,
    broadcast_result: bool = True,
    rng: RandomLike,
    max_rounds: int = 200_000,
    retry: Optional[RetryPolicy] = None,
    adversary: Optional[Adversary] = None,
) -> FleetAggregationResult:
    """Run the full two-stage aggregation fleet and measure its rounds.

    Stage 1 grows one BFS tree per instance over its mask (all instances
    concurrently, random start delays); stage 2 runs
    :class:`PartAggregation` over the resulting trees with freshly drawn
    delays.  Both stages execute on ``network`` (which is reset first) and
    the reported rounds are the sum of the two measured stages.

    Both stages draw one start delay per instance uniformly from
    ``[0, ĉ - 1]``, where ``ĉ`` is the congestion of ``masks`` — the most
    instance masks that permit one directed link — as Theorem 2.1 asks.
    Masks that share no link (``ĉ <= 1``) start every instance at once.
    Like the masks, ``ĉ`` is a property of the shortcut the caller hands
    in; building it is not charged here.

    Args:
        network: the CONGEST network of the host graph.
        roots: one tree root per instance (the part leaders).
        masks: one allowed-subgraph mask per instance.
        values: one ``{node: value}`` input map per instance.
        op: aggregation operator name.
        identity: operator identity override (see :class:`PartAggregation`).
        broadcast_result: push results back down the trees.
        rng: randomness for the two delay draws (one ``randint`` per
            instance per stage); required, so a run is reproducible from
            its arguments.
        max_rounds: safety cap per stage.
        retry: enable the drop-tolerant ack/retransmit mode in both stages
            (required for correct results under a lossy ``adversary``).
        adversary: optional fault injector applied to *both* stage runs
            (it is re-``reset`` by each run, so e.g. a
            :class:`~repro.congest.adversary.CrashAdversary` replays its
            schedule per stage).  Stalled stages raise
            :class:`~repro.congest.network.PartialRunError`.
    """
    num = len(roots)
    if not (num == len(masks) == len(values)):
        raise ValueError("roots, masks and values must align")
    r = ensure_rng(rng)
    congestion = mask_congestion(masks)
    max_delay = max(0, congestion - 1)
    network.reset()
    prefixes = [f"pa{i}_" for i in range(num)]
    # The tree stage is never truncated (depth budget = vertex count).  It
    # drops the provably useless parent echoes (every distance is kept; see
    # ``ConcurrentMaskedBFS``) and stores labels sparsely, which suits
    # fleets of many small instances; the schedule is identical either way.
    fleet = ConcurrentMaskedBFS(
        list(roots), masks, draw_random_delays(num, max_delay, r),
        network.graph.num_vertices, prefixes, network.graph.num_vertices,
        suppress_parent_echo=True,
        sparse_labels=True,
        retry=retry,
    )
    bfs_metrics = network.run(
        fleet, reset=False, max_rounds=max_rounds, adversary=adversary
    )
    aggregation = PartAggregation(
        masks, fleet.parent, values, op,
        delays=draw_random_delays(num, max_delay, r),
        identity=identity,
        broadcast_result=broadcast_result,
        prefixes=prefixes,
        retry=retry,
    )
    agg_metrics = network.run(
        aggregation, reset=False, max_rounds=max_rounds, adversary=adversary
    )
    return FleetAggregationResult(
        results=aggregation.results,
        delivered=aggregation.delivered,
        rounds=bfs_metrics.rounds + agg_metrics.rounds,
        bfs_rounds=bfs_metrics.rounds,
        aggregation_rounds=agg_metrics.rounds,
        messages=bfs_metrics.messages_delivered + agg_metrics.messages_delivered,
        congestion=congestion,
        fleet=fleet,
    )


@dataclass
class ShortcutAggregationResult:
    """Part-indexed outcome of :func:`aggregate_over_shortcut`.

    Attributes:
        values: ``{part index: aggregate}`` for every part with at least
            one contributing node.
        rounds: simulated rounds of the two fleet stages (parts folded
            locally contribute zero rounds).
        bfs_rounds / aggregation_rounds / messages: stage breakdown.
        congestion: the simulated parts' mask congestion, which bounded
            the start delays (0 when no part was simulated).
        simulated_parts: part indices that ran on the simulator.
        folded_parts: part indices resolved locally (the singleton parts;
            see :func:`aggregate_over_shortcut`).
    """

    values: dict[int, Any]
    rounds: int
    bfs_rounds: int
    aggregation_rounds: int
    messages: int
    congestion: int
    simulated_parts: list[int]
    folded_parts: list[int]


def shortcut_link_masks(shortcut, part_indices: Sequence[int]) -> list[CSRLinkMask]:
    """Build the augmented-subgraph link mask of each listed part.

    ``shortcut`` is any object with the :class:`~repro.shortcuts.shortcut.
    Shortcut` interface (duck-typed to keep this package free of an import
    cycle through the shortcuts layer): the mask of part ``i`` permits both
    directions of every edge of ``G[S_i] ∪ H_i``.
    """
    csr = shortcut.graph.csr()
    return [
        CSRLinkMask.from_edge_ids(csr, shortcut.augmented_edge_id_array(i))
        for i in part_indices
    ]


def aggregate_over_shortcut(
    shortcut,
    node_values: dict[int, Any],
    op: str,
    *,
    network: Optional[Network] = None,
    identity: Any = None,
    broadcast_result: bool = True,
    rng: RandomLike,
    max_rounds: int = 200_000,
    retry: Optional[RetryPolicy] = None,
    adversary: Optional[Adversary] = None,
) -> ShortcutAggregationResult:
    """Aggregate ``node_values`` inside every part, routed over ``shortcut``.

    Each part's aggregate travels over its augmented subgraph
    ``G[S_i] ∪ H_i``, so the measured rounds inherit the shortcut's
    congestion + dilation.  Passing a shortcut with empty
    ``H_i`` (e.g. :func:`repro.shortcuts.baselines.build_empty_shortcut`)
    degrades the routing to the raw part trees — the comparison experiment
    E14 measures exactly that gap.

    Singleton parts are resolved locally at zero round cost: a fragment
    leader that knows its fragment has one member (fragment sizes are local
    knowledge in every Boruvka-style consumer, maintained across merges)
    already holds the aggregate and needs no tree.

    Args:
        shortcut: the shortcut whose augmented subgraphs carry the traffic.
        node_values: input value per node; nodes without an entry
            contribute nothing.
        op: aggregation operator name.
        network: reuse an existing CONGEST network of the host graph
            (reset by the run); one is built when omitted.
        identity, broadcast_result, rng, max_rounds, retry, adversary:
            forwarded to :func:`run_part_aggregation`.

    Returns:
        A :class:`ShortcutAggregationResult`.
    """
    partition = shortcut.partition
    if op not in AGGREGATE_OPS:
        raise ValueError(f"unsupported aggregation op {op!r}")
    combine = AGGREGATE_OPS[op][0]
    values_out: dict[int, Any] = {}
    simulated: list[int] = []
    folded: list[int] = []
    instance_values: list[dict[int, Any]] = []
    for i in range(partition.num_parts):
        part = partition.part(i)
        part_values = {v: node_values[v] for v in part if v in node_values}
        if len(part) < 2:
            folded.append(i)
            if part_values:
                acc = None
                for value in part_values.values():
                    acc = value if acc is None else combine(acc, value)
                values_out[i] = acc
        else:
            simulated.append(i)
            instance_values.append(part_values)
    if not simulated:
        return ShortcutAggregationResult(
            values=values_out, rounds=0, bfs_rounds=0, aggregation_rounds=0,
            messages=0, congestion=0, simulated_parts=[], folded_parts=folded,
        )
    if network is None:
        network = Network(partition.graph)
    masks = shortcut_link_masks(shortcut, simulated)
    roots = [partition.leader(i) for i in simulated]
    outcome = run_part_aggregation(
        network, roots, masks, instance_values, op,
        identity=identity, broadcast_result=broadcast_result, rng=rng,
        max_rounds=max_rounds, retry=retry, adversary=adversary,
    )
    for pos, i in enumerate(simulated):
        if instance_values[pos]:
            values_out[i] = outcome.results[pos]
    return ShortcutAggregationResult(
        values=values_out,
        rounds=outcome.rounds,
        bfs_rounds=outcome.bfs_rounds,
        aggregation_rounds=outcome.aggregation_rounds,
        messages=outcome.messages,
        congestion=outcome.congestion,
        simulated_parts=simulated,
        folded_parts=folded,
    )
