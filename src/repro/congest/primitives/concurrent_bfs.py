"""Random-delay-scheduled BFS fleets over CSR link masks.

Stage 4 of the distributed shortcut construction grows one truncated BFS
tree per large part, all simultaneously, each restricted to its augmented
subgraph ``G[S_i] ∪ H_i`` and started after a random delay (Theorem 2.1).
The generic way to run that is a :class:`~repro.congest.scheduler.
RandomDelayScheduler` over per-part :class:`~repro.congest.primitives.bfs.
DistributedBFS` instances with dict-of-sets allowed adjacencies — correct,
but every delivered message pays scheduler dispatch, per-node state-dict
traffic and per-announce neighbour filtering, which dominates the wall time
of large simulations.

:class:`ConcurrentMaskedBFS` is the specialised equivalent: one algorithm
object runs the whole fleet.

* Each instance's allowed subgraph is a
  :class:`~repro.graphs.csr.CSRLinkMask`; announcements send over the
  mask's precomputed directed link ids via ``multicast_links``.
* Distance / parent / root labels live in flat per-instance lists indexed
  by node id instead of ``node.state`` entries, so the hot handler performs
  list indexing only (and ``node.state`` stays empty — large state dicts
  are what made the dict-of-sets fleet slow down superlinearly with GC).
* Only *source* nodes carry delay bookkeeping: they stay awake ticking a
  per-node round counter until their instance starts, while every other
  node is purely message-driven.  (The generic scheduler instead declares
  ``wake_at_rounds`` timers, which make the engine execute *every* node at
  every delay round; with a handful of sources, a few awake nodes per
  round are far cheaper than n-node timer sweeps, and the message schedule
  — hence every metric — is unchanged.)

The message schedule is **identical** to the generic scheduler + BFS stack:
same tags, same payloads, same per-round send sets, hence identical rounds,
message counts, backlog and per-edge loads (pinned metric-for-metric by
``tests/test_distributed_pipeline.py``).

With ``suppress_parent_echo=True`` the fleet additionally drops the
provably useless echoes of the relaxation flood: re-announcing a new
distance ``nd`` to a neighbour that announced ``d_w`` *in the same round*
can never cause an update when ``d_w <= nd + 1`` (that neighbour's label
is already at most ``d_w <= nd + 1``, and the echo offers ``nd + 1``,
which is no strict improvement) — in particular the adopted parent
(``d_w = nd - 1``) is always such a neighbour.  The resulting trees are
identical on every other link; total messages drop by about one per tree
edge, and the measured rounds are those of this (still perfectly honest)
CONGEST algorithm.

Retry mode (``retry=RetryPolicy(...)``) keeps the start-delay ticking and
the relaxation code of the clean fleet and swaps only the transport: each
instance's ``(dist, root)`` announcements become units of one shared
:class:`~repro.congest.primitives.reliable.ReliableChannel`, which owns
numbering, acks, deduplication and checkpoint retransmission.
"""

from __future__ import annotations

from sys import intern
from typing import Optional, Sequence

from ..adversary import RetryPolicy
from ..algorithm import DistributedAlgorithm
from ..message import Message
from ..node import NodeContext
from .reliable import ReliableChannel

#: Distance label for nodes an instance has not reached.
UNREACHED = -1

#: Unit kind of a retry-mode announcement on the reliable channel.
_ANNOUNCE = 0


def _unreached() -> int:
    """Default factory for the sparse label containers."""
    return UNREACHED


class ConcurrentMaskedBFS(DistributedAlgorithm):
    """Run many single-source truncated BFS instances under random delays.

    Args:
        sources: one source node per instance (instance ``i`` uses
            ``algorithm_id = i`` for its messages, matching the scheduler
            convention).
        masks: one :class:`~repro.graphs.csr.CSRLinkMask` per instance — the
            allowed subgraph of that instance's BFS.
        delays: per-instance start delays in rounds (the random delays of
            Theorem 2.1, typically drawn with
            :func:`~repro.congest.scheduler.draw_random_delays`).
        max_depth: shared truncation depth for every instance.
        prefixes: per-instance tag prefixes (message tags are
            ``<prefix>explore``, as :class:`DistributedBFS` would use).
        suppress_parent_echo: drop the no-op announce back to the adopted
            parent (see the module docstring).  Off by default so the
            schedule stays bit-identical to the generic scheduler oracle.
        retry: optional :class:`~repro.congest.adversary.RetryPolicy`
            enabling the drop-tolerant mode, exactly as in
            :class:`~repro.congest.primitives.bfs.DistributedBFS`: the same
            start and relaxation logic, with announcements carried as units
            of a :class:`~repro.congest.primitives.reliable.ReliableChannel`
            over the instances' ``<prefix>explore`` tags.  Echo suppression
            is ignored in this mode — under loss the "provably useless" echo
            may be the retransmission a neighbour needs.  A retry-mode
            instance is single-run.

    Outputs are read back from the algorithm object: ``dist``, ``parent``
    and ``root`` are per-instance lists indexed by node id, with
    :data:`UNREACHED` for nodes the instance never reached.
    """

    name = "concurrent_masked_bfs"

    def __init__(
        self,
        sources: Sequence[int],
        masks: Sequence,
        delays: Sequence[int],
        max_depth: int,
        prefixes: Sequence[str],
        num_vertices: int,
        *,
        suppress_parent_echo: bool = False,
        sparse_labels: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not (len(sources) == len(masks) == len(delays) == len(prefixes)):
            raise ValueError("sources, masks, delays and prefixes must align")
        self.sources = list(sources)
        self.masks = list(masks)
        self.delays = list(delays)
        self.max_depth = max_depth
        self.prefixes = list(prefixes)
        self.tags = [intern(p + "explore") for p in self.prefixes]
        self.suppress_parent_echo = suppress_parent_echo and retry is None
        n = num_vertices
        num = len(self.sources)
        if sparse_labels:
            # Fleets of many small instances (the shortcut-consumer Boruvka
            # phases run one instance per fragment) would pay O(num · n)
            # memory for dense labels; defaultdicts grow with the touched
            # set instead.  The message schedule is unchanged — only the
            # label container differs.
            from collections import defaultdict

            self.dist = [defaultdict(_unreached) for _ in range(num)]
            self.parent = [defaultdict(_unreached) for _ in range(num)]
            self.root = [defaultdict(_unreached) for _ in range(num)]
        else:
            self.dist = [[UNREACHED] * n for _ in range(num)]
            self.parent = [[UNREACHED] * n for _ in range(num)]
            self.root = [[UNREACHED] * n for _ in range(num)]
        # Only sources ever act on a start delay; everyone else is purely
        # message-driven.  node -> ascending [(delay, instance), ...].
        pending: dict[int, list[tuple[int, int]]] = {}
        for idx, (src, delay) in enumerate(zip(self.sources, self.delays)):
            pending.setdefault(src, []).append((delay, idx))
        for lst in pending.values():
            lst.sort()
        self._pending = pending
        self.retry = retry
        self._channel = None
        if retry is not None:
            self._channel = ReliableChannel(dict(enumerate(self.tags)), retry)
            self.wake_at_rounds = self._channel.checkpoints

    # ------------------------------------------------------------------
    bulk_capable = True

    def bulk_supported(self) -> bool:
        # Retry/ack mode keeps per-node checkpoint bookkeeping.
        return self.retry is None

    def bulk_kernel(self, network):
        from ..bulk import FleetKernel

        return FleetKernel.build(self, network)

    # ------------------------------------------------------------------
    def _start(self, idx: int, node: NodeContext) -> None:
        v = node.node_id
        self.dist[idx][v] = 0
        self.parent[idx][v] = v
        self.root[idx][v] = v
        if 0 < self.max_depth:
            mask = self.masks[idx]
            starts = mask.starts
            s = starts[v]
            e = starts[v + 1]
            if s != e:
                self._emit(idx, node, mask.links[s:e], mask.targets[s:e], (0, v))

    def _emit(self, idx: int, node: NodeContext, links, targets, payload) -> None:
        """Announce ``payload`` over one instance's links (the transport)."""
        channel = self._channel
        if channel is None:
            node.multicast_links(links, targets, self.tags[idx], payload, idx)
        else:
            channel.send_units(idx, node.node_id, targets, _ANNOUNCE, payload)

    def initialize(self, node: NodeContext) -> None:
        lst = self._pending.get(node.node_id)
        ticking = False
        if lst:
            while lst and lst[0][0] <= 0:
                self._start(lst.pop(0)[1], node)
            if lst:
                # Later starts pending: stay awake and tick a round counter
                # until the last of this source's instances has started.
                node.state["__cmb_round"] = 0
                ticking = True
            else:
                del self._pending[node.node_id]
        if self._channel is not None:
            self._channel.end_round(node, self.current_round, ticking)
        elif ticking:
            node.wake()
        else:
            node.halt()

    def pending_timer_work(self) -> bool:
        return self._channel is None or self._channel.pending_timer_work()

    def on_crash(self, node: NodeContext) -> None:
        v = node.node_id
        if self._channel is not None:
            self._channel.on_crash(v)
        # The labels ARE the node's protocol state (kept off node.state for
        # speed), so a crash must wipe them in every mode.
        for idx in range(len(self.sources)):
            di = self.dist[idx]
            if isinstance(di, list):
                if di[v] != UNREACHED:
                    di[v] = UNREACHED
                    self.parent[idx][v] = UNREACHED
                    self.root[idx][v] = UNREACHED
            else:
                di.pop(v, None)
                self.parent[idx].pop(v, None)
                self.root[idx].pop(v, None)

    # ------------------------------------------------------------------
    def _relax(self, idx: int, node: NodeContext, nd: int, root: int, sender: int,
               suppress=None) -> None:
        v = node.node_id
        di = self.dist[idx]
        cur = di[v]
        if cur == UNREACHED or nd < cur:
            di[v] = nd
            self.parent[idx][v] = sender
            self.root[idx][v] = root
            if nd < self.max_depth:
                mask = self.masks[idx]
                starts = mask.starts
                s = starts[v]
                e = starts[v + 1]
                if s != e:
                    targets = mask.targets[s:e]
                    links = mask.links[s:e]
                    if suppress is not None:
                        if len(suppress) > 1 or sender not in targets:
                            kept = [i for i, t in enumerate(targets)
                                    if t not in suppress]
                            if not kept:
                                return
                            targets = [targets[i] for i in kept]
                            links = [links[i] for i in kept]
                        else:
                            at = targets.index(sender)
                            del targets[at]
                            del links[at]
                            if not targets:
                                return
                    self._emit(idx, node, links, targets, (nd, root))

    def _tick(self, node: NodeContext) -> bool:
        """Advance a source's round counter and start the instances due.

        Returns whether later starts remain (the node must keep ticking).
        """
        v = node.node_id
        lst = self._pending.get(v)
        if not lst:
            return False
        rnd = node.state["__cmb_round"] + 1
        node.state["__cmb_round"] = rnd
        while lst and lst[0][0] <= rnd:
            self._start(lst.pop(0)[1], node)
        if lst:
            return True
        del self._pending[v]
        return False

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        channel = self._channel
        if channel is not None:
            # Retry mode: the clean start and relaxation logic over the
            # decoded units, with the channel's end-of-round hand-off.
            ticking = bool(self._pending) and self._tick(node)
            messages = channel.receive(node, messages, (self.tags,))
            if messages:
                self._dispatch(node, messages)
            channel.end_round(node, self.current_round, ticking)
            return
        if self._pending and self._tick(node):
            # Keep ticking for the remaining starts; process any messages
            # first.
            if messages:
                self._dispatch(node, messages)
            node.wake()
            return
        if messages:
            # Single-message inboxes dominate under unit bandwidth; the
            # whole relax-and-announce step is inlined for them (this is
            # the hottest code path of the simulator).
            if len(messages) == 1:
                msg = messages[0]
                idx = msg.algorithm_id
                d, root = msg.payload
                nd = d + 1
                di = self.dist[idx]
                v = node.node_id
                cur = di[v]
                if cur == UNREACHED or nd < cur:
                    sender = msg.sender
                    di[v] = nd
                    self.parent[idx][v] = sender
                    self.root[idx][v] = root
                    if nd < self.max_depth:
                        mask = self.masks[idx]
                        starts = mask.starts
                        s = starts[v]
                        e = starts[v + 1]
                        if s != e:
                            targets = mask.targets[s:e]
                            links = mask.links[s:e]
                            if self.suppress_parent_echo and sender in targets:
                                at = targets.index(sender)
                                del targets[at]
                                del links[at]
                            if targets:
                                node.multicast_links(
                                    links, targets, self.tags[idx], (nd, root), idx
                                )
            else:
                self._dispatch(node, messages)
        node.halt()

    def _batch_relax(self, idx: int, node: NodeContext, batch: list[Message]) -> None:
        """Rank a same-instance batch exactly as DistributedBFS does
        ((dist, root, sender) ascending) and relax with the winner.

        The lexicographic comparison is unrolled so the hot loop allocates
        no candidate tuples."""
        first = batch[0]
        d, nr = first.payload
        nd = d + 1
        ns = first.sender
        for other in batch[1:]:
            d, root = other.payload
            d += 1
            if d < nd or (d == nd and (root < nr or (root == nr and other.sender < ns))):
                nd = d
                nr = root
                ns = other.sender
        root = nr
        sender = ns
        if self.suppress_parent_echo:
            # Suppress every same-round sender whose announced distance is
            # within one of ours: the echo cannot improve their label (see
            # the module docstring).
            limit = nd + 1
            suppress = {other.sender for other in batch
                        if other.payload[0] <= limit}
            self._relax(idx, node, nd, root, sender, suppress)
        else:
            self._relax(idx, node, nd, root, sender)

    def _dispatch(self, node: NodeContext, messages: list[Message]) -> None:
        msg = messages[0]
        idx = msg.algorithm_id
        if len(messages) == 1:
            d, root = msg.payload
            if self.suppress_parent_echo:
                self._relax(idx, node, d + 1, root, msg.sender, {msg.sender})
            else:
                self._relax(idx, node, d + 1, root, msg.sender)
            return
        for other in messages:
            if other.algorithm_id != idx:
                break
        else:
            self._batch_relax(idx, node, messages)
            return
        # Mixed inbox: group per instance in first-appearance order (the
        # scheduler's dict-grouping order) and process each batch whole.
        by_instance: dict[int, list[Message]] = {}
        for other in messages:
            by_instance.setdefault(other.algorithm_id, []).append(other)
        for idx, batch in by_instance.items():
            self._batch_relax(idx, node, batch)

    # ------------------------------------------------------------------
    def reached(self, idx: int, v: int) -> bool:
        """Return whether instance ``idx`` reached node ``v``."""
        return self.dist[idx][v] != UNREACHED

    def tree_lookup(self, idx: int, v: int) -> tuple[Optional[int], Optional[int]]:
        """Return ``(dist, parent)`` of ``v`` in instance ``idx``'s tree.

        ``(None, None)`` when the node was not reached — the interface the
        spanning verification consumes.
        """
        d = self.dist[idx][v]
        if d == UNREACHED:
            return None, None
        return d, self.parent[idx][v]
