"""Vectorized whole-round kernels for regular CONGEST primitives.

The active-set engine is O(touched) per round, but every touched node still
runs a Python callback; on 100k+-node workloads that callback cost dominates
wall time.  The *bulk round protocol* removes it for the regular primitives:
an algorithm declares ``bulk_capable`` and builds a kernel object here, and
``Network._run_bulk`` advances whole rounds with flat array ops over the CSR
directed-link ids — ``np.minimum.at``-style scatter for min-relaxation,
frontier masks for flood/BFS — instead of per-node dispatch.

The per-node path remains authoritative.  Kernels are pinned
**bit-identical** to it (rounds, messages sent/delivered, per-edge traffic,
max link backlog, final node state) by ``tests/test_bulk_kernels.py``; every
modelling decision below exists to reproduce an engine behaviour exactly:

* **Single-channel kernels** (:class:`FloodMaxKernel`, :class:`BFSKernel`):
  each node sends at most one message per link per round, so on a clean
  network every send delivers from the ring queues in the next round and
  one pending frontier per round suffices.  Candidate ranking is a packed-key
  ``np.minimum.at``/``np.maximum.at`` scatter over the compacted receiver
  set; the uniform-wave argument (all candidates of round ``r`` carry
  distance ``r``) makes the lexicographic ``(dist, root, sender)`` minimum
  a single integer minimum.  ``finish`` hands the labels to
  ``Network._leave_node_state`` as arrays: they go into contexts that
  exist, or wait until something reads a node.
* **Ring kernels** (:class:`FleetKernel`, :class:`PartAggregationKernel`):
  unit-bandwidth ring queues are modelled by one ``avail`` cursor per
  directed link (the next free delivery round) — appending ``k`` messages
  at round ``r`` books delivery rounds ``max(avail, r+1) .. +k`` and bumps
  the cursor, which reproduces FIFO metering exactly.  Activation stamps
  (:class:`_LinkScheduler`) reproduce the engine's active-list order, which
  is what fixes per-receiver inbox order, and the per-round send stream is
  ordered by the engine's ``(node, band, sub)`` dispatch order before
  scheduling.
* **One layout, state built on read.**  Both ring kernels work on one
  :class:`SlotLayout` per mask fleet: the ``(instance, node)`` slots and
  their announce rows, read off the masks without a sort or a hash.  The
  fleet kernel leaves its labels in slot arrays behind :class:`LazyRows`
  views that carry the layout, and the aggregation kernel over the same
  masks reuses that layout and takes the parent array as it is.  Neither
  kernel writes per-node dicts at ``finish``: a view builds an instance's
  list, dict or set when it is read, and a per-node rerun of the object
  builds all of them before its first step.
* **Cutoffs are final.**  A run not quiescent after ``max_rounds`` rounds
  raises, and the network must be reset before it runs again, so a
  kernel's undelivered traffic dies with it: ``finish`` leaves the node
  state the per-node run would have reached and nothing on the links.

Fallback rules (enforced by ``Network._try_bulk``): adversarial runs, retry
(ack/retransmit) configurations, messages sent from outside any run,
non-``min``/``max`` or non-rankable aggregations, resumed aggregation
objects and masks that permit a link in one direction only all take the
per-node path.  Every decline of a bulk-capable algorithm is named in
``RunMetrics.bulk_declined``; the first two also warn once per network
with :class:`BulkFallbackWarning`.

Lint: every kernel declares its mutable state arrays in ``bulk_state``; the
``repro lint`` rule RPR013 flags ``bulk_round`` implementations assigning
``self.<attr>`` outside that tuple.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..graphs.csr import sorted_unique

I64 = np.int64
#: Internal "unreached" distance sentinel (labels are exported as the
#: primitives' own sentinels / missing keys at finish time).
_HUGE = np.iinfo(np.int64).max
UNREACHED = -1
#: Packed ``((dist + 1) * n + root) * n + sender`` keys must fit in int64.
_PACKED_NODE_LIMIT = 2_000_000


class BulkFallbackWarning(RuntimeWarning):
    """A bulk-capable algorithm fell back to the per-node path.

    Emitted once per network and reason (``"retry"``, ``"adversary"``) so a
    de-optimized run is observable without spamming sweeps that fall back
    thousands of times on purpose.
    """


def _ranks(counts: np.ndarray) -> np.ndarray:
    """Within-group rank ``0..count-1`` for groups of the given sizes."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=I64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=I64) - np.repeat(ends - counts, counts)


def _stable_sort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, stable order)`` for int64 keys in ``[0, bound)``.

    Each key carries its position in its low bits, so one plain value sort
    yields both; numpy sorts int64 values several times faster than it
    argsorts them stably.  Keys too wide to pack take the stable argsort.
    """
    size = len(keys)
    shift = max(size - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + shift <= 62:
        packed = np.sort((keys << shift) | np.arange(size, dtype=I64))
        return packed >> shift, packed & ((1 << shift) - 1)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _flat_slices(starts: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of each node's CSR slice, concatenated in node order.

    Returns ``(positions, counts)`` where ``positions`` indexes the flat
    ``targets``/``links`` arrays and ``counts[i]`` is node ``i``'s slice
    length — the vectorized equivalent of per-node ``starts[v]:starts[v+1]``
    slicing.
    """
    counts = starts[nodes + 1] - starts[nodes]
    return np.repeat(starts[nodes], counts) + _ranks(counts), counts


def _rankable(value) -> bool:
    """Whether ``value`` is safe to aggregate by sorted-rank comparison.

    Ranked folding replaces pairwise ``min``/``max`` with an integer-rank
    minimum, which is only sound for totally ordered values: plain numbers,
    strings, bytes, and tuples thereof.  Partial orders (sets) and NaN are
    excluded — their pairwise fold is order-dependent.
    """
    if isinstance(value, float):
        return value == value
    if isinstance(value, (bool, int, str, bytes)):
        return True
    if isinstance(value, tuple):
        return all(_rankable(item) for item in value)
    return False


class _LinkScheduler:
    """Event-time model of the engine's unit-bandwidth ring queues.

    Per directed link, ``avail`` is the next free delivery round: appending
    ``k`` messages during round ``r`` books delivery rounds
    ``base .. base + k - 1`` with ``base = max(avail, r + 1)`` and advances
    ``avail`` to ``base + k`` — exactly one delivery per link per round, FIFO.

    ``act`` reproduces the engine's active-list order: a link whose queue is
    empty at append time (``avail <= r + 1``) is (re)activated and receives a
    fresh globally increasing stamp, assigned in the order of each link's
    first send within the round's send stream.  Sorting a round's deliveries
    by ``act`` therefore reproduces per-receiver inbox order.

    ``linkmax`` mirrors the engine's send-time backlog recording: the
    backlog after the group's last append is ``base + k - 1 - r``; values
    below 2 are filtered at read time (the engine never records backlog 1).
    Sends at ``rnd == max_rounds`` are not recorded: the run raises before
    any delivery reads them, and the network is reset before the next run.
    """

    __slots__ = ("avail", "act", "seq", "linkmax", "recorded_max")

    def __init__(self, num_links: int) -> None:
        self.avail = np.zeros(num_links, dtype=I64)
        self.act = np.zeros(num_links, dtype=I64)
        self.seq = 0
        self.linkmax = np.zeros(num_links, dtype=I64)
        self.recorded_max = 0

    def schedule(self, rnd: int, links: np.ndarray, record: bool) -> np.ndarray:
        """Book delivery rounds for sends made during round ``rnd``.

        ``links`` is the round's full send stream in engine dispatch order.
        Returns the delivery rounds parallel to it; each send's activation
        stamp is ``act[link]`` until it is delivered (a link with a message
        in flight is not reactivated).
        """
        nsend = len(links)
        count = np.bincount(links, minlength=len(self.avail))[links]
        rank = np.zeros(nsend, dtype=I64)
        shared = np.flatnonzero(count > 1)
        if len(shared):
            # A link's sends take its free rounds in stream order: rank the
            # sends of shared links within their link (a stable sort);
            # every other send is alone on its link.
            slinks, order = _stable_sort(links[shared], len(self.avail))
            firsts = np.flatnonzero(np.r_[True, slinks[1:] != slinks[:-1]])
            rank[shared[order]] = _ranks(np.diff(np.append(firsts, len(shared))))
        prev_avail = self.avail[links]
        base = np.maximum(prev_avail, rnd + 1)
        # Stamp empty->nonempty transitions in the order of each link's
        # first send in the stream (engine active-list append order).
        newly = np.flatnonzero((rank == 0) & (prev_avail <= rnd + 1))
        if len(newly):
            self.act[links[newly]] = self.seq + np.arange(len(newly), dtype=I64)
            self.seq += len(newly)
        # All sends of one link store the same values.
        self.avail[links] = base + count
        if record:
            gmax = base + count - 1 - rnd
            np.maximum(self.linkmax[links], gmax, out=gmax)
            self.linkmax[links] = gmax
            top = int(gmax.max())
            if top > self.recorded_max:
                self.recorded_max = top
        return base + rank


def _bucket_push(buckets: dict, rnd: int, deliv: np.ndarray, cols: tuple) -> None:
    """File the sends of round ``rnd`` into the round buckets.

    ``deliv`` holds each send's delivery round (all after ``rnd``).  Each
    round's rows join that round's list of chunks in stream order;
    :func:`_bucket_pop` joins a round's chunks once, when it is due.  Most
    sends leave next round, so those rows take one compress per column and
    only the later ones are grouped by round, with one stable sort.
    """
    nxt = rnd + 1
    later = np.flatnonzero(deliv > nxt)
    if not len(later):
        buckets.setdefault(nxt, []).append(cols)
        return
    if len(later) < len(deliv):
        now = np.flatnonzero(deliv == nxt)
        buckets.setdefault(nxt, []).append(tuple(c[now] for c in cols))
    ldeliv = deliv[later]
    rounds, order = _stable_sort(ldeliv - nxt, int(ldeliv.max()) - rnd)
    rows = later[order]
    cuts = np.flatnonzero(np.r_[True, rounds[1:] != rounds[:-1]]).tolist()
    for lo, hi, off in zip(cuts, cuts[1:] + [len(rows)], rounds[cuts].tolist()):
        sel = rows[lo:hi]
        buckets.setdefault(nxt + off, []).append(tuple(c[sel] for c in cols))


def _bucket_pop(buckets: dict, rnd: int) -> Optional[tuple]:
    """Remove round ``rnd``'s bucket and join its chunks in push order."""
    chunks = buckets.pop(rnd, None)
    if chunks is None:
        return None
    if len(chunks) == 1:
        return chunks[0]
    return tuple(np.concatenate(cols) for cols in zip(*chunks))


def _halt_all(network) -> None:
    """Leave every node halted, as a quiesced per-node run would.

    The network's awake set is what says so: contexts built later read
    their ``halted`` flag off it, so only contexts that already exist are
    walked.
    """
    contexts = network._contexts
    if contexts is not None:
        for ctx in contexts:
            ctx.halted = True
    network._awake.clear()


def _finish_metrics(kernel, network, metrics) -> None:
    """Fill the shared RunMetrics fields every kernel accounts identically."""
    metrics.messages_sent = kernel.sent
    metrics.messages_delivered = kernel.delivered
    metrics._edge_counts = kernel.edge_counts.tolist()
    metrics._edge_list = network._csr.edge_list


# ----------------------------------------------------------------------
# single-channel kernels (every send delivers next round)
# ----------------------------------------------------------------------
def _inherited_linkmax(network) -> Optional[np.ndarray]:
    """Per-link backlog maxima left by earlier ``reset=False`` runs.

    ``None`` when no run happened since the last reset, which leaves every
    maximum at zero (the common case, and skips an O(links) copy).
    """
    if not network._ran:
        return None
    return np.asarray(network._link_max_backlog, dtype=I64)


def _deliver_frontier(kernel, links: np.ndarray) -> None:
    """Account the delivery of one round's frontier over ``links``.

    The engine folds every delivered link's live backlog maximum into the
    run's ``max_link_backlog``; a single-channel run records none of its
    own, so only inherited maxima can exceed the floor of 1.
    """
    kernel.delivered += len(links)
    kernel.edge_counts += np.bincount(links >> 1, minlength=len(kernel.edge_counts))
    if kernel.inherited is not None:
        seen = int(kernel.inherited[links].max())
        if seen > kernel.seen_linkmax:
            kernel.seen_linkmax = seen


class FloodMaxKernel:
    """Bulk twin of :class:`~repro.congest.primitives.leader.FloodMax`.

    Only the unrestricted configuration (``allowed_adjacency is None``) is
    bulk-eligible, so every node participates and announces at round 0; the
    per-round step is a compacted ``np.maximum.at`` scatter over this
    round's receivers followed by a frontier expansion of the strict
    improvements.
    """

    bulk_state = ("leader", "pending", "sent", "delivered", "edge_counts",
                  "seen_linkmax")

    def __init__(self, algorithm, network) -> None:
        csr = network._csr
        arrays = csr.adjacency_arrays()
        self.n = csr.num_vertices
        self.indptr = np.asarray(csr.indptr, dtype=I64)
        self.indices = arrays.indices
        self.links = arrays.adj_link_ids
        self.inherited = _inherited_linkmax(network)
        self.seen_linkmax = 0
        self.key_leader = algorithm._key_leader
        self.leader = np.arange(self.n, dtype=I64)
        self.pending: Optional[tuple] = None
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)

    @classmethod
    def build(cls, algorithm, network) -> Optional["FloodMaxKernel"]:
        return cls(algorithm, network)

    def _expand(self, nodes: np.ndarray) -> None:
        """Announce ``leader[nodes]`` to every neighbour (next-round pending)."""
        flat, counts = _flat_slices(self.indptr, nodes)
        if not len(flat):
            self.pending = None
            return
        targets = self.indices[flat]
        links = self.links[flat]
        values = np.repeat(self.leader[nodes], counts)
        self.sent += len(targets)
        self.pending = (targets, links, values)

    def start(self, max_rounds: int) -> None:
        # initialize: every node sets leader = own id and announces it.
        self._expand(np.arange(self.n, dtype=I64))

    def next_round(self, after: int) -> Optional[int]:
        return after + 1 if self.pending is not None else None

    def bulk_round(self, rnd: int) -> None:
        targets, links, values = self.pending
        _deliver_frontier(self, links)
        uniq, inv = np.unique(targets, return_inverse=True)
        best = np.full(len(uniq), -1, dtype=I64)
        np.maximum.at(best, inv, values)
        improved = best > self.leader[uniq]
        frontier = uniq[improved]
        if len(frontier):
            self.leader[frontier] = best[improved]
            self._expand(frontier)
        else:
            self.pending = None

    def awake_at_cutoff(self, rnd: int) -> int:
        return 0

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = max(1, self.seen_linkmax) if self.delivered else 0
        _halt_all(network)
        network._leave_node_state(None, {self.key_leader: self.leader})


class BFSKernel:
    """Bulk twin of :class:`~repro.congest.primitives.bfs.DistributedBFS`.

    Eligible without retry mode and without a dict-of-sets adjacency
    restriction (a CSR ``allowed_links`` mask or the full adjacency both
    vectorize).  The uniform-wave property of a single-channel BFS — every
    candidate delivered at round ``r`` offers distance exactly ``r`` — turns
    the engine's lexicographic ``(dist, root, sender)`` minimum into a
    ``np.minimum.at`` over packed ``root * n + sender`` keys on the
    still-improvable receivers.
    """

    bulk_state = ("dist", "parent", "root", "pending", "sent", "delivered",
                  "edge_counts", "seen_linkmax")

    def __init__(self, algorithm, network) -> None:
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        mask = algorithm.allowed_links
        if mask is not None:
            self.starts, self.targets, self.links = mask.arrays()
        else:
            arrays = csr.adjacency_arrays()
            self.starts = np.asarray(csr.indptr, dtype=I64)
            self.targets = arrays.indices
            self.links = arrays.adj_link_ids
        self.sources = np.asarray(sorted(algorithm.sources), dtype=I64)
        md = algorithm.max_depth
        self.max_depth = _HUGE if md is None else md
        self.key_dist = algorithm._key_dist
        self.key_parent = algorithm._key_parent
        self.key_root = algorithm._key_root
        self.dist = np.full(n, _HUGE, dtype=I64)
        self.parent = np.full(n, -1, dtype=I64)
        self.root = np.full(n, -1, dtype=I64)
        self._preload(network)
        self.inherited = _inherited_linkmax(network)
        self.seen_linkmax = 0
        self.pending: Optional[tuple] = None
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)

    @classmethod
    def build(cls, algorithm, network) -> Optional["BFSKernel"]:
        if network._csr.num_vertices > _PACKED_NODE_LIMIT:
            return None
        return cls(algorithm, network)

    def _preload(self, network) -> None:
        """Labels an earlier ``reset=False`` run left under this BFS's keys.

        DistributedBFS reads prior state, so the relaxation must see them:
        from the contexts when they exist, else from the queued outputs of
        earlier bulk runs (the only state an unread network holds).
        """
        kd, kp, kr = self.key_dist, self.key_parent, self.key_root
        contexts = network._contexts
        if contexts is None:
            for verts, columns in network._state_fills:
                if kd in columns:
                    at = slice(None) if verts is None else verts
                    self.dist[at] = columns[kd]
                    self.parent[at] = columns[kp]
                    self.root[at] = columns[kr]
        elif any(ctx.state for ctx in contexts):
            for v, ctx in enumerate(contexts):
                d = ctx.state.get(kd)
                if d is not None:
                    self.dist[v] = d
                    self.parent[v] = ctx.state[kp]
                    self.root[v] = ctx.state[kr]

    def _expand(self, nodes: np.ndarray) -> None:
        """Announce from ``nodes`` (packed next-round candidate keys)."""
        flat, counts = _flat_slices(self.starts, nodes)
        if not len(flat):
            self.pending = None
            return
        targets = self.targets[flat]
        links = self.links[flat]
        packed = np.repeat(self.root[nodes] * self.n + nodes, counts)
        self.sent += len(targets)
        self.pending = (targets, links, packed)

    def start(self, max_rounds: int) -> None:
        src = self.sources
        self.dist[src] = 0
        self.parent[src] = src
        self.root[src] = src
        if 0 < self.max_depth:
            self._expand(src)

    def next_round(self, after: int) -> Optional[int]:
        return after + 1 if self.pending is not None else None

    def bulk_round(self, rnd: int) -> None:
        targets, links, packed = self.pending
        _deliver_frontier(self, links)
        uniq, inv = np.unique(targets, return_inverse=True)
        best = np.full(len(uniq), _HUGE, dtype=I64)
        np.minimum.at(best, inv, packed)
        improved = rnd < self.dist[uniq]
        frontier = uniq[improved]
        if len(frontier):
            bpk = best[improved]
            n = self.n
            self.dist[frontier] = rnd
            self.root[frontier] = bpk // n
            self.parent[frontier] = bpk % n
        if len(frontier) and rnd < self.max_depth:
            self._expand(frontier)
        else:
            self.pending = None

    def awake_at_cutoff(self, rnd: int) -> int:
        return 0

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = max(1, self.seen_linkmax) if self.delivered else 0
        reached = np.flatnonzero(self.dist < _HUGE)
        _halt_all(network)
        network._leave_node_state(reached, {
            self.key_dist: self.dist[reached],
            self.key_parent: self.parent[reached],
            self.key_root: self.root[reached],
        })


# ----------------------------------------------------------------------
# ring kernels (multi-channel algorithms: metered unit-bandwidth queues)
# ----------------------------------------------------------------------
def _ring_backlog(kernel) -> int:
    """The run's ``max_link_backlog`` under the ring-queue model.

    The engine folds the live ``link_max`` list value of every delivered
    link (inherited values from earlier ``reset=False`` runs included) and
    floors at 1 once anything delivered; every kernel-recorded value from a
    round the run observes is folded by that link's next delivery, so the
    scalar maxima are exact.
    """
    if not kernel.delivered:
        return 0
    return max(1, kernel.sched.recorded_max, kernel.seen_linkmax)


def _writeback_linkmax(kernel, network) -> None:
    """Max-merge recorded backlogs into the network's shared link_max list.

    In place — the list object is aliased by every NodeContext.  Values
    below 2 are skipped: they cannot change any later run's folded metric
    (any delivery floors it at 1).
    """
    lm = network._link_max_backlog
    km = kernel.sched.linkmax
    hot = np.flatnonzero(km >= 2)
    for link, val in zip(hot.tolist(), km[hot].tolist()):
        if val > lm[link]:
            lm[link] = val


# ----------------------------------------------------------------------
# one slot layout per mask fleet, and the views kernels leave behind
# ----------------------------------------------------------------------
class SlotLayout:
    """The ``(instance, node)`` slots of one mask fleet and their announce rows.

    Slot ``s`` is node ``slot_v[s]`` of instance ``slot_i[s]``; the packed
    ``keys = slot_i * n + slot_v`` ascend (instance-major, node-sorted), so
    one ``np.searchsorted`` resolves any batch of pairs, and instance ``i``
    owns slots ``offsets[i]:offsets[i + 1]``.  The slots are each mask's
    participants, read off the masks without a sort or a hash.  Within an
    instance they come in mask order, so the announce rows — every slot's
    permitted out-links, rows ``ann_starts[s]:ann_starts[s + 1]`` — are just
    the masks' concatenated ``targets``/``links``, and ``ann_tslot`` names
    the slot each row reaches (:meth:`rows`).

    :meth:`with_extras` adds row-less slots for the few keys outside every
    mask slice: fleet sources and value holders of isolated parts.  A fleet
    kernel builds its layout once; its label views carry it to an
    aggregation over the same masks, which adds its own extras to the same
    ``base`` and reuses the rows.
    """

    __slots__ = ("masks", "n", "symmetric", "keys", "slot_i", "slot_v",
                 "offsets", "base", "_parent", "_to_self", "_rows")

    def __init__(self, masks, n: int) -> None:
        self.masks = tuple(masks)
        self.n = n
        self.symmetric = all(mask.symmetric for mask in self.masks)
        parts = [mask.participants() for mask in self.masks]
        num = len(parts)
        counts = np.fromiter(map(len, parts), dtype=I64, count=num)
        self.offsets = np.zeros(num + 1, dtype=I64)
        np.cumsum(counts, out=self.offsets[1:])
        self.slot_i = np.repeat(np.arange(num, dtype=I64), counts)
        self.slot_v = np.concatenate(parts) if num else np.empty(0, dtype=I64)
        self.keys = self.slot_i * n + self.slot_v
        self.base = self
        self._parent = None
        self._to_self = None
        self._rows = None

    def matches(self, masks, n: int) -> bool:
        """Whether this layout was built over exactly these mask objects."""
        return (n == self.n and len(masks) == len(self.masks)
                and all(a is b for a, b in zip(masks, self.masks)))

    def with_extras(self, insts: np.ndarray, verts: np.ndarray) -> "SlotLayout":
        """This layout plus a row-less slot for every given pair outside it."""
        keys = self.keys
        extra = sorted_unique(np.asarray(insts, dtype=I64) * self.n
                              + np.asarray(verts, dtype=I64))
        if len(keys) and len(extra):
            j = np.minimum(np.searchsorted(keys, extra), len(keys) - 1)
            extra = extra[keys[j] != extra]
        if not len(extra):
            return self
        out = SlotLayout.__new__(SlotLayout)
        out.masks, out.n, out.symmetric = self.masks, self.n, self.symmetric
        out.base, out._parent, out._rows = self.base, self, None
        # Each old slot moves up by the number of extra keys below it.
        to_self = np.arange(len(keys), dtype=I64) + np.searchsorted(extra, keys)
        merged = np.empty(len(keys) + len(extra), dtype=I64)
        merged[to_self] = keys
        fresh = np.ones(len(merged), dtype=bool)
        fresh[to_self] = False
        merged[fresh] = extra
        out._to_self = to_self
        out.keys = merged
        out.slot_i, out.slot_v = np.divmod(merged, self.n)
        out.offsets = np.searchsorted(
            merged, np.arange(len(self.masks) + 1, dtype=I64) * self.n
        ).astype(I64)
        return out

    def rows(self) -> Optional[tuple]:
        """``(ann_starts, ann_targets, ann_links, ann_tslot)``, built once.

        ``None`` when a mask permits some link in one direction only: its
        announce rows are then no concatenation of the participants' slices,
        and the kernels decline.
        """
        if not self.symmetric:
            return None
        if self._rows is None:
            if self._parent is None:
                self._rows = self._mask_rows()
            else:
                starts, targets, links, tslot = self._parent.rows()
                to_self = self._to_self
                counts = np.zeros(len(self.keys), dtype=I64)
                counts[to_self] = np.diff(starts)
                self._rows = (_starts_of(counts), targets, links, to_self[tslot])
        return self._rows

    def _mask_rows(self) -> tuple:
        num = len(self.masks)
        if not num:
            empty = np.empty(0, dtype=I64)
            return np.zeros(1, dtype=I64), empty, empty, empty
        slices = [mask.sender_slices() for mask in self.masks]
        tcounts = np.fromiter((len(s[2]) for s in slices), dtype=I64, count=num)
        shift = _starts_of(tcounts)
        starts = np.concatenate(
            [offsets[:-1] + shift[idx] for idx, (_, offsets, _, _) in enumerate(slices)]
            + [shift[-1:]]
        )
        targets = np.concatenate([s[2] for s in slices])
        links = np.concatenate([s[3] for s in slices])
        # A symmetric mask's targets are its own senders: one scratch rank
        # table, refilled per mask, names each row's target slot without a
        # search over the whole fleet's keys.
        rank = np.empty(self.n, dtype=I64)
        tslot = np.empty(len(targets), dtype=I64)
        for idx, (senders, _, mask_targets, _) in enumerate(slices):
            lo = int(self.offsets[idx])
            rank[senders] = np.arange(lo, lo + len(senders), dtype=I64)
            tslot[shift[idx]:shift[idx + 1]] = rank[mask_targets]
        return starts, targets, links, tslot


def _starts_of(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums with the closing total: CSR starts of ``counts``."""
    starts = np.zeros(len(counts) + 1, dtype=I64)
    np.cumsum(counts, out=starts[1:])
    return starts


class LazyRows(Sequence):
    """A list of per-instance containers, each built on its first read.

    Kernels leave their outputs in slot arrays; a view hands out real
    containers (lists, dicts, sets) only for the instances a caller
    indexes.  ``make()`` creates an empty container and ``fill(i, row)``
    writes instance ``i``'s entries into one.  :meth:`absorb` adds a run's
    entries: rows already built receive them at once, the rest on read.
    The fleet's label views also expose the ``layout`` and slot ``values``
    they were filled from, so an aggregation over the same trees can take
    the parent array as it is (:meth:`untouched` says whether that is still
    the whole truth).  Pickling materializes a plain list.
    """

    __slots__ = ("_rows", "_make", "_fill", "layout", "values")

    def __init__(self, num: int, make, rows: Optional[list] = None) -> None:
        self._rows = [None] * num if rows is None else rows
        self._make = make
        self._fill = None
        self.layout = None
        self.values = None

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int):
        row = self._rows[i]
        if row is None:
            if i < 0:
                i += len(self._rows)
            row = self._make()
            if self._fill is not None:
                self._fill(i, row)
            self._rows[i] = row
        return row

    def __iter__(self):
        for i in range(len(self._rows)):
            yield self[i]

    def __eq__(self, other) -> bool:
        # Compares like the plain list it stands for (building every row).
        if isinstance(other, (LazyRows, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return list, (list(self),)

    def untouched(self) -> bool:
        """Whether no row has been built (the arrays are all there is)."""
        return not any(row is not None for row in self._rows)

    def is_built(self, i: int) -> bool:
        return self._rows[i] is not None

    def absorb(self, fill, layout=None, values=None) -> None:
        """Add one run's entries: built rows now, the others when read.

        An unbuilt row holds no earlier run's entries: a kernel only
        resumes labels it read from the rows (building them), and the
        aggregation kernel declines any object an earlier run left state in.
        """
        for i, row in enumerate(self._rows):
            if row is not None:
                fill(i, row)
        self._fill = fill
        self.layout = layout
        self.values = values


def _instance_slots(offsets: np.ndarray, flags: np.ndarray, i: int) -> np.ndarray:
    """Slots of instance ``i`` whose ``flags`` entry is nonzero."""
    lo = int(offsets[i])
    return np.flatnonzero(flags[lo:int(offsets[i + 1])]) + lo


def _label_fill(layout: SlotLayout, values: np.ndarray, hit: np.ndarray):
    """Row filler writing a fleet's labels of the ``hit`` slots."""
    offsets, slot_v = layout.offsets, layout.slot_v

    def fill(i: int, row) -> None:
        sel = _instance_slots(offsets, hit, i)
        if isinstance(row, list):
            if row.count(UNREACHED) == len(row):
                # A row built on read holds no label yet: skip converting
                # its n entries one by one.
                dense = np.full(len(row), UNREACHED, dtype=I64)
            else:
                dense = np.array(row, dtype=I64)
            dense[slot_v[sel]] = values[sel]
            row[:] = dense.tolist()
        else:
            row.update(zip(slot_v[sel].tolist(), values[sel].tolist()))

    return fill


class FleetKernel:
    """Bulk twin of :class:`~repro.congest.primitives.concurrent_bfs.
    ConcurrentMaskedBFS` (non-retry fleets).

    Participants of every instance get a *slot* of the fleet's
    :class:`SlotLayout` (the mask participants plus any source outside its
    mask); labels, announce slices and the relaxation all operate on flat
    per-slot arrays.  A queued send is two numbers: its announce row (which
    names the link, target and target slot) and the packed
    ``((dist + 1) * n + root) * n + sender`` key it carries, made once at
    send time.  Per round, one stable sort groups the delivered rows by
    target slot and ``np.minimum.reduceat`` takes each slot's smallest key
    — the per-node lexicographic ``(dist, root, sender)`` minimum — and
    improvements re-announce over their mask slices, minus the same-round
    senders the parent-echo suppression provably cannot improve.  The
    labels stay in the slot arrays: ``finish`` leaves them behind the
    fleet's :class:`LazyRows`.
    """

    bulk_state = ("dist", "parent", "root", "buckets", "start_events",
                  "sent", "delivered", "edge_counts", "seen_linkmax",
                  "max_rounds")

    def __init__(self, algorithm, network, layout: SlotLayout) -> None:
        self.alg = algorithm
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        self.max_depth = algorithm.max_depth
        self.suppress = algorithm.suppress_parent_echo
        self.layout = layout
        self.slot_keys, self.slot_i, self.slot_v = layout.keys, layout.slot_i, layout.slot_v
        self.ann_starts, _, self.ann_links, self.ann_tslot = layout.rows()
        num_slots = len(self.slot_keys)
        self.dist = np.full(num_slots, _HUGE, dtype=I64)
        self.parent = np.full(num_slots, UNREACHED, dtype=I64)
        self.root = np.full(num_slots, UNREACHED, dtype=I64)
        self._preload(algorithm)
        # Start schedule from the algorithm's remaining pending entries
        # (delays <= 0 fire during initialize, i.e. round 0); ticking
        # sources mirror the per-node __cmb_round counter at finish.
        events: dict[int, list] = {}
        tick_last: dict[int, int] = {}
        for v, lst in algorithm._pending.items():
            last = 0
            for delay, idx in lst:
                events.setdefault(max(delay, 0), []).append((v, delay, idx))
                if delay > last:
                    last = delay
            if last > 0:
                tick_last[v] = last
        self.start_events = {rnd: sorted(ev) for rnd, ev in events.items()}
        self.tick_last = tick_last
        self.sched = _LinkScheduler(2 * csr.num_edges)
        self.inherited = np.asarray(network._link_max_backlog, dtype=I64)
        self.inherited_top = int(self.inherited.max()) if len(self.inherited) else 0
        # Scratch for the parent-echo suppression, all UNREACHED between
        # rounds: the receiving slot of each suppressed echo's link.
        self.echo_slot = np.full(2 * csr.num_edges, UNREACHED, dtype=I64)
        self.buckets: dict[int, list] = {}
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)
        self.seen_linkmax = 0
        self.max_rounds = 0

    @classmethod
    def build(cls, algorithm, network) -> Optional["FleetKernel"]:
        n = network._csr.num_vertices
        if n > _PACKED_NODE_LIMIT:
            return None
        layout = SlotLayout(algorithm.masks, n).with_extras(
            np.arange(len(algorithm.sources), dtype=I64), algorithm.sources
        )
        if layout.rows() is None:
            return None
        return cls(algorithm, network, layout)

    def _preload(self, alg) -> None:
        """Labels a reused fleet object already holds.

        The per-node relaxation would see them.  A fresh fleet holds none;
        any other resumes from its containers (built here if need be).
        """
        views = (alg.dist, alg.parent, alg.root)
        if all(isinstance(view, LazyRows) and view.values is None
               and view.untouched() for view in views):
            return
        offsets = self.layout.offsets
        for idx in range(len(alg.sources)):
            base, end = int(offsets[idx]), int(offsets[idx + 1])
            p = self.slot_v[base:end]
            cont = alg.dist[idx]
            if isinstance(cont, list):
                seg = np.asarray(cont, dtype=I64)[p]
                hit = np.flatnonzero(seg != UNREACHED)
                if len(hit):
                    self.dist[base + hit] = seg[hit]
                    pseg = np.asarray(alg.parent[idx], dtype=I64)
                    rseg = np.asarray(alg.root[idx], dtype=I64)
                    self.parent[base + hit] = pseg[p[hit]]
                    self.root[base + hit] = rseg[p[hit]]
            elif cont:
                par = alg.parent[idx]
                rt = alg.root[idx]
                size = len(p)
                for v, d in cont.items():
                    j = int(np.searchsorted(p, v))
                    if j < size and p[j] == v and d != UNREACHED:
                        self.dist[base + j] = d
                        self.parent[base + j] = par[v]
                        self.root[base + j] = rt[v]

    def start(self, max_rounds: int) -> None:
        self.max_rounds = max_rounds
        self._do_round(0, self.start_events.pop(0, None), None)

    def next_round(self, after: int) -> Optional[int]:
        if self.buckets:
            # Every nonempty link queue delivers next round, so the earliest
            # pending delivery is always exactly one round away.
            return after + 1
        if self.start_events:
            return min(self.start_events)
        return None

    def bulk_round(self, rnd: int) -> None:
        self._do_round(
            rnd, self.start_events.pop(rnd, None), _bucket_pop(self.buckets, rnd)
        )

    def _do_round(self, rnd: int, starts, chunk) -> None:
        n = self.n
        nn = n * n
        stream0 = stream1 = None
        if starts:
            vs = np.asarray([e[0] for e in starts], dtype=I64)
            idxs = np.asarray([e[2] for e in starts], dtype=I64)
            slots = np.searchsorted(self.slot_keys, idxs * n + vs)
            self.dist[slots] = 0
            self.parent[slots] = vs
            self.root[slots] = vs
            if 0 < self.max_depth:
                flat, cnts = _flat_slices(self.ann_starts, slots)
                if len(flat):
                    stream0 = (np.repeat(vs, cnts), flat,
                               np.repeat((n + vs) * n + vs, cnts))
        if chunk is not None:
            rows, keys = chunk
            links = self.ann_links[rows]
            self.delivered += len(rows)
            self.edge_counts += np.bincount(
                links >> 1, minlength=len(self.edge_counts)
            )
            if self.inherited_top > self.seen_linkmax:
                seen = int(self.inherited[links].max())
                if seen > self.seen_linkmax:
                    self.seen_linkmax = seen
            tslots, order = _stable_sort(self.ann_tslot[rows], len(self.dist))
            keys = keys[order]
            links = links[order]
            firsts = np.flatnonzero(np.r_[True, tslots[1:] != tslots[:-1]])
            uq = tslots[firsts]
            best = np.minimum.reduceat(keys, firsts)
            nd = best // nn
            improved = nd < self.dist[uq]
            win = np.flatnonzero(improved)
            if len(win):
                islots = uq[win]
                rem = best[win] - nd[win] * nn
                self.dist[islots] = nd[win]
                self.root[islots] = rem // n
                self.parent[islots] = rem % n
            announcing = np.flatnonzero(improved & (nd < self.max_depth))
            if len(announcing):
                # Per-node announce order: instances in first-message order.
                # A node's delivering links carry distinct activation
                # stamps, so a slot's first message has its smallest stamp.
                first_act = np.minimum.reduceat(
                    self.sched.act[links], firsts
                )[announcing]
                a_slots = uq[announcing]
                _, by_node = _stable_sort(
                    self.slot_v[a_slots] * self.sched.seq + first_act,
                    n * self.sched.seq,
                )
                a_slots = a_slots[by_node]
                flat, cnts = _flat_slices(self.ann_starts, a_slots)
                a_links = self.ann_links[flat]
                owner = np.repeat(a_slots, cnts)
                a_keys = np.repeat(
                    ((self.dist[a_slots] + 1) * n + self.root[a_slots]) * n
                    + self.slot_v[a_slots], cnts,
                )
                if self.suppress:
                    # Same-round senders whose announced distance is within
                    # one of the new label (candidate distance at most
                    # ``label + 2``: keys below ``(label + 3) * n²``) cannot
                    # be improved by the echo.
                    # The echo to sender ``u`` leaves over the reverse of
                    # the link ``u`` delivered on, and a link delivers once
                    # per round, so marking those links by slot finds it.
                    limit = np.where(improved, (nd + 3) * nn, 0)
                    supp = keys < np.repeat(limit, np.diff(np.append(firsts, len(keys))))
                    if supp.any():
                        mark = self.echo_slot
                        supp_links = links[supp] ^ 1
                        mark[supp_links] = tslots[supp]
                        keep = np.flatnonzero(mark[a_links] != owner)
                        mark[supp_links] = UNREACHED
                        flat = flat[keep]
                        a_links = a_links[keep]
                        owner = owner[keep]
                        a_keys = a_keys[keep]
                if len(flat):
                    stream1 = (owner, flat, a_keys, a_links)
        if stream0 is None and stream1 is None:
            return
        if stream1 is None:
            _, rows, keys = stream0
            links = self.ann_links[rows]
        elif stream0 is None:
            _, rows, keys, links = stream1
        else:
            # Engine dispatch order ``(node, band, sub)``: each stream is
            # already in ``(node, sub)`` order, and the starts (band 0) go
            # before a node's relaxations (band 1).
            _, order = _stable_sort(np.concatenate(
                (2 * stream0[0], 2 * self.slot_v[stream1[0]] + 1)
            ), 2 * n)
            rows = np.concatenate((stream0[1], stream1[1]))[order]
            keys = np.concatenate((stream0[2], stream1[2]))[order]
            links = self.ann_links[rows]
        deliv = self.sched.schedule(rnd, links, rnd < self.max_rounds)
        self.sent += len(rows)
        _bucket_push(self.buckets, rnd, deliv, (rows, keys))

    def awake_at_cutoff(self, rnd: int) -> int:
        return sum(
            1 for lst in self.alg._pending.values()
            if lst and lst[-1][0] > rnd
        )

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        alg = self.alg
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = _ring_backlog(self)
        _writeback_linkmax(self, network)
        # The labels stay in the slot arrays; each instance's containers are
        # built when read (a per-node run built them all: they update now).
        hit = self.dist != _HUGE
        self.dist[~hit] = UNREACHED
        for name, values in (("dist", self.dist), ("parent", self.parent),
                             ("root", self.root)):
            rows = getattr(alg, name)
            if not isinstance(rows, LazyRows):
                rows = LazyRows(len(rows), None, list(rows))
            rows.absorb(_label_fill(self.layout, values, hit), self.layout, values)
            setattr(alg, name, rows)
        _halt_all(network)
        if terminated:
            # Every start ran, as the per-node run pops them all.
            alg._pending.clear()
        ticks = self.tick_last
        columns = {}
        if ticks:
            columns["__cmb_round"] = np.minimum(
                np.fromiter(ticks.values(), dtype=I64, count=len(ticks)),
                final_round,
            )
        network._leave_node_state(
            np.fromiter(ticks, dtype=I64, count=len(ticks)), columns,
        )


_K_ANN, _K_UP, _K_DOWN = 0, 1, 2


def _rank_table(algorithm) -> Optional[list]:
    """The sorted value pool a :class:`PartAggregationKernel` folds over.

    ``None`` declines the kernel: an ``op`` other than ``min``/``max``, a
    pool that is not totally ordered or cannot be sorted, or a resumed
    object — one an earlier run left convergecast state in, or a per-node
    run has started.  The per-node path runs those configurations exactly.
    """
    if algorithm.op is not min and algorithm.op is not max:
        return None
    if algorithm._resumed():
        return None
    try:
        pool = {algorithm.identity}
        for vals in algorithm.values:
            pool.update(vals.values())
        if not all(_rankable(value) for value in pool):
            return None
        return sorted(pool)
    except TypeError:
        return None


def _slot_parents(parents, layout: SlotLayout) -> Optional[np.ndarray]:
    """Each slot's tree parent, or ``None`` when a container cannot say.

    A fleet's untouched parent view hands over its slot array (re-keyed
    when the two layouts' extras differ).  Caller-supplied containers
    resolve per instance: one fancy index for a list, one sorted lookup for
    a dict; absent keys read through the container itself — a defaultdict
    yields its default, with the key-inserting side effect the per-node
    path has, while a plain dict raises and aborts the build.
    """
    keys, slot_v, offsets = layout.keys, layout.slot_v, layout.offsets
    if isinstance(parents, LazyRows) and parents.values is not None \
            and parents.layout.n == layout.n and parents.untouched():
        src = parents.layout.keys
        if src is keys:
            return parents.values
        out = np.full(len(keys), UNREACHED, dtype=I64)
        if len(src) and len(keys):
            j = np.minimum(np.searchsorted(src, keys), len(src) - 1)
            found = src[j] == keys
            out[found] = parents.values[j[found]]
        return out
    out = np.full(len(keys), UNREACHED, dtype=I64)
    for idx in range(len(offsets) - 1):
        lo, hi = int(offsets[idx]), int(offsets[idx + 1])
        if lo == hi:
            continue
        p = slot_v[lo:hi]
        cont = parents[idx]
        try:
            if isinstance(cont, list):
                arr = np.asarray(cont, dtype=I64)
                if arr.ndim != 1 or (len(arr) and int(p[-1]) >= len(arr)):
                    return None
                vals = arr[p]
            elif isinstance(cont, dict):
                kv = np.fromiter(cont.keys(), dtype=I64, count=len(cont))
                pv = np.fromiter(cont.values(), dtype=I64, count=len(cont))
                order = np.argsort(kv)
                kv = kv[order]
                vals = np.full(len(p), UNREACHED, dtype=I64)
                if len(kv):
                    j = np.searchsorted(kv, p)
                    jc = np.minimum(j, len(kv) - 1)
                    hit = kv[jc] == p
                    vals[hit] = pv[order][jc[hit]]
                else:
                    hit = np.zeros(len(p), dtype=bool)
                if not hit.all():
                    miss = p[~hit].tolist()
                    vals[~hit] = np.fromiter(
                        (cont[v] for v in miss), dtype=I64, count=len(miss),
                    )
            else:
                vals = np.fromiter(
                    (cont[v] for v in p.tolist()), dtype=I64, count=len(p)
                )
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        out[lo:hi] = vals
    return out


class PartAggregationKernel:
    """Bulk twin of :class:`~repro.congest.primitives.aggregation.
    PartAggregation` (non-retry ``min``/``max`` over totally ordered values).

    Both the announce volume (every participant multicasts its parent
    pointer over its full mask slice) and the value plane are vectorized:
    every distinct value (and the identity) gets an integer rank once,
    folds become rank minima (maxima), children live in flat arrays, and
    UP/DOWN payloads travel as ranks in the integer columns.  Any other
    configuration declines in :meth:`build` (see :func:`_rank_table`) and
    runs on the per-node path, the general implementation.

    The slots are the aggregation's :class:`SlotLayout` — the tree fleet's,
    when the parents come from a fleet over the same masks, plus value
    holders outside every mask slice.  ``finish`` publishes ``results``
    and leaves ``delivered`` and the convergecast bookkeeping (``_heard``,
    ``_child_*``, ``_done``; what a per-node rerun of the object reads) in
    the kernel's arrays, behind views built on read.
    """

    bulk_state = ("heard", "done", "buckets", "start_events", "sent",
                  "delivered", "edge_counts", "seen_linkmax", "max_rounds",
                  "last_executed", "n_deliv")

    def __init__(self, algorithm, network, table: list, layout: SlotLayout,
                 parent_of: np.ndarray) -> None:
        self.alg = algorithm
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        num = len(algorithm.masks)
        self.broadcast = algorithm.broadcast_result
        self.identity = algorithm.identity
        self.layout = layout
        self.slot_keys, self.slot_i, self.slot_v = layout.keys, layout.slot_i, layout.slot_v
        self.ann_starts, self.ann_targets, self.ann_links, self.ann_tslot = layout.rows()
        num_slots = len(self.slot_keys)
        self.expected = np.diff(self.ann_starts)
        # Parent pointers: invalid trees (parent neither self, UNREACHED,
        # a fellow participant, nor graph-adjacent) abort the build — the
        # caller falls back to the per-node path.  Adjacency and participant
        # membership resolve with two global searchsorteds (``rows * n +
        # indices`` is globally ascending because CSR adjacency rows are).
        self.parent_of = parent_of
        self.up_link = np.full(num_slots, -1, dtype=I64)
        self.up_tslot = np.full(num_slots, -1, dtype=I64)
        self.valid = True
        up = np.flatnonzero((parent_of != self.slot_v) & (parent_of != UNREACHED))
        if len(up):
            adj = csr.adjacency_arrays()
            row_keys = adj.rows * n + adj.indices
            keys = self.slot_v[up] * n + parent_of[up]
            j = np.searchsorted(row_keys, keys)
            jc = np.minimum(j, max(len(row_keys) - 1, 0))
            if not len(row_keys) or not (row_keys[jc] == keys).all():
                self.valid = False
                return
            self.up_link[up] = adj.adj_link_ids[jc]
            pkeys = self.slot_i[up] * n + parent_of[up]
            j = np.searchsorted(self.slot_keys, pkeys)
            jc = np.minimum(j, num_slots - 1)
            if not (self.slot_keys[jc] == pkeys).all():
                self.valid = False
                return
            self.up_tslot[up] = jc
        # Convergecast bookkeeping; ``n_children``/``n_child_vals`` count
        # registered children and folded child reports, so fire eligibility
        # is one array test.
        self.heard = np.zeros(num_slots, dtype=I64)
        self.done = np.zeros(num_slots, dtype=bool)
        self.n_children = np.zeros(num_slots, dtype=I64)
        self.n_child_vals = np.zeros(num_slots, dtype=I64)
        # Broadcast receipts: the received rank and the global receipt
        # order (``-1``: none yet), which fixes the ``delivered`` dicts'
        # insertion order when they are built.
        self.deliv_rank = np.zeros(num_slots, dtype=I64)
        self.deliv_seq = np.full(num_slots, -1, dtype=I64)
        self.n_deliv = 0
        # Value plane: each slot's running fold is a rank into ``table``.
        self.rank_table = table
        self.fold_at = np.minimum.at if algorithm.op is min else np.maximum.at
        rank_of = {value: r for r, value in enumerate(table)}
        self.acc_rank = np.full(num_slots, rank_of[self.identity], dtype=I64)
        own_keys: list[int] = []
        own_ranks: list[int] = []
        for idx, vals in enumerate(algorithm.values):
            base = idx * n
            for v, value in vals.items():
                own_keys.append(base + v)
                own_ranks.append(rank_of[value])
        if own_keys:
            pos = np.searchsorted(
                self.slot_keys, np.asarray(own_keys, dtype=I64)
            )
            self.acc_rank[pos] = np.asarray(own_ranks, dtype=I64)
        # Children in registration order, capacity-bounded by the announce
        # rows (masks permit both directions, so a slot's in-degree equals
        # its out-degree); ``n_children`` doubles as the write cursor.
        cap = len(self.ann_targets)
        self.child_t_flat = np.empty(cap, dtype=I64)
        self.child_l_flat = np.empty(cap, dtype=I64)
        self.child_s_flat = np.empty(cap, dtype=I64)
        self.start_events = self._start_slots(algorithm, num)
        self.timer_rounds = sorted(algorithm.wake_at_rounds)
        self.sched = _LinkScheduler(2 * csr.num_edges)
        self.inherited = np.asarray(network._link_max_backlog, dtype=I64)
        self.buckets: dict[int, list] = {}
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)
        self.seen_linkmax = 0
        self.max_rounds = 0
        self.last_executed = 0

    def _start_slots(self, algorithm, num: int) -> dict:
        """Start rows per round: every participant of the instances not yet
        started (delays ``<= 0`` fire at round 0).

        A node starts its instances in ``(delay, instance)`` order; listing
        the instances in that order, each with its slots, gives every node
        exactly that order, which is all the dispatch sort reads.
        """
        delays = np.asarray(algorithm.delays, dtype=I64)
        insts = np.arange(num, dtype=I64)
        if algorithm._started_through is not None:
            insts = insts[delays > algorithm._started_through]
        rnds = np.maximum(delays[insts], 0)
        order = np.lexsort((insts, delays[insts], rnds))
        insts, rnds = insts[order], rnds[order]
        slots, counts = _flat_slices(self.layout.offsets, insts)
        slot_rnds = np.repeat(rnds, counts)
        events = {}
        if len(slots):
            cuts = np.flatnonzero(np.r_[True, slot_rnds[1:] != slot_rnds[:-1]])
            for lo, hi in zip(cuts.tolist(), np.append(cuts[1:], len(slots)).tolist()):
                events[int(slot_rnds[lo])] = slots[lo:hi]
        return events

    @classmethod
    def build(cls, algorithm, network) -> Optional["PartAggregationKernel"]:
        n = network._csr.num_vertices
        if (len(algorithm.masks) + 1) * n >= 2**62 or n > _PACKED_NODE_LIMIT:
            return None
        table = _rank_table(algorithm)
        if table is None:
            return None
        layout = algorithm._slot_layout(n)
        if layout.rows() is None:
            return None
        parent_of = _slot_parents(algorithm.parents, layout)
        if parent_of is None:
            return None
        kernel = cls(algorithm, network, table, layout, parent_of)
        return kernel if kernel.valid else None

    def start(self, max_rounds: int) -> None:
        self.max_rounds = max_rounds
        self._do_round(0)

    def next_round(self, after: int) -> Optional[int]:
        cands = []
        if self.buckets:
            cands.append(after + 1)
        if self.start_events:
            cands.append(min(self.start_events))
        for t in self.timer_rounds:
            # Declared timer rounds all execute (the per-node probe keeps
            # them), even when no start or message lands on them.
            if t > after:
                cands.append(t)
                break
        return min(cands) if cands else None

    def bulk_round(self, rnd: int) -> None:
        self._do_round(rnd)

    def _do_round(self, rnd: int) -> None:
        self.last_executed = rnd
        # Column chunks (node, sub, band, kind, link, target, tslot, sender,
        # ival); ``ival`` is the parent pointer on announce rows and the
        # value rank on UP/DOWN rows.
        chunks: list = []
        slots = self.start_events.pop(rnd, None)
        if slots is not None:
            vs = self.slot_v[slots]
            expected = self.expected[slots]
            announcing = np.flatnonzero(expected > 0)
            if len(announcing):
                a_slots = slots[announcing]
                flat, cnts = _flat_slices(self.ann_starts, a_slots)
                nodes = np.repeat(vs[announcing], cnts)
                chunks.append((
                    nodes,
                    np.repeat(announcing.astype(I64), cnts),
                    np.zeros(len(flat), dtype=I64),
                    np.full(len(flat), _K_ANN, dtype=I64),
                    self.ann_links[flat],
                    self.ann_targets[flat],
                    self.ann_tslot[flat],
                    nodes,
                    np.repeat(self.parent_of[a_slots], cnts),
                ))
            isolated = np.flatnonzero(expected == 0)
            if len(isolated):
                # Isolated participants: the per-node start fires inline.
                # An instance's participants all start in this round, so no
                # child report can have reached (or fired) them yet.
                self._fire(slots[isolated], 0, isolated, chunks)
        chunk = _bucket_pop(self.buckets, rnd)
        if chunk is not None:
            acts, kinds, links, targets, tslots, senders, ivals = chunk
            self.delivered += len(links)
            self.edge_counts += np.bincount(
                links >> 1, minlength=len(self.edge_counts)
            )
            seen = int(self.inherited[links].max())
            if seen > self.seen_linkmax:
                self.seen_linkmax = seen
            order = np.lexsort((acts, targets))
            kinds_s = kinds[order]
            links_s = links[order]
            targets_s = targets[order]
            tslots_s = tslots[order]
            senders_s = senders[order]
            ivals_s = ivals[order]
            ann = kinds_s == _K_ANN
            np.add.at(self.heard, tslots_s[ann], 1)
            reg = np.flatnonzero(ann & (ivals_s == targets_s))
            if len(reg):
                # Child registrations, batched: the sender announced in
                # this instance, so its slot lookup always hits.  Group the
                # batch by slot (stable, so in-batch order is kept) and
                # place each row at its slot's cursor plus its in-group rank.
                rslots = tslots_s[reg]
                rsenders = senders_s[reg]
                ts = np.searchsorted(
                    self.slot_keys, self.slot_i[rslots] * self.n + rsenders
                )
                grp = np.argsort(rslots, kind="stable")
                rs = rslots[grp]
                boundary = np.ones(len(rs), dtype=bool)
                boundary[1:] = rs[1:] != rs[:-1]
                glen = np.diff(np.append(np.flatnonzero(boundary), len(rs)))
                pos = self.ann_starts[rs] + self.n_children[rs] + _ranks(glen)
                self.child_t_flat[pos] = rsenders[grp]
                self.child_l_flat[pos] = links_s[reg][grp] ^ 1
                self.child_s_flat[pos] = ts[grp]
                np.add.at(self.n_children, rslots, 1)
            ups = np.flatnonzero(kinds_s == _K_UP)
            if len(ups):
                np.add.at(self.n_child_vals, tslots_s[ups], 1)
                self.fold_at(self.acc_rank, tslots_s[ups], ivals_s[ups])
            downs = np.flatnonzero(kinds_s == _K_DOWN)
            if len(downs):
                self._downs(tslots_s[downs], ivals_s[downs], chunks)
            au = kinds_s <= _K_UP
            uq, first = np.unique(tslots_s[au], return_index=True)
            # Fire eligibility as one array test (not yet fired, every
            # announcement heard, one report per registered child); the
            # per-node fire order is first-touch order, and the skipped
            # slots would not have advanced the engine's tiebreak counter.
            elig = (
                ~self.done[uq]
                & (self.heard[uq] >= self.expected[uq])
                & (self.n_child_vals[uq] >= self.n_children[uq])
            )
            uq = uq[elig]
            first = first[elig]
            if len(uq):
                fire = uq[np.argsort(first, kind="stable")]
                self._fire(fire, 2, np.arange(len(fire), dtype=I64), chunks)
        if not chunks:
            return
        if len(chunks) == 1:
            vec = chunks[0]
        else:
            # Rows with equal (node, band, sub) keys never span chunks (the
            # only equal-key groups are single multicasts, each emitted by
            # one chunk), so the stable lexsort below is order-insensitive
            # to chunk concatenation order.
            vec = tuple(np.concatenate(pair) for pair in zip(*chunks))
        nodes, subs, bands, kinds, links, targets, tslots, senders, ivals = vec
        order = np.lexsort((subs, bands, nodes))
        links_o = links[order]
        deliv = self.sched.schedule(rnd, links_o, rnd < self.max_rounds)
        self.sent += len(links_o)
        _bucket_push(self.buckets, rnd, deliv, (
            self.sched.act[links_o], kinds[order], links_o, targets[order], tslots[order],
            senders[order], ivals[order],
        ))

    def _children_rows(self, slots, subs, ranks, band, chunks) -> None:
        """Emit each slot's DOWN multicast as one vectorized chunk."""
        cnt = self.n_children[slots]
        total = int(cnt.sum())
        if not total:
            return
        flat = np.repeat(self.ann_starts[slots], cnt) + _ranks(cnt)
        nodes = np.repeat(self.slot_v[slots], cnt)
        chunks.append((
            nodes,
            np.repeat(subs, cnt),
            np.full(total, band, dtype=I64),
            np.full(total, _K_DOWN, dtype=I64),
            self.child_l_flat[flat],
            self.child_t_flat[flat],
            self.child_s_flat[flat],
            nodes,
            np.repeat(ranks, cnt),
        ))

    def _record_delivered(self, slots, ranks) -> None:
        """Note broadcast receipts (each slot receives at most once)."""
        self.deliv_rank[slots] = ranks
        self.deliv_seq[slots] = self.n_deliv + np.arange(len(slots), dtype=I64)
        self.n_deliv += len(slots)

    def _downs(self, dslots, dranks, chunks) -> None:
        """Record broadcast receipts and forward them to each child."""
        self._record_delivered(dslots, dranks)
        self._children_rows(
            dslots, np.arange(len(dslots), dtype=I64), dranks, 1, chunks
        )

    def _fire(self, slots, band, subs, chunks) -> None:
        """Fire ``slots`` (guards already hold) as rows ``(band, subs)``:
        roots publish, and broadcast, their result; others report UP."""
        self.done[slots] = True
        ranks = self.acc_rank[slots]
        vs = self.slot_v[slots]
        parents = self.parent_of[slots]
        isroot = parents == vs
        ridx = np.flatnonzero(isroot)
        if len(ridx):
            results = self.alg.results
            table = self.rank_table
            for idx, rank in zip(
                self.slot_i[slots[ridx]].tolist(), ranks[ridx].tolist()
            ):
                results[idx] = table[rank]
            self._record_delivered(slots[ridx], ranks[ridx])
            if self.broadcast:
                self._children_rows(
                    slots[ridx], subs[ridx], ranks[ridx], band, chunks
                )
        uidx = np.flatnonzero(~isroot & (parents != UNREACHED))
        if len(uidx):
            upslots = slots[uidx]
            chunks.append((
                vs[uidx],
                subs[uidx],
                np.full(len(uidx), band, dtype=I64),
                np.full(len(uidx), _K_UP, dtype=I64),
                self.up_link[upslots],
                parents[uidx],
                self.up_tslot[upslots],
                vs[uidx],
                ranks[uidx],
            ))

    def awake_at_cutoff(self, rnd: int) -> int:
        # Waiting participants halt between timer rounds, so the per-node
        # engine's awake set is empty at any cutoff.
        return 0

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        alg = self.alg
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = _ring_backlog(self)
        _writeback_linkmax(self, network)
        _halt_all(network)
        if alg.wake_at_rounds:
            alg.current_round = self.last_executed
        alg._leave_state(final_round, self._state_fills())

    def _state_fills(self) -> dict:
        """Row fillers rebuilding the per-node containers from the arrays.

        They close over the state arrays only (not the scheduler or the
        buckets), and build exactly what the per-node run would have left:
        heard counts, fired nodes, registered children, pending child
        reports and broadcast receipts.  Empty when the run touched
        nothing.
        """
        heard, done = self.heard, self.done
        n_children, n_child_vals = self.n_children, self.n_child_vals
        if not (heard.any() or done.any() or n_children.any()
                or n_child_vals.any()):
            return {}
        offsets, slot_v = self.layout.offsets, self.slot_v
        ann_starts = self.ann_starts
        child_t, child_l = self.child_t_flat, self.child_l_flat
        acc_rank, table, identity = self.acc_rank, self.rank_table, self.identity
        deliv_rank, deliv_seq = self.deliv_rank, self.deliv_seq
        received = deliv_seq >= 0

        def fill_heard(i, row):
            sel = _instance_slots(offsets, heard, i)
            row.update(zip(slot_v[sel].tolist(), heard[sel].tolist()))

        def fill_done(i, row):
            row.update(slot_v[_instance_slots(offsets, done, i)].tolist())

        def fill_children(flat):
            def fill(i, row):
                sel = _instance_slots(offsets, n_children, i)
                for v, start, count in zip(
                    slot_v[sel].tolist(), ann_starts[sel].tolist(),
                    n_children[sel].tolist(),
                ):
                    row[v] = flat[start:start + count].tolist()

            return fill

        def fill_child_values(i, row):
            # The individual child reports were folded on arrival; a
            # partially-folded head padded with the identity reproduces
            # both the pending-report count and (``min``/``max`` being
            # order-free) the final fold.
            sel = _instance_slots(offsets, n_child_vals, i)
            for v, rank, count in zip(
                slot_v[sel].tolist(), acc_rank[sel].tolist(),
                n_child_vals[sel].tolist(),
            ):
                row[v] = [table[rank]] + [identity] * (count - 1)

        def fill_delivered(i, row):
            sel = _instance_slots(offsets, received, i)
            sel = sel[np.argsort(deliv_seq[sel], kind="stable")]
            row.update(zip(
                slot_v[sel].tolist(),
                [table[rank] for rank in deliv_rank[sel].tolist()],
            ))

        return {
            "_heard": fill_heard,
            "_done": fill_done,
            "_child_targets": fill_children(child_t),
            "_child_links": fill_children(child_l),
            "_child_values": fill_child_values,
            "delivered": fill_delivered,
        }
