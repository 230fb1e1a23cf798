"""The synchronous CONGEST round engine.

The :class:`Network` wraps a :class:`~repro.graphs.graph.Graph` and executes
a :class:`~repro.congest.algorithm.DistributedAlgorithm` in synchronous
rounds:

1. every directed link with pending traffic delivers its oldest queued
   message;
2. every *touched* node — awake (not halted), or a receiver of a message
   this round — runs its ``on_round`` handler;
3. the messages the handlers produce are enqueued on their links for
   delivery in the next round.

This is the one link model of the simulator, CONGEST's: at most one
message per directed link per round.  Messages beyond it are *queued*, so
an algorithm that overloads a link simply takes more rounds — exactly the
penalty the CONGEST model charges.  The engine records the metrics the
paper's bounds talk about: total rounds to quiescence, total messages, the
maximum backlog observed on any link (a per-link congestion proxy) and
per-edge message counts.

A run ends one of two ways: at quiescence, or by raising
:class:`RoundLimitExceeded` (:class:`PartialRunError` under an adversary)
with the partial metrics when it is not quiescent after ``max_rounds``
rounds.  Only a quiescent network can be followed up with
``run(..., reset=False)``; after a run that raised, its node state stays
readable, but the next run must reset.

Active-set round engine
-----------------------
A round costs O(nodes-and-links-actually-touched), not O(n + links):

* **Awake-node worklist.**  ``NodeContext.halt`` / ``wake`` incrementally
  maintain the set of non-halted nodes, so the engine never scans all ``n``
  nodes per round — it runs exactly ``awake ∪ receivers`` (in ascending node
  id order, matching the legacy full-scan order).  Quiescence becomes an
  O(1) check: no active link and an empty awake set.
* **Active-link worklist.**  Links are indexed by dense *directed link ids*
  derived from the graph's CSR snapshot: the undirected edge with id ``e``
  (canonical ``(u, v)``, ``u < v``) owns link ``2e`` for ``u -> v`` and
  ``2e + 1`` for ``v -> u``.  A link's queue is drained one message per
  round behind a head cursor and dropped once empty; only links with
  pending traffic are visited.
* **Wiring from the CSR arrays.**  A fresh network allocates flat per-link
  and per-node tables only: queues, heads, link maxima, active flags,
  inbox slots and the awake set.  The contexts (with their neighbour
  tuples) are built on the first per-node run or the first read of
  :attr:`Network.nodes` / :meth:`Network.node`, the ``neighbor -> link``
  dicts on a context's first send, and the receiver table on the first
  per-node delivery; all are read off the snapshot's cached adjacency
  arrays.
  Until then the awake set alone says which nodes are halted, and a bulk
  kernel's per-node outputs wait in a queue of array fills
  (:meth:`Network._leave_node_state`) that the context build applies in
  run order, so a pipeline that runs only bulk kernels never builds a
  context.  Queues are allocated on first send to an idle link and a
  node's inbox on its first delivery (then reused across rounds), so
  wiring creates no per-link or per-node object the run may never touch.
* **Message fast path.**  Each wired ``NodeContext`` holds a precomputed
  ``neighbor -> directed link id`` table, so ``send`` enqueues directly
  onto the target link's queue — there is no per-round outbox collection
  pass and no ``(sender, receiver)`` tuple-keyed link dict.  Per-edge
  message counters live in one flat list indexed by edge id (exposed
  through the cached :attr:`RunMetrics.per_edge_messages` dict property and
  the :meth:`RunMetrics.top_k_edges` helper).
* **Timer protocol.**  An algorithm declaring ``wake_at_rounds`` (globally
  known deadlines, e.g. the scheduler's delay start rounds) lets waiting
  nodes halt instead of ticking no-op handlers: the engine revives every
  node exactly at the declared rounds and charges silent stretches between
  them without executing them, keeping the measured round count identical.
  Every per-node run keeps ``algorithm.current_round`` at the round being
  dispatched, with or without timers.
* **Fault injection.**  ``run(..., adversary=...)`` runs the same loop on
  the ring path (bulk kernels have no per-message delivery point):
  ring delivery goes through ``_deliver_adversarial``, which asks the
  adversary about every message, and the adversary's crash/recover rounds
  join the timers, so a silent-stretch jump never skips a scheduled fault
  and a run does not end while faults are still scheduled.
"""

from __future__ import annotations

import gc
import heapq
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from .algorithm import DistributedAlgorithm
from .bulk import BulkFallbackWarning
from .message import Message
from .node import NodeContext

#: Shared empty inbox passed to awake nodes with no incoming messages.
#: Handlers receive it read-only by contract (no algorithm mutates its
#: ``messages`` argument); sharing it avoids one list allocation per awake
#: node per round.
_NO_MESSAGES: list[Message] = []


def _receiver_table(csr) -> list[int]:
    """The receiver of every directed link of a CSR snapshot.

    Directed link ``2e`` carries ``lo -> hi`` of canonical edge ``e`` and
    ``2e + 1`` the reverse.  A plain list: unlike ``array('l')`` it hands
    back cached small ints instead of boxing on every read.
    """
    arrays = csr.adjacency_arrays()
    receiver = np.empty(2 * csr.num_edges, dtype=np.int64)
    receiver[0::2] = arrays.edge_v
    receiver[1::2] = arrays.edge_u
    return receiver.tolist()


@contextmanager
def gc_paused():
    """Pause the cyclic collector around an allocation-heavy loop.

    Every generation-0 threshold crossing would otherwise walk the young
    objects again, and a loop that allocates one long-lived container per
    node crosses it thousands of times.  Re-enables the collector on exit
    only if it was enabled on entry.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _context_tables(csr) -> list[tuple[int, ...]]:
    """Each node's ascending neighbour tuple, read off the adjacency arrays.

    The caller pauses the collector: the flat temporaries and the ``n``
    tuples are allocated in one go, and a collection in between would
    walk them for nothing.
    """
    arrays = csr.adjacency_arrays()
    targets = tuple(arrays.indices.tolist())
    bounds = csr.indptr.tolist()
    return [targets[a:b] for a, b in zip(bounds, bounds[1:])]


class _LinkTable:
    """Every node's ``neighbor -> out-link`` dict, all built on the first request.

    One table per topology: the contexts of every reset share it, and a
    wired context fetches its row on its first send, so a network whose
    contexts are only read builds no dict.  It holds the snapshot and the
    neighbour tuples, never the network, so the contexts that point at it
    form no reference cycle with their network.
    """

    __slots__ = ("_csr", "neighbor_tuples", "_rows")

    def __init__(self, csr) -> None:
        self._csr = csr
        self.neighbor_tuples = _context_tables(csr)
        self._rows: Optional[list[dict[int, int]]] = None

    def row(self, v: int) -> dict[int, int]:
        """Node ``v``'s dict, so a send resolves its link with one lookup."""
        rows = self._rows
        if rows is None:
            with gc_paused():
                links = self._csr.adjacency_arrays().adj_link_ids.tolist()
                bounds = self._csr.indptr.tolist()
                rows = self._rows = [
                    dict(zip(row, links[a:b]))
                    for row, a, b in zip(self.neighbor_tuples, bounds, bounds[1:])
                ]
        return rows[v]


def _write_columns(contexts: list, verts, columns: dict) -> None:
    """Store ``columns[key][j]`` under ``key`` in node ``verts[j]``'s state.

    ``verts`` is an id array, or ``None`` for every node in id order.
    """
    ids = range(len(contexts)) if verts is None else verts.tolist()
    states = [contexts[v].state for v in ids]
    for key, values in columns.items():
        for state, value in zip(states, values.tolist()):
            state[key] = value


class RoundLimitExceeded(RuntimeError):
    """Raised when an algorithm fails to reach quiescence within ``max_rounds``.

    The run's progress is not discarded: :attr:`metrics` carries the partial
    :class:`RunMetrics` accumulated up to the cutoff (``terminated=False``,
    send counts reconciled against the queued backlog) and
    :attr:`last_active_set` the number of awake nodes at the moment the
    limit was hit — together they say *where* a stalled run was stuck.
    The node state the run reached stays readable, but the run cannot be
    continued: the network must be reset before it runs again.
    """

    def __init__(
        self,
        message: str,
        *,
        metrics: Optional["RunMetrics"] = None,
        last_active_set: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.metrics = metrics
        self.last_active_set = last_active_set


class PartialRunError(RoundLimitExceeded):
    """A fault-injected run stalled before quiescence.

    Raised instead of the bare :class:`RoundLimitExceeded` when a run under
    an adversary (``Network.run(..., adversary=...)``) hits
    ``max_rounds``: under faults a stall usually means the adversary starved
    a primitive of an un-retried message, and the partial metrics plus the
    surviving active-set size are the debugging evidence.  Subclasses
    :class:`RoundLimitExceeded`, so existing ``except`` clauses keep
    working.
    """


@dataclass
class RunMetrics:
    """Metrics of one simulation run.

    Attributes:
        rounds: number of synchronous rounds until global quiescence.
        messages_sent: total messages handed to the network by nodes.
        messages_delivered: total messages delivered to receivers.
        max_link_backlog: largest queue length observed on any directed link.
        terminated: ``True`` if the run reached quiescence.  A run not
            quiescent after ``max_rounds`` rounds raises
            :class:`RoundLimitExceeded`, whose partial metrics carry
            ``False``.
        messages_dropped: messages consumed by the adversary (or addressed
            to a crashed node) instead of reaching their receiver; always 0
            in fault-free runs.
        messages_duplicated: extra at-least-once copies injected by the
            adversary; always 0 in fault-free runs.
        crashes / recoveries: node-fault events applied during the run.
        bulk_declined: why a bulk-capable algorithm ran on the per-node
            path instead of a vectorized kernel: ``"retry"``,
            ``"adversary"``, ``"queued"`` (messages sent from outside any
            run wait on the links) or ``"kernel_refused"`` (the algorithm
            built no kernel for this configuration).
            ``None`` when a kernel ran or the algorithm is not
            bulk-capable.
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    max_link_backlog: int = 0
    terminated: bool = False
    messages_dropped: int = 0
    messages_duplicated: int = 0
    crashes: int = 0
    recoveries: int = 0
    bulk_declined: Optional[str] = field(default=None, compare=False)
    _edge_counts: Optional[list] = field(default=None, repr=False, compare=False)
    _edge_list: Optional[list] = field(default=None, repr=False, compare=False)
    _per_edge_cache: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def per_edge_messages(self) -> dict[tuple[int, int], int]:
        """Messages that crossed each undirected edge (both directions summed).

        Keyed by canonical edge tuple; edges that carried no message are
        omitted.  The dict is materialized from the flat edge-id counter
        array on first access and cached (runs are finished by the time
        their metrics are read, so the counters no longer change).
        """
        cached = self._per_edge_cache
        if cached is None:
            if self._edge_counts is None or self._edge_list is None:
                return {}
            edge_list = self._edge_list
            cached = {edge_list[e]: c for e, c in enumerate(self._edge_counts) if c}
            self._per_edge_cache = cached
        return cached

    @property
    def max_edge_messages(self) -> int:
        """Largest number of messages carried by any single undirected edge."""
        if self._edge_counts is None or not self._edge_counts:
            return 0
        return max(self._edge_counts)

    def top_k_edges(self, k: int) -> list[tuple[tuple[int, int], int]]:
        """The ``k`` busiest undirected edges as ``((u, v), count)`` pairs.

        Sorted by message count descending, ties broken by ascending edge
        id; edges that carried no message never appear.  Runs a heap
        selection over the flat counter array, so the full per-edge dict is
        never materialized — use this instead of
        :attr:`per_edge_messages` when only the hottest edges matter.
        """
        if k <= 0 or self._edge_counts is None or self._edge_list is None:
            return []
        top = heapq.nlargest(
            k, ((c, -e) for e, c in enumerate(self._edge_counts) if c)
        )
        edge_list = self._edge_list
        return [(edge_list[-ne], c) for c, ne in top]


class Network:
    """A CONGEST network over a given communication graph.

    Each directed link delivers at most one message per round; the rest
    wait on the link.  ``RunMetrics.max_link_backlog`` is 1 exactly when no
    link ever held more than that.

    Args:
        graph: the communication topology.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._wiring_csr = None
        self._ran = False
        self._quiescent = True
        # (network, reason) pairs already warned about a declined bulk run;
        # deliberately not cleared by reset() so each network warns once.
        self._bulk_fallback_warned: set[str] = set()
        self.reset()

    @property
    def nodes(self) -> dict[int, NodeContext]:
        """Map of node id -> :class:`NodeContext`.

        Reading it builds every context (and the dict, once per reset) if
        nothing has yet: a network that only runs bulk kernels never does.
        Contexts built on read are the wired contexts a per-node run uses,
        halted exactly when the node is not awake and holding every output
        the bulk runs since the last reset left.  A read builds only the
        neighbour tuples, states and halted flags; a context's
        ``neighbor -> link`` dict waits for its first send.
        """
        cache = self._nodes_cache
        if cache is None:
            cache = self._nodes_cache = dict(enumerate(self._node_list))
        return cache

    @property
    def _node_list(self) -> list[NodeContext]:
        """The contexts in id order, built on first read."""
        contexts = self._contexts
        if contexts is None:
            contexts = self._build_contexts()
        return contexts

    @property
    def _receiver_of(self) -> list[int]:
        """The receiver of every directed link, built on first read."""
        table = self._receivers
        if table is None:
            table = self._receivers = _receiver_table(self._csr)
        return table

    def _build_contexts(self) -> list[NodeContext]:
        """Wire one context per node, then apply the queued kernel outputs."""
        queues, heads = self._queues, self._heads
        link_max, is_active = self._link_max_backlog, self._is_active
        active, awake, sent = self._active, self._awake, self._sent
        with gc_paused():
            link_table = self._link_table
            if link_table is None:
                # The tables only depend on the CSR snapshot, so every reset
                # of the same topology shares them.
                link_table = self._link_table = _LinkTable(self._csr)
            neighbor_tuples = link_table.neighbor_tuples
            # Positional construction (field order of the NodeContext
            # dataclass): measurably cheaper than keyword binding at
            # n = 10^4 nodes.
            contexts = self._contexts = [
                NodeContext(
                    v, neighbor_tuples[v], {}, v not in awake, sent, None,
                    link_table, queues, heads, link_max, is_active, active,
                    awake,
                )
                for v in range(len(neighbor_tuples))
            ]
            for verts, columns in self._state_fills:
                _write_columns(contexts, verts, columns)
        self._state_fills.clear()
        return contexts

    def _leave_node_state(self, verts, columns: dict) -> None:
        """Leave a bulk run's per-node outputs (the kernels' one hook).

        ``columns`` maps state keys to value arrays parallel to ``verts``
        (an id array, or ``None`` for every node).  Built contexts receive
        the values now; otherwise they join the queue of fills that the
        context build applies in run order.
        """
        contexts = self._contexts
        if contexts is None:
            if columns:
                self._state_fills.append((verts, columns))
        else:
            _write_columns(contexts, verts, columns)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all node state and link queues (a fresh network).

        Cheap when possible: when the topology is unchanged and the last run
        reached quiescence (or nothing ran at all), only the node state and
        per-link maxima need clearing — the link queues, head cursors and
        inboxes are empty by invariant.  On a network whose contexts were
        never built that is the flat tables and the queue of kernel outputs
        only.  State mutated from outside a run
        (``node(v).state[...] = ...``, ``node(v).halt()``) is wiped either
        way, as "a fresh network" promises.
        """
        csr = self.graph.csr()
        if self._wiring_csr is csr:
            if self._quiescent and not self._active:
                link_max = self._link_max_backlog
                link_max[:] = [0] * len(link_max)
                awake = self._awake
                awake.clear()
                awake.update(range(csr.num_vertices))
                self._state_fills.clear()
                if self._contexts is not None:
                    for ctx in self._contexts:
                        ctx.state = {}
                        ctx.halted = False
                        ctx._payload_ok = None
                self._ran = False
                return
        self._full_reset(csr)

    def _full_reset(self, csr) -> None:
        self._csr = csr
        n = csr.num_vertices
        num_links = 2 * csr.num_edges
        if self._wiring_csr is not csr:
            self._wiring_csr = csr
            self._receivers: Optional[list[int]] = None
            self._link_table: Optional[_LinkTable] = None
        # Per-link and per-node containers are slots, filled on first use: a
        # send onto an idle link creates its queue (an idle link's queue is
        # empty by invariant, so delivery drops drained queues), and a node's
        # inbox is created by its first delivery and then reused.
        self._queues: list[Optional[list[Message]]] = [None] * num_links
        self._heads: list[int] = [0] * num_links
        self._link_max_backlog: list[int] = [0] * num_links
        self._active: list[int] = []
        self._is_active = bytearray(num_links)
        self._inbox_of: list[Optional[list[Message]]] = [None] * n
        # One duplicate-send guard for every wired context: its keys pack the
        # directed link id, which already names the sender.
        self._sent: set = set()
        # Awake-node worklist: every node starts non-halted.  halt()/wake()
        # keep this set current, so quiescence checks and per-round node
        # selection never scan the full node table; until the contexts are
        # built it is the only record of which nodes are halted.
        self._awake: set[int] = set(range(n))
        self._contexts: Optional[list[NodeContext]] = None
        self._nodes_cache: Optional[dict[int, NodeContext]] = None
        # (verts, columns) outputs of bulk runs, waiting for the contexts.
        self._state_fills: list[tuple] = []
        self._ran = False
        self._quiescent = True

    def node(self, v: int) -> NodeContext:
        """Return the :class:`NodeContext` of node ``v`` (for inspecting outputs).

        Raises:
            KeyError: if ``v`` is no node id in ``[0, n)``.
        """
        return self.nodes[v]

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: DistributedAlgorithm,
        *,
        max_rounds: int = 100_000,
        reset: bool = True,
        adversary=None,
    ) -> RunMetrics:
        """Execute ``algorithm`` until global quiescence.

        Global quiescence means every node is halted, no message is queued
        on any link and no declared timer or scheduled fault is pending.
        Stages chain as successive runs with ``reset=False``: a later
        stage reads the earlier stages' outputs from ``node.state``.

        Args:
            algorithm: the algorithm to run.
            max_rounds: safety limit on the number of rounds; a run not
                quiescent after that many raises :class:`RoundLimitExceeded`.
            reset: start from a clean network state.  ``False`` runs a
                follow-up algorithm that reads earlier algorithms' state;
                nodes left halted by the earlier run stay halted until this
                algorithm's ``initialize`` wakes them or a message arrives.
                Only a network whose last run reached quiescence can be
                followed up: after a run that raised, ``reset=False``
                raises ``ValueError`` until the network is reset.
            adversary: optional :class:`~repro.congest.adversary.Adversary`
                hooked into ring delivery (message drops/duplication/
                latency/reordering and scheduled node crashes).  It turns
                off the bulk path, which has no per-message delivery
                point; a no-fault adversary therefore produces
                bit-identical metrics through the metered ring path.  A
                stalled run under an adversary raises
                :class:`PartialRunError` instead of the bare limit error.

        Returns:
            The :class:`RunMetrics` of the run.
        """
        if reset:
            if self._ran:
                self.reset()
        elif not self._quiescent:
            raise ValueError(
                "the last run on this network did not reach quiescence; "
                "reset() it (or run with reset=True) before running again"
            )
        declined = None
        if getattr(algorithm, "bulk_capable", False):
            bulk = self._try_bulk(algorithm, max_rounds, adversary)
            if isinstance(bulk, RunMetrics):
                return bulk
            declined = bulk
        metrics = RunMetrics(bulk_declined=declined)
        metrics._edge_counts = [0] * self._csr.num_edges
        metrics._edge_list = self._csr.edge_list
        # Sends enqueue without touching a counter; the send total is an
        # invariant of the queues instead: sent = delivered + dropped −
        # duplicated + backlog growth.
        backlog_start = self._pending_backlog()
        self._ran = True
        self._quiescent = False

        nodes = self._node_list
        # Timer protocol (opt-in; see the module docstring of
        # repro.congest.algorithm): the algorithm declares the global rounds
        # at which every node must run, so waiting nodes can halt and the
        # engine both revives the network at exactly those rounds and
        # charges silent stretches between them without executing them.
        # The round clock (algorithm.current_round) is kept on every run.
        timers: tuple = getattr(algorithm, "wake_at_rounds", ()) or ()
        num_timers = len(timers)
        timer_pos = 0
        algorithm.current_round = 0

        # The adversary's crash/recover schedule joins the timers in the
        # silent-stretch jump and the quiescence check below, so neither
        # skips over a scheduled fault.  Crashed nodes sit out initialize
        # and timer rounds.
        crashed: set[int] = set()
        event_rounds: tuple = ()
        num_events = event_pos = 0
        if adversary is not None:
            adversary.reset(self)
            event_rounds = tuple(adversary.event_rounds())
            num_events = len(event_rounds)
            # Round-0 events: nodes crashed "before the run" never initialize.
            events = adversary.begin_round(0)
            if events:
                self._apply_fault_events(events, algorithm, crashed, metrics)
            while event_pos < num_events and event_rounds[event_pos] <= 0:
                event_pos += 1

        # The shared duplicate-send guard is cleared after every handler, so
        # during a run it only holds the keys of the node currently running.
        sent = self._sent
        for ctx in nodes:
            if crashed and ctx.node_id in crashed:
                continue
            algorithm.initialize(ctx)
            sent.clear()

        awake = self._awake
        inbox_of = self._inbox_of
        on_round = algorithm.on_round

        # Quiescence is tested before every round and once more after the
        # last allowed one, so a run that needs exactly ``max_rounds``
        # rounds terminates.
        while True:
            if not self._active and not awake:
                if timer_pos < num_timers:
                    # Silent but not quiescent: a timer is still pending.
                    # Every round before it (or before an earlier scheduled
                    # fault) provably executes nothing, so charge the
                    # stretch in one step and run the forced round.
                    forced = timers[timer_pos]
                    if event_pos < num_events and event_rounds[event_pos] < forced:
                        forced = event_rounds[event_pos]
                else:
                    # Quiescent: no message in flight, every node halted.
                    if event_pos == num_events:
                        metrics.terminated = True
                        metrics.messages_sent = (
                            metrics.messages_delivered
                            + metrics.messages_dropped
                            - metrics.messages_duplicated
                            - backlog_start
                        )
                        self._quiescent = True
                        return metrics
                    # Quiescent, but faults are still scheduled: a recovery
                    # can re-inject work and a crash wipes observable state,
                    # so the schedule must play out.
                    forced = event_rounds[event_pos]
                jump = forced - 1
                if jump > metrics.rounds:
                    metrics.rounds = jump if jump < max_rounds else max_rounds
            if metrics.rounds >= max_rounds:
                break

            metrics.rounds += 1
            algorithm.current_round = metrics.rounds
            timer_fired = False
            if timer_pos < num_timers and timers[timer_pos] <= metrics.rounds:
                timer_fired = True
                timer_pos += 1
                while timer_pos < num_timers and timers[timer_pos] <= metrics.rounds:
                    timer_pos += 1
            if adversary is not None:
                round_no = metrics.rounds
                while event_pos < num_events and event_rounds[event_pos] <= round_no:
                    event_pos += 1
                events = adversary.begin_round(round_no)
                if events:
                    self._apply_fault_events(events, algorithm, crashed, metrics)
                receivers = self._deliver_adversarial(metrics, adversary, round_no, crashed)
            else:
                receivers = self._deliver(metrics)

            # The ids to run this round, ascending (matching the legacy
            # full-scan order): awake nodes plus this round's receivers —
            # or every live node when a timer is due.  sorted() copies, so
            # handlers are free to halt()/wake().
            if timer_fired:
                to_run = range(len(nodes))
                if crashed:
                    to_run = [v for v in to_run if v not in crashed]
            elif not awake:
                to_run = sorted(receivers)
            elif receivers:
                to_run = sorted(awake.union(receivers))
            else:
                to_run = sorted(awake)
            for v in to_run:
                ctx = nodes[v]
                inbox = inbox_of[v]
                if inbox:
                    if ctx.halted:
                        # Engine-level wake with deferred registration: most
                        # receivers halt again before their handler returns,
                        # so the awake set is only touched when the node
                        # actually stays awake (halt()/wake() calls inside
                        # the handler keep the set consistent on their own).
                        ctx.halted = False
                        on_round(ctx, inbox)
                        if not ctx.halted:
                            awake.add(v)
                    else:
                        on_round(ctx, inbox)
                    inbox.clear()
                else:
                    on_round(ctx, _NO_MESSAGES)
                sent.clear()

        metrics.messages_sent = (
            metrics.messages_delivered
            + metrics.messages_dropped
            - metrics.messages_duplicated
            + self._pending_backlog()
            - backlog_start
        )
        if adversary is None:
            error, stall = RoundLimitExceeded, "did not terminate"
        else:
            error = PartialRunError
            stall = f"stalled under adversary {adversary.name!r}: no quiescence"
        raise error(
            f"algorithm {algorithm.name!r} {stall} within {max_rounds} rounds",
            metrics=metrics,
            last_active_set=len(awake),
        )

    # ------------------------------------------------------------------
    # bulk execution (vectorized whole-round kernels; see repro.congest.bulk)
    # ------------------------------------------------------------------
    def _warn_bulk_fallback(self, algorithm, reason: str) -> None:
        if reason in self._bulk_fallback_warned:
            return
        self._bulk_fallback_warned.add(reason)
        warnings.warn(
            f"bulk-capable algorithm {algorithm.name!r} falling back to the "
            f"per-node path ({reason})",
            BulkFallbackWarning,
            stacklevel=4,
        )

    def _try_bulk(self, algorithm, max_rounds: int, adversary):
        """Attempt a vectorized run.

        Returns the run's :class:`RunMetrics`, or the name of the decline
        that sends it to the per-node path; ``run`` records that name in
        ``RunMetrics.bulk_declined``.  Retry mode and a bulk-eligible
        configuration under an adversary (which needs a per-message
        delivery point) also warn once per network, since they are
        configuration choices; queued messages and refused kernels (size
        guards, invalid trees, aggregations the kernel does not model) are
        per-run conditions and only recorded.
        """
        if not algorithm.bulk_supported():
            if getattr(algorithm, "retry", None) is None:
                return "kernel_refused"
            if adversary is None:
                self._warn_bulk_fallback(algorithm, "retry")
            return "retry"
        if adversary is not None:
            self._warn_bulk_fallback(algorithm, "adversary")
            return "adversary"
        if self._active:
            # A run starts on idle links unless messages were sent from
            # outside any run; the kernels do not model that traffic.
            return "queued"
        kernel = algorithm.bulk_kernel(self)
        if kernel is None:
            return "kernel_refused"
        return self._run_bulk(algorithm, kernel, max_rounds)

    def _run_bulk(self, algorithm, kernel, max_rounds: int) -> RunMetrics:
        """Drive a bulk kernel round by round.

        The kernel owns all round work; this driver only reproduces the
        per-node loop's round accounting: round 0 is ``start`` (the
        per-node ``initialize``), each event round executes via
        ``bulk_round``, silent stretches are skipped (the per-node engine
        charges them without executing), and a kernel reporting no further
        events terminates with the round count of the last event.
        """
        metrics = RunMetrics()
        self._ran = True
        self._quiescent = False
        kernel.start(max_rounds)
        rnd = 0
        # As on the per-node path, the kernel is asked for its next event
        # once more after the last allowed round: none means quiescent.
        while (nxt := kernel.next_round(rnd)) is not None and nxt <= max_rounds:
            rnd = nxt
            kernel.bulk_round(rnd)
        terminated = nxt is None
        if not terminated:
            rnd = max_rounds
        kernel.finish(self, metrics, terminated, rnd)
        metrics.rounds = rnd
        metrics.terminated = terminated
        if not terminated:
            raise RoundLimitExceeded(
                f"algorithm {algorithm.name!r} did not terminate within {max_rounds} rounds",
                metrics=metrics,
                last_active_set=kernel.awake_at_cutoff(rnd),
            )
        self._quiescent = True
        return metrics

    # ------------------------------------------------------------------
    # fault injection (the adversary's hooks on the ring path)
    # ------------------------------------------------------------------
    def _apply_fault_events(self, events, algorithm, crashed: set, metrics: RunMetrics) -> None:
        """Apply one round's crash/recover events from the adversary."""
        nodes = self._node_list
        awake = self._awake
        inbox_of = self._inbox_of
        for kind, v in events:
            if kind == "crash":
                if v in crashed:
                    continue
                crashed.add(v)
                ctx = nodes[v]
                # The hook runs before the wipe so fleet algorithms can
                # retract this node's entries from their shared bookkeeping.
                algorithm.on_crash(ctx)
                ctx.state = {}
                ctx._payload_ok = None
                ctx.halted = True
                awake.discard(v)
                inbox = inbox_of[v]
                if inbox:
                    inbox.clear()
                metrics.crashes += 1
            elif kind == "recover":
                if v not in crashed:
                    continue
                crashed.discard(v)
                ctx = nodes[v]
                ctx.state = {}
                ctx._payload_ok = None
                ctx.halted = False
                awake.add(v)
                algorithm.on_recover(ctx)
                self._sent.clear()
                metrics.recoveries += 1
            else:
                raise ValueError(f"unknown adversary event kind {kind!r}")

    def _deliver_adversarial(
        self, metrics: RunMetrics, adversary, round_no: int, crashed: set
    ) -> list[int]:
        """Ring delivery with the adversary interposed on every message.

        Mirrors :meth:`_deliver` message for message: a no-fault adversary
        yields identical inbox contents, ordering and metrics.  ``DROP``
        consumes the message (it occupied the link); ``DUPLICATE`` delivers
        two copies in the same round; ``HOLD`` freezes the link's queue for
        this round (FIFO preserved); messages to crashed nodes are
        discarded and counted as dropped.
        """
        active = self._active
        receivers: list[int] = []
        if not active:
            return receivers
        queues = self._queues
        heads = self._heads
        receiver_of = self._receiver_of
        link_max = self._link_max_backlog
        edge_counts = metrics._edge_counts
        inbox_of = self._inbox_of
        is_active = self._is_active
        on_deliver = adversary.on_deliver
        max_backlog = metrics.max_link_backlog
        still_active: list[int] = []
        delivered = 0
        dropped = 0
        duplicated = 0
        for link in active:
            buf = queues[link]
            head = heads[link]
            size = len(buf)
            receiver = receiver_of[link]
            edge = link >> 1
            inbox = inbox_of[receiver]
            if inbox is None:
                inbox = inbox_of[receiver] = []
            had_mail = bool(inbox)
            msg = buf[head]
            # A message to a crashed receiver is dropped unseen.
            action = 1 if receiver in crashed else on_deliver(link, msg, round_no)
            if action != 3:  # HOLD freezes this link for the round
                head += 1
                edge_counts[edge] += 1
                if action == 1:  # DROP
                    dropped += 1
                else:
                    if action == 2:  # DUPLICATE
                        inbox.append(msg)
                        edge_counts[edge] += 1
                        delivered += 1
                        duplicated += 1
                    inbox.append(msg)
                    delivered += 1
            if head >= size:
                queues[link] = None
                if heads[link]:
                    heads[link] = 0
                is_active[link] = 0
            else:
                if head > 64 and head * 2 >= size:
                    del buf[:head]
                    head = 0
                heads[link] = head
                still_active.append(link)
            if inbox and not had_mail:
                receivers.append(receiver)
            lm = link_max[link]
            if lm > max_backlog:
                max_backlog = lm
        if (delivered or dropped) and not max_backlog:
            # Senders only record backlogs above 1; any consumed message
            # implies a backlog of at least 1 was observed.
            max_backlog = 1
        metrics.max_link_backlog = max_backlog
        metrics.messages_delivered += delivered
        metrics.messages_dropped += dropped
        metrics.messages_duplicated += duplicated
        active[:] = still_active
        return receivers

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pending_backlog(self) -> int:
        """Messages queued but undelivered (O(active links))."""
        queues = self._queues
        heads = self._heads
        return sum(len(queues[link]) - heads[link] for link in self._active)

    def _deliver(self, metrics: RunMetrics) -> list[int]:
        """Deliver one round of traffic into the per-node inboxes.

        Returns the ids of the nodes that received at least one message.
        Only links on the active worklist are visited.
        """
        active = self._active
        receivers: list[int] = []
        if not active:
            return receivers
        queues = self._queues
        heads = self._heads
        receiver_of = self._receiver_of
        link_max = self._link_max_backlog
        edge_counts = metrics._edge_counts
        inbox_of = self._inbox_of
        is_active = self._is_active
        max_backlog = metrics.max_link_backlog
        still_active: list[int] = []
        for link in active:
            buf = queues[link]
            head = heads[link]
            size = len(buf)
            receiver = receiver_of[link]
            inbox = inbox_of[receiver]
            if not inbox:
                receivers.append(receiver)
                if inbox is None:
                    inbox = inbox_of[receiver] = []
            inbox.append(buf[head])
            head += 1
            if head == size:
                # Common case: the queue held one message, the only
                # uncongested shape.
                queues[link] = None
                if head > 1:
                    heads[link] = 0
                is_active[link] = 0
            else:
                if head > 64 and head * 2 >= size:
                    del buf[:head]
                    head = 0
                heads[link] = head
                still_active.append(link)
            edge_counts[link >> 1] += 1
            lm = link_max[link]
            if lm > max_backlog:
                max_backlog = lm
        if not max_backlog:
            # Senders only record backlogs above 1; any delivery implies a
            # backlog of at least 1 was observed.
            max_backlog = 1
        metrics.max_link_backlog = max_backlog
        metrics.messages_delivered += len(active)
        # In-place so the wired NodeContexts' cached reference stays valid.
        active[:] = still_active
        return receivers
