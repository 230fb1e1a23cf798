"""The distributed-algorithm protocol.

A :class:`DistributedAlgorithm` describes what every node does: how it
initializes, and how it reacts each round to the messages received in that
round.  The same instance is shared by all nodes (it must therefore be
stateless with respect to individual nodes — all per-node state lives in
``NodeContext.state``), which mirrors the "every processor runs the same
code" convention of the CONGEST model.

Timer protocol (optional)
-------------------------
The active-set engine runs a node's ``on_round`` whenever the node is awake
or received a message.  Some algorithms would keep every node awake merely
to count rounds toward globally known deadlines — the random-delay scheduler
must start sub-algorithm ``i`` at the shared delay round ``d_i`` on every
node.  Instead of ticking ``n`` no-op handlers per waiting round, such an
algorithm declares its deadlines up front:

``wake_at_rounds``
    A sorted tuple of round numbers (counted from the start of the ``run``)
    at which *every* node must execute ``on_round``, even if halted and
    without traffic.  Nodes may then halt while waiting; the engine
    revives the whole network exactly at each listed round.  The engine
    reads the tuple once, before it calls ``initialize``, so it is set in
    ``__init__`` (``repro lint`` rule RPR012 flags later writes).

When an algorithm declares timers, the engine maintains
``algorithm.current_round`` (the round number of the ``on_round`` calls
being dispatched; ``None`` outside timer-enabled runs), so per-node round
counters become unnecessary.  Rounds in which no node is awake, no message
is in flight and no timer is due are *charged without being executed* —
the measured round count is identical to executing them one by one, but a
delay tail costs O(1) instead of O(n x rounds).

Stages chain as successive ``Network.run(..., reset=False)`` calls: every
run counts its rounds from 0, so a timer stage behaves identically on a
fresh network and after earlier stages, whose outputs it reads from
``node.state``.

Two further optional hooks round out the protocol:

``pending_timer_work()``
    Probed by the engine at silent moments of a timer-enabled run: return
    ``False`` to certify that the remaining declared timers would execute
    nothing, letting the run terminate early.  Retry/ack modes use this so
    an un-faulted run does not pay for its full checkpoint schedule.
``on_crash(node)`` / ``on_recover(node)``
    Called by the adversarial engine when a node crashes (just *before* its
    state is wiped, so fleet algorithms can retract the node's entries from
    shared bookkeeping) and when it recovers (after the wipe; the default
    re-runs ``initialize``, restoring a blank participant).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from .message import Message
from .node import NodeContext


class DistributedAlgorithm(ABC):
    """Base class for synchronous CONGEST algorithms.

    Subclasses implement :meth:`initialize` and :meth:`on_round`.  Per-node
    state must be kept in ``node.state`` (a dict); the algorithm object
    itself may hold only *input* data that in the real model would be known
    to the relevant nodes in advance (e.g. the id of the BFS source, part
    membership, sampling probabilities).
    """

    #: Short name used in message tags and metrics reports.
    name: str = "algorithm"

    #: Timer protocol (see the module docstring): global round numbers at
    #: which every node must run ``on_round`` even while halted.  Algorithms
    #: whose nodes wait out globally known deadlines (the random-delay
    #: scheduler) declare them here so waiting nodes can halt instead of
    #: ticking per-round counters.
    wake_at_rounds: tuple = ()

    #: Maintained by the engine during a timer-enabled run: the global round
    #: number of the ``on_round`` calls currently being dispatched (0 during
    #: ``initialize``).  ``None`` when the executing engine does not honour
    #: ``wake_at_rounds``, in which case the algorithm must keep its own
    #: per-node round counters.
    current_round: Optional[int] = None

    @abstractmethod
    def initialize(self, node: NodeContext) -> None:
        """Set up a node's local state before round 1 (may send messages)."""

    @abstractmethod
    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        """Process one synchronous round at one node.

        Args:
            node: the node's local context.
            messages: the messages delivered to this node this round (sent in
                an earlier round, possibly delayed by link congestion).
        """

    # ------------------------------------------------------------------
    # Bulk round protocol (optional; see repro.congest.bulk)
    # ------------------------------------------------------------------

    #: Declares that the algorithm *may* provide a vectorized whole-round
    #: kernel.  When set, ``Network.run`` asks :meth:`bulk_supported` /
    #: :meth:`bulk_kernel` on a clean (non-adversarial, fresh-queue)
    #: run and, if a kernel is returned, advances rounds with
    #: flat array ops over the CSR link ids instead of per-node callbacks.
    #: The per-node path remains authoritative: kernels are pinned
    #: bit-identical to it (rounds, messages, per-edge traffic, final node
    #: state) by ``tests/test_bulk_kernels.py``.
    bulk_capable: bool = False

    #: Names of the flat state arrays a bulk kernel maintains; the kernel
    #: class re-declares the tuple and the ``repro lint`` rule RPR013 flags
    #: ``bulk_round`` implementations mutating attributes outside it.
    bulk_state: tuple = ()

    def bulk_supported(self) -> bool:
        """Return ``True`` when this *configuration* is bulk-eligible.

        A ``bulk_capable`` class may still decline at runtime — e.g. the
        retry/ack mode re-introduces per-node timer logic no flat kernel
        models.  The engine names every decline in
        ``RunMetrics.bulk_declined`` and warns (once per network and
        reason) for retry mode and adversarial runs.
        """
        return False

    def bulk_kernel(self, network) -> Optional[object]:
        """Build and return the vectorized kernel for ``network``, or ``None``.

        Called only when :meth:`bulk_supported` is true; returning ``None``
        (e.g. a size guard against packed-key overflow) falls back to the
        per-node path with ``bulk_declined == "kernel_refused"``.  The
        returned object implements what ``Network._run_bulk`` calls:
        ``start(max_rounds)``, ``next_round(after)``, ``bulk_round(rnd)``,
        ``awake_at_cutoff(rnd)`` and
        ``finish(network, metrics, terminated, final_round)``.  ``finish``
        leaves the node state the per-node run would have reached; after a
        cutoff (``terminated`` false) the engine raises and the network
        must be reset, so the kernel's undelivered traffic is dropped.
        """
        return None

    def on_crash(self, node: NodeContext) -> None:
        """Hook: ``node`` is about to crash (its state is wiped right after).

        Override to retract the node's entries from bookkeeping the
        algorithm object keeps across nodes (fleet label arrays, pending-ack
        counters); the default does nothing.
        """

    def on_recover(self, node: NodeContext) -> None:
        """Hook: ``node`` just recovered from a crash with blank state.

        The default re-runs :meth:`initialize`, so a recovered node rejoins
        the protocol exactly like a fresh one (a BFS source re-announces, a
        non-source waits to be reached again).
        """
        self.initialize(node)
