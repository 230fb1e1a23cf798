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
    A sorted tuple of global round numbers (relative to the start of the
    ``run``) at which *every* node must execute ``on_round``, even if halted
    and without traffic.  Nodes may then halt while waiting; the engine
    revives the whole network exactly at each listed round.

When an algorithm declares timers, the engine maintains
``algorithm.current_round`` (the round number of the ``on_round`` calls
being dispatched; ``None`` outside timer-enabled runs), so per-node round
counters become unnecessary.  Rounds in which no node is awake, no message
is in flight and no timer is due are *charged without being executed* —
the measured round count is identical to executing them one by one, but a
delay tail costs O(1) instead of O(n x rounds).

:class:`ComposedAlgorithm` supports timer-declaring stages by *rebasing*:
a stage's ``wake_at_rounds`` are interpreted relative to the stage's own
start, and at each stage hand-off the engine converts them to absolute
rounds (``stage_start + offset``).  The composition forwards a
stage-relative ``current_round`` to the active stage, so a stage behaves
identically whether it runs standalone or as part of a pipeline (pinned by
``tests/test_congest_core.py``).

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

    def finished(self, node: NodeContext) -> bool:
        """Return ``True`` when the node considers the algorithm complete.

        The default is the node's ``halted`` flag; algorithms with a natural
        output predicate may override this.
        """
        return node.halted

    # ------------------------------------------------------------------
    # Bulk round protocol (optional; see repro.congest.bulk)
    # ------------------------------------------------------------------

    #: Declares that the algorithm *may* provide a vectorized whole-round
    #: kernel.  When set, ``Network.run`` asks :meth:`bulk_supported` /
    #: :meth:`bulk_kernel` on a clean (non-adversarial, non-composed,
    #: fresh-queue) run and, if a kernel is returned, advances rounds with
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
        models.  The engine warns (once per network and reason) when a
        capable algorithm declines, so silent per-node fallbacks are
        observable.
        """
        return False

    def bulk_kernel(self, network) -> Optional[object]:
        """Build and return the vectorized kernel for ``network``, or ``None``.

        Called only when :meth:`bulk_supported` is true; returning ``None``
        (e.g. a size guard against packed-key overflow) silently falls back
        to the per-node path.  The returned object implements the driver
        contract of ``Network._run_bulk``: ``next_round(after)``,
        ``bulk_round(rnd)``, ``finalize(terminated, final_round)`` and the
        metric accessors.
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


class ComposedAlgorithm(DistributedAlgorithm):
    """Run several algorithms one after another at every node.

    Each stage runs until the network is globally quiescent for that stage,
    then the next stage starts (the engine handles the hand-off).  State of
    earlier stages remains in ``node.state`` so later stages can read their
    predecessors' outputs — this is how the distributed shortcut construction
    chains "detect large parts", "number parts" and "grow BFS trees".

    Stages may declare ``wake_at_rounds``: the offsets are interpreted
    relative to the stage's own start round, and the engine rebases them to
    absolute rounds at each hand-off (via :meth:`rebase_timers`).  The
    composition forwards a stage-relative ``current_round``, so a
    timer-protocol stage (the random-delay scheduler, the retry/ack
    primitives) behaves identically inside a pipeline and standalone.
    """

    name = "composed"

    def __init__(self, stages: list[DistributedAlgorithm]) -> None:
        if not stages:
            raise ValueError("ComposedAlgorithm needs at least one stage")
        self.stages = stages
        self._active_stage = 0
        self._timer_base = 0
        # Stage 0 starts at round 0, so its timers need no rebasing.
        self.wake_at_rounds = tuple(getattr(stages[0], "wake_at_rounds", ()) or ())

    def initialize(self, node: NodeContext) -> None:
        self._active_stage = 0
        self._timer_base = 0
        node.state["__stage"] = 0
        self.stages[0].initialize(node)

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        stage = self.stages[node.state["__stage"]]
        current = self.current_round
        stage.current_round = None if current is None else current - self._timer_base
        stage.on_round(node, messages)

    def finished(self, node: NodeContext) -> bool:
        stage_idx = node.state["__stage"]
        return stage_idx >= len(self.stages) - 1 and self.stages[-1].finished(node)

    def pending_timer_work(self) -> bool:
        stage = self.stages[self._active_stage]
        probe = getattr(stage, "pending_timer_work", None)
        return True if probe is None else probe()

    def on_crash(self, node: NodeContext) -> None:
        self.stages[node.state.get("__stage", self._active_stage)].on_crash(node)

    def on_recover(self, node: NodeContext) -> None:
        # A recovered node rejoins the *current* stage — earlier stages are
        # globally complete and will not run again.
        node.state["__stage"] = self._active_stage
        self.stages[self._active_stage].on_recover(node)

    # Called by the engine when a stage is globally quiescent.
    def advance_stage(self, node: NodeContext) -> bool:
        """Move this node to the next stage; returns False if already at the last."""
        stage_idx = node.state["__stage"]
        if stage_idx >= len(self.stages) - 1:
            return False
        next_idx = stage_idx + 1
        node.state["__stage"] = next_idx
        if next_idx > self._active_stage:
            self._active_stage = next_idx
        node.wake()
        self.stages[next_idx].initialize(node)
        return True

    def rebase_timers(self, start_round: int) -> tuple:
        """Absolute timer rounds of the newly active stage (engine hook).

        Called after a stage hand-off at global round ``start_round``; the
        stage's declared offsets are relative to its own start, so offset
        ``t`` maps to absolute round ``start_round + t``.
        """
        self._timer_base = start_round
        offsets = getattr(self.stages[self._active_stage], "wake_at_rounds", ()) or ()
        return tuple(start_round + t for t in offsets)
