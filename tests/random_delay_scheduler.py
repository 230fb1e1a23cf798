"""The generic random-delay scheduler, kept as a test oracle.

:class:`RandomDelayScheduler` multiplexes several sub-algorithms over one
network, each started after its own delay (Theorem 2.1 of the paper): it
tags each sub-algorithm's messages with its index so receivers dispatch
them to the right handler, and relies on the network's per-link queues to
meter concurrent messages out at CONGEST bandwidth.

The production fleet, :class:`~repro.congest.primitives.concurrent_bfs.
ConcurrentMaskedBFS`, runs the same schedule for truncated BFS instances
over link masks.  This scheduler over per-part
:class:`~repro.congest.primitives.bfs.DistributedBFS` instances is the
reference the equivalence tests pin the fleet against, metric for metric,
and the engine tests use it as a multi-channel workload.
"""

from __future__ import annotations

from typing import Sequence

from repro.congest.algorithm import DistributedAlgorithm
from repro.congest.message import Message
from repro.congest.node import NodeContext


class RandomDelayScheduler(DistributedAlgorithm):
    """Run several sub-algorithms concurrently with per-algorithm start delays.

    Each sub-algorithm must use a distinct ``algorithm_id`` (its index in the
    ``sub_algorithms`` list) when sending; the primitives in
    :mod:`repro.congest.primitives` all accept an ``algorithm_id`` argument
    for this purpose and read/write state under distinct prefixes.

    Args:
        sub_algorithms: the algorithms to multiplex.
        delays: per-algorithm start delays (rounds); typically drawn with
            :func:`draw_random_delays`.
    """

    name = "random_delay_scheduler"

    def __init__(self, sub_algorithms: Sequence[DistributedAlgorithm], delays: Sequence[int]) -> None:
        if len(sub_algorithms) != len(delays):
            raise ValueError("need exactly one delay per sub-algorithm")
        self.sub_algorithms = list(sub_algorithms)
        self.delays = list(delays)
        # Due-delay schedule, shared by every node: (delay, index) ascending.
        # Each node keeps a cursor into it, so starting the due sub-algorithms
        # of a round costs O(newly due) instead of rescanning all N delays.
        # Sorting by (delay, index) reproduces the index-order starts of the
        # naive scan: every node observes the same global round number, so
        # the entries that come due together always share one delay value.
        self._schedule = sorted((delay, idx) for idx, delay in enumerate(self.delays))
        # Timer protocol (see repro.congest.algorithm): the delays are the
        # globally known rounds at which every node must run to start the due
        # sub-algorithms.  Declaring them lets waiting nodes halt — the
        # engine revives the network at exactly these rounds and maintains
        # ``self.current_round``, so no per-node round counter has to tick
        # through the waiting stretches.  Delay 0 starts in ``initialize``.
        self.wake_at_rounds = tuple(sorted({d for d in self.delays if d > 0}))

    def initialize(self, node: NodeContext) -> None:
        node.state["__sched_round"] = 0
        node.state["__sched_started"] = [False] * len(self.sub_algorithms)
        node.state["__sched_cursor"] = 0
        node.state["__sched_unstarted"] = len(self.sub_algorithms)
        node.state["__sched_next_due"] = self._schedule[0][0] if self._schedule else 0
        self._start_due(node, 0)
        self._maybe_halt(node)

    def on_round(self, node: NodeContext, messages: list[Message]) -> None:
        state = node.state
        rnd = self.current_round
        if rnd is None:
            # Engine without timer support (the reference oracles in the
            # test suite): tick a per-node counter instead.
            rnd = state["__sched_round"] + 1
            state["__sched_round"] = rnd
        # __sched_next_due caches the head of the unprocessed schedule, so a
        # waiting round costs two dict reads instead of a _start_due scan.
        if state["__sched_unstarted"] and rnd >= state["__sched_next_due"]:
            self._start_due(node, rnd)
        # Dispatch messages to the sub-algorithm they belong to.  A started
        # sub-algorithm with no messages this round is not invoked: all our
        # primitives are message-driven after their initial send.  Inboxes
        # whose messages all belong to one sub-algorithm dominate (with unit
        # bandwidth a link carries one message per round, and concurrent BFS
        # waves tend to arrive on different links of the same instance), so
        # that case dispatches the inbox whole and skips the grouping dict.
        if messages:
            started = state["__sched_started"]
            num = len(self.sub_algorithms)
            idx = messages[0].algorithm_id
            for msg in messages:
                if msg.algorithm_id != idx:
                    break
            else:
                if 0 <= idx < num:
                    if not started[idx]:
                        # A message can only arrive after the sender started,
                        # so start locally too (delays are start times, not
                        # gates on participation).
                        started[idx] = True
                        state["__sched_unstarted"] -= 1
                    self.sub_algorithms[idx].on_round(node, messages)
                idx = None
            if idx is not None:
                by_algorithm: dict[int, list[Message]] = {}
                for msg in messages:
                    by_algorithm.setdefault(msg.algorithm_id, []).append(msg)
                for idx, batch in by_algorithm.items():
                    if 0 <= idx < num:
                        if not started[idx]:
                            started[idx] = True
                            state["__sched_unstarted"] -= 1
                        self.sub_algorithms[idx].on_round(node, batch)
        # Inline _maybe_halt.  Started sub-algorithms are message-driven (a
        # sub-algorithm's handler only runs when one of its messages
        # arrives), so between events the node can always halt: on a
        # timer-honouring engine pending start delays revive it via
        # ``wake_at_rounds``, and on one without, it must instead stay awake
        # so its per-node round counter keeps advancing.
        if not state["__sched_unstarted"] or self.current_round is not None:
            node.halt()
        elif node.halted:
            node.wake()

    def _maybe_halt(self, node: NodeContext) -> None:
        if not node.state["__sched_unstarted"] or self.current_round is not None:
            node.halt()
        else:
            node.wake()

    # ------------------------------------------------------------------
    def _start_due(self, node: NodeContext, current: int) -> None:
        state = node.state
        schedule = self._schedule
        cursor = state["__sched_cursor"]
        end = len(schedule)
        if cursor >= end:
            return
        started = state["__sched_started"]
        while cursor < end and schedule[cursor][0] <= current:
            idx = schedule[cursor][1]
            cursor += 1
            if not started[idx]:
                started[idx] = True
                state["__sched_unstarted"] -= 1
                self.sub_algorithms[idx].initialize(node)
        state["__sched_cursor"] = cursor
        state["__sched_next_due"] = schedule[cursor][0] if cursor < end else current
