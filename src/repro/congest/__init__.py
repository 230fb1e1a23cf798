"""A synchronous CONGEST-model simulator.

The simulator executes distributed algorithms written against a strictly
local node API (:class:`NodeContext`) on an arbitrary communication graph.
It has one link model, the CONGEST bandwidth: each directed link delivers
at most one O(log n)-bit message per round, and excess traffic is queued
on the link, so congestion manifests as extra rounds — the quantity the
paper's shortcut quality bounds are designed to control.  Every
:class:`NodeContext` belongs to a :class:`Network`.  Run metrics report
rounds, message counts and per-edge congestion.
"""

from .adversary import (
    Adversary,
    AsyncScheduler,
    CrashAdversary,
    DropAdversary,
    DuplicateAdversary,
    LatencyAdversary,
    NullAdversary,
    RetryPolicy,
    StackedAdversary,
    make_fault_adversary,
    random_crash_schedule,
)
from .algorithm import DistributedAlgorithm
from .message import MAX_PAYLOAD_FIELDS, Message, check_payload
from .network import Network, PartialRunError, RoundLimitExceeded, RunMetrics
from .node import NodeContext
from .scheduler import draw_random_delays

__all__ = [
    "Adversary",
    "AsyncScheduler",
    "CrashAdversary",
    "DistributedAlgorithm",
    "DropAdversary",
    "DuplicateAdversary",
    "LatencyAdversary",
    "NullAdversary",
    "RetryPolicy",
    "StackedAdversary",
    "make_fault_adversary",
    "random_crash_schedule",
    "MAX_PAYLOAD_FIELDS",
    "Message",
    "check_payload",
    "Network",
    "PartialRunError",
    "RoundLimitExceeded",
    "RunMetrics",
    "NodeContext",
    "draw_random_delays",
]
