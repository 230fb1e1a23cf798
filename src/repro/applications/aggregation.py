"""Part-wise aggregation — the primitive behind Fact 4.1.

Every application in Section 4 of the paper (MST, approximate min-cut,
approximate SSSP, 2-ECSS) consumes shortcuts through one operation:

    *given a value at every node, simultaneously compute an associative
    aggregate (min / max / sum) of the values inside every part, and make
    the result known to all part members.*

With a ``(c, d)`` shortcut this costs ``O((c + d · log n))`` rounds: grow a
BFS tree of depth ``<= d`` in every augmented subgraph and run a
convergecast + broadcast on it, scheduling all parts together with the
random-delay theorem.  The round complexity of the applications then follows
by multiplying by their number of aggregation calls — which is exactly how
Corollary 1.2 plugs Theorem 1.1 into [Gha17].

This module is the analytic model: the aggregate values are computed
directly and the round cost is charged from the shortcut's measured quality
using the formula above, which keeps the application experiments fast at
the graph sizes where dilation/congestion are interesting.  The simulated
counterpart, in which the trees and the convergecast/broadcast really run
on the CONGEST simulator, is
:func:`repro.congest.primitives.aggregation.aggregate_over_shortcut`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..shortcuts.shortcut import QualityReport, Shortcut

_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,
}


@dataclass
class AggregationResult:
    """Result of one part-wise aggregation.

    Attributes:
        values: map ``part index -> aggregated value`` (parts with no values
            are omitted).
        rounds: round cost of the aggregation, charged analytically from
            the shortcut quality (see :func:`estimate_aggregation_rounds`).
    """

    values: dict[int, Any]
    rounds: int


def estimate_aggregation_rounds(quality: QualityReport, n: int) -> int:
    """Return the analytic round cost ``O(c + d · log n)`` of one aggregation.

    The constant is 1 (we report ``c + d * ceil(log2 n)`` exactly); all
    experiment tables compare *relative* round counts between shortcut
    engines, for which a common constant is immaterial.
    """
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    dilation = quality.dilation if quality.dilation != float("inf") else n
    return int(quality.congestion + dilation * log_n)


def partwise_aggregate(
    shortcut: Shortcut,
    node_values: dict[int, Any],
    op: str = "min",
    *,
    quality: Optional[QualityReport] = None,
) -> AggregationResult:
    """Aggregate ``node_values`` inside every part of ``shortcut``.

    Args:
        shortcut: the shortcut whose augmented subgraphs carry the traffic.
        node_values: value per node; nodes without an entry contribute the
            operator's identity (i.e. they are skipped).
        op: ``"min"``, ``"max"`` or ``"sum"``.
        quality: a pre-computed quality report (avoids re-measuring dilation
            on every call).  When omitted, the shortcut is measured with the
            deterministic double-sweep dilation.

    Returns:
        An :class:`AggregationResult`.
    """
    if op not in _OPS:
        raise ValueError(f"unsupported aggregation op {op!r}")
    combine = _OPS[op]
    partition = shortcut.partition
    values: dict[int, Any] = {}
    for idx in range(partition.num_parts):
        acc: Any = None
        for v in partition.part(idx):
            if v not in node_values:
                continue
            acc = node_values[v] if acc is None else combine(acc, node_values[v])
        if acc is not None:
            values[idx] = acc
    if quality is None:
        quality = shortcut.quality_report(exact_dilation=False)
    rounds = estimate_aggregation_rounds(quality, partition.graph.num_vertices)
    return AggregationResult(values=values, rounds=rounds)
