"""The sequential part-wise fold: ground truth for the simulated aggregation.

:func:`repro.congest.primitives.aggregation.aggregate_over_shortcut` routes
every part's aggregate over the CONGEST simulator; the tests compare its
``values`` against this fold, which visits each part's members in turn.
"""

from __future__ import annotations

from typing import Any, Callable

OPS: dict[str, Callable[[Any, Any], Any]] = {
    "min": min,
    "max": max,
    "sum": lambda a, b: a + b,
}


def partwise_fold(partition, node_values: dict[int, Any], op: str) -> dict[int, Any]:
    """Aggregate ``node_values`` inside every part of ``partition`` sequentially.

    Nodes without an entry contribute nothing, and parts without any
    contributing node are omitted — the contract of the simulated
    aggregation's ``values``.
    """
    combine = OPS[op]
    values: dict[int, Any] = {}
    for idx in range(partition.num_parts):
        acc: Any = None
        for v in partition.part(idx):
            if v not in node_values:
                continue
            acc = node_values[v] if acc is None else combine(acc, node_values[v])
        if acc is not None:
            values[idx] = acc
    return values
