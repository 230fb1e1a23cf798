"""Reusable CONGEST building blocks: BFS (single and mask-native concurrent
fleets), leader election, part-wise convergecast/broadcast, pipelined
numbering and their read-back helpers, plus a diameter estimation that
chains three of them as ``run(reset=False)`` stages."""

from .aggregation import (
    AGGREGATE_OPS,
    FleetAggregationResult,
    PartAggregation,
    ShortcutAggregationResult,
    aggregate_over_shortcut,
    run_part_aggregation,
    shortcut_link_masks,
)
from .bfs import DistributedBFS, extract_bfs_tree
from .concurrent_bfs import ConcurrentMaskedBFS
from .diameter import estimate_diameter
from .leader import FloodMax, read_leaders
from .numbering import PipelinedNumbering

__all__ = [
    "FleetAggregationResult",
    "PartAggregation",
    "ShortcutAggregationResult",
    "aggregate_over_shortcut",
    "run_part_aggregation",
    "shortcut_link_masks",
    "DistributedBFS",
    "extract_bfs_tree",
    "ConcurrentMaskedBFS",
    "FloodMax",
    "read_leaders",
    "AGGREGATE_OPS",
    "PipelinedNumbering",
    "estimate_diameter",
]
