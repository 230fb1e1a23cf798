"""Distributed optimization applications built on low-congestion shortcuts.

These modules reproduce Section 4 of the paper: every application consumes
shortcuts through the part-wise aggregation primitive, so its round
complexity inherits the shortcut quality.  MST, min-cut and 2-ECSS take
their trees and rounds from one simulated Boruvka loop
(:mod:`.shortcut_mst`); E6 swaps its shortcut engine.
"""

from .components import ComponentsResult, shortcut_connected_components
from .mincut import (
    MinCutResult,
    approximate_min_cut,
    cut_value,
    stoer_wagner_min_cut,
)
from .mst import kruskal_mst
from .shortcut_mst import (
    CONSUMER_ENGINES,
    NO_CANDIDATE,
    ShortcutMSTResult,
    shortcut_boruvka_mst,
)
from .two_ecss import (
    TwoECSSResult,
    find_bridges,
    is_two_edge_connected,
    two_ecss_approximation,
)

__all__ = [
    "ComponentsResult",
    "shortcut_connected_components",
    "CONSUMER_ENGINES",
    "NO_CANDIDATE",
    "ShortcutMSTResult",
    "shortcut_boruvka_mst",
    "kruskal_mst",
    "MinCutResult",
    "approximate_min_cut",
    "cut_value",
    "stoer_wagner_min_cut",
    "TwoECSSResult",
    "find_bridges",
    "is_two_edge_connected",
    "two_ecss_approximation",
]
