"""Distributed optimization applications built on low-congestion shortcuts.

These modules reproduce Section 4 of the paper: every application consumes
shortcuts exclusively through the part-wise aggregation primitive, so its
round complexity inherits the shortcut quality — the property the
application experiments (E6-E8) measure by swapping shortcut engines.
"""

from .aggregation import AggregationResult, estimate_aggregation_rounds, partwise_aggregate
from .components import ComponentsResult, shortcut_connected_components
from .mincut import (
    MinCutResult,
    approximate_min_cut,
    cut_value,
    stoer_wagner_min_cut,
)
from .mst import (
    MSTResult,
    ShortcutFactory,
    boruvka_mst,
    default_shortcut_factory,
    kruskal_mst,
)
from .shortcut_mst import (
    CONSUMER_ENGINES,
    NO_CANDIDATE,
    ShortcutMSTResult,
    shortcut_boruvka_mst,
)
from .sssp import (
    SSSPResult,
    UNREACHABLE,
    bellman_ford,
    dijkstra,
    shortcut_accelerated_sssp,
)
from .two_ecss import (
    TwoECSSResult,
    find_bridges,
    is_two_edge_connected,
    two_ecss_approximation,
)

__all__ = [
    "AggregationResult",
    "estimate_aggregation_rounds",
    "partwise_aggregate",
    "ComponentsResult",
    "shortcut_connected_components",
    "CONSUMER_ENGINES",
    "NO_CANDIDATE",
    "ShortcutMSTResult",
    "shortcut_boruvka_mst",
    "MSTResult",
    "ShortcutFactory",
    "boruvka_mst",
    "default_shortcut_factory",
    "kruskal_mst",
    "MinCutResult",
    "approximate_min_cut",
    "cut_value",
    "stoer_wagner_min_cut",
    "SSSPResult",
    "UNREACHABLE",
    "bellman_ford",
    "dijkstra",
    "shortcut_accelerated_sssp",
    "TwoECSSResult",
    "find_bridges",
    "is_two_edge_connected",
    "two_ecss_approximation",
]
