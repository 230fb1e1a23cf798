"""Reproduction of "Low-Congestion Shortcuts in Constant Diameter Graphs"
(Shimon Kogan and Merav Parter, PODC 2021).

The package is organised in layers:

* :mod:`repro.graphs` — graph substrate: data structures, traversal,
  generators (including the Elkin/Das-Sarma lower-bound instances) and
  partition generators;
* :mod:`repro.congest` — a synchronous CONGEST-model simulator with per-edge
  bandwidth accounting and reusable distributed primitives;
* :mod:`repro.shortcuts` — the paper's contribution: the Kogan-Parter
  shortcut construction (centralized and distributed), the shortcut-tree
  analysis machinery, baselines and verification;
* :mod:`repro.applications` — the Section 4 applications (MST, approximate
  min-cut, approximate SSSP, 2-ECSS) driven by part-wise aggregation;
* :mod:`repro.analysis` — predicted bound curves and the experiment harness
  that regenerates every experiment table (``repro experiments``).

Quickstart::

    from repro import (
        hub_diameter_graph, path_partition, Partition,
        build_kogan_parter_shortcut,
    )

    graph = hub_diameter_graph(500, 6, rng=0)
    parts = path_partition(graph, num_paths=20, path_length=15, rng=0)
    partition = Partition(graph, parts)
    result = build_kogan_parter_shortcut(graph, partition, diameter_value=6, rng=0)
    print(result.shortcut.quality_report())
"""

from .graphs import (
    Graph,
    Subgraph,
    WeightedGraph,
    cluster_star_graph,
    hub_diameter_graph,
    lower_bound_instance,
    path_partition,
    random_connected_partition,
    with_random_weights,
)
from .params import (
    elkin_lower_bound,
    ghaffari_haeupler_quality,
    k_d_value,
    predicted_congestion,
    predicted_dilation,
    predicted_quality,
    sampling_probability,
)
from .shortcuts import (
    Partition,
    QualityReport,
    Shortcut,
    build_distributed_kogan_parter,
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_kitamura_style_shortcut,
    build_kogan_parter_shortcut,
    build_naive_shortcut,
    verify_shortcut,
)
from .applications import (
    approximate_min_cut,
    boruvka_mst,
    dijkstra,
    kruskal_mst,
    partwise_aggregate,
    shortcut_accelerated_sssp,
    shortcut_boruvka_mst,
    shortcut_connected_components,
    stoer_wagner_min_cut,
    two_ecss_approximation,
)
from .graphs import GENERATOR_FAMILIES, make_family_graph

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Subgraph",
    "WeightedGraph",
    "cluster_star_graph",
    "hub_diameter_graph",
    "lower_bound_instance",
    "path_partition",
    "random_connected_partition",
    "with_random_weights",
    "elkin_lower_bound",
    "ghaffari_haeupler_quality",
    "k_d_value",
    "predicted_congestion",
    "predicted_dilation",
    "predicted_quality",
    "sampling_probability",
    "Partition",
    "QualityReport",
    "Shortcut",
    "build_distributed_kogan_parter",
    "build_empty_shortcut",
    "build_ghaffari_haeupler_shortcut",
    "build_kitamura_style_shortcut",
    "build_kogan_parter_shortcut",
    "build_naive_shortcut",
    "verify_shortcut",
    "approximate_min_cut",
    "boruvka_mst",
    "dijkstra",
    "kruskal_mst",
    "partwise_aggregate",
    "shortcut_accelerated_sssp",
    "shortcut_boruvka_mst",
    "shortcut_connected_components",
    "stoer_wagner_min_cut",
    "two_ecss_approximation",
    "GENERATOR_FAMILIES",
    "make_family_graph",
    "__version__",
]
