"""Graph substrate: data structures, traversal, generators and partitions.

This package is self-contained (it only depends on the Python standard
library) and provides everything the shortcut constructions and the CONGEST
simulator need from a graph library:

* :class:`Graph`, :class:`WeightedGraph`, :class:`Subgraph` — adjacency-set
  based simple graphs sharing a common integer vertex id space;
* BFS based traversal, distances, diameter and connectivity checks;
* connected components and a union-find structure;
* generators for constant-diameter graph families, classic graphs, random
  graphs and weighted variants;
* the Elkin / Das-Sarma style lower-bound instances;
* generators for part collections (connected vertex-disjoint subsets).
"""

from .components import (
    UnionFind,
    components_from_edges,
    connected_components,
    spanning_forest,
)
from .csr import (
    UNREACHED,
    CSRGraph,
    bfs_levels,
    bfs_parents,
    component_labels,
)
from .generators import (
    GENERATOR_FAMILIES,
    binary_tree_graph,
    broom_graph,
    caterpillar_graph,
    cluster_star_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    erdos_renyi_graph,
    grid_graph,
    hub_diameter_graph,
    layered_diameter_graph,
    make_family_graph,
    path_graph,
    planted_cut_graph,
    preferential_attachment_graph,
    random_connected_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
    with_random_weights,
)
from .graph import Graph, Subgraph, WeightedGraph, edge_key, union_subgraph
from .lower_bound import (
    LowerBoundInstance,
    build_lower_bound_graph,
    connector_tree_depth,
    lower_bound_instance,
)
from .partitions import (
    fragment_partition,
    grid_strip_partition,
    non_covering_subsets,
    parts_from_paths,
    path_partition,
    random_connected_partition,
    singleton_free,
    validate_parts,
)
from .traversal import (
    INFINITY,
    bfs_distances,
    bfs_tree,
    diameter,
    diameter_lower_bound_double_sweep,
    distances_to_set,
    eccentricity,
    is_connected,
    max_component_diameter,
    shortest_path,
)

__all__ = [
    "Graph",
    "Subgraph",
    "WeightedGraph",
    "edge_key",
    "union_subgraph",
    "CSRGraph",
    "UNREACHED",
    "bfs_levels",
    "bfs_parents",
    "component_labels",
    "INFINITY",
    "bfs_distances",
    "bfs_tree",
    "diameter",
    "diameter_lower_bound_double_sweep",
    "distances_to_set",
    "eccentricity",
    "is_connected",
    "max_component_diameter",
    "shortest_path",
    "UnionFind",
    "components_from_edges",
    "connected_components",
    "spanning_forest",
    "GENERATOR_FAMILIES",
    "binary_tree_graph",
    "broom_graph",
    "caterpillar_graph",
    "cluster_star_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "erdos_renyi_graph",
    "grid_graph",
    "hub_diameter_graph",
    "layered_diameter_graph",
    "make_family_graph",
    "path_graph",
    "planted_cut_graph",
    "preferential_attachment_graph",
    "random_connected_graph",
    "random_regular_graph",
    "star_graph",
    "torus_graph",
    "with_random_weights",
    "LowerBoundInstance",
    "build_lower_bound_graph",
    "connector_tree_depth",
    "lower_bound_instance",
    "fragment_partition",
    "grid_strip_partition",
    "non_covering_subsets",
    "parts_from_paths",
    "path_partition",
    "random_connected_partition",
    "singleton_free",
    "validate_parts",
]
