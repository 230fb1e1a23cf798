"""Elkin / Das-Sarma style lower-bound instances.

Elkin (STOC 2004) and Das-Sarma et al. (STOC 2011) prove that there exist
n-vertex graphs of diameter D and part collections for which any ``(c, d)``
shortcut must have quality ``c + d = ~Omega(n^((D-2)/(2D-2)))``.  The hard
instances share a common shape:

* roughly ``k_D = n^((D-2)/(2D-2))`` vertex-disjoint **paths**, each of
  length roughly ``N = n / k_D`` — these paths are the parts ``S_i``;
* a shallow **connector tree** of depth ``(D - 2) / 2`` whose leaves attach
  to every "column" of path vertices, which forces the graph diameter down
  to ``D`` while providing only a narrow core through which all inter-column
  communication must pass.

Any shortcut for the paths must either traverse many path edges (large
dilation) or route many parts through the few tree edges near the root
(large congestion) — the tension that drives the lower bound.

This module builds that topology exactly (for even ``D``; odd targets are
rounded up to the next even value, matching how the paper's own analysis
reduces odd diameters to even ones by edge subdivision), and returns both
the graph and the canonical hard partition (the paths).  The baselines
experiment (``repro experiments --experiment E4``) uses these instances to show that the measured
quality of the Kogan-Parter construction tracks the lower-bound curve shape
while the Ghaffari-Haeupler O(sqrt(n) + D) baseline does not improve with
growing D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..params import k_d_value
from .graph import Graph


@dataclass(frozen=True)
class LowerBoundInstance:
    """A generated lower-bound instance.

    Attributes:
        graph: the full graph.
        parts: the canonical hard partition — one vertex set per path.
        num_paths: number of disjoint paths (``Gamma`` in the literature).
        path_length: number of vertices per path.
        diameter: the exact diameter the construction guarantees.
        tree_vertices: vertex ids of the connector tree (including leaves).
    """

    graph: Graph
    parts: list[set[int]]
    num_paths: int
    path_length: int
    diameter: int
    tree_vertices: set[int]


def connector_tree_depth(diameter: int) -> int:
    """Return the connector-tree depth used for a target (even) diameter.

    A path vertex reaches its column leaf in one hop, the root in
    ``depth`` more hops, and any other path vertex in the symmetric number
    of hops, so the graph diameter is ``2 * depth + 2``.
    """
    if diameter < 4 or diameter % 2 != 0:
        raise ValueError("the explicit construction needs an even diameter >= 4")
    return (diameter - 2) // 2


def build_lower_bound_graph(
    num_paths: int,
    path_length: int,
    diameter: int,
) -> LowerBoundInstance:
    """Build the hard instance with explicit path/column parameters.

    Args:
        num_paths: number of vertex-disjoint paths (the parts).
        path_length: vertices per path; also the number of columns.
        diameter: target diameter; must be even and at least 4.

    Returns:
        A :class:`LowerBoundInstance`.

    Raises:
        ValueError: for infeasible parameters.
    """
    if num_paths < 1 or path_length < 2:
        raise ValueError("need at least one path with at least two vertices")
    depth = connector_tree_depth(diameter)
    num_columns = path_length

    # Branching factor: the smallest integer b with b**depth >= num_columns,
    # so the tree has exactly `depth` levels below the root and at least one
    # leaf per column.
    branching = max(2, math.ceil(num_columns ** (1.0 / depth)))
    while branching ** depth < num_columns:
        branching += 1

    # Vertex layout: paths first, then the connector tree level by level.
    path_vertex = [[p * path_length + c for c in range(path_length)] for p in range(num_paths)]
    next_id = num_paths * path_length

    levels: list[list[int]] = [[next_id]]  # level 0 = root
    next_id += 1
    for level in range(1, depth + 1):
        if level < depth:
            size = branching ** level
        else:
            size = num_columns  # exactly one leaf per column
        levels.append(list(range(next_id, next_id + size)))
        next_id += size

    g = Graph(next_id)
    edges: list[tuple[int, int]] = []
    # Path edges.
    for p in range(num_paths):
        row = path_vertex[p]
        edges.extend(zip(row, row[1:]))
    # Tree edges: node i at level L attaches to parent i // branching at
    # level L-1 (the leaf level may be wider/narrower than branching**depth,
    # so parents are assigned by proportional index to keep the tree balanced).
    for level in range(1, depth + 1):
        parents = levels[level - 1]
        children = levels[level]
        last_parent = len(parents) - 1
        for idx, child in enumerate(children):
            parent_idx = min(idx * len(parents) // len(children), last_parent)
            edges.append((child, parents[parent_idx]))
    # Column attachment: leaf j connects to vertex j of every path.
    leaves = levels[depth]
    for c in range(num_columns):
        leaf = leaves[c]
        for p in range(num_paths):
            edges.append((leaf, path_vertex[p][c]))
    g.add_edges(edges)

    parts = [set(path_vertex[p]) for p in range(num_paths)]
    tree_vertices = {v for level in levels for v in level}
    return LowerBoundInstance(
        graph=g,
        parts=parts,
        num_paths=num_paths,
        path_length=path_length,
        diameter=diameter,
        tree_vertices=tree_vertices,
    )


def lower_bound_instance(n: int, diameter: int) -> LowerBoundInstance:
    """Build the canonical hard instance with roughly ``n`` vertices.

    The path count is set to ``~k_D = n^((D-2)/(2D-2))`` and the path length
    to ``~n / k_D``, matching the parameter balance of the lower bound.  The
    actual vertex count is slightly larger than ``n`` because of the
    connector tree; callers that need the exact count should read
    ``instance.graph.num_vertices``.

    Args:
        n: approximate number of path vertices.
        diameter: target diameter (even, >= 4).  Odd values are rounded up.
    """
    if diameter % 2 == 1:
        diameter += 1
    if diameter < 4:
        raise ValueError("diameter must be at least 4 (or 3, rounded up)")
    k_d = k_d_value(n, diameter)
    num_paths = max(1, round(k_d))
    path_length = max(2, round(n / num_paths))
    return build_lower_bound_graph(num_paths, path_length, diameter)
