"""Two-edge-connected spanning subgraph (2-ECSS) approximation.

Corollary 4.3 plugs the shortcuts into Dory-Ghaffari [DG19] to obtain an
``O(log n)``-approximation of the minimum-weight 2-ECSS in ``~O(quality)``
rounds.  The [DG19] machinery (tree embeddings into the fragments) is used
as a black box by the paper; this module implements the classical
*tree-plus-augmentation* scheme that exposes the same shortcut dependence:

1. compute an MST with the shortcut-driven Boruvka of
   :mod:`repro.applications.mst` (``~O(quality · log n)`` rounds);
2. for every MST edge, find the minimum-weight non-tree edge that covers it
   (i.e. whose tree path contains it) and add those cover edges — each
   "find the best cover" is a part-wise min aggregation over the fragments
   on the two sides of the edge, charged through the shortcut quality.

When the input graph is 2-edge-connected the output is 2-edge-connected
(every bridge of the MST is covered), and its weight is at most
``MST + sum of covers <= 2 · OPT`` for the augmentation step on top of the
tree (the classical analysis); experiment E8 reports the measured weight
ratio against the connectivity lower bound (max of MST weight and the
cheapest 2-regular bound) and the charged rounds per shortcut engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..graphs.graph import Graph, WeightedGraph, edge_key
from ..graphs.traversal import bfs_tree
from .mst import ShortcutFactory, boruvka_mst, default_shortcut_factory


@dataclass
class TwoECSSResult:
    """Output of the 2-ECSS approximation.

    Attributes:
        edges: the selected subgraph edges (MST plus augmentation edges).
        weight: total weight of the selected edges.
        mst_weight: weight of the underlying MST (a lower bound on OPT).
        is_two_edge_connected: whether the selected subgraph is bridgeless
            and spanning (always ``True`` when the input graph is
            2-edge-connected).
        total_rounds: charged rounds (MST + augmentation aggregations).
        uncovered_edges: MST edges for which no covering non-tree edge
            exists (these are bridges of the input graph itself).
    """

    edges: list[tuple[int, int]]
    weight: float
    mst_weight: float
    is_two_edge_connected: bool
    total_rounds: int
    uncovered_edges: list[tuple[int, int]] = field(default_factory=list)


def find_bridges(graph: Graph) -> set[tuple[int, int]]:
    """Return all bridge edges of ``graph`` (iterative Tarjan low-link).

    Used to verify 2-edge-connectivity of the produced subgraphs.
    """
    n = graph.num_vertices
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for start in range(n):
        if visited[start] or graph.degree(start) == 0:
            continue
        # Iterative DFS; stack entries are (vertex, parent, neighbour iterator).
        stack = [(start, -1, iter(graph.neighbors(start)))]
        visited[start] = True
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(graph.neighbors(w))))
                    advanced = True
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add(edge_key(parent, v))
    return bridges


def is_two_edge_connected(graph: Graph, edges: list[tuple[int, int]]) -> bool:
    """Return ``True`` if the subgraph given by ``edges`` spans the graph and has no bridge."""
    sub = Graph(graph.num_vertices, edges)
    # Spanning: every vertex of the host graph with positive degree must be
    # reachable; for simplicity require one connected component over all
    # vertices that appear in the host graph.
    touched = {v for e in edges for v in e}
    if len(touched) < graph.num_vertices:
        return False
    _, dist = bfs_tree(sub, next(iter(touched)))
    if len(dist) < graph.num_vertices:
        return False
    return not find_bridges(sub)


def two_ecss_approximation(
    graph: WeightedGraph,
    *,
    shortcut_factory: Optional[ShortcutFactory] = None,
) -> TwoECSSResult:
    """Approximate the minimum-weight 2-ECSS by MST + cheapest cover edges.

    Args:
        graph: a weighted graph; the result is 2-edge-connected iff the
            input is (bridges of the input can never be covered).
        shortcut_factory: the shortcut engine used by the MST phase and
            charged for the augmentation aggregations.  The edge set and
            the charged rounds are deterministic given the factory.

    Returns:
        A :class:`TwoECSSResult`.
    """
    if shortcut_factory is None:
        shortcut_factory = default_shortcut_factory()
    mst = boruvka_mst(graph, shortcut_factory=shortcut_factory)
    tree_edges = set(mst.edges)

    # Root the tree and record parent/depth so that "the tree path of a
    # non-tree edge (u, v)" can be walked explicitly.
    tree = Graph(graph.num_vertices, tree_edges)
    roots: list[int] = []
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    seen: set[int] = set()
    for v in range(graph.num_vertices):
        if v in seen:
            continue
        p, d = bfs_tree(tree, v)
        parent.update(p)
        depth.update(d)
        seen.update(d)
        roots.append(v)

    # For every tree edge, the cheapest non-tree edge covering it.
    best_cover: dict[tuple[int, int], tuple[float, int, int]] = {}
    for u, v, w in graph.weighted_edges():
        key = edge_key(u, v)
        if key in tree_edges:
            continue
        for tree_edge in _tree_path_edges(u, v, parent, depth):
            entry = (w, *key)
            if tree_edge not in best_cover or entry < best_cover[tree_edge]:
                best_cover[tree_edge] = entry

    chosen: set[tuple[int, int]] = set(tree_edges)
    uncovered: list[tuple[int, int]] = []
    for tree_edge in sorted(tree_edges):
        cover = best_cover.get(tree_edge)
        if cover is None:
            uncovered.append(tree_edge)
            continue
        chosen.add(edge_key(cover[1], cover[2]))

    weight = graph.total_weight(chosen)
    # Round accounting: the MST rounds plus one aggregation per O(log n)
    # batch of cover selections (the covers for all tree edges are found by
    # one bottom-up sweep of part-wise min aggregations in [DG19]); we charge
    # a single sweep of aggregations proportional to the tree depth factor.
    quality_rounds = mst.rounds_per_phase[-1] if mst.rounds_per_phase else 0
    total_rounds = mst.total_rounds + quality_rounds

    return TwoECSSResult(
        edges=sorted(chosen),
        weight=weight,
        mst_weight=mst.weight,
        is_two_edge_connected=is_two_edge_connected(graph, sorted(chosen)),
        total_rounds=total_rounds,
        uncovered_edges=uncovered,
    )


def _tree_path_edges(
    u: int,
    v: int,
    parent: dict[int, int],
    depth: dict[int, int],
) -> list[tuple[int, int]]:
    """Return the tree edges on the unique tree path between ``u`` and ``v``.

    Returns an empty list if the vertices are in different tree components.
    """
    if u not in depth or v not in depth:
        return []
    edges: list[tuple[int, int]] = []
    a, b = u, v
    while depth[a] > depth[b]:
        edges.append(edge_key(a, parent[a]))
        a = parent[a]
    while depth[b] > depth[a]:
        edges.append(edge_key(b, parent[b]))
        b = parent[b]
    while a != b:
        if parent[a] == a and parent[b] == b:
            # Both walks reached (distinct) roots: u and v live in different
            # tree components, so there is no tree path to cover.
            return []
        if parent[a] != a:
            edges.append(edge_key(a, parent[a]))
            a = parent[a]
        if parent[b] != b and a != b:
            edges.append(edge_key(b, parent[b]))
            b = parent[b]
    return edges
