"""The sequential MST reference (Kruskal).

Corollary 1.2's MST algorithm — Boruvka phases whose MWOE selection is one
part-wise aggregation over a shortcut of the fragment partition — runs on
the CONGEST simulator in :mod:`repro.applications.shortcut_mst`.  This
module holds the oracle its edge sets are checked against.
"""

from __future__ import annotations

from ..graphs.components import UnionFind
from ..graphs.graph import WeightedGraph


def kruskal_mst(graph: WeightedGraph) -> tuple[list[tuple[int, int]], float]:
    """Reference MST via Kruskal's algorithm.

    Ties are broken by the canonical edge tuple so the result is
    deterministic even with repeated weights.

    Returns:
        ``(edges, total weight)``; for a disconnected graph this is the
        minimum spanning forest.
    """
    uf = UnionFind(graph.num_vertices)
    edges = sorted(graph.weighted_edges(), key=lambda t: (t[2], t[0], t[1]))
    chosen: list[tuple[int, int]] = []
    total = 0.0
    for u, v, w in edges:
        if uf.union(u, v):
            chosen.append((u, v))
            total += w
    return chosen, total
