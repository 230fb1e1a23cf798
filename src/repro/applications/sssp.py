"""Approximate single-source shortest paths over shortcut-accelerated phases.

Corollary 4.2 of the paper plugs the new shortcuts into the framework of
Haeupler and Li [HL18], whose round complexity is (shortcut quality) times
small factors.  The essential mechanism of that framework is that a
Bellman-Ford-style computation can relax distances *through whole parts* in
``~O(quality)`` rounds, instead of edge by edge, because part-wise
aggregation both collects the minimum tentative distance in a part and
broadcasts improved values back.

This module implements that mechanism directly:

* :func:`dijkstra` — exact reference distances;
* :func:`bellman_ford` — plain hop-bounded relaxation (the no-shortcut
  baseline: ``h`` phases only reach ``h``-hop-limited distances);
* :func:`shortcut_accelerated_sssp` — alternating phases of (a) one
  edge-relaxation step and (b) one *part relaxation* step that propagates
  distances through every part using precomputed intra-part distances, each
  charged ``~O(quality)`` rounds.

Experiment E8 measures the resulting stretch (max ratio to the exact
distance) as a function of the number of phases and the charged rounds for
the different shortcut engines; with parts covering the graph the stretch
drops to 1.0 within a few phases while the plain hop-bounded baseline needs
a number of phases proportional to the weighted hop radius.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from ..graphs.graph import WeightedGraph
from ..shortcuts.shortcut import QualityReport, Shortcut

#: Distance value for unreachable vertices.
UNREACHABLE = float("inf")


@dataclass
class SSSPResult:
    """Output of the shortcut-accelerated SSSP computation.

    Attributes:
        distances: tentative distance per vertex (exact once converged).
        phases: number of (edge + part) relaxation phases executed.
        total_rounds: charged rounds (one aggregation per part-relaxation
            phase plus one round per edge-relaxation step).
        converged: whether a fixed point was reached before the phase limit.
        max_stretch: max ratio to the exact Dijkstra distance (1.0 when the
            computation has converged; ``inf`` if some reachable vertex is
            still unreached).
    """

    distances: dict[int, float]
    phases: int
    total_rounds: int
    converged: bool
    max_stretch: float


def dijkstra(graph: WeightedGraph, source: int) -> dict[int, float]:
    """Exact single-source distances (reference oracle)."""
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in graph.neighbors(u):
            nd = d + graph.weight(u, v)
            if nd < dist.get(v, UNREACHABLE):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bellman_ford(graph: WeightedGraph, source: int, max_hops: int) -> dict[int, float]:
    """Hop-bounded Bellman-Ford: exact distances over paths of at most ``max_hops`` edges."""
    dist = {v: UNREACHABLE for v in graph.vertices()}
    dist[source] = 0.0
    for _ in range(max_hops):
        updated = False
        new_dist = dict(dist)
        for u, v, w in graph.weighted_edges():
            if dist[u] + w < new_dist[v]:
                new_dist[v] = dist[u] + w
                updated = True
            if dist[v] + w < new_dist[u]:
                new_dist[u] = dist[v] + w
                updated = True
        dist = new_dist
        if not updated:
            break
    return dist


def estimate_aggregation_rounds(quality: QualityReport, n: int) -> int:
    """Return the analytic round cost ``O(c + d · log n)`` of one aggregation.

    This is the Fact 4.1 charge for a part-wise aggregation over a
    ``(c, d)`` shortcut: grow a depth-``d`` tree in every augmented subgraph
    and convergecast/broadcast on it, all parts scheduled together by the
    random-delay theorem.  The constant is 1 (``c + d * ceil(log2 n)``
    exactly); the SSSP rows compare round counts between phases and
    engines, for which a common constant is immaterial.
    """
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    dilation = quality.dilation if quality.dilation != float("inf") else n
    return int(quality.congestion + dilation * log_n)


def _intra_part_distances(graph: WeightedGraph, part: frozenset[int]) -> dict[int, dict[int, float]]:
    """Exact weighted distances inside the induced subgraph ``G[part]``."""
    result: dict[int, dict[int, float]] = {}
    part_set = set(part)
    for s in part:
        dist = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, UNREACHABLE):
                continue
            for v in graph.neighbors(u):
                if v not in part_set:
                    continue
                nd = d + graph.weight(u, v)
                if nd < dist.get(v, UNREACHABLE):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        result[s] = dist
    return result


def shortcut_accelerated_sssp(
    graph: WeightedGraph,
    source: int,
    shortcut: Shortcut,
    *,
    max_phases: Optional[int] = None,
) -> SSSPResult:
    """Compute SSSP distances with part-accelerated Bellman-Ford phases.

    Each phase performs one ordinary edge relaxation (one CONGEST round)
    followed by one *part relaxation*: inside every part, every vertex
    lowers its tentative distance to ``min over part members u`` of
    ``dist(u) + intra-part distance(u, v)``.  The part relaxation is
    implemented with the part-wise aggregation primitive and charged
    ``O(quality)`` rounds per phase (the intra-part distances are local
    knowledge of the part after a one-time ``O(part diameter)`` setup, also
    charged).

    Args:
        graph: weighted graph.
        source: source vertex.
        shortcut: shortcut over the partition used for acceleration; the
            partition's parts should cover (most of) the graph for fast
            convergence.
        max_phases: phase limit (default ``2 * ceil(log2 n) + 4``).

    Returns:
        An :class:`SSSPResult` (stretch measured against Dijkstra).
    """
    n = graph.num_vertices
    partition = shortcut.partition
    if max_phases is None:
        max_phases = 2 * math.ceil(math.log2(max(n, 2))) + 4
    # Congestion plus the deterministic double-sweep dilation.
    quality = shortcut.quality_report(exact_dilation=False)
    per_phase_rounds = 1 + estimate_aggregation_rounds(quality, n)

    intra = {
        idx: _intra_part_distances(graph, partition.part(idx))
        for idx in range(partition.num_parts)
    }
    setup_rounds = estimate_aggregation_rounds(quality, n)

    dist = {v: UNREACHABLE for v in graph.vertices()}
    dist[source] = 0.0
    phases = 0
    converged = False
    for _ in range(max_phases):
        phases += 1
        updated = False
        # (a) one edge-relaxation step.
        snapshot = dict(dist)
        for u, v, w in graph.weighted_edges():
            if snapshot[u] + w < dist[v]:
                dist[v] = snapshot[u] + w
                updated = True
            if snapshot[v] + w < dist[u]:
                dist[u] = snapshot[v] + w
                updated = True
        # (b) part relaxation through intra-part distances.
        for idx in range(partition.num_parts):
            table = intra[idx]
            part = partition.part(idx)
            for target in part:
                best = dist[target]
                for anchor in part:
                    if dist[anchor] == UNREACHABLE:
                        continue
                    through = table[anchor].get(target)
                    if through is not None and dist[anchor] + through < best:
                        best = dist[anchor] + through
                if best < dist[target]:
                    dist[target] = best
                    updated = True
        if not updated:
            converged = True
            break

    exact = dijkstra(graph, source)
    max_stretch = 1.0
    for v, d_exact in exact.items():
        if d_exact == 0.0:
            continue
        d_apx = dist.get(v, UNREACHABLE)
        if d_apx == UNREACHABLE:
            max_stretch = UNREACHABLE
            break
        max_stretch = max(max_stretch, d_apx / d_exact)

    return SSSPResult(
        distances=dist,
        phases=phases,
        total_rounds=setup_rounds + phases * per_phase_rounds,
        converged=converged,
        max_stretch=max_stretch,
    )
