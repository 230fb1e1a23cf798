"""Minimum spanning tree via Boruvka phases over low-congestion shortcuts.

Corollary 1.2 of the paper: plugging the new shortcuts into the framework of
[Gha17, Theorem 6.1.2] gives an MST algorithm with ``~O(n^((D-2)/(2D-2)))``
rounds on constant-diameter graphs.  The framework is Boruvka's algorithm:

* fragments start as singletons;
* in each phase every fragment determines its minimum-weight outgoing edge
  (MWOE) — a part-wise *min* aggregation where the parts are the current
  fragments and the values are each node's lightest incident outgoing edge;
* the MWOEs are added and fragments merge; after ``O(log n)`` phases one
  fragment remains and its edges are the MST.

The per-phase cost is building a shortcut for the current fragment
partition plus one aggregation over it, each ``~O(quality)`` rounds, so
the end-to-end round count inherits the shortcut quality — which is
exactly the dependence experiment E6 measures by swapping the shortcut
engine (Kogan-Parter vs. Ghaffari-Haeupler vs. naive) under the same
Boruvka driver.

A Kruskal reference implementation is included for correctness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..graphs.components import UnionFind
from ..graphs.graph import WeightedGraph, edge_key
from ..shortcuts.kogan_parter import build_kogan_parter_shortcut
from ..shortcuts.partition import Partition
from ..shortcuts.shortcut import Shortcut
from ..rng import RandomLike, ensure_rng
from .aggregation import estimate_aggregation_rounds

#: A shortcut factory: given (graph, partition) return the phase's shortcut.
#: Its construction is charged by :func:`boruvka_mst`, not by the factory.
ShortcutFactory = Callable[[WeightedGraph, Partition], Shortcut]


@dataclass
class MSTResult:
    """Output of the Boruvka-over-shortcuts MST computation.

    Attributes:
        edges: the MST edges (canonical tuples).
        weight: total MST weight.
        phases: number of Boruvka phases executed.
        total_rounds: charged round count (shortcut construction +
            aggregations, summed over phases).
        rounds_per_phase: the per-phase breakdown.
        quality_per_phase: the measured shortcut quality used in each phase.
    """

    edges: list[tuple[int, int]]
    weight: float
    phases: int
    total_rounds: int
    rounds_per_phase: list[int] = field(default_factory=list)
    quality_per_phase: list[float] = field(default_factory=list)


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


def default_shortcut_factory(
    *,
    diameter_value: Optional[int] = None,
    log_factor: float = 0.5,
    rng: RandomLike = None,
) -> ShortcutFactory:
    """Return a factory building Kogan-Parter shortcuts for each Boruvka phase.

    ``rng`` drives the sampling of every phase's shortcut.  The factory
    charges nothing: :func:`boruvka_mst` charges the construction the same
    ``~O(quality)`` rounds as the aggregation over it, since the distributed
    construction's round count equals its quality up to logarithmic factors
    (Theorem 1.1).  Experiments that want fully measured construction rounds
    use the distributed builder directly (experiment E5).
    """
    base_rng = ensure_rng(rng)

    def factory(graph: WeightedGraph, partition: Partition) -> Shortcut:
        return build_kogan_parter_shortcut(
            graph,
            partition,
            diameter_value=diameter_value,
            log_factor=log_factor,
            rng=base_rng,
        ).shortcut

    return factory


def boruvka_mst(
    graph: WeightedGraph,
    *,
    shortcut_factory: Optional[ShortcutFactory] = None,
    max_phases: Optional[int] = None,
) -> MSTResult:
    """Compute the MST with Boruvka phases, charging shortcut-based round costs.

    Each phase measures its shortcut once (congestion plus the deterministic
    double-sweep dilation) and charges ``2 · estimate_aggregation_rounds``:
    one for building the shortcut, one for the MWOE aggregation over it.

    Args:
        graph: a connected weighted graph.  (On a disconnected graph the
            result is the minimum spanning forest.)
        shortcut_factory: produces the shortcut for each phase's fragment
            partition; defaults to :func:`default_shortcut_factory`.
        max_phases: safety bound on the number of phases
            (default ``ceil(log2 n) + 2``).

    Returns:
        An :class:`MSTResult` whose edge set equals the true MST (verified
        against Kruskal in the test-suite).
    """
    n = graph.num_vertices
    if n == 0:
        return MSTResult(edges=[], weight=0.0, phases=0, total_rounds=0)
    if shortcut_factory is None:
        shortcut_factory = default_shortcut_factory()
    if max_phases is None:
        max_phases = math.ceil(math.log2(max(n, 2))) + 2

    uf = UnionFind(n)
    edge_list = graph.csr().edge_list
    weights = graph.weight_array()
    mst_edges: set[tuple[int, int]] = set()
    rounds_per_phase: list[int] = []
    quality_per_phase: list[float] = []

    for _phase in range(max_phases):
        fragments = uf.groups()
        if len(fragments) <= 1:
            break
        # Fragments define the parts of this phase.  Singleton fragments are
        # valid parts; fragments spanning several components of a
        # disconnected graph cannot occur (we only merge along edges).
        partition = Partition(graph, fragments, validate=False)
        shortcut = shortcut_factory(graph, partition)
        quality = shortcut.quality_report(exact_dilation=False)
        quality_per_phase.append(quality.quality)

        # MWOE selection = one part-wise min aggregation: each node's value
        # is its lightest incident outgoing edge, and the fragment minimum is
        # the fragment's MWOE.  The scan is edge-major over the CSR edge
        # list: every crossing edge is a candidate for both of its
        # fragments, which yields the same per-fragment minimum as the
        # node-major formulation with half the find() calls.
        mwoe: dict[int, tuple[float, int, int]] = {}
        find = uf.find
        for eid, (u, v) in enumerate(edge_list):
            fu = find(u)
            fv = find(v)
            if fu == fv:
                continue
            key = (weights[eid], u, v)
            if fu not in mwoe or key < mwoe[fu]:
                mwoe[fu] = key
            if fv not in mwoe or key < mwoe[fv]:
                mwoe[fv] = key
        rounds_per_phase.append(2 * estimate_aggregation_rounds(quality, n))

        if not mwoe:
            break
        merged_any = False
        for _, u, v in mwoe.values():
            # With the consistent (weight, edge) tie-breaking the picked MWOEs
            # form a forest, so a failed union can only be the same edge picked
            # by both of its fragments — already recorded, nothing to add.
            if uf.union(u, v):
                merged_any = True
                mst_edges.add(edge_key(u, v))
        if not merged_any:
            break

    weight = graph.total_weight(mst_edges)
    return MSTResult(
        edges=sorted(mst_edges),
        weight=weight,
        phases=len(rounds_per_phase),
        total_rounds=sum(rounds_per_phase),
        rounds_per_phase=rounds_per_phase,
        quality_per_phase=quality_per_phase,
    )
