"""Explicit odd-diameter construction via edge subdivision (Section 3.2, end).

For odd diameters the paper does not run the sampling on ``G`` directly.
Instead it subdivides every edge ``(u, v)`` by a dummy node ``x_e`` (making
the diameter even, ``D' = 2D``), samples each *half-edge* with probability
``sqrt(p)``, and keeps the original edge in ``H_j`` only when **both**
halves were sampled; edges incident to ``S_j`` (Step 1) keep their
two-edge path deterministically.

Because the two halves are sampled independently, the *marginal law* of the
output edge set is exactly "each directed original edge is kept with
probability ``p``", which is why
:func:`repro.shortcuts.kogan_parter.build_kogan_parter_shortcut` can use the
same sampling code for both parities.  This module provides the explicit
subdivision pipeline anyway:

* :func:`subdivide_graph` builds ``G'`` together with the edge ↔ dummy-node
  maps (useful on its own for tests and for the dilation analysis of the odd
  case);
* :func:`build_odd_diameter_shortcut` runs the literal two-half sampling on
  ``G'`` and projects the result back to ``G``.

The test-suite checks both that the projection is a valid shortcut of ``G``
and that its edge-count statistics match the direct construction, which is
the equivalence the paper's remark relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from ..rng import RandomLike, ensure_rng
from .kogan_parter import (
    KoganParterParameters,
    incident_edge_ids,
    radius_large_parts,
    resolve_parameters,
)
from .partition import Partition
from .shortcut import Shortcut


@dataclass(frozen=True)
class SubdividedGraph:
    """The subdivision ``G'`` of a graph ``G``.

    Attributes:
        graph: the subdivided graph; vertices ``0 .. n-1`` are the original
            vertices and ``n .. n+m-1`` are the dummy edge nodes.
        dummy_of: map from canonical original edge to its dummy vertex id.
        edge_of: inverse map from dummy vertex id to the original edge.
    """

    graph: Graph
    dummy_of: dict[tuple[int, int], int]
    edge_of: dict[int, tuple[int, int]]


def subdivide_graph(graph: Graph) -> SubdividedGraph:
    """Subdivide every edge of ``graph`` with a fresh dummy vertex.

    The resulting graph has ``n + m`` vertices and ``2m`` edges; every
    original ``u``-``v`` path of length ``L`` corresponds to a ``G'`` path of
    length ``2L``, so an (unweighted) diameter-``D`` graph becomes a
    diameter-``2D`` graph, as the paper's odd-diameter reduction requires.
    """
    n = graph.num_vertices
    edges = list(graph.edges())
    sub = Graph(n + len(edges))
    dummy_of: dict[tuple[int, int], int] = {}
    edge_of: dict[int, tuple[int, int]] = {}
    for idx, (u, v) in enumerate(edges):
        dummy = n + idx
        dummy_of[(u, v)] = dummy
        edge_of[dummy] = (u, v)
        sub.add_edge(u, dummy)
        sub.add_edge(dummy, v)
    return SubdividedGraph(graph=sub, dummy_of=dummy_of, edge_of=edge_of)


@dataclass
class OddDiameterResult:
    """Output of the explicit odd-diameter construction.

    Attributes:
        shortcut: the projected shortcut on the original graph.
        parameters: the resolved parameters (with the odd ``D``).
        subdivided: the subdivision used.
        half_edge_probability: the ``sqrt(p)`` used for each half-edge.
        large_part_indices: parts that received sampled edges.
    """

    shortcut: Shortcut
    parameters: KoganParterParameters
    subdivided: SubdividedGraph
    half_edge_probability: float
    large_part_indices: list[int]


def build_odd_diameter_shortcut(
    graph: Graph,
    partition: Partition,
    *,
    diameter_value: int,
    log_factor: float = 1.0,
    probability: Optional[float] = None,
    rng: RandomLike = None,
) -> OddDiameterResult:
    """Run the literal odd-diameter construction of the paper.

    Every directed original edge is considered once per repetition for every
    sampled part (the even builder's radius rule,
    :func:`~repro.shortcuts.kogan_parter.radius_large_parts`): its two halves
    in ``G'`` are sampled independently with probability ``sqrt(p)`` and the
    original edge joins ``H_i`` only if both succeed.  Step-1 edges (incident to the part) are taken with their full
    two-edge path, i.e. deterministically, exactly as in the even case.

    Args:
        graph: the original graph (its diameter should be the odd
            ``diameter_value``; this is not re-measured here).
        partition: the parts.
        diameter_value: the odd diameter ``D`` (used for ``k_D`` and the
            number of repetitions).
        log_factor, probability: as in the even-case builder.
        rng: seed or Random.

    Returns:
        An :class:`OddDiameterResult`.

    Raises:
        ValueError: if ``diameter_value`` is even (use the standard builder).
    """
    if diameter_value % 2 == 0:
        raise ValueError("build_odd_diameter_shortcut is only for odd diameters")
    params = resolve_parameters(
        graph,
        diameter_value=diameter_value,
        probability=probability,
        log_factor=log_factor,
    )
    r = ensure_rng(rng)
    np_rng = np.random.default_rng(r.getrandbits(64))
    subdivided = subdivide_graph(graph)
    sqrt_p = math.sqrt(params.probability)

    csr = graph.csr()
    large = radius_large_parts(partition, params.detection_depth)

    # Step 1: all edges incident to the part, deterministically (their
    # two-edge subdivided paths are taken with probability 1).
    subgraph_ids = incident_edge_ids(partition)

    # Steps 2-3 on G': for each sampled part, repetition and directed original
    # edge, sample the two halves independently with sqrt(p) each (the two
    # vectorized masks below are exactly those independent half-edge flips).
    num_directed = 2 * csr.num_edges
    for part_idx in large:
        kept = np.zeros(csr.num_edges, dtype=bool)
        kept[subgraph_ids[part_idx]] = True
        for _rep in range(params.repetitions):
            both = np.flatnonzero(
                (np_rng.random(num_directed) < sqrt_p)
                & (np_rng.random(num_directed) < sqrt_p)
            )
            kept[both >> 1] = True
        subgraph_ids[part_idx] = np.flatnonzero(kept)

    shortcut = Shortcut.from_edge_ids(partition, subgraph_ids)
    return OddDiameterResult(
        shortcut=shortcut,
        parameters=params,
        subdivided=subdivided,
        half_edge_probability=sqrt_p,
        large_part_indices=large,
    )
