"""The Kogan-Parter shortcut construction (Section 2 of the paper).

Centralized construction for a graph ``G`` of diameter ``D`` and parts
``S_1, ..., S_l`` (even ``D``; odd diameters are handled by the edge
subdivision argument, see :func:`build_kogan_parter_shortcut` and
:mod:`repro.shortcuts.odd_diameter`):

1. every node ``v ∈ S_i`` adds all its incident edges to ``H_i``;
2. every node ``u ∉ S_i`` adds each incident (directed) edge ``(u, v)`` to
   ``H_i`` independently with probability ``p = k_D · log n / N``;
3. step 2 is repeated ``D`` independent times.

Only parts whose leader-rooted radius in ``G[S_i]`` exceeds
``max(1, ceil(k_D))`` receive sampled edges (:func:`radius_large_parts`, the
parts stage 1 of the distributed construction flags); why that is sound is
stated once, in :func:`repro.shortcuts.distributed.detect_large_parts`.

The congestion bound ``O(D · k_D · log n)`` follows from a Chernoff bound on
the per-edge sampling; the dilation bound ``O(k_D · log n)`` is the paper's
main technical contribution (Section 3, reproduced empirically by the
shortcut-tree experiments in :mod:`repro.shortcuts.shortcut_trees`).

Implementation notes
--------------------
* The construction works in the edge-id space of the graph's CSR snapshot
  (:meth:`~repro.graphs.graph.Graph.csr`) and hands
  :meth:`~repro.shortcuts.shortcut.Shortcut.from_edge_ids` one sorted
  edge-id array per part.  Step 1 is one vectorized pass over the edge
  endpoint arrays for all parts at once (:func:`incident_edge_ids`);
  Steps 2-3 draw, per (sampled part, repetition), one vectorized
  Bernoulli(p) mask over all directed edges.  Each (edge, repetition,
  part) remains an independent Bernoulli(p) — exactly the paper's
  per-node coin flips — but the Python-level work is proportional to the
  number of parts times repetitions, not to the number of coin flips.
* ``log n`` factors dominate at simulation scale: for the ``n`` reachable in
  a Python simulator the paper's ``p`` often clamps to 1 (every edge joins
  every subgraph, which degenerates to the naive shortcut).  The
  ``log_factor`` argument scales the logarithmic term so the experiments can
  operate in the non-degenerate regime; the default reproduces the paper's
  parameter exactly.
* Repetition provenance can be recorded (``track_repetitions=True``); the
  shortcut-tree analysis (Section 3.1) needs to know in which of the ``D``
  repetitions an edge was sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.csr import CSRLinkMask, sorted_unique
from ..graphs.graph import Graph
from ..graphs.traversal import diameter as graph_diameter
from ..params import k_d_value, num_large_parts
from ..rng import RandomLike, ensure_rng
from .partition import Partition
from .shortcut import Shortcut


@dataclass(frozen=True)
class KoganParterParameters:
    """The resolved parameters of one construction run.

    Attributes:
        n: number of vertices.
        diameter: the diameter value ``D`` used (given or measured).
        k_d: the target quality ``k_D = n^((D-2)/(2D-2))``.
        num_large_parts_bound: ``N = ceil(n / k_D)``.
        probability: the per-repetition sampling probability actually used.
        repetitions: number of independent sampling repetitions (``D`` by
            default).
        log_factor: multiplier applied to the ``log n`` term of ``p``.
    """

    n: int
    diameter: int
    k_d: float
    num_large_parts_bound: int
    probability: float
    repetitions: int
    log_factor: float

    @property
    def detection_depth(self) -> int:
        """``max(1, ceil(k_D))``: a part is sampled when its leader-rooted
        radius in ``G[S_i]`` exceeds this depth."""
        return max(1, math.ceil(self.k_d))


@dataclass
class KoganParterResult:
    """Output of the centralized construction.

    Attributes:
        shortcut: the resulting :class:`~repro.shortcuts.shortcut.Shortcut`.
        parameters: the resolved :class:`KoganParterParameters`.
        large_part_indices: indices of the parts that received sampled edges.
        repetition_edges: if tracking was requested, for every part index a
            list of ``repetitions`` sets of *directed* edges, recording in
            which repetition each sample happened (step-1 edges are not
            listed — they are deterministic).
    """

    shortcut: Shortcut
    parameters: KoganParterParameters
    large_part_indices: list[int]
    repetition_edges: Optional[dict[int, list[set[tuple[int, int]]]]] = None


def resolve_parameters(
    graph: Graph,
    *,
    diameter_value: Optional[int] = None,
    probability: Optional[float] = None,
    repetitions: Optional[int] = None,
    log_factor: float = 1.0,
) -> KoganParterParameters:
    """Compute the construction parameters for ``graph``.

    Args:
        diameter_value: the diameter ``D``; measured exactly if omitted
            (measuring is O(n·m), fine at simulation scale — the distributed
            implementation instead guesses ``D`` as in the paper).
        probability: override the sampling probability entirely.
        repetitions: override the number of repetitions (default ``D``).
        log_factor: multiplier on the ``log n`` factor of the default ``p``.
    """
    n = graph.num_vertices
    if diameter_value is None:
        measured = graph_diameter(graph)
        if measured == float("inf"):
            raise ValueError("graph must be connected to compute its diameter")
        diameter_value = int(measured)
    if diameter_value < 2:
        # Diameter-1 graphs (cliques) are handled by the D=2 parameterisation:
        # k_D = 1, every part of radius above 1 is sampled.
        diameter_value = 2
    k_d = k_d_value(n, diameter_value)
    n_large = num_large_parts(n, diameter_value)
    if probability is None:
        probability = min(1.0, k_d * log_factor * math.log(max(n, 2)) / max(n_large, 1))
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"sampling probability must be in [0, 1], got {probability}")
    if repetitions is None:
        repetitions = max(1, diameter_value)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    return KoganParterParameters(
        n=n,
        diameter=diameter_value,
        k_d=k_d,
        num_large_parts_bound=n_large,
        probability=probability,
        repetitions=repetitions,
        log_factor=log_factor,
    )


def incident_edge_ids(partition: Partition) -> list[np.ndarray]:
    """Step 1 of the construction for every part at once.

    Returns, for each part ``S_i``, the ascending ids (into
    ``partition.graph.csr()``) of the edges with an endpoint in ``S_i``.
    """
    arrays = partition.graph.csr().adjacency_arrays()
    labels = partition.vertex_labels()
    m = len(arrays.edge_u)
    # One (part, edge) key per endpoint inside a part; an edge with both
    # endpoints in one part yields that key twice and is deduplicated.
    owner = np.concatenate((labels[arrays.edge_u], labels[arrays.edge_v]))
    eid = np.tile(np.arange(m, dtype=np.int64), 2)
    inside = owner >= 0
    keys = sorted_unique(owner[inside] * m + eid[inside])
    bounds = np.searchsorted(keys, np.arange(partition.num_parts + 1) * m)
    ids = keys % m
    return [ids[bounds[i]:bounds[i + 1]] for i in range(partition.num_parts)]


def radius_large_parts(partition: Partition, depth: int) -> list[int]:
    """Return the parts with a member farther than ``depth`` from their
    leader in ``G[S_i]`` (ascending): the set stage 1 flags at that depth.

    One multi-source BFS from every leader over the intra-part links, a
    whole frontier per step, stopped after ``depth`` levels; the parts are
    disjoint, so a member still unreached lies beyond ``depth``.
    """
    labels = partition.vertex_labels()
    mask = CSRLinkMask.intra_partition(partition.graph.csr(), labels)
    starts, targets, _ = mask.arrays()
    degree = np.diff(starts)
    # Vertices outside every part count as reached: only members can flag.
    reached = labels < 0
    frontier = np.asarray(partition.leaders(), dtype=np.int64)
    reached[frontier] = True
    for _ in range(depth):
        counts = degree[frontier]
        total = int(counts.sum())
        if not total:
            break
        # Ragged gather of every frontier vertex's adjacency slice.
        entries = np.arange(total, dtype=np.int64)
        entries += np.repeat(starts[frontier] - (np.cumsum(counts) - counts), counts)
        found = targets[entries]
        frontier = sorted_unique(found[~reached[found]])
        reached[frontier] = True
    return sorted_unique(labels[~reached]).tolist()


def build_kogan_parter_shortcut(
    graph: Graph,
    partition: Partition,
    *,
    diameter_value: Optional[int] = None,
    probability: Optional[float] = None,
    repetitions: Optional[int] = None,
    log_factor: float = 1.0,
    rng: RandomLike = None,
    track_repetitions: bool = False,
) -> KoganParterResult:
    """Run the centralized Kogan-Parter construction.

    Only parts of leader-rooted radius above ``detection_depth`` are
    sampled (:func:`radius_large_parts`).

    Odd diameters: the paper subdivides every edge (making the diameter
    ``2D``, even) and samples each half-edge with probability ``sqrt(p)``,
    keeping an original edge when both halves are sampled.  Because the two
    halves are sampled independently, the law of the *output* edge set is
    exactly "each directed original edge sampled with probability ``p``",
    i.e. the same sampling step as the even case with the odd ``D`` plugged
    into ``k_D``; the subdivision matters only for the dilation *analysis*.
    The implementation therefore uses the same sampling code for both
    parities (and the test-suite contains a statistical check of the
    equivalence against an explicit subdivision, see
    ``tests/test_kogan_parter.py``).

    Args:
        graph: the host graph (assumed connected).
        partition: the parts to shortcut.
        diameter_value, probability, repetitions, log_factor:
            see :func:`resolve_parameters`.
        rng: seed or :class:`random.Random` controlling the sampling.
        track_repetitions: record which repetition sampled each directed
            edge (needed by the shortcut-tree analysis, costs memory).

    Returns:
        A :class:`KoganParterResult`.
    """
    params = resolve_parameters(
        graph,
        diameter_value=diameter_value,
        probability=probability,
        repetitions=repetitions,
        log_factor=log_factor,
    )
    large = radius_large_parts(partition, params.detection_depth)
    return _sample_shortcut(
        graph, partition, params, large, rng, track_repetitions=track_repetitions
    )


def _sample_shortcut(
    graph: Graph,
    partition: Partition,
    params: KoganParterParameters,
    large: list[int],
    rng: RandomLike,
    *,
    track_repetitions: bool = False,
) -> KoganParterResult:
    """Steps 1-3 of the construction, sampling for the parts ``large``."""
    r = ensure_rng(rng)
    np_rng = np.random.default_rng(r.getrandbits(64))

    csr = graph.csr()
    repetition_edges: Optional[dict[int, list[set[tuple[int, int]]]]] = None
    if track_repetitions:
        repetition_edges = {i: [set() for _ in range(params.repetitions)] for i in large}

    # ------------------------------------------------------------------
    # Step 1: every node of S_i contributes all its incident edges to H_i.
    # (Applied to every part, sampled or not: it is free congestion-wise —
    # an edge can gain at most 2 this way — and it is what the paper states.)
    # ------------------------------------------------------------------
    subgraph_ids = incident_edge_ids(partition)

    # ------------------------------------------------------------------
    # Steps 2-3: sampled edges for the radius-large parts only.  Directed
    # edge d < 2m covers edge id d >> 1 in direction lo->hi (even d) or
    # hi->lo (odd d); one Bernoulli(p) mask per (part, repetition) is drawn.
    # ------------------------------------------------------------------
    if large and params.probability > 0:
        m = csr.num_edges
        num_directed = 2 * m
        edge_list = csr.edge_list
        p = params.probability
        every_edge = np.arange(m, dtype=np.int64)
        for part_idx in large:
            if p >= 1.0 and repetition_edges is None:
                # Degenerate clamped regime: every repetition samples every
                # edge, so the union is simply the whole edge set.
                subgraph_ids[part_idx] = every_edge
                continue
            # The paper's step 2 is performed by nodes u outside S_i; if u
            # happens to be inside, the edge is already present from step 1
            # so adding it again changes nothing.  The per-repetition draws
            # stay independent Bernoulli(p) vectors (one RNG call each, so
            # seeded streams are unchanged).
            union = np.zeros(num_directed, dtype=bool)
            for rep in range(params.repetitions):
                if p >= 1.0:
                    drawn = np.ones(num_directed, dtype=bool)
                else:
                    drawn = np_rng.random(num_directed) < p
                union |= drawn
                if repetition_edges is not None:
                    rep_set = repetition_edges[part_idx][rep]
                    for d in np.flatnonzero(drawn).tolist():
                        u, v = edge_list[d >> 1]
                        rep_set.add((u, v) if d % 2 == 0 else (v, u))
            kept = union[0::2] | union[1::2]
            kept[subgraph_ids[part_idx]] = True
            subgraph_ids[part_idx] = np.flatnonzero(kept)

    shortcut = Shortcut.from_edge_ids(partition, subgraph_ids)
    return KoganParterResult(
        shortcut=shortcut,
        parameters=params,
        large_part_indices=large,
        repetition_edges=repetition_edges,
    )
