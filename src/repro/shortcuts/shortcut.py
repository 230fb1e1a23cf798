"""The shortcut container and its quality measures.

Definition 1.1 of the paper: given ``G`` and parts ``S_1, ..., S_l``, a
``(d, c)``-shortcut is a collection of subgraphs ``H_1, ..., H_l`` of ``G``
such that

1. the diameter of ``G[S_i] ∪ H_i`` is at most ``d`` (dilation), and
2. every edge of ``G`` appears in at most ``c`` of the augmented subgraphs
   ``G[S_i] ∪ H_i`` (congestion).

:class:`Shortcut` stores the ``H_i`` edge sets, exposes the augmented
subgraphs and computes congestion, dilation and quality.

Internally every ``H_i`` is one sorted, duplicate-free, read-only ``int64``
array of dense *edge ids* from the host graph's
:class:`~repro.graphs.csr.CSRGraph` snapshot; the samplers and baselines
hand those arrays in (:meth:`Shortcut.from_edge_ids`) and the quality
measures read them directly.  One cached per-edge *owner* array (the part
whose induced subgraph contains the edge, ``-1`` for none) gives every
part's induced edges.  Congestion is one ``np.bincount`` over those plus
one vectorized increment per ``H_i`` over its remaining ids.  The dilation
BFS runs on the augmented subgraph's compact local-id CSR
(:meth:`~repro.graphs.csr.AdjacencyArrays.edge_subgraph`), from all of a
part's sources at once (:func:`~repro.graphs.csr.bfs_distance_rows`).  The
tuple views (:meth:`Shortcut.subgraph_edges` and friends) speak canonical
edge tuples for small callers.

Measurement conventions
-----------------------
*Congestion* follows the definition exactly: for each edge we count the
augmented subgraphs containing it (induced part edges count for their own
part, shortcut edges for each part whose ``H_i`` contains them).

*Dilation* is reported as the maximum, over parts, of the largest distance
between two **part** vertices inside the augmented subgraph
``G[S_i] ∪ H_i``.  This is the quantity the paper's dilation argument
bounds (Theorem 3.1 bounds ``dist_H(s, t)`` for ``s, t ∈ S_j``) and the one
the applications rely on; the full subgraph diameter can be larger or even
infinite because sampled edges may land outside the part's component, which
is irrelevant for routing inside the part.

*Estimated dilation* (``exact=False``) is a double sweep: a BFS from the
part leader, then one from the smallest-id part vertex farthest from it.
It draws nothing, so the value is deterministic, and it lies in
``[true/2, true]`` (the leader's eccentricity alone is a 2-approximation).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.csr import UNREACHED, bfs_distance_rows, sorted_unique
from ..graphs.graph import Graph, Subgraph, union_subgraph
from ..graphs.traversal import INFINITY
from .partition import Partition

#: Cap on ``sources x vertices`` distance cells one batched dilation BFS
#: holds at a time (int32 each); exact mode runs its sources in chunks.
_BFS_CELLS = 1 << 22


@dataclass(frozen=True)
class QualityReport:
    """Summary of a shortcut's measured quality.

    Attributes:
        congestion: max number of augmented subgraphs sharing one edge.
        dilation: max part-to-part distance inside any augmented subgraph
            (:data:`math.inf` if some part is disconnected in its augmented
            subgraph, which a *valid* shortcut never is).
        quality: congestion + dilation.
        num_parts: number of parts.
        num_shortcut_edges: total size of all ``H_i`` (with multiplicity).
        max_part_shortcut_edges: size of the largest single ``H_i``.
    """

    congestion: int
    dilation: float
    num_parts: int
    num_shortcut_edges: int
    max_part_shortcut_edges: int

    @property
    def quality(self) -> float:
        """Congestion plus dilation — the paper's quality measure."""
        return self.congestion + self.dilation


class Shortcut:
    """A low-congestion shortcut: one edge set ``H_i`` per part.

    Args:
        partition: the part collection the shortcut serves.
        subgraphs: for each part, an iterable of edges (``(u, v)`` pairs of
            graph vertices) forming ``H_i``.  Every edge must exist in the
            host graph.  Missing trailing entries are treated as empty.
    """

    def __init__(
        self,
        partition: Partition,
        subgraphs: Sequence[Iterable[tuple[int, int]]],
    ) -> None:
        eid_map = partition.graph.csr().edge_id_map
        arrays = []
        for edges in subgraphs:
            ids = []
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
                key = (u, v) if u < v else (v, u)
                eid = eid_map.get(key)
                if eid is None:
                    raise ValueError(
                        f"shortcut edge ({key[0]}, {key[1]}) is not an edge of the graph"
                    )
                ids.append(eid)
            arrays.append(np.array(ids, dtype=np.int64))
        self._init(partition, arrays)

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_ids(cls, partition: Partition, arrays: Sequence[np.ndarray]) -> "Shortcut":
        """Build a shortcut directly from one edge-id array per part.

        The entry point of the samplers, which already work in edge-id
        space; ids refer to ``partition.graph.csr()``.  Missing trailing
        entries are treated as empty.  A sorted duplicate-free ``int64``
        array is held without a copy (several parts may share one), so the
        caller must not write to it afterwards.
        """
        self = cls.__new__(cls)
        self._init(partition, arrays)
        return self

    def _init(self, partition: Partition, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) > partition.num_parts:
            raise ValueError(
                f"got {len(arrays)} shortcut subgraphs for {partition.num_parts} parts"
            )
        self.partition = partition
        self.graph = partition.graph
        self._csr = self.graph.csr()
        num_edges = self._csr.num_edges
        held: list[np.ndarray] = []
        for i in range(partition.num_parts):
            ids = np.asarray(arrays[i] if i < len(arrays) else (), dtype=np.int64)
            if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
                ids = sorted_unique(ids)
            if len(ids) and (ids[0] < 0 or ids[-1] >= num_edges):
                raise ValueError(f"shortcut edge ids must lie in [0, {num_edges})")
            view = ids.view()
            view.flags.writeable = False
            held.append(view)
        self._ids = held
        self._owner_cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Number of parts (and of shortcut subgraphs)."""
        return self.partition.num_parts

    def _edge_owners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-edge owner array and the induced edge ids grouped by part.

        Returns ``(owner, grouped, bounds)`` (built once): ``owner[e]`` is the
        part whose induced subgraph ``G[S_i]`` contains edge ``e`` (``-1``
        for none), and ``grouped[bounds[i]:bounds[i + 1]]`` lists part
        ``i``'s induced edge ids in ascending order.
        """
        cached = self._owner_cache
        if cached is None:
            arrays = self._csr.adjacency_arrays()
            labels = self.partition.vertex_labels()
            label_u = labels[arrays.edge_u]
            owner = np.where(label_u == labels[arrays.edge_v], label_u, -1)
            induced = np.flatnonzero(owner >= 0)
            grouped = induced[np.argsort(owner[induced], kind="stable")]
            bounds = np.searchsorted(owner[grouped], np.arange(self.num_parts + 1))
            cached = self._owner_cache = (owner, grouped, bounds)
        return cached

    def _part_edge_ids(self, index: int) -> np.ndarray:
        """Edge ids of the induced subgraph ``G[S_index]``, ascending."""
        _, grouped, bounds = self._edge_owners()
        return grouped[bounds[index]:bounds[index + 1]]

    def _outside_edge_ids(self, index: int) -> np.ndarray:
        """Edge ids of ``H_index`` that are not induced edges of the part."""
        ids = self.subgraph_edge_id_array(index)
        return ids[self._edge_owners()[0][ids] != index]

    def subgraph_edge_id_array(self, index: int) -> np.ndarray:
        """Return the edge ids of ``H_index`` (ids refer to ``graph.csr()``):
        the shortcut's own sorted, duplicate-free, read-only ``int64`` array."""
        return self._ids[index]

    def augmented_edge_id_array(self, index: int) -> np.ndarray:
        """Return the edge ids of ``G[S_index] ∪ H_index``: a sorted,
        duplicate-free ``int64`` array."""
        ids = np.concatenate((self._part_edge_ids(index), self._outside_edge_ids(index)))
        return np.sort(ids, kind="stable")  # a merge of the two ascending runs

    def subgraph_edges(self, index: int) -> set[tuple[int, int]]:
        """Return the edge set ``H_index`` (canonical edge tuples)."""
        edge_list = self._csr.edge_list
        return {edge_list[e] for e in self._ids[index].tolist()}

    def augmented_edges(self, index: int) -> set[tuple[int, int]]:
        """Return the edges of the augmented subgraph ``G[S_index] ∪ H_index``."""
        edge_list = self._csr.edge_list
        return {edge_list[e] for e in self.augmented_edge_id_array(index).tolist()}

    def augmented_subgraph(self, index: int) -> Subgraph:
        """Return ``G[S_index] ∪ H_index`` as a :class:`Subgraph`.

        The subgraph always contains all part vertices (even isolated ones,
        e.g. a singleton part with no shortcut edges).
        """
        sub = union_subgraph(self.graph.num_vertices, self.augmented_edges(index))
        for v in self.partition.part(index):
            sub.vertex_set.add(v)
        return sub

    def augmented_adjacency(self, index: int) -> dict[int, set[int]]:
        """Return the adjacency map of ``G[S_index] ∪ H_index``.

        This is the per-node edge knowledge the distributed algorithms work
        with ("each node knows its incident edges in each ``G[S_i] ∪ H_i``").
        """
        adj: dict[int, set[int]] = {v: set() for v in self.partition.part(index)}
        edge_list = self._csr.edge_list
        get = adj.get
        # Iterate the part and shortcut id collections directly rather than
        # materializing their union: re-adding an edge present in both is
        # idempotent on the adjacency sets.
        for ids in (self._part_edge_ids(index), self._ids[index]):
            for e in ids.tolist():
                u, v = edge_list[e]
                su = get(u)
                if su is None:
                    su = adj[u] = set()
                su.add(v)
                sv = get(v)
                if sv is None:
                    sv = adj[v] = set()
                sv.add(u)
        return adj

    def total_shortcut_edges(self) -> int:
        """Return the total number of shortcut edges summed over parts."""
        return sum(len(ids) for ids in self._ids)

    # ------------------------------------------------------------------
    # quality measures
    # ------------------------------------------------------------------
    def _edge_load_array(self) -> np.ndarray:
        """Per-edge load as a flat ``int64`` array indexed by edge id."""
        _, grouped, _ = self._edge_owners()
        load = np.bincount(grouped, minlength=self._csr.num_edges)
        for i in range(self.num_parts):
            # One H_i holds each id once, so a fancy-index increment counts
            # every id (and never materializes all parts' ids at once).
            load[self._outside_edge_ids(i)] += 1
        return load

    def congestion(self) -> int:
        """Return the congestion: max #augmented subgraphs sharing one edge."""
        load = self._edge_load_array()
        return int(load.max()) if len(load) else 0

    def edge_loads(self) -> dict[tuple[int, int], int]:
        """Return the full per-edge load map (edges with zero load omitted)."""
        load = self._edge_load_array()
        loaded = np.flatnonzero(load)
        edge_list = self._csr.edge_list
        return {edge_list[e]: c for e, c in zip(loaded.tolist(), load[loaded].tolist())}

    def part_dilation(self, index: int, *, exact: bool = True) -> float:
        """Return the dilation of one part.

        Args:
            exact: if ``True``, BFS from every part vertex (exact maximum
                pairwise distance); otherwise the double sweep of the module
                docstring, which gives a value in ``[true/2, true]`` from two
                BFSes.
        """
        part = self.partition.part(index)
        if len(part) <= 1:
            return 0.0
        part_ids = np.sort(np.fromiter(part, dtype=np.int64, count=len(part)))
        vertices, starts, targets = self._csr.adjacency_arrays().edge_subgraph(
            self.augmented_edge_id_array(index), part_ids
        )
        part_locals = np.searchsorted(vertices, part_ids)
        if exact:
            sources_local = part_locals
        else:
            leader = np.searchsorted(vertices, [self.partition.leader(index)])
            first = bfs_distance_rows(starts, targets, leader)[0, part_locals]
            if (first == UNREACHED).any():
                return INFINITY
            # argmax returns the first maximum: the smallest farthest id.
            sources_local = part_locals[np.argmax(first)][None]
        chunk = max(1, _BFS_CELLS // len(vertices))
        worst = 0
        for lo in range(0, len(sources_local), chunk):
            dist = bfs_distance_rows(starts, targets, sources_local[lo:lo + chunk])
            dist = dist[:, part_locals]
            if (dist == UNREACHED).any():
                return INFINITY
            worst = max(worst, int(dist.max()))
        return float(worst)

    def dilation(self, *, exact: bool = True) -> float:
        """Return the dilation over all parts (see the module docstring)."""
        worst = 0.0
        for i in range(self.num_parts):
            d = self.part_dilation(i, exact=exact)
            if d == INFINITY:
                return INFINITY
            if d > worst:
                worst = d
        return worst

    def quality_report(self, *, exact_dilation: bool = True) -> QualityReport:
        """Return a :class:`QualityReport` with congestion, dilation and sizes."""
        return QualityReport(
            congestion=self.congestion(),
            dilation=self.dilation(exact=exact_dilation),
            num_parts=self.num_parts,
            num_shortcut_edges=self.total_shortcut_edges(),
            max_part_shortcut_edges=max((len(ids) for ids in self._ids), default=0),
        )

    def __repr__(self) -> str:
        return (
            f"Shortcut(num_parts={self.num_parts}, "
            f"total_shortcut_edges={self.total_shortcut_edges()})"
        )


def surviving_shortcut(
    shortcut: Shortcut, victims: Iterable[int], drop_rate: float, rng: random.Random
) -> Shortcut:
    """Project a fault pattern onto ``shortcut`` and return what survives.

    Every ``H_i`` edge with an endpoint in ``victims`` dies; every other
    edge survives an independent Bernoulli drop of probability
    ``drop_rate``.  ``rng`` draws one ``random()`` per non-victim edge, part
    by part in ascending edge-id order (nothing when ``drop_rate`` is 0), so
    the outcome depends on the edge ids alone.
    """
    arrays = shortcut.graph.csr().adjacency_arrays()
    is_victim = np.zeros(shortcut.graph.num_vertices, dtype=bool)
    is_victim[np.fromiter(victims, dtype=np.int64)] = True
    kept = []
    for i in range(shortcut.num_parts):
        ids = shortcut.subgraph_edge_id_array(i)
        ids = ids[~(is_victim[arrays.edge_u[ids]] | is_victim[arrays.edge_v[ids]])]
        if drop_rate:
            draws = np.fromiter((rng.random() for _ in range(len(ids))), dtype=float,
                                count=len(ids))
            ids = ids[draws >= drop_rate]
        kept.append(ids)
    return Shortcut.from_edge_ids(shortcut.partition, kept)
