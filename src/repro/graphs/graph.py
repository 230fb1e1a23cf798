"""Core graph data structures.

The library works on simple undirected graphs whose vertices are integers
``0 .. n-1``.  Two concrete classes are provided:

``Graph``
    An unweighted simple undirected graph backed by adjacency sets.  This is
    the type all shortcut constructions operate on.

``WeightedGraph``
    A :class:`Graph` whose edges additionally carry a positive weight.  It is
    used by the application layer (MST, min-cut, 2-ECSS).

Both classes are deliberately small and explicit: the CONGEST simulator and
the shortcut constructions only need neighbourhood iteration, edge
membership tests and induced subgraphs, and keeping the representation
simple keeps the measured quantities (congestion, dilation, rounds) easy to
audit.

Edges are canonically represented as ordered tuples ``(u, v)`` with
``u < v`` (see :func:`edge_key`), which is the form used throughout the
shortcut congestion accounting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .csr import CSRGraph


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    The canonical form orders the endpoints so that the smaller vertex id
    comes first.  All per-edge bookkeeping in the library (congestion counts,
    shortcut membership, weights) is keyed on this form.

    Raises:
        ValueError: if ``u == v`` (self loops are not allowed).
    """
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph on vertices ``0 .. n-1``.

    The graph is mutable through :meth:`add_edge` / :meth:`remove_edge`, but
    the vertex set is fixed at construction time.  Neighbour sets are kept as
    Python ``set`` objects so membership tests and degree queries are O(1).

    Args:
        num_vertices: number of vertices; vertex ids are ``0 .. n-1``.
        edges: optional iterable of ``(u, v)`` pairs to add initially.
    """

    def __init__(self, num_vertices: int, edges: Optional[Iterable[tuple[int, int]]] = None) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = num_vertices
        self._adj: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        self._csr_cache: Optional["CSRGraph"] = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges in the graph."""
        return self._num_edges

    def vertices(self) -> range:
        """Return the vertex set as a ``range`` object."""
        return range(self._n)

    def has_vertex(self, v: int) -> bool:
        """Return ``True`` if ``v`` is a valid vertex id."""
        return 0 <= v < self._n

    def neighbors(self, v: int) -> set[int]:
        """Return the set of neighbours of ``v``.

        The returned set is the internal adjacency set; callers must not
        mutate it.  (Returning it directly avoids copying in the hot loops of
        the BFS and sampling code.)
        """
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Return the degree of vertex ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``{u, v}`` is present."""
        if not (self.has_vertex(u) and self.has_vertex(v)) or u == v:
            return False
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges in canonical ``(u, v)`` form with ``u < v``."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> list[tuple[int, int]]:
        """Return all edges as a sorted list of canonical tuples."""
        return sorted(self.edges())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``{u, v}``.

        Returns:
            ``True`` if the edge was newly added, ``False`` if it already
            existed.

        Raises:
            ValueError: if either endpoint is out of range or ``u == v``.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._csr_cache = None
        return True

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Add many edges at once; returns how many were newly added.

        Semantically a loop of :meth:`add_edge` (same validation, duplicate
        edges skipped), but with the per-edge overhead hoisted — the graph
        generators use this to build large instances cheaply.  The whole
        batch is validated before any edge is inserted, so a raised
        ``ValueError`` leaves the graph unchanged (a mid-batch failure must
        not leave the adjacency sets, edge count and CSR cache disagreeing).
        """
        n = self._n
        batch = edges if isinstance(edges, (list, tuple)) else list(edges)
        for u, v in batch:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex of edge ({u}, {v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        adj = self._adj
        added = 0
        for u, v in batch:
            row = adj[u]
            if v not in row:
                row.add(v)
                adj[v].add(u)
                added += 1
        self._num_edges += added
        if added:
            self._csr_cache = None
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``{u, v}`` if present.

        Returns:
            ``True`` if the edge was removed, ``False`` if it was absent.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v or v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._csr_cache = None
        return True

    # ------------------------------------------------------------------
    # CSR snapshot
    # ------------------------------------------------------------------
    def csr(self) -> "CSRGraph":
        """Return the cached CSR snapshot of this graph.

        The snapshot is built on first use and invalidated whenever an edge
        is added or removed, so hot paths (traversal, congestion counters,
        the CONGEST engine) can rely on its dense edge ids while the mutable
        ``Graph`` API stays the construction-time front door.
        """
        if self._csr_cache is None:
            from .csr import CSRGraph

            self._csr_cache = CSRGraph.from_graph(self)
        return self._csr_cache

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        g = Graph(self._n)
        g._adj = [set(s) for s in self._adj]
        g._num_edges = self._num_edges
        return g

    def induced_subgraph(self, vertices: Iterable[int]) -> "Subgraph":
        """Return the subgraph induced by ``vertices``.

        The result is a :class:`Subgraph` view sharing the same vertex id
        space as this graph (absent vertices simply have no incident edges),
        which keeps the shortcut code free of vertex re-labelling.
        """
        vset = set(vertices)
        for v in vset:
            self._check_vertex(v)
        edges = [
            (u, v)
            for u in vset
            for v in self._adj[u]
            if u < v and v in vset
        ]
        return Subgraph(self._n, vset, edges)

    def edge_subgraph(self, edges: Iterable[tuple[int, int]]) -> "Subgraph":
        """Return the subgraph consisting of ``edges`` and their endpoints."""
        keys = {edge_key(u, v) for u, v in edges}
        verts: set[int] = set()
        for u, v in keys:
            if not self.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) is not in the graph")
            verts.add(u)
            verts.add(v)
        return Subgraph(self._n, verts, sorted(keys))

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, m={self._num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range [0, {self._n})")


class Subgraph(Graph):
    """A subgraph of a parent :class:`Graph`, sharing its vertex id space.

    Only the vertices in :attr:`vertex_set` are considered *present*; other
    ids exist in the id space but have no incident edges and are reported as
    absent by :meth:`has_vertex_present`.  This representation lets shortcut
    subgraphs, augmented subgraphs and induced part subgraphs all be combined
    with plain set/edge operations without re-labelling.
    """

    def __init__(self, num_vertices: int, vertex_set: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        super().__init__(num_vertices)
        self._present: set[int] = set(vertex_set)
        for v in self._present:
            self._check_vertex(v)
        for u, v in edges:
            self._present.add(u)
            self._present.add(v)
            self.add_edge(u, v)

    @property
    def vertex_set(self) -> set[int]:
        """The set of vertices present in this subgraph."""
        return self._present

    def has_vertex_present(self, v: int) -> bool:
        """Return ``True`` if ``v`` is part of this subgraph (not just the id space)."""
        return v in self._present

    def __repr__(self) -> str:
        return f"Subgraph(|V|={len(self._present)}, m={self.num_edges}, id_space={self.num_vertices})"


def union_subgraph(num_vertices: int, *edge_sets: Iterable[tuple[int, int]]) -> Subgraph:
    """Return the subgraph formed by the union of several edge sets.

    This is the operation that builds the augmented subgraph
    ``G[S_i] ∪ H_i`` from the induced part edges and the shortcut edges.

    Args:
        num_vertices: size of the shared vertex id space.
        edge_sets: any number of iterables of ``(u, v)`` pairs.
    """
    keys: set[tuple[int, int]] = set()
    for es in edge_sets:
        for u, v in es:
            keys.add(edge_key(u, v))
    verts: set[int] = set()
    for u, v in keys:
        verts.add(u)
        verts.add(v)
    return Subgraph(num_vertices, verts, sorted(keys))


class WeightedGraph(Graph):
    """An undirected graph with positive edge weights.

    Weights are stored in a dictionary keyed by canonical edge tuples.  The
    unweighted structure is inherited from :class:`Graph`, so every weighted
    graph can be passed anywhere an unweighted graph is expected (the
    shortcut constructions ignore weights).
    """

    def __init__(
        self,
        num_vertices: int,
        weighted_edges: Optional[Iterable[tuple[int, int, float]]] = None,
    ) -> None:
        super().__init__(num_vertices)
        self._weights: dict[tuple[int, int], float] = {}
        if weighted_edges is not None:
            for u, v, w in weighted_edges:
                self.add_weighted_edge(u, v, w)

    def add_weighted_edge(self, u: int, v: int, weight: float) -> bool:
        """Add edge ``{u, v}`` with the given positive weight.

        If the edge already exists its weight is overwritten.

        Returns:
            ``True`` if the edge was newly added.
        """
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        added = self.add_edge(u, v)
        self._weights[edge_key(u, v)] = float(weight)
        return added

    def add_edge(self, u: int, v: int) -> bool:  # noqa: D102 - inherited doc
        added = super().add_edge(u, v)
        if added:
            self._weights.setdefault(edge_key(u, v), 1.0)
        return added

    def remove_edge(self, u: int, v: int) -> bool:  # noqa: D102 - inherited doc
        removed = super().remove_edge(u, v)
        if removed:
            self._weights.pop(edge_key(u, v), None)
        return removed

    def weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``{u, v}``.

        Raises:
            KeyError: if the edge is absent.
        """
        return self._weights[edge_key(u, v)]

    def weight_array(self) -> list[float]:
        """Return edge weights aligned with the CSR snapshot's edge ids.

        ``weight_array()[e]`` is the weight of ``csr().edge_list[e]``, which
        is what the edge-major application loops (Boruvka MWOE scans, tree
        packing) index by.
        """
        return [self._weights[e] for e in self.csr().edge_list]

    def weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples in canonical edge order."""
        for u, v in self.edges():
            yield (u, v, self._weights[(u, v)])

    def total_weight(self, edges: Optional[Iterable[tuple[int, int]]] = None) -> float:
        """Return the total weight of ``edges`` (default: all edges)."""
        if edges is None:
            return sum(self._weights.values())
        return sum(self._weights[edge_key(u, v)] for u, v in edges)

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph(self.num_vertices)
        for u, v, w in self.weighted_edges():
            g.add_weighted_edge(u, v, w)
        return g

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"
