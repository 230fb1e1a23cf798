"""Partitions: the part collections ``S = {S_1, ..., S_l}`` of Definition 1.1.

A :class:`Partition` wraps a graph together with a collection of
vertex-disjoint connected vertex subsets.  It provides the bookkeeping every
shortcut construction needs: membership lookup, part leaders (the maximum id
inside each part, following the distributed input convention of [GH16] used
by the paper), the large/small classification with respect to the ``k_D``
threshold, and induced-subgraph diameters.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from ..graphs.partitions import validate_parts
from ..graphs.traversal import diameter
from ..params import large_part_threshold


class Partition:
    """A collection of vertex-disjoint connected subsets of a graph's vertices.

    Args:
        graph: the host graph.
        parts: the vertex subsets; each must be non-empty, connected in
            ``graph`` and disjoint from the others.  The parts need not cover
            all vertices.
        validate: set to ``False`` to skip the (linear-time) validation when
            the caller already guarantees the invariants (e.g. parts produced
            by our own generators inside tight loops).
    """

    def __init__(self, graph: Graph, parts: Sequence[Iterable[int]], *, validate: bool = True) -> None:
        self.graph = graph
        self._parts: list[frozenset[int]] = [frozenset(p) for p in parts]
        if validate:
            validate_parts(graph, [set(p) for p in self._parts])
        self._owner: dict[int, int] = {}
        for idx, part in enumerate(self._parts):
            for v in part:
                self._owner[v] = idx
        # Leaders are immutable (the parts are frozen), so compute them once:
        # hot driver loops ask for them per part per round, and re-scanning
        # max(part) each call is O(|part|) for a constant-time question.
        self._leaders: list[int] = [max(part) for part in self._parts]

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Number of parts in the collection."""
        return len(self._parts)

    @property
    def parts(self) -> list[frozenset[int]]:
        """The parts, in input order."""
        return list(self._parts)

    def part(self, index: int) -> frozenset[int]:
        """Return part ``index``."""
        return self._parts[index]

    def part_of(self, vertex: int) -> Optional[int]:
        """Return the index of the part containing ``vertex``, or ``None``."""
        return self._owner.get(vertex)

    def covered_vertices(self) -> set[int]:
        """Return the union of all parts."""
        return set(self._owner)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __repr__(self) -> str:
        sizes = sorted((len(p) for p in self._parts), reverse=True)[:5]
        return f"Partition(num_parts={len(self._parts)}, largest={sizes})"

    # ------------------------------------------------------------------
    def leader(self, index: int) -> int:
        """Return the leader (maximum vertex id) of part ``index``.

        The paper (following [GH16]) identifies each part by the id of its
        maximum-id node; the distributed construction assumes every member
        knows this id.  Leaders are precomputed in ``__init__``, so this is
        a list lookup.
        """
        return self._leaders[index]

    def leaders(self) -> list[int]:
        """Return the leader of every part, in part order (cached)."""
        return list(self._leaders)

    def vertex_labels(self) -> np.ndarray:
        """Return the part index of every vertex (``-1`` outside every part),
        as a fresh ``int64`` array of length ``graph.num_vertices``."""
        labels = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        for idx, part in enumerate(self._parts):
            labels[np.fromiter(part, dtype=np.int64, count=len(part))] = idx
        return labels

    def part_edges(self, index: int) -> list[tuple[int, int]]:
        """Return the edges of the induced subgraph ``G[S_index]`` (canonical form)."""
        part = self._parts[index]
        edges = []
        for u in part:
            for v in self.graph.neighbors(u):
                if u < v and v in part:
                    edges.append((u, v))
        return edges

    def induced_diameter(self, index: int) -> float:
        """Return the diameter of the induced subgraph ``G[S_index]``."""
        part = set(self._parts[index])
        return diameter(self.graph, vertices=part, allowed=part)

    # ------------------------------------------------------------------
    def large_part_indices(self, n: Optional[int] = None, diameter_value: Optional[int] = None,
                           *, threshold: Optional[float] = None) -> list[int]:
        """Return the indices of *large* parts.

        A part is large when ``|S_i| > k_D``; only large parts need shortcut
        edges (a small part's induced diameter is already at most ``k_D``).

        Args:
            n: number of graph vertices (default: the host graph's).
            diameter_value: the diameter ``D`` used to compute ``k_D``.
            threshold: give the size threshold directly instead of via
                ``(n, diameter_value)``.
        """
        if threshold is None:
            if diameter_value is None:
                raise ValueError("provide either threshold or diameter_value")
            if n is None:
                n = self.graph.num_vertices
            threshold = large_part_threshold(n, diameter_value)
        return [i for i, part in enumerate(self._parts) if len(part) > threshold]

    def small_part_indices(self, n: Optional[int] = None, diameter_value: Optional[int] = None,
                           *, threshold: Optional[float] = None) -> list[int]:
        """Return the indices of parts that are not large (complement of
        :meth:`large_part_indices`)."""
        large = set(self.large_part_indices(n, diameter_value, threshold=threshold))
        return [i for i in range(len(self._parts)) if i not in large]
