"""Generators for part collections (the ``S_1, ..., S_l`` of Definition 1.1).

The shortcut problem takes, besides the graph, a collection of
vertex-disjoint *connected* subsets.  Where these parts come from in
practice:

* in the MST application they are the Boruvka fragments of the current
  phase (arbitrary connected subsets, potentially long and thin);
* in the lower-bound instances they are the disjoint paths;
* stress tests want adversarial partitions (many long paths) and benign
  ones (compact balls).

This module provides generators for all of these.  Every generator returns
a plain ``list[set[int]]``; the richer :class:`repro.shortcuts.Partition`
wrapper validates and freezes the result.
"""

from __future__ import annotations

from collections import deque

from .components import connected_components
from .graph import Graph
from .traversal import bfs_distances

from ..rng import RandomLike, ensure_rng as _rng


def random_connected_partition(
    graph: Graph,
    num_parts: int,
    *,
    rng: RandomLike = None,
    cover_all: bool = False,
) -> list[set[int]]:
    """Partition (part of) the graph into connected regions by BFS region growing.

    ``num_parts`` seed vertices are chosen at random and grown in round-robin
    BFS order; every vertex joins the region that reaches it first.  The
    resulting regions are connected and vertex-disjoint by construction.

    Args:
        graph: a connected graph.
        num_parts: number of regions to grow.
        rng: seed or Random.
        cover_all: if ``True`` every vertex of the graph is assigned to some
            region; otherwise regions stop growing once they are "balanced"
            (each region has roughly ``n / num_parts`` vertices) and leftover
            vertices remain unassigned — this produces parts that do not
            cover V, which Definition 1.1 allows.

    Returns:
        A list of ``num_parts`` (or fewer, if the graph is small) disjoint
        connected vertex sets.
    """
    n = graph.num_vertices
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    num_parts = min(num_parts, n)
    r = _rng(rng)
    seeds = r.sample(range(n), num_parts)
    owner: dict[int, int] = {s: i for i, s in enumerate(seeds)}
    queues: list[deque[int]] = [deque([s]) for s in seeds]
    sizes = [1] * num_parts
    target = n // num_parts if not cover_all else n
    active = True
    while active:
        active = False
        for i in range(num_parts):
            if not queues[i]:
                continue
            if not cover_all and sizes[i] >= max(target, 1):
                continue
            u = queues[i].popleft()
            active = True
            for v in graph.neighbors(u):
                if v not in owner:
                    owner[v] = i
                    sizes[i] += 1
                    queues[i].append(v)
    parts: list[set[int]] = [set() for _ in range(num_parts)]
    for v, i in owner.items():
        parts[i].add(v)
    return [p for p in parts if p]


def path_partition(
    graph: Graph,
    num_paths: int,
    path_length: int,
    *,
    rng: RandomLike = None,
) -> list[set[int]]:
    """Carve ``num_paths`` vertex-disjoint paths of ``path_length`` vertices.

    Paths are grown greedily by random walks that avoid already-used
    vertices.  Long thin parts are the adversarial case for dilation (their
    induced diameter equals their size), so this partition is used by the
    dilation stress experiments.  Paths that cannot reach the requested
    length are still returned (shorter), as long as they have at least two
    vertices.

    Returns:
        A list of disjoint connected vertex sets, each a path in ``graph``.
    """
    if num_paths < 1 or path_length < 2:
        raise ValueError("need num_paths >= 1 and path_length >= 2")
    r = _rng(rng)
    used: set[int] = set()
    parts: list[set[int]] = []
    candidates = list(graph.vertices())
    r.shuffle(candidates)
    for start in candidates:
        if len(parts) >= num_paths:
            break
        if start in used:
            continue
        path = [start]
        used_here = {start}
        current = start
        while len(path) < path_length:
            options = [v for v in graph.neighbors(current) if v not in used and v not in used_here]
            if not options:
                break
            current = r.choice(options)
            path.append(current)
            used_here.add(current)
        if len(path) >= 2:
            parts.append(set(path))
            used.update(path)
    return parts


def parts_from_paths(paths: list[list[int]]) -> list[set[int]]:
    """Convert explicit vertex-path lists into part sets (used by lower-bound instances)."""
    parts = [set(p) for p in paths if p]
    _check_disjoint(parts)
    return parts


def singleton_free(parts: list[set[int]]) -> list[set[int]]:
    """Return ``parts`` with singleton sets removed.

    Singleton parts are trivially satisfied by any shortcut (diameter 0) and
    only add noise to quality statistics.
    """
    return [p for p in parts if len(p) > 1]


def grid_strip_partition(rows: int, cols: int, strip_height: int = 1) -> list[set[int]]:
    """Partition a ``rows x cols`` grid (from :func:`grid_graph`) into horizontal strips.

    Each strip of ``strip_height`` consecutive rows forms one part; this is
    the classic planar example where parts are long and thin.
    """
    if strip_height < 1:
        raise ValueError("strip_height must be positive")
    parts = []
    for r0 in range(0, rows, strip_height):
        part = set()
        for r in range(r0, min(r0 + strip_height, rows)):
            for c in range(cols):
                part.add(r * cols + c)
        parts.append(part)
    return parts


def validate_parts(graph: Graph, parts: list[set[int]]) -> None:
    """Validate that ``parts`` are vertex-disjoint connected subsets of ``graph``.

    Raises:
        ValueError: describing the first violation found.
    """
    _check_disjoint(parts)
    for i, part in enumerate(parts):
        if not part:
            raise ValueError(f"part {i} is empty")
        for v in part:
            if not graph.has_vertex(v):
                raise ValueError(f"part {i} contains invalid vertex {v}")
        source = next(iter(part))
        reached = bfs_distances(graph, source, allowed=set(part))
        if len(reached) != len(part):
            raise ValueError(f"part {i} is not connected in the graph")


def _check_disjoint(parts: list[set[int]]) -> None:
    seen: set[int] = set()
    for i, part in enumerate(parts):
        overlap = seen & part
        if overlap:
            raise ValueError(f"part {i} overlaps earlier parts on vertices {sorted(overlap)[:5]}")
        seen |= part


def fragment_partition(graph: Graph, edges: list[tuple[int, int]]) -> list[set[int]]:
    """Return the connected components induced by a set of selected edges.

    This is how the MST application derives its part collection in each
    Boruvka phase: the current fragments are the components of the selected
    MST edges.  Isolated vertices become singleton parts.
    """
    from .components import components_from_edges

    return components_from_edges(graph.num_vertices, edges, include_isolated=True)


def non_covering_subsets(
    graph: Graph,
    num_parts: int,
    part_size: int,
    *,
    rng: RandomLike = None,
) -> list[set[int]]:
    """Return ``num_parts`` disjoint connected subsets of exactly ``part_size`` vertices.

    Unlike :func:`random_connected_partition` the parts never cover the whole
    vertex set; leftover vertices stay unassigned.  Useful for tests where a
    precise part size matters.
    """
    if part_size < 1:
        raise ValueError("part_size must be positive")
    r = _rng(rng)
    used: set[int] = set()
    parts: list[set[int]] = []
    order = list(graph.vertices())
    r.shuffle(order)
    for seed in order:
        if len(parts) >= num_parts:
            break
        if seed in used:
            continue
        region = {seed}
        frontier = deque([seed])
        while frontier and len(region) < part_size:
            u = frontier.popleft()
            for v in graph.neighbors(u):
                if v not in used and v not in region:
                    region.add(v)
                    frontier.append(v)
                    if len(region) >= part_size:
                        break
        if len(region) == part_size:
            parts.append(region)
            used |= region
    return parts
