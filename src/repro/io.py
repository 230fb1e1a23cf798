"""Serialization of graphs, partitions and shortcuts.

Experiments that take minutes to build (large sampled shortcuts, generated
lower-bound instances) are worth persisting; this module provides a small,
dependency-free JSON round-trip for the three core object kinds:

* :class:`~repro.graphs.graph.Graph` / :class:`~repro.graphs.graph.WeightedGraph`,
* :class:`~repro.shortcuts.partition.Partition`,
* :class:`~repro.shortcuts.shortcut.Shortcut`.

The on-disk format is deliberately plain (lists of edges / parts keyed by
name) so the files remain readable and diffable, and the loaders validate
the structural invariants on the way in — a file edited by hand that breaks
disjointness or references a non-edge is rejected with a clear error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from .graphs.graph import Graph, WeightedGraph
from .shortcuts.partition import Partition
from .shortcuts.shortcut import Shortcut

PathLike = Union[str, Path]

#: Format identifier written into every file, checked on load.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Return a JSON-serialisable representation of ``graph``.

    Weighted graphs store ``[u, v, w]`` triples, unweighted graphs ``[u, v]``
    pairs; the ``kind`` field records which.
    """
    if isinstance(graph, WeightedGraph):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "weighted_graph",
            "num_vertices": graph.num_vertices,
            "edges": [[u, v, w] for u, v, w in graph.weighted_edges()],
        }
    return {
        "format_version": FORMAT_VERSION,
        "kind": "graph",
        "num_vertices": graph.num_vertices,
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output.

    Raises:
        ValueError: on unknown kinds, bad version or malformed edges.
    """
    _check_version(data)
    kind = data.get("kind")
    n = data.get("num_vertices")
    if not isinstance(n, int) or n < 0:
        raise ValueError("num_vertices must be a non-negative integer")
    edges = data.get("edges", [])
    if kind == "graph":
        graph = Graph(n)
        for entry in edges:
            if len(entry) != 2:
                raise ValueError(f"unweighted edge entry {entry!r} must have 2 fields")
            graph.add_edge(int(entry[0]), int(entry[1]))
        return graph
    if kind == "weighted_graph":
        wgraph = WeightedGraph(n)
        for entry in edges:
            if len(entry) != 3:
                raise ValueError(f"weighted edge entry {entry!r} must have 3 fields")
            wgraph.add_weighted_edge(int(entry[0]), int(entry[1]), float(entry[2]))
        return wgraph
    raise ValueError(f"unknown graph kind {kind!r}")


# ----------------------------------------------------------------------
# partitions and shortcuts
# ----------------------------------------------------------------------
def partition_to_dict(partition: Partition) -> dict[str, Any]:
    """Return a JSON-serialisable representation of ``partition`` (graph included)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "partition",
        "graph": graph_to_dict(partition.graph),
        "parts": [sorted(part) for part in partition.parts],
    }


def partition_from_dict(data: dict[str, Any]) -> Partition:
    """Reconstruct (and re-validate) a partition from :func:`partition_to_dict` output."""
    _check_version(data)
    if data.get("kind") != "partition":
        raise ValueError(f"expected a partition document, got kind {data.get('kind')!r}")
    graph = graph_from_dict(data["graph"])
    parts = [set(map(int, part)) for part in data.get("parts", [])]
    return Partition(graph, parts, validate=True)


def shortcut_to_dict(shortcut: Shortcut) -> dict[str, Any]:
    """Return a JSON-serialisable representation of ``shortcut`` (partition included)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "shortcut",
        "partition": partition_to_dict(shortcut.partition),
        "subgraphs": [
            sorted([list(edge) for edge in shortcut.subgraph_edges(i)])
            for i in range(shortcut.num_parts)
        ],
    }


def shortcut_from_dict(data: dict[str, Any]) -> Shortcut:
    """Reconstruct (and re-validate) a shortcut from :func:`shortcut_to_dict` output."""
    _check_version(data)
    if data.get("kind") != "shortcut":
        raise ValueError(f"expected a shortcut document, got kind {data.get('kind')!r}")
    partition = partition_from_dict(data["partition"])
    subgraphs = [
        [(int(u), int(v)) for u, v in part_edges]
        for part_edges in data.get("subgraphs", [])
    ]
    return Shortcut(partition, subgraphs)


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_json(obj: Union[Graph, Partition, Shortcut], path: PathLike) -> None:
    """Serialise a graph, partition or shortcut to a JSON file."""
    if isinstance(obj, Shortcut):
        data = shortcut_to_dict(obj)
    elif isinstance(obj, Partition):
        data = partition_to_dict(obj)
    elif isinstance(obj, Graph):
        data = graph_to_dict(obj)
    else:
        raise TypeError(f"cannot serialise objects of type {type(obj).__name__}")
    Path(path).write_text(json.dumps(data, indent=1))


def load_json(path: PathLike) -> Union[Graph, Partition, Shortcut]:
    """Load a graph, partition or shortcut from a JSON file (dispatch on ``kind``)."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind in ("graph", "weighted_graph"):
        return graph_from_dict(data)
    if kind == "partition":
        return partition_from_dict(data)
    if kind == "shortcut":
        return shortcut_from_dict(data)
    raise ValueError(f"unknown document kind {kind!r}")


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write a plain whitespace-separated edge list (``u v [w]`` per line)."""
    lines = [f"# vertices {graph.num_vertices}"]
    if isinstance(graph, WeightedGraph):
        lines += [f"{u} {v} {w}" for u, v, w in graph.weighted_edges()]
    else:
        lines += [f"{u} {v}" for u, v in graph.edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Lines with three fields produce a :class:`WeightedGraph`; the vertex
    count comes from the header comment or, if absent, from the largest
    vertex id seen.

    Raises:
        ValueError: for malformed rows — wrong field count, non-numeric
            fields or mixed weighted/unweighted rows — naming the offending
            line.  (Arity is validated while reading, *before* the
            vertex-count inference touches any row: the seed version indexed
            ``row[1]`` during inference and leaked an ``IndexError`` for
            one-field rows.)
    """
    num_vertices = None
    rows: list[list[str]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "vertices":
                num_vertices = int(fields[1])
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ValueError(
                f"bad edge row on line {lineno}: {line!r} "
                f"(expected 'u v' or 'u v w', got {len(fields)} fields)"
            )
        try:
            int(fields[0])
            int(fields[1])
            if len(fields) == 3:
                float(fields[2])
        except ValueError:
            raise ValueError(
                f"non-numeric edge row on line {lineno}: {line!r}"
            ) from None
        rows.append(fields)
    if num_vertices is None:
        num_vertices = max((max(int(r[0]), int(r[1])) for r in rows), default=-1) + 1
    weighted = any(len(r) == 3 for r in rows)
    if weighted:
        wgraph = WeightedGraph(num_vertices)
        for r in rows:
            if len(r) != 3:
                raise ValueError(f"mixed weighted/unweighted rows near {' '.join(r)!r}")
            wgraph.add_weighted_edge(int(r[0]), int(r[1]), float(r[2]))
        return wgraph
    graph = Graph(num_vertices)
    for r in rows:
        graph.add_edge(int(r[0]), int(r[1]))
    return graph


def _check_version(data: dict[str, Any]) -> None:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {version!r} (this library writes {FORMAT_VERSION})"
        )
