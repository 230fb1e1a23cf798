"""Baseline shortcut constructions the paper compares against.

Three baselines are implemented:

``build_ghaffari_haeupler_shortcut``
    The general-graph construction implicit in [GH16]: parts of at least
    ``sqrt(n)`` vertices receive the *whole graph* as their shortcut; small
    parts receive nothing.  There are at most ``sqrt(n)`` large parts (they
    are disjoint) so the congestion is ``O(sqrt(n))``, and every part's
    augmented diameter is at most ``max(sqrt(n), D)``; the quality is the
    classic ``O(sqrt(n) + D)`` bound that the paper improves upon for
    constant-diameter graphs.

``build_kitamura_style_shortcut``
    The sampling construction of Kitamura et al. [KKOI19] for diameters 3
    and 4, which the paper describes as the single-repetition special case
    of its own scheme.  Implemented as the Kogan-Parter sampler with one
    repetition; matches the ``~O(n^{1/4})`` / ``~O(n^{1/3})`` qualities for
    ``D = 3, 4``.

``build_naive_shortcut`` / ``build_empty_shortcut``
    The two trivial extremes: give every part the whole graph (dilation
    ``D``, congestion = number of parts) or give every part nothing
    (congestion at most 1, dilation = the largest induced part diameter).
    They bracket the trade-off the non-trivial constructions negotiate and
    serve as sanity anchors in the experiment tables.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from .kogan_parter import KoganParterResult, build_kogan_parter_shortcut
from .partition import Partition
from .shortcut import Shortcut

from ..rng import RandomLike


def build_ghaffari_haeupler_shortcut(
    graph: Graph,
    partition: Partition,
    *,
    size_threshold: Optional[float] = None,
) -> Shortcut:
    """Build the ``O(sqrt(n) + D)``-quality general-graph shortcut of [GH16].

    Args:
        graph: the host graph.
        partition: the parts.
        size_threshold: parts strictly larger than this receive the whole
            graph (default ``sqrt(n)``).
    """
    n = graph.num_vertices
    if size_threshold is None:
        size_threshold = math.sqrt(n)
    every_edge = np.arange(graph.num_edges, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    return Shortcut.from_edge_ids(partition, [
        every_edge if len(partition.part(i)) > size_threshold else none
        for i in range(partition.num_parts)
    ])


def build_kitamura_style_shortcut(
    graph: Graph,
    partition: Partition,
    *,
    diameter_value: Optional[int] = None,
    log_factor: float = 1.0,
    rng: RandomLike = None,
) -> KoganParterResult:
    """Build the single-repetition sampling shortcut in the style of [KKOI19].

    Kitamura et al. obtained nearly optimal shortcuts for diameters 3 and 4
    with a one-shot edge sampling; the paper notes its own construction
    reduces to a similar procedure for ``D = 3``.  For larger diameters the
    single repetition lacks the recursive structure that the ``D``
    repetitions provide, which is visible in the dilation experiments (E4).

    Args and return value match :func:`~repro.shortcuts.kogan_parter.build_kogan_parter_shortcut`
    with ``repetitions=1``.
    """
    return build_kogan_parter_shortcut(
        graph,
        partition,
        diameter_value=diameter_value,
        repetitions=1,
        log_factor=log_factor,
        rng=rng,
    )


def build_naive_shortcut(graph: Graph, partition: Partition) -> Shortcut:
    """Give every part the entire graph: dilation ``D``, congestion = #parts."""
    every_edge = np.arange(graph.num_edges, dtype=np.int64)
    return Shortcut.from_edge_ids(partition, [every_edge] * partition.num_parts)


def build_empty_shortcut(graph: Graph, partition: Partition) -> Shortcut:
    """Give every part no shortcut edges: congestion <= 1, dilation = max induced diameter."""
    return Shortcut.from_edge_ids(partition, [])
