"""Shared fixtures and hypothesis profiles for the test-suite.

Hypothesis profiles (select with ``HYPOTHESIS_PROFILE=<name>``):

* ``ci`` — the fixed profile the CI test job runs: derandomized (the same
  example sequence on every run, so a red build is always reproducible)
  and without deadlines (shared runners have noisy timings).
* ``dev`` — fewer examples for quick local iteration.
* default — hypothesis's stock behaviour (randomized exploration), used
  when no profile is requested; this is where new counterexamples are
  found.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.graphs import (
    Graph,
    WeightedGraph,
    cluster_star_graph,
    hub_diameter_graph,
    lower_bound_instance,
    path_graph,
    with_random_weights,
)
from repro.shortcuts import Partition

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=10, deadline=None)
_profile = os.environ.get("HYPOTHESIS_PROFILE", "default")
if _profile != "default":
    settings.load_profile(_profile)


@pytest.fixture
def small_path() -> Graph:
    """A 6-vertex path graph."""
    return path_graph(6)


@pytest.fixture
def hub_graph() -> Graph:
    """A 120-vertex hub graph of diameter 6 (deterministic)."""
    return hub_diameter_graph(120, 6, rng=42)


@pytest.fixture
def lb_instance():
    """A small Elkin-style lower-bound instance (diameter 6)."""
    return lower_bound_instance(150, 6)


@pytest.fixture
def lb_partition(lb_instance) -> Partition:
    """The canonical path partition of the lower-bound instance."""
    return Partition(lb_instance.graph, lb_instance.parts)


@pytest.fixture
def cluster_graph() -> Graph:
    """A cluster-star graph: 8 cliques of 6 vertices around a hub."""
    return cluster_star_graph(8, 6, rng=1)


@pytest.fixture
def cluster_partition(cluster_graph) -> Partition:
    """The clusters of the cluster-star graph as parts."""
    parts = []
    for c in range(8):
        base = 1 + c * 6
        parts.append(set(range(base, base + 6)))
    return Partition(cluster_graph, parts)


@pytest.fixture
def weighted_hub(hub_graph) -> WeightedGraph:
    """The hub graph with deterministic random weights."""
    return with_random_weights(hub_graph, rng=7)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic Random instance."""
    return random.Random(12345)


@pytest.fixture
def shortcut_digest():
    """sha256 over every part's ``H_i`` edge-id list, in part order: pins a
    sampler's output stream across versions."""
    def digest(shortcut) -> str:
        listing = [(i, shortcut.subgraph_edge_id_array(i).tolist())
                   for i in range(shortcut.num_parts)]
        return hashlib.sha256(repr(listing).encode()).hexdigest()
    return digest
