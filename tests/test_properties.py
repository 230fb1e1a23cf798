"""Property-based tests (hypothesis) for core data structures and invariants.

These tests generate random graphs, partitions and constructions and check
the structural invariants that the rest of the library depends on:

* graph operations are consistent (degrees, edge counts, induced subgraphs);
* BFS distances satisfy the triangle-like layering property;
* union-find partitions the ground set;
* every shortcut construction yields only real graph edges, congestion
  consistent with the per-edge load map, and dilation no worse than the
  un-shortcut baseline;
* the array quality engine (owner array + bincount congestion, batched
  masked BFS dilation) matches per-edge brute force and the per-part Python
  BFS it replaced (:class:`LocalSubgraphCSR`, kept here as the oracle),
  draw for draw in the sampled modes;
* Boruvka MST weight equals Kruskal MST weight on arbitrary weighted graphs.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from collections.abc import Iterable

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import kruskal_mst, shortcut_boruvka_mst
from repro.graphs import (
    Graph,
    UnionFind,
    WeightedGraph,
    bfs_distances,
    connected_components,
    is_connected,
    spanning_forest,
)
from repro.graphs.csr import UNREACHED, CSRGraph, bfs_distance_rows, bfs_levels
from repro.graphs.generators import GENERATOR_FAMILIES, make_family_graph
from repro.shortcuts import (
    Partition,
    Shortcut,
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_kogan_parter_shortcut,
    build_naive_shortcut,
)
from repro.shortcuts import shortcut as shortcut_module
from repro.shortcuts.verification import is_valid_shortcut, verify_shortcut

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def random_graphs(draw, min_vertices=2, max_vertices=24, connected=False):
    """Generate a random simple graph (optionally forced connected)."""
    n = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    g = Graph(n)
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            g.add_edge(order[i], order[rng.randrange(i)])
    density = draw(st.floats(0.0, 0.3))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v)
    return g


@st.composite
def weighted_graphs(draw, connected=True):
    g = draw(random_graphs(connected=connected))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    wg = WeightedGraph(g.num_vertices)
    for idx, (u, v) in enumerate(g.edges()):
        wg.add_weighted_edge(u, v, round(rng.uniform(1, 50), 3) + idx * 1e-6)
    return wg


@st.composite
def graphs_with_partitions(draw):
    """A connected graph plus a random collection of disjoint connected parts."""
    g = draw(random_graphs(min_vertices=4, max_vertices=20, connected=True))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    num_parts = draw(st.integers(1, 4))
    used: set[int] = set()
    parts = []
    for _ in range(num_parts):
        available = [v for v in g.vertices() if v not in used]
        if not available:
            break
        start = rng.choice(available)
        size = rng.randint(1, max(1, len(available) // 2))
        region = {start}
        frontier = [start]
        while frontier and len(region) < size:
            u = frontier.pop()
            for v in g.neighbors(u):
                if v not in used and v not in region:
                    region.add(v)
                    frontier.append(v)
        parts.append(region)
        used |= region
    return g, Partition(g, parts)


# ----------------------------------------------------------------------
# graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(random_graphs())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges

    @given(random_graphs())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_edge_iteration_matches_membership(self, g):
        edges = list(g.edges())
        assert len(edges) == g.num_edges
        for u, v in edges:
            assert u < v
            assert g.has_edge(u, v)

    @given(random_graphs(min_vertices=3))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_induced_subgraph_edges_subset(self, g):
        verts = set(range(0, g.num_vertices, 2))
        sub = g.induced_subgraph(verts)
        for u, v in sub.edges():
            assert g.has_edge(u, v)
            assert u in verts and v in verts

    @given(random_graphs(connected=True))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_bfs_layering_property(self, g):
        dist = bfs_distances(g, 0)
        for u, v in g.edges():
            if u in dist and v in dist:
                assert abs(dist[u] - dist[v]) <= 1

    @given(random_graphs())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_components_partition_vertices(self, g):
        comps = connected_components(g)
        union = set()
        total = 0
        for c in comps:
            assert not (c & union)
            union |= c
            total += len(c)
        assert union == set(g.vertices())
        assert total == g.num_vertices

    @given(random_graphs())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_spanning_forest_size(self, g):
        forest = spanning_forest(g)
        comps = connected_components(g)
        assert len(forest) == g.num_vertices - len(comps)


class TestUnionFindProperties:
    @given(st.integers(1, 50), st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=80))
    @settings(max_examples=40)
    def test_sets_partition_ground_set(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            if a < n and b < n:
                uf.union(a, b)
        groups = uf.groups()
        union = set()
        for grp in groups:
            assert not (grp & union)
            union |= grp
        assert union == set(range(n))
        assert len(groups) == uf.num_sets


# ----------------------------------------------------------------------
# shortcut invariants
# ----------------------------------------------------------------------
class TestShortcutProperties:
    @given(graphs_with_partitions(), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kogan_parter_structural_invariants(self, gp, seed):
        g, partition = gp
        result = build_kogan_parter_shortcut(
            g, partition, log_factor=0.4, rng=seed
        )
        sc = result.shortcut
        # every shortcut edge is a graph edge
        for i in range(sc.num_parts):
            for u, v in sc.subgraph_edges(i):
                assert g.has_edge(u, v)
        # congestion equals the max of the per-edge load map
        loads = sc.edge_loads()
        assert sc.congestion() == (max(loads.values()) if loads else 0)
        # every part is connected in its augmented subgraph (parts are
        # connected and step 1 adds all incident edges)
        assert sc.dilation() < float("inf")

    @given(graphs_with_partitions(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_shortcut_never_hurts_dilation(self, gp, seed):
        g, partition = gp
        empty = build_empty_shortcut(g, partition)
        kp = build_kogan_parter_shortcut(g, partition, log_factor=0.4, rng=seed)
        assert kp.shortcut.dilation() <= empty.dilation()

    @given(graphs_with_partitions())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_congestion_at_least_one_when_parts_have_edges(self, gp):
        g, partition = gp
        sc = build_empty_shortcut(g, partition)
        has_internal_edge = any(partition.part_edges(i) for i in range(partition.num_parts))
        if has_internal_edge:
            assert sc.congestion() >= 1
        else:
            assert sc.congestion() == 0


# ----------------------------------------------------------------------
# verification oracle: is_valid_shortcut vs brute force
# ----------------------------------------------------------------------
def _carve_connected_parts(g: Graph, rng: random.Random, num_parts: int) -> list[set]:
    """Disjoint connected regions grown by BFS, the common partition shape."""
    used: set[int] = set()
    parts: list[set] = []
    for _ in range(num_parts):
        available = [v for v in g.vertices() if v not in used]
        if not available:
            break
        start = rng.choice(available)
        size = rng.randint(1, max(1, len(available) // 2))
        region = {start}
        frontier = [start]
        while frontier and len(region) < size:
            u = frontier.pop()
            for v in g.neighbors(u):
                if v not in used and v not in region:
                    region.add(v)
                    frontier.append(v)
        parts.append(region)
        used |= region
    return parts


@st.composite
def family_graphs_with_partitions(draw):
    """A graph drawn across every generator family, plus carved parts."""
    family = draw(st.sampled_from(sorted(GENERATOR_FAMILIES)))
    n = draw(st.integers(8, 26))
    seed = draw(st.integers(0, 10_000))
    g = make_family_graph(family, n, rng=seed)
    rng = random.Random(seed + 1)
    num_parts = draw(st.integers(1, 4))
    parts = _carve_connected_parts(g, rng, num_parts)
    return g, Partition(g, parts)


def _oracle_congestion(shortcut: Shortcut) -> int:
    """Per-edge brute force: count augmented subgraphs containing each edge."""
    g = shortcut.graph
    partition = shortcut.partition
    parts = [set(partition.part(i)) for i in range(partition.num_parts)]
    subs = [shortcut.subgraph_edges(i) for i in range(partition.num_parts)]
    worst = 0
    for u, v in g.edges():
        load = sum(
            1
            for i in range(partition.num_parts)
            if (u in parts[i] and v in parts[i]) or (u, v) in subs[i]
        )
        worst = max(worst, load)
    return worst


def _oracle_part_dilation(shortcut: Shortcut, index: int) -> float:
    """Per-path brute force: BFS between every part-vertex pair in
    ``G[S_i] ∪ H_i`` (non-part endpoints of sampled edges may relay)."""
    part = set(shortcut.partition.part(index))
    if len(part) <= 1:
        return 0.0
    adjacency: dict[int, list[int]] = {}
    for u, v in shortcut.augmented_edges(index):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    worst = 0.0
    for source in part:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, []):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for target in part:
            if target not in dist:
                return float("inf")
            worst = max(worst, float(dist[target]))
    return worst


def _oracle_dilation(shortcut: Shortcut) -> float:
    return max(
        (_oracle_part_dilation(shortcut, i) for i in range(shortcut.num_parts)),
        default=0.0,
    )


# ----------------------------------------------------------------------
# reference quality engine: the per-part Python BFS the arrays replaced
# ----------------------------------------------------------------------
class LocalSubgraphCSR:
    """A compact CSR-like view of a subgraph, re-labelled to local ids.

    Built once from an edge list plus extra (possibly isolated) vertices and
    then BFS-ed from many sources.  Local ids are assigned in ascending
    global-vertex order.

    Attributes:
        vertices: sorted global ids of the subgraph's vertices.
        local_of: map global id -> local id.
        adjacency: list of local-id neighbour lists.
    """

    __slots__ = ("vertices", "local_of", "adjacency")

    def __init__(self, edges: Iterable[tuple[int, int]], extra_vertices: Iterable[int] = ()) -> None:
        edges = list(edges)
        verts: set[int] = set(extra_vertices)
        for u, v in edges:
            verts.add(u)
            verts.add(v)
        self.vertices = sorted(verts)
        self.local_of = {g: i for i, g in enumerate(self.vertices)}
        adjacency: list[list[int]] = [[] for _ in self.vertices]
        local_of = self.local_of
        for u, v in edges:
            lu = local_of[u]
            lv = local_of[v]
            adjacency[lu].append(lv)
            adjacency[lv].append(lu)
        self.adjacency = adjacency

    def bfs_distances(self, source_global: int) -> array:
        """Return local-id hop distances from a global source vertex."""
        adjacency = self.adjacency
        dist = array("l", [UNREACHED]) * len(adjacency)
        s = self.local_of[source_global]
        dist[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for u in frontier:
                for v in adjacency[u]:
                    if dist[v] == UNREACHED:
                        dist[v] = depth
                        nxt.append(v)
            frontier = nxt
        return dist


def _reference_part_dilation(shortcut: Shortcut, index: int, *, exact: bool = True) -> float:
    """``Shortcut.part_dilation`` before the array engine, source for source:
    the same source list, one Python BFS per source, and the double sweep
    when ``exact`` is off."""
    partition = shortcut.partition
    part = partition.part(index)
    if len(part) <= 1:
        return 0.0
    view = LocalSubgraphCSR(shortcut.augmented_edges(index), part)
    local_of = view.local_of
    part_locals = [local_of[t] for t in part]
    if exact:
        sources = list(part)
    else:
        dist = view.bfs_distances(partition.leader(index))
        if any(dist[t] == UNREACHED for t in part_locals):
            return float("inf")
        far = max(dist[t] for t in part_locals)
        sources = [min(v for v in part if dist[local_of[v]] == far)]
    worst = 0
    for s in sources:
        dist = view.bfs_distances(s)
        for t in part_locals:
            if dist[t] == UNREACHED:
                return float("inf")
            worst = max(worst, dist[t])
    return float(worst)


def _reference_dilation(shortcut: Shortcut, *, exact: bool = True) -> float:
    """``Shortcut.dilation`` before the array engine, including its early
    return on the first disconnected part."""
    worst = 0.0
    for i in range(shortcut.num_parts):
        d = _reference_part_dilation(shortcut, i, exact=exact)
        if d == float("inf"):
            return d
        worst = max(worst, d)
    return worst


def _oracle_edge_loads(shortcut: Shortcut) -> dict[tuple[int, int], int]:
    """Per-edge brute force: the augmented subgraphs containing each edge."""
    partition = shortcut.partition
    parts = [set(partition.part(i)) for i in range(partition.num_parts)]
    subs = [shortcut.subgraph_edges(i) for i in range(partition.num_parts)]
    loads = {}
    for u, v in shortcut.graph.edges():
        load = sum(
            1
            for i in range(partition.num_parts)
            if (u in parts[i] and v in parts[i]) or (u, v) in subs[i]
        )
        if load:
            loads[(u, v)] = load
    return loads


SHORTCUT_KINDS = ("kogan_parter", "naive", "ghaffari_haeupler", "random", "scattered")


@st.composite
def family_shortcuts(draw):
    """A shortcut over a graph drawn across every generator family.

    Kinds: Kogan-Parter samples; the shared-edge-list baselines (naive,
    Ghaffari-Haeupler); random ``H_i`` given for a prefix of the parts only
    (trailing empty subgraphs); and ``scattered`` parts — unvalidated
    random vertex sets, so singletons and parts disconnected in their
    augmented subgraph (infinite dilation) both occur.
    """
    family = draw(st.sampled_from(sorted(GENERATOR_FAMILIES)))
    n = draw(st.integers(8, 26))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(SHORTCUT_KINDS))
    num_parts = draw(st.integers(1, 4))
    g = make_family_graph(family, n, rng=seed)
    rng = random.Random(seed + 1)
    if kind == "scattered":
        vertices = list(g.vertices())
        rng.shuffle(vertices)
        sizes = [rng.randint(1, max(1, n // num_parts)) for _ in range(num_parts)]
        parts, at = [], 0
        for size in sizes:
            if at + size > len(vertices):
                break
            parts.append(set(vertices[at:at + size]))
            at += size
        partition = Partition(g, parts, validate=False)
    else:
        partition = Partition(g, _carve_connected_parts(g, rng, num_parts))
    if kind == "kogan_parter":
        return build_kogan_parter_shortcut(g, partition, log_factor=0.4, rng=seed).shortcut
    if kind == "naive":
        return build_naive_shortcut(g, partition)
    if kind == "ghaffari_haeupler":
        return build_ghaffari_haeupler_shortcut(
            g, partition, size_threshold=rng.choice([None, 1.0, 3.0])
        )
    edges = list(g.edges())
    given = rng.randint(0, partition.num_parts)
    return Shortcut(partition, [
        rng.sample(edges, rng.randint(0, len(edges))) for _ in range(given)
    ])


class TestVerificationAgainstOracle:
    """``is_valid_shortcut`` / ``verify_shortcut`` vs per-edge and per-path
    brute force, on random graphs drawn across every generator family."""

    @given(family_graphs_with_partitions(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kogan_parter_measurements_match_oracle(self, gp, seed):
        g, partition = gp
        shortcut = build_kogan_parter_shortcut(
            g, partition, log_factor=0.4, rng=seed
        ).shortcut
        report = verify_shortcut(shortcut)
        assert report.congestion == _oracle_congestion(shortcut)
        assert report.dilation == _oracle_dilation(shortcut)
        assert report.valid == (report.dilation < float("inf"))

    @given(family_graphs_with_partitions())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_empty_shortcut_measurements_match_oracle(self, gp):
        g, partition = gp
        shortcut = build_empty_shortcut(g, partition)
        report = verify_shortcut(shortcut)
        assert report.congestion == _oracle_congestion(shortcut)
        assert report.dilation == _oracle_dilation(shortcut)

    @given(family_graphs_with_partitions(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_validity_thresholds_are_exact(self, gp, seed):
        g, partition = gp
        shortcut = build_kogan_parter_shortcut(
            g, partition, log_factor=0.4, rng=seed
        ).shortcut
        congestion = _oracle_congestion(shortcut)
        dilation = _oracle_dilation(shortcut)
        if dilation == float("inf"):
            assert not is_valid_shortcut(shortcut)
            return
        # The oracle values themselves are admissible budgets...
        assert is_valid_shortcut(
            shortcut, max_congestion=congestion, max_dilation=dilation
        )
        # ...and anything strictly below either measured value is not.
        if congestion > 0:
            assert not is_valid_shortcut(
                shortcut, max_congestion=congestion - 1, max_dilation=dilation
            )
        if dilation > 0:
            assert not is_valid_shortcut(
                shortcut, max_congestion=congestion, max_dilation=dilation - 1
            )

    @given(family_graphs_with_partitions(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sampled_dilation_is_a_sound_lower_bound(self, gp, seed):
        # The cheap 2-approximation (the double sweep on a sampled KP
        # shortcut) never exceeds the exact value and repeats without an
        # rng: the property the experiment harness's determinism contract
        # rests on.
        g, partition = gp
        shortcut = build_kogan_parter_shortcut(
            g, partition, log_factor=0.4, rng=seed
        ).shortcut
        exact = _oracle_dilation(shortcut)
        approx_a = shortcut.dilation(exact=False)
        approx_b = shortcut.dilation(exact=False)
        assert approx_a == approx_b
        assert approx_a <= exact
        if exact < float("inf"):
            assert approx_a >= exact / 2.0

    # -- the array engine vs the per-part Python engine it replaced --------
    @given(random_graphs(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_bfs_rows_match_single_source_bfs(self, g, seed):
        # The kernel on a random edge subset (isolated vertices included via
        # the extra-vertex list) vs one plain BFS per source on that subset.
        rng = random.Random(seed)
        csr = g.csr()
        ids = sorted(rng.sample(range(csr.num_edges), rng.randint(0, csr.num_edges)))
        everyone = np.arange(g.num_vertices, dtype=np.int64)
        vertices, starts, targets = csr.adjacency_arrays().edge_subgraph(
            np.asarray(ids, dtype=np.int64), everyone
        )
        assert vertices.tolist() == everyone.tolist()
        sources = [rng.randrange(g.num_vertices) for _ in range(rng.randint(1, 5))]
        rows = bfs_distance_rows(starts, targets, np.asarray(sources))
        sub = CSRGraph(g.num_vertices, [csr.edge_list[e] for e in ids])
        for row, source in zip(rows.tolist(), sources):
            assert row == list(bfs_levels(sub, [source])[0])

    @given(family_shortcuts())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_congestion_and_edge_loads_match_brute_force(self, shortcut):
        loads = _oracle_edge_loads(shortcut)
        assert shortcut.edge_loads() == loads
        assert shortcut.congestion() == max(loads.values(), default=0)
        # Every H_i is a sorted, duplicate-free, read-only int64 edge-id
        # array that the tuple view mirrors; so is every augmented array.
        edge_list = shortcut.graph.csr().edge_list
        tuples = [shortcut.subgraph_edges(i) for i in range(shortcut.num_parts)]
        for i, edges in enumerate(tuples):
            ids = shortcut.subgraph_edge_id_array(i)
            assert ids.dtype == np.int64 and not ids.flags.writeable
            assert ids.tolist() == sorted(set(ids.tolist()))
            assert {edge_list[e] for e in ids.tolist()} == edges
            augmented = shortcut.augmented_edge_id_array(i).tolist()
            assert augmented == sorted(set(augmented))
            assert {edge_list[e] for e in augmented} == (
                set(shortcut.partition.part_edges(i)) | edges
            )
        # The tuple constructor and from_edge_ids (fed unsorted, duplicated
        # ids) build the same arrays.
        rebuilt = Shortcut(shortcut.partition, tuples)
        from_ids = Shortcut.from_edge_ids(shortcut.partition, [
            list(reversed(shortcut.subgraph_edge_id_array(i).tolist())) * 2
            for i in range(shortcut.num_parts)
        ])
        for i in range(shortcut.num_parts):
            expected = shortcut.subgraph_edge_id_array(i).tolist()
            assert rebuilt.subgraph_edge_id_array(i).tolist() == expected
            assert from_ids.subgraph_edge_id_array(i).tolist() == expected

    @given(family_shortcuts())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exact_dilation_matches_reference_engine(self, shortcut):
        for i in range(shortcut.num_parts):
            assert shortcut.part_dilation(i) == _reference_part_dilation(shortcut, i)
        assert shortcut.dilation() == _reference_dilation(shortcut)
        assert shortcut.dilation() == _oracle_dilation(shortcut)

    @given(family_shortcuts())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exact_dilation_is_independent_of_source_chunking(self, shortcut):
        expected = [shortcut.part_dilation(i) for i in range(shortcut.num_parts)]
        saved = shortcut_module._BFS_CELLS
        shortcut_module._BFS_CELLS = 1  # one source per batched BFS
        try:
            chunked = [shortcut.part_dilation(i) for i in range(shortcut.num_parts)]
        finally:
            shortcut_module._BFS_CELLS = saved
        assert chunked == expected

    @given(family_shortcuts())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sampled_dilation_without_rng_is_a_deterministic_double_sweep(self, shortcut):
        exact = shortcut.dilation()
        swept = shortcut.dilation(exact=False)
        assert swept == shortcut.dilation(exact=False)
        assert swept == _reference_dilation(shortcut, exact=False)
        assert verify_shortcut(shortcut, exact_dilation=False).dilation == swept
        assert swept <= exact
        if exact < float("inf"):
            assert swept >= exact / 2.0
        else:
            assert swept == exact


# ----------------------------------------------------------------------
# the one large-part rule
# ----------------------------------------------------------------------
class TestLargePartRuleSoundness:
    """The samplers give sampled edges to the parts whose leader-rooted
    radius exceeds ``max(1, ceil(k_D))``, checked against the sequential BFS
    restricted to each part: an unsampled part meets the dilation bound
    with no sampled edge, a sampled part is big, and few parts are sampled."""

    @given(family_graphs_with_partitions(), st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rule_is_sound(self, gp, diameter_value, seed):
        g, partition = gp
        result = build_kogan_parter_shortcut(
            g, partition, diameter_value=diameter_value, log_factor=0.4, rng=seed
        )
        k_d = result.parameters.k_d
        depth = math.ceil(k_d)
        sampled = set(result.large_part_indices)
        for i in range(partition.num_parts):
            part = set(partition.part(i))
            radius = max(bfs_distances(g, partition.leader(i), allowed=part).values())
            if i in sampled:
                assert radius > depth
                assert len(part) > k_d
            else:
                assert radius <= depth
                assert result.shortcut.part_dilation(i) <= 2 * depth
        assert len(sampled) <= math.ceil(g.num_vertices / k_d)


# ----------------------------------------------------------------------
# MST invariants
# ----------------------------------------------------------------------
class TestMSTProperties:
    @given(weighted_graphs(connected=True))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_boruvka_matches_kruskal(self, wg):
        boruvka = shortcut_boruvka_mst(wg, rng=0)
        _, kruskal_weight = kruskal_mst(wg)
        assert math.isclose(boruvka.weight, kruskal_weight, rel_tol=1e-9)
        if is_connected(wg):
            assert len(boruvka.edges) == wg.num_vertices - 1

    @given(weighted_graphs(connected=True))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mst_is_spanning_and_acyclic(self, wg):
        result = shortcut_boruvka_mst(wg, rng=0)
        tree = Graph(wg.num_vertices, result.edges)
        comps_graph = connected_components(wg)
        comps_tree = connected_components(tree)
        assert comps_graph == comps_tree
        assert len(result.edges) == wg.num_vertices - len(comps_graph)
