"""Equivalence and behaviour tests for the CSR-mask distributed pipeline.

Extends the oracle pattern of ``tests/test_active_set_engine.py`` to the
new mask-native primitives: the dict-of-sets implementations that the
distributed driver used before this refactor (``allowed_adjacency`` BFS,
``RandomDelayScheduler`` over per-part instances, analytic stage-2/5 round
charges) serve as reference oracles, and the CSR-mask equivalents are
pinned against them — outputs exactly, metrics exactly where the schedule
is bit-identical, and round formulas where the seed drivers charged
analytically.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.concurrent_bfs import (
    UNREACHED,
    ConcurrentMaskedBFS,
)
from repro.congest.primitives.numbering import PipelinedNumbering
from repro.congest.scheduler import draw_random_delays, mask_congestion
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from repro.graphs.lower_bound import lower_bound_instance
from repro.graphs.partitions import random_connected_partition
from repro.graphs.traversal import bfs_distances, eccentricity
from repro.params import k_d_value
from repro.rng import ensure_rng
from repro.shortcuts import (
    Partition,
    build_distributed_kogan_parter,
    build_kogan_parter_shortcut,
    detect_large_parts,
    geometric_guesses,
    measure_diameter_probe,
)
from repro.shortcuts import distributed
from repro.shortcuts.kogan_parter import radius_large_parts

from random_delay_scheduler import RandomDelayScheduler


# ----------------------------------------------------------------------
# CSRLinkMask
# ----------------------------------------------------------------------
class TestCSRLinkMask:
    def test_from_edge_ids_matches_adjacency(self):
        g = random_connected_graph(60, extra_edge_prob=0.05, rng=3)
        csr = g.csr()
        rng = ensure_rng(7)
        ids = [e for e in range(csr.num_edges) if rng.random() < 0.5]
        mask = CSRLinkMask.from_edge_ids(csr, ids)
        allowed = set(ids)
        for v in range(csr.num_vertices):
            expected = sorted(
                csr.indices[i]
                for i in range(csr.indptr[v], csr.indptr[v + 1])
                if csr.edge_ids[i] in allowed
            )
            assert mask.neighbors_of(v) == expected
            assert mask.degree(v) == len(expected)

    def test_links_point_back(self):
        g = grid_graph(5, 5)
        csr = g.csr()
        mask = CSRLinkMask.from_edge_ids(csr, range(csr.num_edges))
        for v in range(csr.num_vertices):
            for w, link in zip(mask.neighbors_of(v), mask.links_of(v)):
                eid = link >> 1
                lo, hi = csr.edge_list[eid]
                assert {lo, hi} == {v, w}
                # link 2e is lo -> hi, 2e + 1 is hi -> lo
                assert (link & 1) == (0 if v == lo else 1)

    def test_directed_permits_are_respected(self):
        g = path_graph(4)
        csr = g.csr()
        permits = np.zeros(2 * csr.num_edges, dtype=bool)
        eid = csr.edge_id(1, 2)
        permits[2 * eid] = True  # only 1 -> 2, not 2 -> 1
        mask = CSRLinkMask(csr, permits)
        assert mask.neighbors_of(1) == [2]
        assert mask.neighbors_of(2) == []

    def test_intra_partition(self):
        inst = lower_bound_instance(60, 6)
        partition = Partition(inst.graph, inst.parts, validate=False)
        csr = inst.graph.csr()
        mask = CSRLinkMask.intra_partition(csr, partition.vertex_labels())
        part_of = partition.part_of
        for v in range(csr.num_vertices):
            pv = part_of(v)
            expected = sorted(
                w for w in inst.graph.neighbors(v)
                if pv is not None and part_of(w) == pv
            )
            assert mask.neighbors_of(v) == expected

    def test_edge_length_permits_accepted(self):
        # A length-m permit array means "both directions of each edge".
        g = path_graph(4)
        csr = g.csr()
        permits = np.zeros(csr.num_edges, dtype=bool)
        permits[csr.edge_id(1, 2)] = True
        mask = CSRLinkMask(csr, permits)
        assert mask.neighbors_of(1) == [2]
        assert mask.neighbors_of(2) == [1]

    def test_wrong_length_rejected(self):
        csr = path_graph(4).csr()
        with pytest.raises(ValueError, match="permit"):
            CSRLinkMask(csr, np.zeros(csr.num_edges + 1, dtype=bool))


# ----------------------------------------------------------------------
# DistributedBFS over masks vs dict-of-sets adjacency (oracle)
# ----------------------------------------------------------------------
def _mask_and_adjacency(graph, edge_ids):
    csr = graph.csr()
    mask = CSRLinkMask.from_edge_ids(csr, edge_ids)
    adjacency: dict[int, set[int]] = {v: set() for v in range(csr.num_vertices)}
    for e in edge_ids:
        u, v = csr.edge_list[e]
        adjacency[u].add(v)
        adjacency[v].add(u)
    return mask, adjacency


class TestMaskedBFSEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_bfs_matches_adjacency_oracle(self, seed):
        g = random_connected_graph(80, extra_edge_prob=0.04, rng=seed)
        csr = g.csr()
        rng = ensure_rng(seed + 100)
        ids = [e for e in range(csr.num_edges) if rng.random() < 0.7]
        mask, adjacency = _mask_and_adjacency(g, ids)

        net_a = Network(g)
        net_a.reset()
        m_a = net_a.run(DistributedBFS({0}, allowed_adjacency=adjacency,
                                       max_depth=9, prefix="a_"))
        net_b = Network(g)
        net_b.reset()
        m_b = net_b.run(DistributedBFS({0}, allowed_links=mask,
                                       max_depth=9, prefix="b_"))
        assert (m_a.rounds, m_a.messages_sent, m_a.messages_delivered,
                m_a.max_link_backlog) == (
            m_b.rounds, m_b.messages_sent, m_b.messages_delivered,
            m_b.max_link_backlog)
        assert m_a.per_edge_messages == m_b.per_edge_messages
        for v in range(g.num_vertices):
            sa = net_a.node(v).state
            sb = net_b.node(v).state
            assert sa.get("a_dist") == sb.get("b_dist")
            assert sa.get("a_parent") == sb.get("b_parent")
            assert sa.get("a_root") == sb.get("b_root")

    def test_both_restrictions_rejected(self):
        g = path_graph(4)
        mask = CSRLinkMask.from_edge_ids(g.csr(), range(g.num_edges))
        with pytest.raises(ValueError, match="not both"):
            DistributedBFS({0}, allowed_adjacency={0: {1}}, allowed_links=mask)


# ----------------------------------------------------------------------
# ConcurrentMaskedBFS vs RandomDelayScheduler + DistributedBFS (oracle)
# ----------------------------------------------------------------------
#: Stage 4's two start-delay ranges: ``[0, ⌈k_D · ln n⌉]``, which it drew
#: from until it took the congestion ĉ of its masks, and ``[0, ĉ - 1]``.
#: The second puts about ĉ/2 messages on a link shared by every mask.
DELAY_REGIMES = ("log", "congestion")


def regime_delays(regime, masks, k_d, n, rng):
    """One start delay per mask, uniform over the ``regime``'s range."""
    if regime == "log":
        top = max(1, math.ceil(k_d * math.log(max(n, 2))))
    else:
        top = max(0, mask_congestion(masks) - 1)
    return draw_random_delays(len(masks), top, rng)


def _fleet_fixture(n, seed, *, regime, num_parts=None):
    """A lower-bound instance with its sampled shortcut masks and delays."""
    inst = lower_bound_instance(n, 6)
    g = inst.graph
    partition = Partition(g, inst.parts, validate=False)
    params_n = g.num_vertices
    kp = build_kogan_parter_shortcut(g, partition, diameter_value=6,
                                     log_factor=0.3, rng=seed)
    shortcut = kp.shortcut
    large = kp.large_part_indices
    if num_parts is not None:
        large = large[:num_parts]
    k_d = kp.parameters.k_d
    depth_budget = max(1, math.ceil(4.0 * k_d * math.log(max(params_n, 2))))
    csr = g.csr()
    masks = [
        CSRLinkMask.from_edge_ids(csr, shortcut.augmented_edge_id_array(i))
        for i in large
    ]
    delays = regime_delays(regime, masks, k_d, params_n, ensure_rng(seed + 5))
    return g, partition, shortcut, large, masks, depth_budget, delays


def _run_oracle(g, subs, delays):
    """The reference schedule: per-node BFS instances behind the scheduler."""
    network = Network(g)
    network.reset()
    metrics = network.run(RandomDelayScheduler(subs, delays),
                          reset=False, max_rounds=400_000)
    return network, metrics


def _run_oracle_fleet(g, partition, shortcut, large, depth_budget, delays):
    return _run_oracle(g, [
        DistributedBFS({partition.leader(i)},
                       allowed_adjacency=shortcut.augmented_adjacency(i),
                       max_depth=depth_budget, prefix=f"sc{i}_", algorithm_id=o)
        for o, i in enumerate(large)
    ], delays)


def _run_masked_fleet(g, partition, masks, large, depth_budget, delays, **kw):
    network = Network(g)
    network.reset()
    fleet = ConcurrentMaskedBFS(
        [partition.leader(i) for i in large], masks, delays, depth_budget,
        [f"sc{i}_" for i in large], g.num_vertices, **kw,
    )
    metrics = network.run(fleet, reset=False, max_rounds=400_000)
    return fleet, metrics


def _assert_fleet_matches_oracle(net, m_a, fleet, m_b, prefixes):
    """Rounds, message counts, backlog, per-edge traffic and every label."""
    assert m_b.bulk_declined is None
    assert (m_a.rounds, m_a.messages_sent, m_a.messages_delivered,
            m_a.max_link_backlog) == (
        m_b.rounds, m_b.messages_sent, m_b.messages_delivered,
        m_b.max_link_backlog)
    assert m_a.per_edge_messages == m_b.per_edge_messages
    for order, prefix in enumerate(prefixes):
        for v in range(net.graph.num_vertices):
            st = net.node(v).state
            for name in ("dist", "parent", "root"):
                label = st.get(prefix + name)
                assert getattr(fleet, name)[order][v] == (
                    label if label is not None else UNREACHED)


class TestConcurrentMaskedBFSEquivalence:
    @pytest.mark.parametrize("regime", DELAY_REGIMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_metrics_and_outputs_match_oracle(self, seed, regime):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(90, seed, regime=regime)
        net, m_a = _run_oracle_fleet(g, partition, shortcut, large,
                                     depth_budget, delays)
        fleet, m_b = _run_masked_fleet(g, partition, masks, large,
                                       depth_budget, delays)
        _assert_fleet_matches_oracle(net, m_a, fleet, m_b,
                                     [f"sc{i}_" for i in large])

    @pytest.mark.parametrize("regime", DELAY_REGIMES)
    def test_deep_queues_match_oracle(self, regime):
        # A hundred trees over the whole graph share every link (ĉ = 100),
        # so the congestion range queues tens of messages on a link: the
        # depth stage 4 meets on construct-sized instances.
        g = lower_bound_instance(200, 6).graph
        n = g.num_vertices
        csr = g.csr()
        num = 100
        masks = [CSRLinkMask.from_edge_ids(csr, range(csr.num_edges))
                 for _ in range(num)]
        assert mask_congestion(masks) == num
        rng = ensure_rng(3)
        leaders = [rng.randrange(n) for _ in range(num)]
        delays = regime_delays(regime, masks, k_d_value(n, 6), n, ensure_rng(4))
        prefixes = [f"x{o}_" for o in range(num)]
        net, m_a = _run_oracle(g, [
            DistributedBFS({leaders[o]}, max_depth=60, prefix=prefixes[o],
                           algorithm_id=o)
            for o in range(num)
        ], delays)
        network = Network(g)
        fleet = ConcurrentMaskedBFS(leaders, masks, delays, 60, prefixes, n)
        m_b = network.run(fleet, max_rounds=400_000)
        _assert_fleet_matches_oracle(net, m_a, fleet, m_b, prefixes)
        assert m_b.max_link_backlog >= (40 if regime == "congestion" else 15)

    def test_zero_delay_and_shared_sources(self):
        # Two instances starting immediately on the same graph region.
        g = grid_graph(6, 6)
        csr = g.csr()
        masks = [CSRLinkMask.from_edge_ids(csr, range(csr.num_edges))
                 for _ in range(2)]
        delays = [0, 3]
        net = Network(g)
        net.reset()
        subs = [DistributedBFS({5}, max_depth=20, prefix="x0_", algorithm_id=0),
                DistributedBFS({30}, max_depth=20, prefix="x1_", algorithm_id=1)]
        m_a = net.run(RandomDelayScheduler(subs, delays), reset=False)
        fleet, m_b = _run_masked_fleet(g, type("P", (), {"leader": staticmethod(lambda i: [5, 30][i])}),
                                       masks, [0, 1], 20, delays)
        assert m_a.rounds == m_b.rounds
        assert m_a.messages_delivered == m_b.messages_delivered
        for order, prefix in enumerate(("x0_", "x1_")):
            for v in range(g.num_vertices):
                dist = net.node(v).state.get(prefix + "dist")
                assert fleet.dist[order][v] == (
                    dist if dist is not None else UNREACHED)

    @pytest.mark.parametrize("regime", DELAY_REGIMES)
    def test_suppression_preserves_outputs_and_saves_messages(self, regime):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(90, 1, regime=regime)
        plain, m_plain = _run_masked_fleet(g, partition, masks, large,
                                           depth_budget, delays)
        lean, m_lean = _run_masked_fleet(g, partition, masks, large,
                                         depth_budget, delays,
                                         suppress_parent_echo=True)
        assert plain.dist == lean.dist
        assert plain.root == lean.root
        if regime == "log":
            assert plain.parent == lean.parent
        # Under deeper queues a node can hear its final distance from
        # another neighbour first once no echo queues ahead of it: the
        # trees keep their depths, not always their parents.
        for order, i in enumerate(large):
            adjacency = shortcut.augmented_adjacency(i)
            leader = partition.leader(i)
            dist, parent = lean.dist[order], lean.parent[order]
            for v in range(g.num_vertices):
                if dist[v] != UNREACHED and v != leader:
                    assert parent[v] in adjacency[v]
                    assert dist[parent[v]] == dist[v] - 1
        assert m_lean.messages_delivered < m_plain.messages_delivered
        assert m_lean.rounds <= m_plain.rounds

    @pytest.mark.parametrize("regime", DELAY_REGIMES)
    def test_tree_labels(self, regime):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(60, 2, regime=regime)
        fleet, _ = _run_masked_fleet(g, partition, masks, large,
                                     depth_budget, delays)
        leader = partition.leader(large[0])
        dist, parent = fleet.dist[0], fleet.parent[0]
        assert (dist[leader], parent[leader]) == (0, leader)
        assert fleet.reached(0, leader)
        for v in range(g.num_vertices):
            assert fleet.reached(0, v) == (dist[v] != UNREACHED)
            if dist[v] == UNREACHED:
                assert parent[v] == UNREACHED
            elif v != leader:
                assert dist[parent[v]] == dist[v] - 1


# ----------------------------------------------------------------------
# PipelinedNumbering
# ----------------------------------------------------------------------
def _tree_network(graph, root):
    net = Network(graph)
    net.reset()
    net.run(DistributedBFS({root}, prefix="gt_"), reset=False)
    return net


class TestPipelinedNumbering:
    def test_ranks_and_count(self):
        g = grid_graph(6, 6)
        net = _tree_network(g, 0)
        tokens = {v: v for v in (5, 17, 23, 30, 35, 11)}
        numbering = PipelinedNumbering(tokens, tree_prefix="gt_")
        metrics = net.run(numbering, reset=False)
        assert numbering.ranking == {t: r for r, t in enumerate(sorted(tokens), 1)}
        assert all(net.node(v).state.get("num_count") == len(tokens)
                   for v in range(g.num_vertices))
        # O(depth + N') rounds: depth of the grid tree is 10, N' = 6.
        assert metrics.rounds <= 3 * (10 + len(tokens)) + 5

    def test_count_mode_reaches_contributors_only(self):
        g = grid_graph(6, 6)
        n, depth = g.num_vertices, 10
        tokens = {v: v for v in (5, 17, 23, 30, 35, 11)}
        net = _tree_network(g, 0)
        count = PipelinedNumbering(tokens, tree_prefix="gt_")
        metrics = net.run(count, reset=False)
        assert count.ranking == {t: r for r, t in enumerate(sorted(tokens), 1)}
        # Every node still learns the count; only contributors learn ranks.
        for v in range(n):
            st = net.node(v).state
            assert st.get("num_count") == len(tokens)
            if v in tokens:
                assert st.get("num_rank") == count.ranking[v]
            else:
                assert "num_rank" not in st
        # Reverse-path routing: claims, end markers and the count cross
        # each tree link once, and each token and its rank at most depth
        # links — O(N'·D + n) messages, not the Θ(N'·n) of flooding.
        assert metrics.messages_delivered <= 3 * (n - 1) + 2 * len(tokens) * depth
        # Rounds stay O(depth + N').
        assert metrics.rounds <= 3 * (depth + len(tokens)) + 5

    def test_pipelining_on_a_path(self):
        # Deep tree + several tokens: rounds must grow like depth + N',
        # not depth * N' (which a non-pipelined convergecast would cost).
        g = path_graph(40)
        net = _tree_network(g, 0)
        tokens = {v: v for v in (35, 36, 37, 38, 39)}
        numbering = PipelinedNumbering(tokens, tree_prefix="gt_")
        metrics = net.run(numbering, reset=False)
        assert numbering.ranking == {35: 1, 36: 2, 37: 3, 38: 4, 39: 5}
        assert metrics.rounds <= 3 * 39 + 2 * len(tokens) + 6

    def test_root_contributes_with_the_others(self):
        g = grid_graph(5, 5)
        net = _tree_network(g, 0)
        tokens = {0: 40, 12: 7, 24: 19}
        numbering = PipelinedNumbering(tokens, tree_prefix="gt_")
        net.run(numbering, reset=False)
        assert numbering.ranking == {7: 1, 19: 2, 40: 3}
        assert [net.node(v).state.get("num_rank") for v in (0, 12, 24)] == [3, 1, 2]

    def test_single_contributor_at_the_deepest_leaf(self):
        g = path_graph(30)
        net = _tree_network(g, 0)
        numbering = PipelinedNumbering({29: 5}, tree_prefix="gt_")
        metrics = net.run(numbering, reset=False)
        assert numbering.ranking == {5: 1}
        assert net.node(29).state.get("num_rank") == 1
        assert all(net.node(v).state.get("num_count") == 1 for v in range(30))
        assert all("num_rank" not in net.node(v).state for v in range(29))
        assert metrics.rounds <= 3 * 29 + 6

    def test_empty_contributors(self):
        g = path_graph(6)
        net = _tree_network(g, 0)
        numbering = PipelinedNumbering({}, tree_prefix="gt_")
        net.run(numbering, reset=False)
        assert numbering.ranking == {}
        assert all(net.node(v).state.get("num_count") == 0 for v in range(6))

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PipelinedNumbering({1: 9, 2: 9})


# ----------------------------------------------------------------------
# detect_large_parts
# ----------------------------------------------------------------------
class TestDetectLargeParts:
    def test_matches_seed_semantics_and_rounds(self):
        inst = lower_bound_instance(90, 6)
        partition = Partition(inst.graph, inst.parts, validate=False)
        depth = 4

        # Seed oracle: dict-of-sets adjacency + a node-state scan of a
        # depth-truncated BFS.
        adjacency = {}
        for idx in range(partition.num_parts):
            part = partition.part(idx)
            for u in part:
                adjacency[u] = {w for w in inst.graph.neighbors(u) if w in part}

        def oracle_bfs(max_depth):
            net = Network(inst.graph)
            net.reset()
            metrics = net.run(DistributedBFS(set(partition.leaders()),
                                             allowed_adjacency=adjacency,
                                             max_depth=max_depth, prefix="lp_"),
                              reset=False)
            return net, metrics

        net_a, _ = oracle_bfs(depth)
        oracle_large = sorted(
            i for i in range(partition.num_parts)
            if any("lp_dist" not in net_a.node(v).state
                   for v in partition.part(i))
        )
        assert oracle_large  # the path parts are longer than the depth
        # The detection BFS runs one level deeper; the max-convergecast
        # then climbs from depth + 1 to the leaders after one announce round.
        _, m_deeper = oracle_bfs(depth + 1)
        oracle_rounds = m_deeper.rounds + depth + 2

        net_b = Network(inst.graph)
        net_b.reset()
        large, rounds = detect_large_parts(net_b, partition, depth)
        assert large == oracle_large
        assert rounds == oracle_rounds

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_large_iff_radius_exceeds_depth(self, family):
        g = GENERATOR_FAMILIES[family](120, random.Random(3))
        partition = Partition(g, random_connected_partition(g, 6, rng=4))
        radius = [
            max(bfs_distances(g, partition.leader(i),
                              allowed=set(partition.part(i))).values())
            for i in range(partition.num_parts)
        ]
        depths = (1, 2, 3, 4)
        assert set(radius) & set(depths)  # a part sits on the boundary
        for depth in depths:
            network = Network(g)
            network.reset()
            large, _ = detect_large_parts(network, partition, depth)
            assert large == [i for i, r in enumerate(radius) if r > depth]

    def test_no_part_large_when_depth_covers_every_radius(self):
        inst = lower_bound_instance(90, 6)
        partition = Partition(inst.graph, inst.parts, validate=False)
        network = Network(inst.graph)
        network.reset()
        large, _ = detect_large_parts(network, partition, 500)
        assert large == []


class TestOneLargePartRule:
    """Stage 1 and every sampler share one rule: a part is sampled when its
    leader-rooted radius exceeds ``max(1, ceil(k_D))``."""

    @staticmethod
    def _family_partition(family):
        g = GENERATOR_FAMILIES[family](120, random.Random(3))
        return g, Partition(g, random_connected_partition(g, 6, rng=4))

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_central_sampler_samples_what_stage_one_flags(self, family):
        g, partition = self._family_partition(family)
        for diameter_value in (2, 3, 4):
            kp = build_kogan_parter_shortcut(g, partition,
                                             diameter_value=diameter_value, rng=1)
            network = Network(g)
            network.reset()
            flagged, _ = detect_large_parts(network, partition,
                                            kp.parameters.detection_depth)
            assert kp.large_part_indices == flagged

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_stage_three_equals_central_sampler(self, family):
        g, partition = self._family_partition(family)
        sampled = []
        for diameter_value in (2, 3):
            central = build_kogan_parter_shortcut(
                g, partition, diameter_value=diameter_value, log_factor=0.3, rng=5,
            )
            sampled += central.large_part_indices
            distributed = build_distributed_kogan_parter(
                g, partition, diameter_value=diameter_value, log_factor=0.3, rng=5,
            )
            for i in range(partition.num_parts):
                assert np.array_equal(
                    distributed.shortcut.subgraph_edge_id_array(i),
                    central.shortcut.subgraph_edge_id_array(i),
                )
        assert sampled  # the equality covers sampled parts, not just step 1


# ----------------------------------------------------------------------
# Diameter guessing
# ----------------------------------------------------------------------
class TestGeometricGuessing:
    def test_sequences(self):
        assert geometric_guesses(5, 10) == [5, 10]
        assert geometric_guesses(7, 7) == [7]
        assert geometric_guesses(3, 20) == [3, 6, 12, 24]
        assert geometric_guesses(1, 8) == [2, 4, 8]

    def test_logarithmic_length(self):
        # The seed loop tried every value in [lower, upper]: O(upper) guesses.
        for upper in (64, 1024, 1 << 20):
            guesses = geometric_guesses(2, upper)
            assert len(guesses) <= math.ceil(math.log2(upper)) + 1
            assert guesses[-1] >= upper

    def test_probe_measures_eccentricity(self):
        inst = lower_bound_instance(80, 6)
        ecc, rounds = measure_diameter_probe(inst.graph)
        assert ecc == eccentricity(inst.graph, 0)
        assert rounds >= ecc

    def test_probe_rejects_disconnected(self):
        from repro.graphs import Graph

        with pytest.raises(ValueError, match="connected"):
            measure_diameter_probe(Graph(4, [(0, 1), (2, 3)]))

    def test_unknown_diameter_is_logarithmic_end_to_end(self):
        inst = lower_bound_instance(80, 6)
        partition = Partition(inst.graph, inst.parts)
        result = build_distributed_kogan_parter(
            inst.graph, partition, known_diameter=False, log_factor=0.3, rng=5,
        )
        # ecc <= D <= 2 ecc, doubling once suffices: never more than 2
        # attempts (the seed loop attempted D - ceil(D/2) + 1 = 4 here).
        assert len(result.attempted_guesses) <= 2
        assert result.probe_rounds > 0
        assert result.total_rounds > result.probe_rounds
        assert result.spanning_ok


# ----------------------------------------------------------------------
# Full-pipeline invariants
# ----------------------------------------------------------------------
class TestPipelineRounds:
    def test_all_stages_measured_and_verification_timeout(self):
        inst = lower_bound_instance(90, 6)
        partition = Partition(inst.graph, inst.parts)
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=2,
        )
        breakdown = result.rounds_breakdown
        n = inst.graph.num_vertices
        k_d = result.parameters.k_d
        depth = max(1, math.ceil(k_d))
        depth_budget = max(depth, math.ceil(4.0 * k_d * math.log(n)))
        assert result.spanning_ok
        # Stage 5: announce, convergecast and broadcast over the stage-2
        # global tree (rooted at n - 1), independent of the depth budget.
        tree_depth = eccentricity(inst.graph, n - 1)
        assert breakdown["verification"] <= 2 * tree_depth + 4
        assert breakdown["verification"] < depth_budget
        # Stage 1: truncated BFS rounds plus the depth + 2 convergecast.
        assert breakdown["detect_large_parts"] > depth + 2
        # Stage 2: at least the global tree depth, at most O(D + N').
        num_large = len(radius_large_parts(partition, depth))
        assert 0 < breakdown["number_large_parts"] <= 6 * (6 + num_large) + 12
        assert breakdown["local_sampling"] == 0
        assert result.total_rounds == sum(breakdown.values())

    def test_stage4_metrics_consistent(self):
        inst = lower_bound_instance(80, 6)
        partition = Partition(inst.graph, inst.parts)
        result = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.3, rng=6,
        )
        assert result.bfs_metrics is not None
        assert result.bfs_metrics.rounds == result.rounds_breakdown["concurrent_bfs"]
        assert result.bfs_metrics.messages_delivered > 0


class TestStageFourDelays:
    """Stage 4 draws its start delays from ``[0, ĉ - 1]``, ĉ the congestion
    of the masks it schedules, and reports ĉ as ``fleet_congestion``."""

    @staticmethod
    def _build(monkeypatch, graph, partition, **kwargs):
        drawn = []
        real = distributed.draw_random_delays

        def recording(num, max_delay, rng):
            delays = real(num, max_delay, rng)
            drawn.append((max_delay, delays))
            return delays

        monkeypatch.setattr(distributed, "draw_random_delays", recording)
        result = build_distributed_kogan_parter(graph, partition, **kwargs)
        return result, drawn

    @staticmethod
    def _edge_congestion(result, partition):
        # Brute force over the flagged parts' H_i edge sets (the masks
        # permit both directions of each edge).
        large = radius_large_parts(partition, result.parameters.detection_depth)
        load = Counter(
            e for i in large
            for e in result.shortcut.subgraph_edge_id_array(i).tolist()
        )
        return large, max(load.values())

    def test_delays_lie_below_the_fleet_congestion(self, monkeypatch):
        inst = lower_bound_instance(80, 6)
        partition = Partition(inst.graph, inst.parts)
        result, drawn = self._build(
            monkeypatch, inst.graph, partition,
            diameter_value=6, log_factor=0.3, rng=6,
        )
        large, congestion = self._edge_congestion(result, partition)
        assert result.fleet_congestion == congestion > 1
        [(max_delay, delays)] = drawn
        assert max_delay == congestion - 1
        assert len(delays) == len(large)
        assert all(0 <= d <= max_delay for d in delays)

    def test_range_is_not_clamped_to_the_old_bound(self, monkeypatch):
        # Twenty rows of a 20x20 grid, each radius-large at D = 2 (k_D = 1),
        # sampled with p = 1: every H_i is the whole grid, so ĉ = 20 while
        # ⌈k_D · ln n⌉ = 6.
        g = grid_graph(20, 20)
        partition = Partition(g, [list(range(r * 20, r * 20 + 20))
                                  for r in range(20)])
        result, drawn = self._build(
            monkeypatch, g, partition, diameter_value=2, probability=1.0, rng=5,
        )
        assert result.spanning_ok
        assert result.fleet_congestion == 20
        old_top = math.ceil(result.parameters.k_d * math.log(g.num_vertices))
        assert [max_delay for max_delay, _ in drawn] == [19] and old_top == 6

    def test_no_flagged_part_draws_nothing(self, monkeypatch):
        # Parts of five consecutive grid vertices have radius at most 4,
        # below k_D = 400^(2/5) ≈ 11 at D = 6.
        g = grid_graph(20, 20)
        partition = Partition(g, [list(range(s, s + 5))
                                  for s in range(0, 400, 5)])
        result, drawn = self._build(
            monkeypatch, g, partition, diameter_value=6, rng=5,
        )
        assert result.rounds_breakdown["concurrent_bfs"] == 0
        assert (result.fleet_congestion, drawn) == (0, [])
