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

import numpy as np
import pytest

from repro.congest import Network
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.concurrent_bfs import (
    UNREACHED,
    ConcurrentMaskedBFS,
)
from repro.congest.primitives.numbering import PipelinedNumbering
from repro.congest.primitives.spanning import PartwiseFlagConvergecast
from repro.congest.scheduler import RandomDelayScheduler, draw_random_delays
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import grid_graph, path_graph, random_connected_graph
from repro.graphs.lower_bound import lower_bound_instance
from repro.rng import ensure_rng
from repro.shortcuts import (
    Partition,
    build_distributed_kogan_parter,
    build_kogan_parter_shortcut,
    detect_large_parts,
    geometric_guesses,
    measure_diameter_probe,
)
from repro.shortcuts.distributed import _intra_part_mask


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
def _fleet_fixture(n, seed, *, num_parts=None):
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
    delays = draw_random_delays(
        len(large), max(1, math.ceil(k_d * math.log(max(params_n, 2)))),
        ensure_rng(seed + 5),
    )
    csr = g.csr()
    masks = [
        CSRLinkMask.from_edge_ids(csr, shortcut.augmented_edge_ids(i))
        for i in large
    ]
    return g, partition, shortcut, large, masks, depth_budget, delays


def _run_oracle_fleet(g, partition, shortcut, large, depth_budget, delays):
    network = Network(g)
    network.reset()
    subs = [
        DistributedBFS({partition.leader(i)},
                       allowed_adjacency=shortcut.augmented_adjacency(i),
                       max_depth=depth_budget, prefix=f"sc{i}_", algorithm_id=o)
        for o, i in enumerate(large)
    ]
    metrics = network.run(RandomDelayScheduler(subs, delays),
                          reset=False, max_rounds=400_000)
    return network, metrics


def _run_masked_fleet(g, partition, masks, large, depth_budget, delays, **kw):
    network = Network(g)
    network.reset()
    fleet = ConcurrentMaskedBFS(
        [partition.leader(i) for i in large], masks, delays, depth_budget,
        [f"sc{i}_" for i in large], g.num_vertices, **kw,
    )
    metrics = network.run(fleet, reset=False, max_rounds=400_000)
    return fleet, metrics


class TestConcurrentMaskedBFSEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_metrics_and_outputs_match_oracle(self, seed):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(90, seed)
        net, m_a = _run_oracle_fleet(g, partition, shortcut, large,
                                     depth_budget, delays)
        fleet, m_b = _run_masked_fleet(g, partition, masks, large,
                                       depth_budget, delays)
        assert (m_a.rounds, m_a.messages_sent, m_a.messages_delivered,
                m_a.max_link_backlog) == (
            m_b.rounds, m_b.messages_sent, m_b.messages_delivered,
            m_b.max_link_backlog)
        assert m_a.per_edge_messages == m_b.per_edge_messages
        for order, i in enumerate(large):
            prefix = f"sc{i}_"
            for v in range(g.num_vertices):
                st = net.node(v).state
                dist = st.get(prefix + "dist")
                assert fleet.dist[order][v] == (
                    dist if dist is not None else UNREACHED)
                parent = st.get(prefix + "parent")
                assert fleet.parent[order][v] == (
                    parent if parent is not None else UNREACHED)
                root = st.get(prefix + "root")
                assert fleet.root[order][v] == (
                    root if root is not None else UNREACHED)

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

    def test_suppression_preserves_outputs_and_saves_messages(self):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(90, 1)
        plain, m_plain = _run_masked_fleet(g, partition, masks, large,
                                           depth_budget, delays)
        lean, m_lean = _run_masked_fleet(g, partition, masks, large,
                                         depth_budget, delays,
                                         suppress_parent_echo=True)
        assert plain.dist == lean.dist
        assert plain.parent == lean.parent
        assert plain.root == lean.root
        assert m_lean.messages_delivered < m_plain.messages_delivered
        assert m_lean.rounds <= m_plain.rounds

    def test_tree_lookup(self):
        g, partition, shortcut, large, masks, depth_budget, delays = \
            _fleet_fixture(60, 2)
        fleet, _ = _run_masked_fleet(g, partition, masks, large,
                                     depth_budget, delays)
        leader = partition.leader(large[0])
        assert fleet.tree_lookup(0, leader) == (0, leader)
        assert fleet.reached(0, leader)
        for v in range(g.num_vertices):
            d, parent = fleet.tree_lookup(0, v)
            if d is None:
                assert not fleet.reached(0, v)
                assert parent is None


# ----------------------------------------------------------------------
# PipelinedNumbering
# ----------------------------------------------------------------------
def _tree_network(graph, root):
    net = Network(graph)
    net.reset()
    net.run(DistributedBFS({root}, prefix="gt_"), reset=False)
    return net


class TestPipelinedNumbering:
    def test_full_broadcast_ranks_and_count(self):
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
        tokens = {v: v for v in (5, 17, 23, 30, 35, 11)}
        net_full = _tree_network(g, 0)
        full = PipelinedNumbering(tokens, tree_prefix="gt_")
        m_full = net_full.run(full, reset=False)
        net_count = _tree_network(g, 0)
        count = PipelinedNumbering(tokens, tree_prefix="gt_", broadcast="count")
        m_count = net_count.run(count, reset=False)
        assert count.ranking == full.ranking
        # Every node still learns the count; only contributors learn ranks.
        for v in range(g.num_vertices):
            st = net_count.node(v).state
            assert st.get("num_count") == len(tokens)
            if v in tokens:
                assert st.get("num_rank") == count.ranking[v]
            else:
                assert "num_rank" not in st
        # Reverse-path routing sends far fewer messages than full flooding.
        assert m_count.messages_delivered < m_full.messages_delivered
        # Rounds stay O(depth + N').
        assert m_count.rounds <= 3 * (10 + len(tokens)) + 5

    def test_watch_tokens_full_mode(self):
        g = path_graph(8)
        net = _tree_network(g, 0)
        numbering = PipelinedNumbering(
            {3: 3, 6: 6}, tree_prefix="gt_",
            watch_token_of=[3, 3, 3, 3, 6, 6, 6, 6],
        )
        net.run(numbering, reset=False)
        assert net.node(1).state.get("num_rank") == 1
        assert net.node(7).state.get("num_rank") == 2

    def test_pipelining_on_a_path(self):
        # Deep tree + several tokens: rounds must grow like depth + N',
        # not depth * N' (which a non-pipelined convergecast would cost).
        g = path_graph(40)
        net = _tree_network(g, 0)
        tokens = {v: v for v in (35, 36, 37, 38, 39)}
        numbering = PipelinedNumbering(tokens, tree_prefix="gt_", broadcast="count")
        metrics = net.run(numbering, reset=False)
        assert numbering.ranking == {35: 1, 36: 2, 37: 3, 38: 4, 39: 5}
        assert metrics.rounds <= 3 * 39 + 2 * len(tokens) + 6

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

    def test_unknown_broadcast_mode_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            PipelinedNumbering({}, broadcast="partial")


# ----------------------------------------------------------------------
# PartwiseFlagConvergecast and detect_large_parts
# ----------------------------------------------------------------------
class TestSpanningConvergecast:
    def _detection_setup(self, n, depth, seed=0):
        inst = lower_bound_instance(n, 6)
        partition = Partition(inst.graph, inst.parts, validate=False)
        network = Network(inst.graph)
        network.reset()
        intra = _intra_part_mask(partition)
        bfs = DistributedBFS(set(partition.leaders()), allowed_links=intra,
                             max_depth=depth, prefix="lp_")
        bfs_metrics = network.run(bfs, reset=False)
        return inst, partition, network, intra, bfs_metrics

    def test_flags_match_state_scan_oracle(self):
        inst, partition, network, intra, _ = self._detection_setup(90, 4)
        # Seed-driver oracle: a part is flagged iff some member lacks lp_dist.
        oracle = sorted(
            i for i in range(partition.num_parts)
            if any("lp_dist" not in network.node(v).state
                   for v in partition.part(i))
        )
        nodes = network.nodes
        check = PartwiseFlagConvergecast(
            partition.part_of, range(partition.num_parts), intra,
            lambda part, v: (
                nodes[v].state.get("lp_dist"),
                nodes[v].state.get("lp_parent"),
            ),
            timeout=4 + 2,
        )
        network.run(check, reset=False)
        assert sorted(check.flagged) == oracle
        assert oracle  # the path parts are longer than the depth

    def test_rounds_equal_seed_analytic_charge(self):
        # On part-disjoint trees there is no congestion, so the measured
        # rounds equal the seed driver's analytic depth + 2 charge.
        inst, partition, network, intra, _ = self._detection_setup(90, 5)
        nodes = network.nodes
        check = PartwiseFlagConvergecast(
            partition.part_of, range(partition.num_parts), intra,
            lambda part, v: (
                nodes[v].state.get("lp_dist"),
                nodes[v].state.get("lp_parent"),
            ),
            timeout=5 + 2,
        )
        metrics = network.run(check, reset=False)
        assert metrics.rounds == 5 + 2

    def test_no_flags_when_trees_span(self):
        inst, partition, network, intra, _ = self._detection_setup(90, 500)
        nodes = network.nodes
        check = PartwiseFlagConvergecast(
            partition.part_of, range(partition.num_parts), intra,
            lambda part, v: (
                nodes[v].state.get("lp_dist"),
                nodes[v].state.get("lp_parent"),
            ),
            timeout=8,
        )
        metrics = network.run(check, reset=False)
        assert check.flagged == set()
        assert metrics.rounds == 8

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            PartwiseFlagConvergecast(lambda v: None, [], None,
                                     lambda p, v: (None, None), timeout=0)


class TestDetectLargeParts:
    def test_matches_seed_semantics_and_rounds(self):
        inst = lower_bound_instance(90, 6)
        partition = Partition(inst.graph, inst.parts, validate=False)
        depth = 4

        # Seed oracle: dict-of-sets adjacency + driver-side state scan,
        # with the analytic depth + 2 convergecast charge.
        adjacency = {}
        for idx in range(partition.num_parts):
            part = partition.part(idx)
            for u in part:
                adjacency[u] = {w for w in inst.graph.neighbors(u) if w in part}
        net_a = Network(inst.graph)
        net_a.reset()
        m_a = net_a.run(DistributedBFS(set(partition.leaders()),
                                       allowed_adjacency=adjacency,
                                       max_depth=depth, prefix="lp_"),
                        reset=False)
        oracle_large = sorted(
            i for i in range(partition.num_parts)
            if any("lp_dist" not in net_a.node(v).state
                   for v in partition.part(i))
        )
        oracle_rounds = m_a.rounds + depth + 2

        net_b = Network(inst.graph)
        net_b.reset()
        large, rounds = detect_large_parts(net_b, partition, depth)
        assert large == oracle_large
        assert rounds == oracle_rounds


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
        from repro.graphs.traversal import eccentricity

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
        # Stage 5: no flags flow when every tree spans, so the measured
        # rounds are exactly the declared timeout (the seed analytic charge).
        assert breakdown["verification"] == depth_budget + 2
        # Stage 1: truncated BFS rounds plus the depth + 2 convergecast.
        assert breakdown["detect_large_parts"] > depth + 2
        # Stage 2: at least the global tree depth, at most O(D + N').
        num_large = len(result.shortcut.partition.large_part_indices(
            threshold=result.parameters.large_threshold))
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
