"""Equivalence and behaviour tests for the active-set CONGEST engine.

The pre-refactor engine (full per-round node scans, activation-order
delivery; :class:`reference_engine.PreRefactorNetwork`) and the
delay-rescanning scheduler (:class:`LegacyScheduler` below) are the
reference oracles, compared metric-for-metric against the production
active-set engine — ``rounds``, ``messages_sent``, ``messages_delivered``,
``max_link_backlog`` and ``per_edge_messages`` must be identical on flood,
BFS, leader election and random-delay-scheduler workloads, for
single-channel and multi-channel algorithms alike.

Also covers the engine behaviours the refactor introduced or preserved:
ring-buffer compaction, overload showing as link backlog, ``reset=False``
composition with the awake-node worklist, the cached
``RunMetrics.per_edge_messages`` dict and the ``top_k_edges`` helper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import (
    DistributedAlgorithm,
    Network,
    RoundLimitExceeded,
    draw_random_delays,
)
from repro.congest.primitives.bfs import DistributedBFS, extract_bfs_tree
from repro.congest.primitives.leader import FloodMax, read_leaders
from repro.congest.primitives.aggregation import PartAggregation
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.lower_bound import lower_bound_instance

from random_delay_scheduler import RandomDelayScheduler
from reference_engine import OutboxContext, PreRefactorNetwork

SEEDS = list(range(12))


class LegacyScheduler(DistributedAlgorithm):
    """The pre-refactor RandomDelayScheduler: rescan all N delays per node
    per round, halt when ``all(started)``.  Kept verbatim as an oracle."""

    name = "legacy_random_delay_scheduler"

    def __init__(self, sub_algorithms, delays):
        self.sub_algorithms = list(sub_algorithms)
        self.delays = list(delays)

    def initialize(self, node):
        node.state["__sched_round"] = 0
        node.state["__sched_started"] = [False] * len(self.sub_algorithms)
        self._start_due(node)
        self._maybe_halt(node)

    def on_round(self, node, messages):
        node.state["__sched_round"] += 1
        self._start_due(node)
        by_algorithm = {}
        for msg in messages:
            by_algorithm.setdefault(msg.algorithm_id, []).append(msg)
        for idx, batch in by_algorithm.items():
            if 0 <= idx < len(self.sub_algorithms):
                if not node.state["__sched_started"][idx]:
                    node.state["__sched_started"][idx] = True
                self.sub_algorithms[idx].on_round(node, batch)
        self._maybe_halt(node)

    def _maybe_halt(self, node):
        if all(node.state["__sched_started"]):
            node.halt()
        else:
            node.wake()

    def _start_due(self, node):
        current = node.state["__sched_round"]
        started = node.state["__sched_started"]
        for idx, delay in enumerate(self.delays):
            if not started[idx] and current >= delay:
                started[idx] = True
                self.sub_algorithms[idx].initialize(node)


def _assert_metrics_match(new_metrics, legacy):
    assert new_metrics.rounds == legacy["rounds"]
    assert new_metrics.messages_sent == legacy["messages_sent"]
    assert new_metrics.messages_delivered == legacy["messages_delivered"]
    assert new_metrics.max_link_backlog == legacy["max_link_backlog"]
    assert new_metrics.per_edge_messages == legacy["per_edge_messages"]
    assert new_metrics.terminated


# ----------------------------------------------------------------------
# engine equivalence: single-channel algorithms
# ----------------------------------------------------------------------
class TestExpressLaneEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_flood_matches_legacy(self, seed):
        g = random_connected_graph(35 + seed, extra_edge_prob=0.08, rng=seed)
        new_metrics = Network(g).run(DistributedBFS({0}))
        legacy = PreRefactorNetwork(g).run(DistributedBFS({0}))
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_source_truncated_bfs_matches_legacy(self, seed):
        g = erdos_renyi_graph(40, 0.12, rng=seed)
        sources = {0, 3, 7}
        algo = lambda: DistributedBFS(sources, max_depth=3)  # noqa: E731
        new_metrics = Network(g).run(algo())
        legacy = PreRefactorNetwork(g).run(algo())
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leader_election_matches_legacy(self, seed):
        g = random_connected_graph(30 + seed, extra_edge_prob=0.1, rng=100 + seed)
        new_net = Network(g)
        new_metrics = new_net.run(FloodMax())
        legacy_net = PreRefactorNetwork(g)
        legacy = legacy_net.run(FloodMax())
        _assert_metrics_match(new_metrics, legacy)
        # Same elected leader everywhere, same per-node state.
        new_leaders = read_leaders(new_net)
        assert set(new_leaders.values()) == {g.num_vertices - 1}
        for v in g.vertices():
            assert new_net.node(v).state.get("flood_leader") == \
                legacy_net.nodes[v].state.get("flood_leader")

    def test_flood_on_lower_bound_instance_matches_legacy(self):
        inst = lower_bound_instance(200, 6)
        new_metrics = Network(inst.graph).run(DistributedBFS({0}))
        legacy = PreRefactorNetwork(inst.graph).run(DistributedBFS({0}))
        _assert_metrics_match(new_metrics, legacy)

    def test_grid_bfs_states_match_legacy(self):
        g = grid_graph(12, 12)
        new_net = Network(g)
        new_net.run(DistributedBFS({0}))
        legacy_net = PreRefactorNetwork(g)
        legacy_net.run(DistributedBFS({0}))
        _parent, new_dist = extract_bfs_tree(new_net)
        for v in g.vertices():
            assert legacy_net.nodes[v].state.get("bfs_dist") == new_dist.get(v)


# ----------------------------------------------------------------------
# engine equivalence: ring path (multi-channel / random-delay scheduler)
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    def _make_algos(self, num, depth=None):
        return [
            DistributedBFS({i}, max_depth=depth, prefix=f"q{i}_", algorithm_id=i)
            for i in range(num)
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scheduler_matches_legacy_engine_and_scheduler(self, seed):
        g = random_connected_graph(24, extra_edge_prob=0.12, rng=seed)
        num = 4
        delays = draw_random_delays(num, 6, rng=seed)
        new_metrics = Network(g).run(
            RandomDelayScheduler(self._make_algos(num), list(delays))
        )
        legacy = PreRefactorNetwork(g).run(
            LegacyScheduler(self._make_algos(num), list(delays))
        )
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("num", [3, 4, 5, 8])
    def test_scheduler_congested_path_matches(self, num):
        g = path_graph(12)
        delays = [0] * num
        new_metrics = Network(g).run(
            RandomDelayScheduler(self._make_algos(num), list(delays))
        )
        legacy = PreRefactorNetwork(g).run(
            LegacyScheduler(self._make_algos(num), list(delays))
        )
        _assert_metrics_match(new_metrics, legacy)
        # The concurrent waves share links, so some message waited.
        assert new_metrics.max_link_backlog > 1

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_scheduler_node_states_match(self, seed):
        g = erdos_renyi_graph(20, 0.2, rng=40 + seed)
        num = 3
        delays = draw_random_delays(num, 5, rng=seed)
        new_net = Network(g)
        new_net.run(RandomDelayScheduler(self._make_algos(num), list(delays)))
        legacy_net = PreRefactorNetwork(g)
        legacy_net.run(LegacyScheduler(self._make_algos(num), list(delays)))
        for v in g.vertices():
            for i in range(num):
                key = f"q{i}_dist"
                assert new_net.node(v).state.get(key) == \
                    legacy_net.nodes[v].state.get(key)


# ----------------------------------------------------------------------
# ring-buffer compaction
# ----------------------------------------------------------------------
class _Burst(DistributedAlgorithm):
    """Node 0 sends ``count`` messages to node 1 in the first round, using
    distinct algorithm ids to load a single link far beyond its one
    message per round."""

    name = "burst"

    def __init__(self, count):
        self.count = count

    def initialize(self, node):
        if node.node_id == 0:
            for i in range(self.count):
                node.send(1, "burst", i, algorithm_id=i)
        node.halt()

    def on_round(self, node, messages):
        node.state.setdefault("got", []).extend(m.payload for m in messages)
        node.halt()


class TestRingBufferCompaction:
    def test_compaction_branch_preserves_fifo(self):
        # A 200-message burst drives the head cursor past 64 while half the
        # buffer is dead (head 100), exercising the `head > 64 and
        # head * 2 >= len(buf)` compaction branch in _deliver.
        net = Network(path_graph(2))
        metrics = net.run(_Burst(200))
        assert metrics.terminated
        assert metrics.messages_delivered == 200
        assert net.node(1).state["got"] == list(range(200))
        assert metrics.rounds == 200  # one delivery round per message
        assert metrics.max_link_backlog == 200
        assert metrics.per_edge_messages == {(0, 1): 200}

    @pytest.mark.parametrize("count", [64, 65, 129, 150, 201, 300])
    def test_compaction_never_reorders_or_drops(self, count):
        net = Network(path_graph(2))
        metrics = net.run(_Burst(count))
        assert metrics.terminated
        assert net.node(1).state["got"] == list(range(count))
        assert metrics.messages_delivered == count


# ----------------------------------------------------------------------
# overload mid-run
# ----------------------------------------------------------------------
class _LateOverload(DistributedAlgorithm):
    """Pings along a path for a few rounds, then bursts two messages onto
    one link (distinct algorithm ids) to overload it mid-run."""

    name = "late_overload"

    def __init__(self, burst_round):
        self.burst_round = burst_round

    def initialize(self, node):
        if node.node_id == 0:
            node.send(1, "tick", 0)
        node.halt()

    def on_round(self, node, messages):
        for msg in messages:
            if msg.tag != "tick":
                node.state.setdefault("burst", []).append(msg.payload)
                continue
            count = msg.payload + 1
            node.state["seen"] = count
            if node.node_id == 1 and count >= self.burst_round:
                # Two messages on link 1->0 in one round: the second waits
                # a round behind the first.
                node.send(0, "burst", count, algorithm_id=0)
                node.send(0, "burst", count, algorithm_id=1)
            else:
                node.send(msg.sender, "tick", count)
        node.halt()


class TestOverloadMidRun:
    def test_late_overload_queues_behind_the_link(self):
        net = Network(path_graph(2))
        metrics = net.run(_LateOverload(burst_round=4))
        assert metrics.terminated
        # Five tick rounds, then the burst's second message waits one round
        # behind the first.
        assert (net.node(0).state["seen"], net.node(1).state["seen"]) == (4, 5)
        assert net.node(0).state["burst"] == [5, 5]
        assert metrics.rounds == 7
        assert metrics.max_link_backlog == 2

    def test_no_overload_without_concurrency(self):
        net = Network(grid_graph(4, 4))
        metrics = net.run(DistributedBFS({0}))
        assert metrics.terminated
        assert metrics.max_link_backlog == 1

    def test_scheduler_overload_shows_as_backlog(self):
        g = path_graph(5)
        num = 3
        algos = [DistributedBFS({0}, prefix=f"x{i}_", algorithm_id=i) for i in range(num)]
        metrics = Network(g).run(RandomDelayScheduler(algos, [0] * num))
        assert metrics.terminated
        assert metrics.max_link_backlog == num


# ----------------------------------------------------------------------
# reset=False composition with active sets
# ----------------------------------------------------------------------
class _LeaderPing(DistributedAlgorithm):
    """Follow-up algorithm: the elected leader (read from FloodMax state)
    broadcasts a token; everyone else starts halted and must be re-woken by
    the engine when the token arrives."""

    name = "leader_ping"

    def initialize(self, node):
        if node.state.get("flood_leader") == node.node_id:
            node.broadcast("token", node.node_id)
        node.halt()

    def on_round(self, node, messages):
        for msg in messages:
            if msg.tag == "token":
                node.state["token_from"] = msg.payload
        node.halt()


class TestResetFalseComposition:
    def test_follow_up_algorithm_rewakes_halted_nodes(self):
        g = random_connected_graph(25, extra_edge_prob=0.1, rng=5)
        net = Network(g)
        first = net.run(FloodMax())
        assert first.terminated
        # All nodes are halted and the awake worklist is empty.
        assert all(ctx.halted for ctx in net.nodes.values())
        assert not net._awake
        second = net.run(_LeaderPing(), reset=False)
        assert second.terminated
        assert second.rounds >= 1
        leader = g.num_vertices - 1
        for v in g.neighbors(leader):
            assert net.node(v).state["token_from"] == leader

    def test_chained_runs_match_legacy_chained_runs(self):
        g = random_connected_graph(22, extra_edge_prob=0.12, rng=9)
        net = Network(g)
        net.run(FloodMax())
        new_second = net.run(DistributedBFS({g.num_vertices - 1}), reset=False)

        legacy_net = PreRefactorNetwork(g)
        legacy_net.run(FloodMax())
        legacy_second = legacy_net.run(DistributedBFS({g.num_vertices - 1}))
        assert new_second.rounds == legacy_second["rounds"]
        assert new_second.messages_sent == legacy_second["messages_sent"]
        assert new_second.messages_delivered == legacy_second["messages_delivered"]
        assert new_second.per_edge_messages == legacy_second["per_edge_messages"]

    def test_bfs_then_convergecast_matches_pre_refactor(self):
        # A one-instance "count" aggregation over the BFS tree runs
        # per-node (the kernel folds only min/max), so both engines
        # execute the same handlers.
        g = random_connected_graph(20, extra_edge_prob=0.15, rng=13)
        n = g.num_vertices
        net = Network(g)
        net.run(DistributedBFS({0}))
        parent, _ = extract_bfs_tree(net)
        csr = g.csr()

        def agg():
            return PartAggregation(
                [CSRLinkMask(csr, np.ones(csr.num_edges, dtype=bool))],
                [[parent[v] for v in range(n)]], [dict.fromkeys(range(n), 1)],
                "count", broadcast_result=True,
            )

        new = agg()
        new_metrics = net.run(new, reset=False)
        assert new_metrics.bulk_declined == "kernel_refused"

        ref = PreRefactorNetwork(g)
        ref.run(DistributedBFS({0}))
        old = agg()
        legacy = ref.run(old)
        assert new_metrics.rounds == legacy["rounds"]
        assert new_metrics.messages_sent == legacy["messages_sent"]
        assert new_metrics.messages_delivered == legacy["messages_delivered"]
        assert new_metrics.per_edge_messages == legacy["per_edge_messages"]
        assert new.delivered[0] == old.delivered[0] == dict.fromkeys(range(n), n)

    def test_same_prefix_followup_rebuilds_allowed_neighbors(self):
        # A fresh same-prefix BFS with a different (here: absent)
        # allowed_adjacency must not inherit the previous instance's cached
        # neighbour filter: source 1 improves its own dist to 0 and must
        # re-announce over its FULL neighbour list, reaching node 2.
        g = path_graph(3)
        net = Network(g)
        net.run(DistributedBFS({0}, allowed_adjacency={0: {1}, 1: {0}}, prefix="x_"))
        assert "x_dist" not in net.node(2).state
        net.run(DistributedBFS({1}, prefix="x_"), reset=False)
        assert net.node(2).state["x_dist"] == 1

    def test_reset_wipes_externally_mutated_state(self):
        # reset() promises a fresh network even when nothing ran: state
        # poked in from outside and externally halted nodes are wiped.
        net = Network(path_graph(3))
        net.node(0).state["marker"] = 42
        net.node(1).halt()
        net.reset()
        assert "marker" not in net.node(0).state
        assert not net.node(1).halted
        assert 1 in net._awake

    def test_express_then_ring_composition(self):
        # A single-channel run followed by a multi-channel scheduler run on
        # the same un-reset network.
        g = grid_graph(5, 5)
        net = Network(g)
        net.run(DistributedBFS({0}))
        num = 3
        algos = [DistributedBFS({i}, prefix=f"r{i}_", algorithm_id=i) for i in range(num)]
        metrics = net.run(RandomDelayScheduler(algos, [0, 1, 2]), reset=False)
        assert metrics.terminated
        # First run's outputs are still readable.
        assert net.node(24).state["bfs_dist"] == 8

    @pytest.mark.parametrize("bulk", [True, False])
    def test_cutoff_refuses_reset_false_follow_up(self, bulk, monkeypatch):
        # A BFS cut off at round 1 has node 1's announcements still in
        # flight on 1->0 and 1->2.  It raises with the partial metrics and
        # the labels it reached, and the traffic is never delivered: a
        # follow-up must reset the network first.
        monkeypatch.setattr(DistributedBFS, "bulk_capable", bulk)
        net = Network(path_graph(4))
        with pytest.raises(RoundLimitExceeded) as cut:
            net.run(DistributedBFS({0}), max_rounds=1)
        partial = cut.value.metrics
        assert not partial.terminated
        assert (partial.rounds, partial.messages_sent,
                partial.messages_delivered) == (1, 3, 1)
        assert cut.value.last_active_set == 0
        assert net.node(1).state["bfs_dist"] == 1
        assert "bfs_dist" not in net.node(2).state
        follow_up = DistributedBFS({1}, max_depth=1, prefix="y_")
        with pytest.raises(ValueError, match="reset"):
            net.run(follow_up, reset=False)
        metrics = net.run(follow_up)
        assert metrics.terminated
        assert (metrics.rounds, metrics.max_link_backlog,
                metrics.messages_delivered) == (1, 1, 2)
        assert net.node(2).state == {"y_dist": 1, "y_parent": 1, "y_root": 1}


# ----------------------------------------------------------------------
# RunMetrics: per-edge cache and top_k_edges
# ----------------------------------------------------------------------
class TestRunMetricsHelpers:
    def _run(self):
        g = star_graph(6)
        net = Network(g)
        return net.run(FloodMax())

    def test_per_edge_messages_cached(self):
        metrics = self._run()
        first = metrics.per_edge_messages
        assert first is metrics.per_edge_messages  # same dict object: cached

    def test_top_k_edges_matches_full_dict(self):
        inst = lower_bound_instance(120, 4)
        metrics = Network(inst.graph).run(DistributedBFS({0}))
        full = metrics.per_edge_messages
        top = metrics.top_k_edges(5)
        assert len(top) == min(5, len(full))
        # Counts descending, ties by ascending edge id; entries agree with
        # the full dict and are the true top-k counts.
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)
        for edge, count in top:
            assert full[edge] == count
        threshold = counts[-1]
        assert sum(1 for c in full.values() if c > threshold) <= len(top)

    def test_top_k_edges_edge_cases(self):
        metrics = self._run()
        assert metrics.top_k_edges(0) == []
        everything = metrics.top_k_edges(10_000)
        assert dict(everything) == metrics.per_edge_messages
        from repro.congest.network import RunMetrics

        assert RunMetrics().top_k_edges(3) == []
        assert RunMetrics().per_edge_messages == {}


# ----------------------------------------------------------------------
# timer protocol (wake_at_rounds)
# ----------------------------------------------------------------------
class TestTimerProtocol:
    def test_large_delay_tail_is_charged_exactly(self):
        # One sub-algorithm with a huge start delay and no traffic until it
        # begins: the run must still last until the delay elapses, with the
        # silent stretch charged but not executed round by round.
        g = path_graph(4)
        algos = [
            DistributedBFS({0}, prefix="a0_", algorithm_id=0),
            DistributedBFS({3}, prefix="a1_", algorithm_id=1),
        ]
        delays = [0, 60]
        new_metrics = Network(g).run(RandomDelayScheduler(algos, list(delays)))
        legacy = PreRefactorNetwork(g).run(LegacyScheduler(
            [DistributedBFS({0}, prefix="a0_", algorithm_id=0),
             DistributedBFS({3}, prefix="a1_", algorithm_id=1)], list(delays)))
        _assert_metrics_match(new_metrics, legacy)
        assert new_metrics.rounds > 60

    def test_scheduler_declares_its_delays_as_timers(self):
        algos = [DistributedBFS({i}, prefix=f"t{i}_", algorithm_id=i) for i in range(4)]
        sched = RandomDelayScheduler(algos, [0, 5, 3, 5])
        # Distinct nonzero delays, sorted; delay 0 starts in initialize.
        assert sched.wake_at_rounds == (3, 5)

    def test_nodes_halt_while_waiting_out_delays(self):
        # With timers honoured, a long delay tail keeps no node awake: the
        # engine jumps the silent stretch instead of ticking n handlers.
        g = path_graph(4)
        algos = [
            DistributedBFS({0}, prefix="a0_", algorithm_id=0),
            DistributedBFS({3}, prefix="a1_", algorithm_id=1),
        ]
        net = Network(g)
        metrics = net.run(RandomDelayScheduler(algos, [0, 60]))
        assert metrics.terminated
        assert net.node(0).state["a1_dist"] == 3  # delayed BFS did run

    @staticmethod
    def _scheduler(last):
        algos = [
            DistributedBFS({0}, prefix="s0_", algorithm_id=0),
            DistributedBFS({last}, prefix="s1_", algorithm_id=1),
        ]
        return RandomDelayScheduler(algos, [0, 7])

    @staticmethod
    def _assert_same_run(chained, fresh):
        assert chained.terminated and fresh.terminated
        assert chained.rounds == fresh.rounds
        assert chained.messages_sent == fresh.messages_sent
        assert chained.messages_delivered == fresh.messages_delivered
        assert chained.per_edge_messages == fresh.per_edge_messages

    def test_chained_timer_stage_matches_fresh_network(self):
        # A timer stage chained with reset=False after FloodMax counts its
        # timers from its own start, so it runs exactly as on a fresh
        # network: same metrics, same per-edge traffic, same outputs.
        g = grid_graph(4, 4)
        chained_net = Network(g)
        chained_net.run(FloodMax())
        chained = chained_net.run(self._scheduler(15), reset=False)
        fresh_net = Network(g)
        fresh = fresh_net.run(self._scheduler(15))

        self._assert_same_run(chained, fresh)
        assert chained.rounds > 7
        for v in range(16):
            chained_state = chained_net.node(v).state
            fresh_state = fresh_net.node(v).state
            for key in ("s0_dist", "s0_parent", "s1_dist", "s1_parent"):
                assert chained_state[key] == fresh_state[key]
            assert chained_state["flood_leader"] == 15

    def test_stage_after_timer_stage_matches_fresh_network(self):
        # With the timer stage first, the stage chained after it runs as on
        # a fresh network and the timer stage's outputs stay readable.
        g = path_graph(6)
        chained_net = Network(g)
        timer_run = chained_net.run(self._scheduler(5))
        chained = chained_net.run(FloodMax(), reset=False)
        fresh_net = Network(g)
        fresh = fresh_net.run(FloodMax())

        assert timer_run.terminated and timer_run.rounds > 7
        self._assert_same_run(chained, fresh)
        for v in range(6):
            assert chained_net.node(v).state["flood_leader"] == 5
            assert chained_net.node(v).state["s1_dist"] == 5 - v


# ----------------------------------------------------------------------
# wired NodeContext behaviours
# ----------------------------------------------------------------------
class TestWiredNodeContext:
    def test_wired_send_to_non_neighbor_raises(self):
        net = Network(path_graph(3))
        with pytest.raises(ValueError):
            net.node(0).send(2, "nope")

    def test_wired_duplicate_send_raises(self):
        class DoubleSend(DistributedAlgorithm):
            name = "double"

            def initialize(self, node):
                if node.node_id == 0:
                    node.send(1, "a", 1)
                    node.send(1, "b", 2)
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            net.run(DoubleSend())

    def test_wired_multicast_duplicate_target_raises(self):
        class DupMulticast(DistributedAlgorithm):
            name = "dup_multicast"

            def initialize(self, node):
                if node.node_id == 0:
                    node.multicast([1, 1], "t", 0)
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            net.run(DupMulticast())

    def test_halt_wake_maintains_awake_worklist(self):
        net = Network(path_graph(3))
        ctx = net.node(1)
        assert 1 in net._awake
        ctx.halt()
        assert 1 not in net._awake
        ctx.halt()  # idempotent
        assert 1 not in net._awake
        ctx.wake()
        assert 1 in net._awake


# ----------------------------------------------------------------------
# the reference engine's outbox-buffering context
# ----------------------------------------------------------------------
class TestOutboxContext:
    """The oracle's node context must refuse what a wired context refuses,
    or the oracle could run a schedule the production engine rejects."""

    def test_buffers_multicast_until_collected(self):
        node = OutboxContext(0, (1, 2), star_graph(3).csr())
        node.multicast((1, 2), "t", 7)
        out = node.collect_outbox()
        assert [(m.sender, m.receiver, m.payload) for m in out] == [(0, 1, 7), (0, 2, 7)]
        assert node.collect_outbox() == []
        node.send(1, "t", 8)  # each collection clears the duplicate guard
        assert [m.payload for m in node.collect_outbox()] == [8]

    def test_rejects_what_a_wired_context_rejects(self):
        wired = Network(path_graph(3)).node(0)
        oracle = OutboxContext(0, (1,), path_graph(2).csr())
        for ctx in (wired, oracle):
            with pytest.raises(ValueError, match="no neighbor"):
                ctx.send(2, "t", 1)
            with pytest.raises(ValueError, match="not a valid"):
                ctx.send(1, "t", {"a": 1})
            ctx.send(1, "t", 1)
            with pytest.raises(ValueError, match="already sent"):
                ctx.send(1, "t", 2)
            ctx.send(1, "t", 2, algorithm_id=1)
