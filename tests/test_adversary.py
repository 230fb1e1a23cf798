"""The adversary layer: fault injection plumbing and its identity pins.

Two families of guarantees live here:

* **identity** — the adversarial code path with a :class:`NullAdversary`
  (or any zero-rate adversary) is *bit-identical* to the adversary-free
  engine: same rounds, same message counts, same per-edge traffic, same
  node state.  Every fault measurement in E15 rests on this — a fault
  sweep whose zero-fault column differed from the clean engine would be
  measuring the plumbing, not the faults.
* **behaviour** — each concrete adversary does what its contract says
  (drops are counted and conserved, duplicates are at-least-once copies,
  latency/async holds preserve per-link FIFO and never change the
  answer, crashes wipe state and recoveries re-join blank), and every
  seeded adversary replays the identical fault pattern for the same
  seed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    Adversary,
    AsyncScheduler,
    CrashAdversary,
    DropAdversary,
    DuplicateAdversary,
    LatencyAdversary,
    Network,
    NullAdversary,
    PartialRunError,
    RoundLimitExceeded,
    StackedAdversary,
    make_fault_adversary,
)
from repro.congest.adversary import RetryPolicy, random_crash_schedule
from repro.congest.primitives import DistributedBFS, extract_bfs_tree
from repro.congest.primitives.leader import FloodMax
from repro.graphs import bfs_distances, grid_graph, path_graph
from repro.rng import derive_seed

from random_delay_scheduler import RandomDelayScheduler

pytestmark = [
    pytest.mark.faults,
    # By design this module runs bulk-capable BFS under adversaries and in
    # retry mode, where the bulk path must decline (and says so).
    pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning"),
]


def _delayed_bfs_pair():
    """A timer stage: two BFS trees on a 6x6 grid, started at delays 0 and 7."""
    return RandomDelayScheduler([
        DistributedBFS({0}, prefix="s0_", algorithm_id=0),
        DistributedBFS({35}, prefix="s1_", algorithm_id=1),
    ], [0, 7])


def _metric_tuple(metrics):
    return (
        metrics.rounds,
        metrics.messages_sent,
        metrics.messages_delivered,
        metrics.messages_dropped,
        metrics.messages_duplicated,
        dict(metrics.per_edge_messages),
    )


class TestIdentityPins:
    """NullAdversary / zero-rate runs are bit-identical to clean runs."""

    def _clean_vs(self, adversary, *make_stages):
        # Stages after the first chain with reset=False; each must match.
        g = grid_graph(6, 6)
        clean_net = Network(g)
        adv_net = Network(g)
        for i, make_stage in enumerate(make_stages):
            clean = clean_net.run(make_stage(), reset=i == 0)
            shadowed = adv_net.run(make_stage(), reset=i == 0, adversary=adversary)
            assert _metric_tuple(clean) == _metric_tuple(shadowed)

        def visible(state):
            # The BFS caches its filtered neighbour list keyed by its own
            # object identity; everything else in node state is plain data.
            return {k: v for k, v in state.items() if not k.endswith("__allowed")}

        for v in range(g.num_vertices):
            assert visible(clean_net.node(v).state) == visible(adv_net.node(v).state)
        return clean

    def test_null_adversary_bfs(self):
        clean = self._clean_vs(NullAdversary(), lambda: DistributedBFS({0}))
        assert clean.messages_dropped == 0 and clean.messages_duplicated == 0

    def test_zero_rate_drop_adversary_bfs(self):
        self._clean_vs(DropAdversary(0.0, seed=3), lambda: DistributedBFS({0}))

    def test_zero_delay_latency_adversary_bfs(self):
        self._clean_vs(LatencyAdversary(0, seed=3), lambda: DistributedBFS({0}))

    def test_null_adversary_scheduler_fleet(self):
        def fleet():
            algos = [
                DistributedBFS({7 * i}, prefix=f"f{i}_", algorithm_id=i)
                for i in range(4)
            ]
            return RandomDelayScheduler(algos, [0, 2, 5, 9])

        self._clean_vs(NullAdversary(), fleet)

    def test_null_adversary_chained_timer_stage(self):
        self._clean_vs(NullAdversary(), FloodMax, _delayed_bfs_pair)

    def test_retry_mode_null_adversary_matches_no_adversary(self):
        # The retry protocol itself is deterministic: with no faults to
        # tolerate it must behave identically whether or not the
        # adversarial delivery path is active.
        g = grid_graph(5, 5)
        runs = []
        for adversary in (None, NullAdversary()):
            net = Network(g)
            bfs = DistributedBFS({0}, retry=RetryPolicy())
            runs.append(_metric_tuple(net.run(bfs, adversary=adversary)))
        assert runs[0] == runs[1]


class TestDropAdversary:
    def test_drops_are_counted_and_conserved(self):
        g = grid_graph(6, 6)
        net = Network(g)
        metrics = net.run(DistributedBFS({0}), adversary=DropAdversary(0.3, seed=11))
        assert metrics.messages_dropped > 0
        # Termination means empty backlog, so the send-count invariant
        # collapses to sent = delivered + dropped.
        assert metrics.messages_sent == (
            metrics.messages_delivered + metrics.messages_dropped
        )

    def test_per_edge_rate_override(self):
        # Drop one path edge always; BFS (no retry) cannot cross it, so the
        # far side keeps its default unreached state.
        g = path_graph(5)
        adversary = DropAdversary(0.0, seed=1, per_edge_rates={(2, 3): 0.999999})
        net = Network(g)
        # The lost message ends the wave: the run quiesces, it does not stall.
        metrics = net.run(DistributedBFS({0}), adversary=adversary, max_rounds=200)
        assert metrics.terminated and metrics.messages_dropped == 1
        _, dist = extract_bfs_tree(net)
        assert dist[2] == 2 and dist.get(4) is None

    def test_unknown_edge_override_raises(self):
        g = path_graph(4)
        adversary = DropAdversary(0.1, seed=1, per_edge_rates={(0, 3): 0.5})
        with pytest.raises(ValueError, match="unknown edge"):
            Network(g).run(DistributedBFS({0}), adversary=adversary)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DropAdversary(1.0, seed=1)
        with pytest.raises(ValueError):
            DropAdversary(-0.1, seed=1)


class TestDuplicateAdversary:
    def test_duplicates_counted_and_answer_unchanged(self):
        g = grid_graph(6, 6)
        net = Network(g)
        metrics = net.run(
            DistributedBFS({0}), adversary=DuplicateAdversary(0.4, seed=7)
        )
        assert metrics.messages_duplicated > 0
        assert metrics.messages_delivered == (
            metrics.messages_sent + metrics.messages_duplicated
        )
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)


class TestDelayAdversaries:
    @pytest.mark.parametrize("adversary", [
        LatencyAdversary(4, seed=13),
        AsyncScheduler(0.6, max_hold=5, seed=13),
    ], ids=["latency", "async"])
    def test_delays_stretch_rounds_but_not_answers(self, adversary):
        g = grid_graph(6, 6)
        clean = Network(g).run(DistributedBFS({0}))
        net = Network(g)
        metrics = net.run(DistributedBFS({0}), adversary=adversary)
        assert metrics.rounds >= clean.rounds
        assert metrics.messages_dropped == 0
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_async_holds_preserve_fifo(self):
        # Two messages queued on the same link must arrive in send order
        # even when the adversary holds the head.  BFS distances being
        # exact on a path under heavy holding is the cheap FIFO witness:
        # any reorder would let a larger distance overtake and stick.
        g = path_graph(12)
        net = Network(g)
        net.run(DistributedBFS({0}),
                adversary=AsyncScheduler(0.7, max_hold=8, seed=2))
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)


class TestCrashAdversary:
    def test_crash_wipes_state_and_counts(self):
        g = path_graph(8)
        adversary = CrashAdversary({4: 3})
        net = Network(g)
        metrics = net.run(DistributedBFS({0}), adversary=adversary,
                          max_rounds=100)
        assert metrics.terminated
        assert metrics.crashes == 1
        # Node 4 crashed after learning its distance: state gone, and the
        # nodes behind it never heard anything (messages to it are dropped).
        assert "bfs_dist" not in net.node(4).state
        assert "bfs_dist" not in net.node(6).state
        assert net.node(2).state["bfs_dist"] == 2
        assert metrics.messages_dropped > 0

    def test_recovery_rejoins_blank(self):
        g = path_graph(6)
        adversary = CrashAdversary({3: 2}, {3: 10})
        net = Network(g)
        bfs = DistributedBFS({0}, retry=RetryPolicy())
        metrics = net.run(bfs, adversary=adversary)
        assert metrics.crashes == 1 and metrics.recoveries == 1
        # The retry protocol re-announces past the revived node, so the
        # whole path ends up labelled despite the mid-run wipe.
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_crash_inside_chained_timer_stage(self):
        # The timer stage runs with reset=False after FloodMax; node 14
        # crashes at its round 4, before the delayed BFS fires its timer at
        # round 7, so that timer round has to skip the crashed (state-wiped)
        # node.
        net = Network(grid_graph(6, 6))
        net.run(FloodMax())
        metrics = net.run(_delayed_bfs_pair(), reset=False,
                          adversary=CrashAdversary({14: 4}))
        assert metrics.crashes == 1
        assert metrics.terminated
        assert metrics.rounds > 7
        assert net.node(14).state == {}
        # The delayed BFS routes around the crashed node: on a grid every
        # live node keeps its Manhattan distance to the corner source.
        for v in range(36):
            if v != 14:
                assert net.node(v).state["s1_dist"] == (5 - v // 6) + (5 - v % 6)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="never crashes"):
            CrashAdversary({1: 2}, {2: 5})
        with pytest.raises(ValueError, match="strictly after"):
            CrashAdversary({1: 4}, {1: 4})
        with pytest.raises(ValueError, match="non-negative"):
            CrashAdversary({1: -1})

    def test_random_schedule_respects_protect_and_seed(self):
        first = random_crash_schedule(3, 20, seed=9, protect={0, 1},
                                      recover_after=8)
        second = random_crash_schedule(3, 20, seed=9, protect={0, 1},
                                       recover_after=8)
        assert first.crash_rounds == second.crash_rounds
        assert first.recover_rounds == second.recover_rounds
        assert len(first.crash_rounds) == 3
        assert not {0, 1} & set(first.crash_rounds)
        for v, r in first.recover_rounds.items():
            assert r == first.crash_rounds[v] + 8

    def test_random_schedule_too_many_crashes(self):
        with pytest.raises(ValueError, match="cannot crash"):
            random_crash_schedule(5, 5, protect={0})


class TestStackedAndFactory:
    def test_stacked_merges_events_and_first_action_wins(self):
        stacked = StackedAdversary([
            CrashAdversary({2: 5}),
            CrashAdversary({3: 7}, {3: 9}),
        ])
        assert stacked.event_rounds() == (5, 7, 9)
        assert list(stacked.begin_round(5)) == [("crash", 2)]
        assert stacked.begin_round(6) is None

    def test_stacked_requires_layers(self):
        with pytest.raises(ValueError):
            StackedAdversary([])

    def test_factory_shapes(self):
        assert make_fault_adversary(0.0, 0) is None
        assert isinstance(make_fault_adversary(0.1, 0, seed=1), DropAdversary)
        assert isinstance(
            make_fault_adversary(0.0, 2, seed=1, num_vertices=10), CrashAdversary
        )
        both = make_fault_adversary(0.1, 2, seed=1, num_vertices=10)
        assert isinstance(both, StackedAdversary)
        with pytest.raises(ValueError, match="num_vertices"):
            make_fault_adversary(0.0, 2)


class TestPartialMetrics:
    def test_partial_run_error_carries_metrics(self):
        # A droppy run that cannot finish in the allotted rounds stalls
        # with its partial measurements attached.
        g = path_graph(30)
        net = Network(g)
        with pytest.raises(PartialRunError) as exc:
            net.run(DistributedBFS({0}), adversary=LatencyAdversary(6, seed=5),
                    max_rounds=4)
        assert exc.value.metrics is not None
        assert exc.value.metrics.rounds == 4
        assert exc.value.last_active_set is not None

    def test_round_limit_exceeded_carries_metrics_without_adversary(self):
        g = path_graph(30)
        net = Network(g)
        with pytest.raises(RoundLimitExceeded) as exc:
            net.run(DistributedBFS({0}), max_rounds=3)
        assert exc.value.metrics is not None
        assert exc.value.metrics.rounds == 3
        assert exc.value.last_active_set is not None


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rate=st.floats(min_value=0.05, max_value=0.4))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_same_fault_pattern(self, seed, rate):
        g = grid_graph(4, 4)
        runs = []
        for _ in range(2):
            net = Network(g)
            bfs = DistributedBFS({0}, retry=RetryPolicy())
            runs.append(_metric_tuple(
                net.run(bfs, adversary=DropAdversary(rate, seed=seed))
            ))
        assert runs[0] == runs[1]
        assert runs[0][3] >= 0  # dropped counter present either way

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_derive_seed_streams_are_independent(self, seed):
        # Derived sub-seeds (the consumers' per-phase scheme) replay too.
        g = grid_graph(4, 4)
        first = DropAdversary(0.2, seed=derive_seed(seed, "phase", 0))
        second = DropAdversary(0.2, seed=derive_seed(seed, "phase", 0))
        nets = [Network(g), Network(g)]
        metrics = [
            net.run(DistributedBFS({0}, retry=RetryPolicy()), adversary=adv)
            for net, adv in zip(nets, (first, second))
        ]
        assert _metric_tuple(metrics[0]) == _metric_tuple(metrics[1])


class TestAdversaryProtocol:
    def test_base_adversary_is_a_no_op(self):
        adversary = Adversary()
        assert adversary.begin_round(0) is None
        assert adversary.event_rounds() == ()

    def test_retry_policy_fields(self):
        assert RetryPolicy() == RetryPolicy(timeout=4, max_attempts=8, backoff=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
