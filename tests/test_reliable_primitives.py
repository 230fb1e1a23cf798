"""Oracle correctness of the retry/ack protocol stack under live faults.

The hardened primitives (retry-mode :class:`DistributedBFS`, retry-mode
:class:`ConcurrentMaskedBFS`, the :class:`ReliableChannel`-backed
:class:`PartAggregation`) and the consumers built on them must produce
*exactly* the fault-free answer under message loss — drops with retries
change the cost, never the result.  Every generator family is exercised:
the acceptance bar of the robustness PR is oracle-exactness at a drop
rate of at least 0.05 across all six.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import shortcut_boruvka_mst
from repro.congest import DropAdversary, DuplicateAdversary, Network
from repro.congest.adversary import RetryPolicy, StackedAdversary
from repro.congest.algorithm import DistributedAlgorithm
from repro.congest.primitives import DistributedBFS, extract_bfs_tree
from repro.congest.message import Message
from repro.congest.node import NodeContext
from repro.congest.primitives.aggregation import PartAggregation, aggregate_over_shortcut
from repro.congest.primitives.concurrent_bfs import UNREACHED, ConcurrentMaskedBFS
from repro.congest.primitives.reliable import ACK_ONLY, ReliableChannel
from repro.congest.scheduler import draw_random_delays
from repro.graphs import bfs_distances
from repro.graphs.components import connected_components
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    disjoint_union,
    make_family_graph,
    path_graph,
    with_random_weights,
)
from repro.rng import derive_rng
from repro.graphs.partitions import random_connected_partition, singleton_free
from repro.shortcuts import Partition, build_kogan_parter_shortcut

pytestmark = pytest.mark.faults

FAMILIES = tuple(sorted(GENERATOR_FAMILIES))


def _counts(metrics):
    return (metrics.rounds, metrics.messages_sent, metrics.messages_delivered,
            metrics.max_edge_messages)


def _bfs_workload(family):
    return make_family_graph(family, 48, rng=derive_rng(3, "pin", family))


def _fleet_workload(family, retry):
    g = make_family_graph(family, 40, rng=derive_rng(5, "pin-fleet", family))
    n = g.num_vertices
    csr = g.csr()
    full = np.arange(csr.num_edges, dtype=np.int64)
    sources = [0, n // 2, n - 1]
    masks = [CSRLinkMask.from_edge_ids(csr, full) for _ in sources]
    fleet = ConcurrentMaskedBFS(
        sources, masks, [0, 2, 5], 4,
        [f"r{i}_" for i in range(len(sources))], n, retry=retry,
    )
    return g, fleet


def _aggregation_workload(family, retry):
    """Four parts of a 40-node family graph, their fault-free trees, and
    a retry-mode min-aggregation over them (the network has run the trees)."""
    g = make_family_graph(family, 40, rng=derive_rng(7, "pin-agg", family))
    n = g.num_vertices
    rng = random.Random(3)
    label = [rng.randrange(4) for _ in range(n)]
    csr = g.csr()
    masks = [
        CSRLinkMask(csr, np.asarray(
            [label[u] == k and label[v] == k for (u, v) in csr.edge_list],
            dtype=bool,
        ))
        for k in range(4)
    ]
    roots = [label.index(k) for k in range(4)]
    values = [{v: 7 * v + k for v in range(n) if label[v] == k} for k in range(4)]
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, [0] * 4, n, [f"pa{i}_" for i in range(4)], n,
    )
    net.run(fleet)
    agg = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(4, 2, rng), retry=retry,
    )
    return net, agg


class TestRetryBFS:
    # Zero-loss schedules of the per-unit-timer channel.
    @pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
    @pytest.mark.parametrize("family,max_depth,expected", [
        ("expander", None, (6, 312, 312, 4)),
        ("expander", 3, (4, 208, 208, 4)),
        ("broom", None, (5, 226, 226, 4)),
        ("broom", 3, (4, 202, 202, 4)),
    ])
    def test_zero_loss_schedule_pinned(self, family, max_depth, expected):
        g = _bfs_workload(family)
        trees = []
        for retry in (RetryPolicy(), None):
            net = Network(g)
            metrics = net.run(DistributedBFS({0, 5}, max_depth=max_depth, retry=retry))
            if retry is not None:
                assert _counts(metrics) == expected
            trees.append(extract_bfs_tree(net))
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_under_drops_on_every_family(self, family):
        g = make_family_graph(family, 48, rng=derive_rng(3, "rbfs", family))
        net = Network(g)
        bfs = DistributedBFS({0}, retry=RetryPolicy())
        metrics = net.run(bfs, adversary=DropAdversary(0.1, seed=7))
        assert metrics.messages_dropped > 0
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_exact_under_duplicates(self):
        g = make_family_graph("torus", 48, rng=1)
        net = Network(g)
        bfs = DistributedBFS({0}, retry=RetryPolicy())
        metrics = net.run(bfs, adversary=DuplicateAdversary(0.3, seed=7))
        assert metrics.messages_duplicated > 0
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_exact_at_heavier_rate(self):
        g = make_family_graph("expander", 48, rng=2)
        net = Network(g)
        bfs = DistributedBFS({0}, retry=RetryPolicy())
        net.run(bfs, adversary=DropAdversary(0.2, seed=11))
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    @pytest.mark.parametrize("seed,rounds", [(0, 945), (1, 881), (2, 855)])
    def test_long_path_exact_under_drops(self, seed, rounds):
        # Under global checkpoints (last one at round 512) these runs ended
        # "terminated" after 522-566 rounds with 84-146 of 700 nodes reached.
        g = path_graph(700)
        net = Network(g)
        bfs = DistributedBFS({0}, retry=RetryPolicy())
        metrics = net.run(bfs, adversary=DropAdversary(0.05, seed=seed))
        assert metrics.terminated and metrics.rounds == rounds
        assert bfs.abandoned == 0
        _, dist = extract_bfs_tree(net)
        assert dist == bfs_distances(g, 0)

    def test_abandoned_units_are_counted(self):
        # A short retry budget at 30% loss gives up on some units; a run
        # that ends with wrong distances must say so through the count.
        g = path_graph(30)
        oracle = bfs_distances(g, 0)
        wrong = 0
        for seed in range(40):
            net = Network(g)
            bfs = DistributedBFS({0}, retry=RetryPolicy(timeout=2, max_attempts=2))
            metrics = net.run(bfs, adversary=DropAdversary(0.3, seed=seed))
            assert metrics.terminated
            _, dist = extract_bfs_tree(net)
            if dist != oracle:
                wrong += 1
                assert bfs.abandoned > 0, seed
        assert wrong > 0


class TestRetryFleet:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_concurrent_masked_bfs_exact_under_drops(self, family):
        g = make_family_graph(family, 40, rng=derive_rng(5, "fleet", family))
        n = g.num_vertices
        csr = g.csr()
        full = np.arange(csr.num_edges, dtype=np.int64)
        sources = [0, n // 2, n - 1]
        masks = [CSRLinkMask.from_edge_ids(csr, full) for _ in sources]
        fleet = ConcurrentMaskedBFS(
            sources, masks, [0, 2, 5], n + 5,
            [f"r{i}_" for i in range(len(sources))], n,
            retry=RetryPolicy(),
        )
        net = Network(g)
        metrics = net.run(fleet, adversary=DropAdversary(0.1, seed=13))
        assert metrics.messages_dropped > 0
        for idx, src in enumerate(sources):
            oracle = bfs_distances(g, src)
            for v in range(n):
                expected = oracle.get(v, UNREACHED)
                assert fleet.dist[idx][v] == expected, (idx, v)


    @pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
    @pytest.mark.parametrize("family,expected,parent_digest", [
        ("expander", (11, 584, 584, 11), "8f9a47e9aaac90d8"),
        ("torus", (11, 444, 444, 9), "e12652a23b340d1a"),
    ])
    def test_zero_loss_schedule_pinned(self, family, expected, parent_digest):
        # Ack traffic shares links with other instances' data, so the
        # parents may differ from a clean run's; the distances may not.
        fleets = []
        for retry in (RetryPolicy(), None):
            g, fleet = _fleet_workload(family, retry)
            metrics = Network(g).run(fleet)
            if retry is not None:
                assert _counts(metrics) == expected
            fleets.append(fleet)
        digest = hashlib.sha256(repr(fleets[0].parent).encode()).hexdigest()[:16]
        assert digest == parent_digest
        assert fleets[0].dist == fleets[1].dist


class TestReliableAggregation:
    # (rounds, messages sent, messages dropped) at 10% drop.
    @pytest.mark.parametrize("family,expected", [
        ("expander", (16, 80, 9)),
        ("broom", (43, 111, 13)),
    ])
    def test_drop_schedule_pinned(self, family, expected):
        net, agg = _aggregation_workload(family, RetryPolicy())
        metrics = net.run(agg, reset=False, adversary=DropAdversary(0.1, seed=11))
        assert (metrics.rounds, metrics.messages_sent, metrics.messages_dropped) == expected
        assert agg.results == [28, 1, 16, 24]
        assert agg.abandoned == 0

    def _workload(self, family, seed):
        g = make_family_graph(family, 48, rng=derive_rng(seed, "agg", family))
        parts = singleton_free(random_connected_partition(
            g, 4, rng=derive_rng(seed, "agg-parts", family), cover_all=True,
        ))
        partition = Partition(g, parts, validate=False)
        shortcut = build_kogan_parter_shortcut(
            g, partition, rng=derive_rng(seed, "agg-sample", family),
        ).shortcut
        return g, partition, shortcut

    @pytest.mark.parametrize("family", FAMILIES)
    def test_min_exact_under_drops_on_every_family(self, family):
        g, partition, shortcut = self._workload(family, 17)
        values = {v: float((v * 7) % 23) for v in range(g.num_vertices)}
        outcome = aggregate_over_shortcut(
            shortcut, values, "min", rng=3,
            retry=RetryPolicy(), adversary=DropAdversary(0.08, seed=19),
        )
        expected = {
            i: min(values[v] for v in partition.part(i))
            for i in range(partition.num_parts)
        }
        assert outcome.values == expected

    def test_sum_exact_under_duplicates(self):
        # At-least-once delivery is the classic way to double-count a sum;
        # the reliable channel's sequence-number dedup must absorb it.
        g, partition, shortcut = self._workload("hub", 23)
        values = {v: float(v + 1) for v in range(g.num_vertices)}
        outcome = aggregate_over_shortcut(
            shortcut, values, "sum", rng=3,
            retry=RetryPolicy(), adversary=DuplicateAdversary(0.3, seed=29),
        )
        expected = {
            i: sum(values[v] for v in partition.part(i))
            for i in range(partition.num_parts)
        }
        assert outcome.values == pytest.approx(expected)

    def test_channel_rejects_oversized_values(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        with pytest.raises(ValueError):
            channel.send_unit(0, 0, 1, 0, (1, 2, 3, 4))


class TestReliableChannel:
    TAGS = ({0: "t"}, {0: "t"})

    def _deliver(self, channel, sender, receiver, current_round=0):
        """End ``sender``'s round and decode its wire messages at ``receiver``."""
        channel.end_round(sender, current_round)
        return channel.receive(receiver, sender._collect_outbox(), self.TAGS)

    def test_same_kind_supersedes_pending_unit(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        a, b = NodeContext(0, (1,)), NodeContext(1, (0,))
        channel.send_unit(0, 0, 1, 0, (3, 0))
        channel.send_unit(0, 0, 1, 0, (2, 0))
        assert channel.total_pending == 1
        assert [m.payload for m in self._deliver(channel, a, b)] == [(2, 0)]
        # A late cumulative ack covering only the superseded unit (sequence
        # number 0) leaves the live one (1) pending; b's own ack settles it.
        stale = Message(1, 0, "t", (ACK_ONLY, ACK_ONLY, 0, 1, 0, 0, 0, 0), 0)
        channel.receive(a, [stale], self.TAGS)
        assert channel.total_pending == 1
        self._deliver(channel, b, a)
        assert channel.total_pending == 0

    def test_superseded_numbers_never_stall_the_ack(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        a, b = NodeContext(0, (1,)), NodeContext(1, (0,))
        # Number 0 is superseded before it is sent, number 1 while in
        # flight (its wire message is lost): the floor of the message that
        # carries number 2 moves b's cumulative ack past both.
        channel.send_unit(0, 0, 1, 0, 10)
        channel.send_unit(0, 0, 1, 0, 11)
        channel.end_round(a, 0)
        assert [m.payload[0] for m in a._collect_outbox()] == [1]
        channel.send_unit(0, 0, 1, 0, 12)
        assert [m.payload for m in self._deliver(channel, a, b, 1)] == [12]
        channel.end_round(b, 1)
        ack = b._collect_outbox()
        assert [m.payload[3] for m in ack] == [3]
        channel.receive(a, ack, self.TAGS)
        assert channel.total_pending == 0
        channel.end_round(a, 2)
        assert a.halted and a._collect_outbox() == []

    def test_other_kinds_stay_pending_side_by_side(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        channel.send_unit(0, 0, 1, 0, 5)
        channel.send_unit(0, 0, 1, 1, 6)
        assert channel.total_pending == 2

    def test_recovered_sender_units_are_processed(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        a, b = NodeContext(0, (1,)), NodeContext(1, (0,))
        channel.send_unit(0, 0, 1, 0, 7)
        assert [m.payload for m in self._deliver(channel, a, b)] == [7]
        channel.on_crash(0)
        # The recovered sender's sequence counter survived the crash, so
        # its next unit is new to the receiver, not a duplicate.
        channel.send_unit(0, 0, 1, 0, 8)
        assert [m.payload for m in self._deliver(channel, a, b)] == [8]

    def test_timer_retransmits_only_unacked_units(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        a, b = NodeContext(0, (1,)), NodeContext(1, (0,))
        channel.send_unit(0, 0, 1, 0, 5)
        channel.send_unit(0, 0, 1, 1, 6)
        # One wire message per endpoint per round: unit 0 leaves the link
        # queue in round 1, unit 1 in round 2.
        assert [m.payload for m in self._deliver(channel, a, b, 0)] == [5]
        self._deliver(channel, b, a, 1)  # acks unit 0
        assert channel.total_pending == 1
        assert [m.payload for m in self._deliver(channel, a, b, 1)] == [6]
        channel.end_round(b, 2)
        b._collect_outbox()  # the ack of unit 1 is lost
        for rnd in range(2, 6):
            channel.end_round(a, rnd)
            assert a._collect_outbox() == [] and not a.halted
        # timeout (4) rounds after unit 1 left the queue, it alone goes out
        # again, and the receiver drops the duplicate.
        channel.end_round(a, 6)
        resent = a._collect_outbox()
        assert [m.payload[0] for m in resent] == [1]
        assert channel.receive(b, resent, self.TAGS) == []
        self._deliver(channel, b, a, 7)
        assert channel.total_pending == 0
        channel.end_round(a, 7)
        assert a._collect_outbox() == [] and a.halted

    def test_unanswered_unit_is_abandoned_after_max_attempts(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy(timeout=2, max_attempts=2))
        a = NodeContext(0, (1,))
        channel.send_unit(0, 0, 1, 0, 5)
        sent_in = []
        for rnd in range(20):
            channel.end_round(a, rnd)
            if a._collect_outbox():
                sent_in.append(rnd)
            if rnd < 17:
                assert not a.halted
        # Departures 1, 4, 9; waits 2, 4, 8: resends in rounds 3 and 8,
        # given up in round 17.
        assert sent_in == [0, 3, 8]
        assert channel.abandoned == 1 and channel.total_pending == 0
        assert a.halted


class _Exchange(DistributedAlgorithm):
    """Every node sends three units (one per kind) to each neighbour."""

    name = "exchange"
    KIND_TAGS = tuple({0: f"k{kind}"} for kind in range(3))

    def __init__(self):
        self.channel = ReliableChannel({0: "x"}, RetryPolicy())
        self.received = []

    def initialize(self, node):
        for kind in range(3):
            self.channel.send_units(0, node.node_id, node.neighbors, kind,
                                    (node.node_id, kind))
        self.channel.end_round(node, self.current_round)

    def on_round(self, node, messages):
        for msg in self.channel.receive(node, messages, self.KIND_TAGS):
            self.received.append((node.node_id, msg.sender, msg.payload))
        self.channel.end_round(node, self.current_round)


class TestDeliveryProtocol:
    def test_no_unit_reaches_the_host_twice_under_duplicates_and_drops(self):
        g = make_family_graph("torus", 36, rng=5)
        exchange = _Exchange()
        adversary = StackedAdversary([
            DropAdversary(0.15, seed=3), DuplicateAdversary(0.3, seed=4),
        ])
        metrics = Network(g).run(exchange, adversary=adversary)
        assert metrics.messages_dropped > 0 and metrics.messages_duplicated > 0
        assert exchange.channel.abandoned == 0
        expected = sorted(
            (v, u, (u, kind)) for v in range(g.num_vertices)
            for u in g.neighbors(v) for kind in range(3)
        )
        assert sorted(exchange.received) == expected

    @pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
    @pytest.mark.parametrize("family,expected", [
        ("expander", (32, 2798, 56)),
        ("torus", (27, 2125, 49)),
    ])
    def test_congested_fleet_times_units_from_departure(self, family, expected):
        # Eight instances share every link, so a unit may wait rounds in
        # its sender's link queue.  Timers counted from the send round
        # instead of the departure resend needlessly: (39, 3858, 71) and
        # (33, 3189, 61) at zero loss.
        g = make_family_graph(family, 40, rng=derive_rng(5, "pin-fleet", family))
        n = g.num_vertices
        csr = g.csr()
        full = np.arange(csr.num_edges, dtype=np.int64)
        sources = list(range(0, n, n // 8))[:8]
        fleets = []
        for retry in (RetryPolicy(), None):
            masks = [CSRLinkMask.from_edge_ids(csr, full) for _ in sources]
            fleet = ConcurrentMaskedBFS(
                sources, masks, [0] * 8, n, [f"r{i}_" for i in range(8)], n,
                retry=retry,
            )
            metrics = Network(g).run(fleet)
            if retry is not None:
                assert (metrics.rounds, metrics.messages_sent,
                        metrics.max_edge_messages) == expected
            fleets.append(fleet)
        assert fleets[0].dist == list(fleets[1].dist)

    # Zero-loss (rounds, sent, delivered, max edge load) of the retry BFS
    # (sources {0, 5}), fleet and aggregation workloads above, per family:
    # under global checkpoints, then under per-unit timers.
    CHECKPOINT_PINS = {
        "broom": ((6, 274, 274, 5), (11, 727, 727, 15), (7, 100, 100, 9)),
        "caterpillar": ((6, 259, 259, 5), (10, 656, 656, 14), (7, 79, 79, 9)),
        "expander": ((6, 412, 412, 6), (12, 768, 768, 17), (6, 76, 76, 8)),
        "hub": ((6, 259, 259, 6), (11, 394, 394, 14), (8, 103, 103, 9)),
        "preferential": ((6, 315, 315, 5), (12, 870, 870, 16), (10, 91, 91, 10)),
        "torus": ((7, 350, 350, 6), (12, 592, 592, 16), (6, 84, 84, 8)),
    }
    PINS = {
        "broom": ((5, 226, 226, 4), (9, 565, 565, 12), (7, 94, 94, 7)),
        "caterpillar": ((5, 223, 223, 4), (10, 537, 537, 12), (7, 71, 71, 7)),
        "expander": ((6, 312, 312, 4), (11, 584, 584, 11), (6, 70, 70, 6)),
        "hub": ((5, 213, 213, 4), (10, 312, 312, 9), (8, 91, 91, 7)),
        "preferential": ((5, 307, 307, 4), (11, 730, 730, 12), (9, 85, 85, 8)),
        "torus": ((7, 258, 258, 4), (11, 444, 444, 9), (6, 80, 80, 6)),
    }

    @pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_loss_no_costlier_than_checkpoints(self, family):
        g = _bfs_workload(family)
        net = Network(g)
        bfs = DistributedBFS({0, 5}, retry=RetryPolicy())
        bfs_counts = _counts(net.run(bfs))
        clean = Network(g)
        clean.run(DistributedBFS({0, 5}))
        assert extract_bfs_tree(net)[1] == extract_bfs_tree(clean)[1]

        g, fleet = _fleet_workload(family, RetryPolicy())
        fleet_counts = _counts(Network(g).run(fleet))
        _, plain = _fleet_workload(family, None)
        Network(g).run(plain)
        assert fleet.dist == list(plain.dist)

        net, agg = _aggregation_workload(family, RetryPolicy())
        agg_counts = _counts(net.run(agg, reset=False))
        assert agg.results == [28, 1, 16, 24]

        counts = (bfs_counts, fleet_counts, agg_counts)
        assert counts == self.PINS[family]
        for new, old in zip(counts, self.CHECKPOINT_PINS[family]):
            assert new[0] <= old[0] and new[1] <= old[1]


class TestConsumersUnderLoss:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mst_matches_kruskal_under_drops(self, family):
        g = make_family_graph(family, 56, rng=derive_rng(31, "mst", family))
        weighted = with_random_weights(g, rng=derive_rng(31, "mst-w", family))
        _, kruskal_weight = kruskal_mst(weighted)
        result = shortcut_boruvka_mst(
            weighted, rng=derive_rng(31, "mst-run", family),
            drop_rate=0.05, adversary_seed=37,
        )
        assert abs(result.weight - kruskal_weight) < 1e-6

    @pytest.mark.parametrize("family", ("torus", "preferential"))
    def test_components_match_traversal_under_drops(self, family):
        blocks = [
            make_family_graph(family, 28, rng=derive_rng(41, "comp", family, b))
            for b in range(2)
        ]
        g = disjoint_union(blocks)
        comps = connected_components(g)
        expected = [0] * g.num_vertices
        for comp in comps:
            leader = min(comp)
            for v in comp:
                expected[v] = leader
        result = shortcut_connected_components(
            g, rng=derive_rng(41, "comp-run", family),
            drop_rate=0.05, adversary_seed=43,
        )
        assert result.labels == expected
        assert result.num_components == len(comps)


class TestFaultSweepExperiment:
    def test_e15_parallel_matches_serial(self):
        from repro.analysis.experiments import run_fault_tolerance_experiment

        kwargs = dict(families=("torus",), size=32,
                      drop_rates=(0.0, 0.1), crash_counts=(0,), seed=61)
        serial = run_fault_tolerance_experiment(**kwargs)
        parallel = run_fault_tolerance_experiment(**kwargs, workers=2)
        assert parallel.headers == serial.headers
        assert parallel.rows == serial.rows
        assert len(serial.rows) == 2

    def test_e15_drop_only_cells_stay_exact(self):
        from repro.analysis.experiments import run_fault_tolerance_experiment

        table = run_fault_tolerance_experiment(
            families=("hub",), size=32, drop_rates=(0.0, 0.1),
            crash_counts=(0,), seed=61,
        )
        ok_mst = table.headers.index("mst_ok")
        ok_comp = table.headers.index("comp_ok")
        assert all(row[ok_mst] and row[ok_comp] for row in table.rows)
