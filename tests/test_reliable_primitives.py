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
from repro.congest.adversary import RetryPolicy
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


class TestRetryBFS:
    # Zero-loss schedules captured before the BFS announcements moved onto
    # the reliable channel: without faults the channel sends the same
    # messages in the same rounds as the hand-rolled ack protocol did.
    @pytest.mark.filterwarnings("ignore::repro.congest.bulk.BulkFallbackWarning")
    @pytest.mark.parametrize("family,max_depth,expected", [
        ("expander", None, (6, 412, 412, 6)),
        ("expander", 3, (4, 208, 208, 4)),
        ("broom", None, (6, 274, 274, 5)),
        ("broom", 3, (4, 202, 202, 4)),
    ])
    def test_zero_loss_schedule_pinned(self, family, max_depth, expected):
        g = make_family_graph(family, 48, rng=derive_rng(3, "pin", family))
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
        ("expander", (12, 768, 768, 17), "d1d63d4d1c2eb39a"),
        ("torus", (12, 592, 592, 16), "c80117c61be73fd7"),
    ])
    def test_zero_loss_schedule_pinned(self, family, expected, parent_digest):
        # Captured before the fleet's announcements moved onto the reliable
        # channel.  Ack traffic shares links with other instances' data, so
        # the parents may differ from a clean run's; the distances may not.
        g = make_family_graph(family, 40, rng=derive_rng(5, "pin-fleet", family))
        n = g.num_vertices
        csr = g.csr()
        full = np.arange(csr.num_edges, dtype=np.int64)
        sources = [0, n // 2, n - 1]
        fleets = []
        for retry in (RetryPolicy(), None):
            masks = [CSRLinkMask.from_edge_ids(csr, full) for _ in sources]
            fleet = ConcurrentMaskedBFS(
                sources, masks, [0, 2, 5], 4,
                [f"r{i}_" for i in range(len(sources))], n, retry=retry,
            )
            metrics = Network(g).run(fleet)
            if retry is not None:
                assert _counts(metrics) == expected
            fleets.append(fleet)
        digest = hashlib.sha256(repr(fleets[0].parent).encode()).hexdigest()[:16]
        assert digest == parent_digest
        assert fleets[0].dist == fleets[1].dist


class TestReliableAggregation:
    # Captured before the BFS primitives moved onto the channel: the
    # aggregation's wire schedule, hence its drop draws, is unchanged.
    @pytest.mark.parametrize("family,expected", [
        ("expander", (10, 86, 9)),
        ("broom", (34, 120, 14)),
    ])
    def test_drop_schedule_pinned(self, family, expected):
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
            delays=draw_random_delays(4, 2, rng), retry=RetryPolicy(),
        )
        metrics = net.run(agg, reset=False, adversary=DropAdversary(0.1, seed=11))
        assert (metrics.rounds, metrics.messages_sent, metrics.messages_dropped) == expected
        assert agg.results == [28, 1, 16, 24]

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
    TAGS = ({0: "t"},)

    def _deliver(self, channel, sender, receiver, current_round=None):
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
        # A late ack of the superseded unit (sequence number 0) matches
        # nothing; the ack of the live one (1) settles it.
        stale = Message(1, 0, "t", (ACK_ONLY, ACK_ONLY, 0, 0, 0, 0, 0), 0)
        channel.receive(a, [stale], self.TAGS)
        assert channel.total_pending == 1
        self._deliver(channel, b, a)
        assert channel.total_pending == 0
        assert not channel.pending_timer_work()

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

    def test_checkpoint_retransmits_only_unacked_units(self):
        channel = ReliableChannel({0: "t"}, RetryPolicy())
        a, b = NodeContext(0, (1,)), NodeContext(1, (0,))
        channel.send_unit(0, 0, 1, 0, 7)
        self._deliver(channel, a, b)
        assert a.halted  # nothing queued, though the unit is not acked yet
        # At a checkpoint the unacked unit goes out again, and the receiver
        # drops the duplicate.
        first, second = channel.checkpoints[:2]
        assert self._deliver(channel, a, b, first) == []
        assert channel.total_pending == 1
        self._deliver(channel, b, a)
        assert channel.total_pending == 0
        channel.end_round(a, second)
        assert a._collect_outbox() == [] and a.halted


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
