"""Oracle and protocol tests for the PartAggregation runtime primitive."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.analysis.experiments import make_workload
from repro.congest.network import Network
from repro.congest.primitives import aggregation
from repro.congest.primitives.aggregation import (
    PartAggregation,
    aggregate_over_shortcut,
    run_part_aggregation,
    shortcut_link_masks,
)
from repro.congest.scheduler import mask_congestion
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import broom_graph, caterpillar_graph
from repro.shortcuts.baselines import build_empty_shortcut, build_naive_shortcut
from repro.shortcuts.kogan_parter import build_kogan_parter_shortcut
from repro.shortcuts.partition import Partition

from partwise_oracle import partwise_fold


class TestAggregateOverShortcut:
    @pytest.mark.parametrize("kind,diameter", [("hub", 6), ("cluster", 4), ("lower_bound", 6)])
    @pytest.mark.parametrize("op", ["min", "max", "sum"])
    def test_matches_sequential_oracle(self, kind, diameter, op):
        workload = make_workload(kind, 150, diameter, seed=5)
        shortcut = build_kogan_parter_shortcut(
            workload.graph, workload.partition, diameter_value=workload.diameter,
            log_factor=0.5, rng=5,
        ).shortcut
        values = {v: (v * 7) % 101 for v in workload.partition.covered_vertices()}
        simulated = aggregate_over_shortcut(shortcut, values, op, rng=9)
        # These workloads have no singleton part: every part is simulated.
        assert simulated.folded_parts == []
        assert simulated.values == partwise_fold(workload.partition, values, op)
        assert simulated.rounds == simulated.bfs_rounds + simulated.aggregation_rounds
        assert simulated.rounds > 0

    def test_raw_routing_same_values(self):
        workload = make_workload("lower_bound", 200, 6, seed=2)
        shortcut = build_kogan_parter_shortcut(
            workload.graph, workload.partition, diameter_value=6,
            log_factor=0.5, rng=2,
        ).shortcut
        raw = build_empty_shortcut(workload.graph, workload.partition)
        values = {v: v for v in workload.partition.covered_vertices()}
        assert (aggregate_over_shortcut(shortcut, values, "min", rng=4).values
                == aggregate_over_shortcut(raw, values, "min", rng=4).values)

    def test_partial_values_and_folding(self):
        # Parts without any contributing node are omitted; singleton parts
        # fold locally at zero round cost.
        workload = make_workload("cluster", 100, 4, seed=3)
        partition = workload.partition
        contributing = partition.part(0) | partition.part(1)
        values = {v: 1 for v in contributing}
        shortcut = build_empty_shortcut(workload.graph, partition)
        outcome = aggregate_over_shortcut(shortcut, values, "sum", rng=1)
        assert outcome.values == {0: len(partition.part(0)), 1: len(partition.part(1))}

    def test_singleton_parts_fold_without_simulation(self):
        workload = make_workload("hub", 80, 6, seed=7)
        graph = workload.graph
        parts = [{v} for v in sorted(workload.partition.covered_vertices())[:10]]
        partition = Partition(graph, parts, validate=False)
        shortcut = build_empty_shortcut(graph, partition)
        values = {next(iter(p)): 3 for p in parts}
        outcome = aggregate_over_shortcut(shortcut, values, "sum", rng=1)
        assert outcome.rounds == outcome.congestion == 0
        assert outcome.simulated_parts == []
        assert len(outcome.folded_parts) == 10
        assert outcome.values == {i: 3 for i in range(10)}

    def test_relay_nodes_do_not_contribute(self):
        # A KP shortcut pulls outside nodes into a part's augmented
        # subgraph; their values must never leak into the part aggregate.
        workload = make_workload("lower_bound", 150, 6, seed=11)
        shortcut = build_kogan_parter_shortcut(
            workload.graph, workload.partition, diameter_value=6,
            log_factor=1.0, rng=11,
        ).shortcut
        values = {v: 1 for v in range(workload.graph.num_vertices)}
        outcome = aggregate_over_shortcut(shortcut, values, "sum", rng=3)
        partition = workload.partition
        for i in range(partition.num_parts):
            assert outcome.values[i] == len(partition.part(i))

    def test_broadcast_reaches_every_part_member(self):
        workload = make_workload("cluster", 90, 4, seed=9)
        partition = workload.partition
        shortcut = build_empty_shortcut(workload.graph, partition)
        values = {v: v for v in partition.covered_vertices()}
        masks = shortcut_link_masks(shortcut, range(partition.num_parts))
        outcome = run_part_aggregation(
            Network(workload.graph),
            [partition.leader(i) for i in range(partition.num_parts)],
            masks,
            [{v: values[v] for v in partition.part(i)} for i in range(partition.num_parts)],
            "min",
            rng=5,
        )
        for i in range(partition.num_parts):
            part = partition.part(i)
            assert outcome.results[i] == min(part)
            for v in part:
                assert outcome.delivered[i][v] == min(part)

    def test_unsupported_op_rejected(self):
        workload = make_workload("cluster", 60, 4, seed=1)
        shortcut = build_empty_shortcut(workload.graph, workload.partition)
        with pytest.raises(ValueError):
            aggregate_over_shortcut(shortcut, {}, "median", rng=1)


class TestPartAggregationProtocol:
    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            PartAggregation([], [[]], [], "min")

    def test_custom_identity_for_tuple_values(self):
        workload = make_workload("cluster", 80, 4, seed=4)
        partition = workload.partition
        shortcut = build_empty_shortcut(workload.graph, partition)
        sentinel = (float("inf"), -1, -1)
        values = {v: (float(v), v, v + 1) for v in partition.covered_vertices()}
        outcome = aggregate_over_shortcut(
            shortcut, values, "min", identity=sentinel, rng=2,
        )
        for i in range(partition.num_parts):
            part = partition.part(i)
            assert outcome.values[i] == (float(min(part)), min(part), min(part) + 1)


class TestShortcutBeatsRawOnBroom:
    """The acceptance pin: shortcut-routed aggregation beats raw part
    trees on a broom (long handle part inside a constant-diameter host)."""

    def _run(self, routing_rng):
        graph = broom_graph(80, 40, hub=True)
        partition = Partition(graph, [set(range(80))])
        values = {v: v for v in range(80)}
        shortcut = build_kogan_parter_shortcut(
            graph, partition, diameter_value=4, log_factor=1.0, rng=3,
        ).shortcut
        raw = build_empty_shortcut(graph, partition)
        routed = aggregate_over_shortcut(shortcut, values, "min", rng=routing_rng)
        bare = aggregate_over_shortcut(raw, values, "min", rng=routing_rng)
        return routed, bare

    def test_strictly_fewer_rounds(self):
        routed, bare = self._run(routing_rng=7)
        assert routed.values == bare.values == {0: 0}
        assert routed.rounds < bare.rounds

    def test_pinned_rounds(self):
        # One part shares no link with another (congestion 1), so neither
        # routing waits out a start delay.  The raw routing pays the handle
        # length in each stage (79-hop tree + convergecast + broadcast); the
        # shortcut routing collapses the handle through the sampled hub
        # edges to a constant number of rounds.
        routed, bare = self._run(routing_rng=7)
        assert routed.congestion == bare.congestion == 1
        assert routed.rounds == 8
        assert bare.rounds == 238

    def test_gap_holds_across_seeds(self):
        for seed in (1, 2, 3):
            routed, bare = self._run(routing_rng=seed)
            assert routed.rounds * 5 < bare.rounds

    def test_caterpillar_spine(self):
        graph = caterpillar_graph(60, 1, hub=True)
        partition = Partition(graph, [set(range(60))])
        values = {v: v for v in range(60)}
        shortcut = build_kogan_parter_shortcut(
            graph, partition, diameter_value=4, log_factor=1.0, rng=3,
        ).shortcut
        raw = build_empty_shortcut(graph, partition)
        routed = aggregate_over_shortcut(shortcut, values, "min", rng=7)
        bare = aggregate_over_shortcut(raw, values, "min", rng=7)
        assert routed.values == bare.values
        assert routed.rounds < bare.rounds


def _lower_bound_kp():
    workload = make_workload("lower_bound", 300, 6, seed=1)
    shortcut = build_kogan_parter_shortcut(
        workload.graph, workload.partition, diameter_value=workload.diameter,
        log_factor=0.5, rng=1,
    ).shortcut
    values = {v: v for v in workload.partition.covered_vertices()}
    return workload, shortcut, values


def _link_congestion(masks):
    """Brute-force reference: the most masks permitting one directed link."""
    counts = Counter(link for mask in masks for link in mask.links)
    return max(counts.values(), default=0)


class TestDelayBound:
    """Both stages draw their start delays from [0, ĉ - 1], ĉ the congestion
    of the masks they schedule (Theorem 2.1)."""

    def test_mask_congestion_matches_brute_force(self):
        workload, shortcut, _ = _lower_bound_kp()
        partition = workload.partition
        parts = range(partition.num_parts)
        kp = shortcut_link_masks(shortcut, parts)
        raw = shortcut_link_masks(build_empty_shortcut(workload.graph, partition), parts)
        naive = shortcut_link_masks(build_naive_shortcut(workload.graph, partition), parts)
        assert mask_congestion(kp) == _link_congestion(kp) > 1
        assert mask_congestion(raw) == 1
        assert mask_congestion(naive) == partition.num_parts

    def test_masks_without_links_have_no_congestion(self):
        csr = make_workload("cluster", 60, 4, seed=1).graph.csr()
        empty = CSRLinkMask.from_edge_ids(csr, [])
        assert mask_congestion([]) == 0
        assert mask_congestion([empty, empty]) == 0

    def test_delays_lie_below_the_congestion(self, monkeypatch):
        workload, shortcut, values = _lower_bound_kp()
        partition = workload.partition
        parts = list(range(partition.num_parts))
        masks = shortcut_link_masks(shortcut, parts)
        congestion = _link_congestion(masks)
        drawn = []
        real = aggregation.draw_random_delays

        def recording(num, max_delay, rng):
            delays = real(num, max_delay, rng)
            drawn.append(delays)
            return delays

        monkeypatch.setattr(aggregation, "draw_random_delays", recording)
        r = random.Random(11)
        outcome = run_part_aggregation(
            Network(workload.graph), [partition.leader(i) for i in parts], masks,
            [{v: values[v] for v in partition.part(i)} for i in parts], "min", rng=r,
        )
        assert outcome.congestion == congestion
        assert outcome.results == [min(partition.part(i)) for i in parts]
        assert [len(d) for d in drawn] == [len(parts), len(parts)]
        assert all(0 <= d <= congestion - 1 for stage in drawn for d in stage)
        assert max(max(stage) for stage in drawn) > 0
        # One randint per instance per stage, as before: the caller's
        # stream continues exactly where those draws leave it.
        reference = random.Random(11)
        for _ in range(2 * len(parts)):
            reference.randint(0, congestion - 1)
        assert r.random() == reference.random()

    def test_disjoint_parts_start_at_once(self):
        workload = make_workload("cluster", 90, 4, seed=9)
        raw = build_empty_shortcut(workload.graph, workload.partition)
        values = {v: v for v in workload.partition.covered_vertices()}
        outcome = aggregate_over_shortcut(raw, values, "min", rng=5)
        assert outcome.congestion == 1
        # No delay: the slowest part alone sets both stages' rounds, so any
        # seed gives the same count.
        again = aggregate_over_shortcut(raw, values, "min", rng=6)
        assert (again.rounds, again.messages) == (outcome.rounds, outcome.messages)


class TestSeededAggregation:
    def test_five_seeded_calls_agree(self):
        # Regression: with an OS-entropy default rng, identical calls drew
        # different delays and reported different rounds.
        _, shortcut, values = _lower_bound_kp()
        runs = [aggregate_over_shortcut(shortcut, values, "min", rng=3)
                for _ in range(5)]
        assert len({(r.rounds, r.messages) for r in runs}) == 1

    def test_rng_is_required(self):
        workload, shortcut, values = _lower_bound_kp()
        with pytest.raises(TypeError, match="rng"):
            aggregate_over_shortcut(shortcut, values, "min")
        partition = workload.partition
        with pytest.raises(TypeError, match="rng"):
            run_part_aggregation(
                Network(workload.graph), [partition.leader(0)],
                shortcut_link_masks(shortcut, [0]), [{}], "min",
            )
