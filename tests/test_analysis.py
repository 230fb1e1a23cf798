"""Unit tests for the analysis layer: bound curves and the experiment harness."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ExperimentTable,
    crossover_size,
    geometric_sizes,
    make_weighted_workload,
    make_workload,
    normalized_ratio,
    run_applications_experiment,
    run_baseline_experiment,
    run_congestion_experiment,
    run_dilation_experiment,
    run_distributed_experiment,
    run_mincut_experiment,
    run_mst_experiment,
    run_quality_experiment,
    run_shortcut_tree_experiment,
    summarize_ratios,
)
from repro.graphs import diameter, is_connected, validate_parts


class TestRatioUtilities:
    def test_normalized_ratio(self):
        assert normalized_ratio(10, 5) == 2.0
        assert normalized_ratio(1, 0) == float("inf")

    def test_summarize_ratios(self):
        summary = summarize_ratios([1.0, 2.0, 3.0])
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == 2.0
        assert summary.drift == 3.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_ratios([])

    def test_geometric_sizes(self):
        assert geometric_sizes(100, 2.0, 3) == [100, 200, 400]

    def test_geometric_sizes_validation(self):
        with pytest.raises(ValueError):
            geometric_sizes(0, 2.0, 3)
        with pytest.raises(ValueError):
            geometric_sizes(10, 1.0, 3)

    def test_crossover_exists_for_d6(self):
        n_star = crossover_size(6)
        # The KP curve k_D log n falls below sqrt(n) somewhere between 10^10
        # and 10^20 for D = 6.
        assert 1e10 < n_star < 1e20

    def test_crossover_smaller_without_log(self):
        assert crossover_size(6, log_factor=0.1) < crossover_size(6, log_factor=1.0)


class TestExperimentTable:
    def test_add_row_and_column(self):
        t = ExperimentTable("T", "test", headers=["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_row_length_checked(self):
        t = ExperimentTable("T", "test", headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_contains_headers_and_values(self):
        t = ExperimentTable("T", "demo", headers=["alpha", "beta"], notes=["hello"])
        t.add_row(1, 2.5)
        text = t.render()
        assert "alpha" in text and "beta" in text
        assert "2.5" in text
        assert "note: hello" in text


class TestWorkloads:
    @pytest.mark.parametrize("kind", ["hub", "lower_bound", "cluster"])
    def test_workload_is_valid(self, kind):
        w = make_workload(kind, 150, 6, seed=1)
        assert is_connected(w.graph)
        assert diameter(w.graph) == w.diameter
        validate_parts(w.graph, [set(p) for p in w.partition.parts])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_workload("unknown", 100, 6)

    def test_weighted_workload(self):
        wg, d = make_weighted_workload("hub", 100, 6, seed=2)
        assert d == 6
        weights = [w for _, _, w in wg.weighted_edges()]
        assert all(w > 0 for w in weights)

    def test_workload_determinism(self):
        w1 = make_workload("lower_bound", 150, 6, seed=5)
        w2 = make_workload("lower_bound", 150, 6, seed=5)
        assert w1.graph == w2.graph
        assert w1.partition.parts == w2.partition.parts


class TestExperimentRunners:
    """Each experiment runner is executed with tiny parameters; the goal is
    to verify the harness produces well-formed tables whose key relations
    hold (the full-size numbers come from ``repro experiments``)."""

    def test_quality_experiment(self):
        t = run_quality_experiment(sizes=(120,), diameters=(4,), trials=1, seed=1)
        assert t.experiment_id == "E1"
        assert len(t.rows) == 1
        ratio = t.column("ratio")[0]
        assert 0 < ratio < 10

    def test_congestion_experiment(self):
        t = run_congestion_experiment(sizes=(120,), seed=1)
        assert len(t.rows) == 1
        congestion, predicted = t.column("congestion")[0], t.column("predicted")[0]
        assert congestion <= 4 * predicted

    def test_dilation_experiment(self):
        t = run_dilation_experiment(sizes=(120,), diameters=(6,), seed=1)
        row = t.rows[0]
        induced = t.column("induced_diam")[0]
        dilation = t.column("dilation")[0]
        assert dilation <= induced

    def test_baseline_experiment(self):
        t = run_baseline_experiment(sizes=(120,), diameters=(6,), seed=1)
        assert len(t.rows) == 1
        kp = t.column("kp_quality")[0]
        naive = t.column("naive_quality")[0]
        lower = t.column("lower_bound")[0]
        assert kp >= lower * 0.5  # cannot beat the lower bound by much
        assert kp <= 20 * lower  # and tracks it within a modest factor

    def test_distributed_experiment(self):
        t = run_distributed_experiment(sizes=(60,), seed=1)
        assert t.column("spanning")[0] is True
        assert t.column("rounds")[0] > 0

    def test_distributed_scale_experiment(self):
        from repro.analysis import run_distributed_scale_experiment

        t = run_distributed_scale_experiment(sizes=(200,), seed=1)
        assert t.experiment_id == "E13"
        assert t.column("spanning")[0] is True
        assert t.column("rounds")[0] > 0
        assert t.column("probe_rounds")[0] > 0  # unknown diameter by default
        assert 1 <= t.column("guesses")[0] <= 2
        assert t.column("bfs_messages")[0] > 0

    def test_mst_experiment(self):
        t = run_mst_experiment(sizes=(80,), seed=1)
        assert t.column("weight_matches_kruskal")[0] is True
        assert t.column("naive_rounds")[0] >= t.column("kp_rounds")[0]

    def test_mincut_experiment(self):
        t = run_mincut_experiment(half_sizes=(15,), cut_edges=(3,), seed=1)
        assert t.column("ratio")[0] == pytest.approx(1.0)

    def test_applications_experiment(self):
        t = run_applications_experiment(sizes=(80,), seed=1)
        assert t.column("sssp_stretch")[0] >= 1.0
        assert t.column("ecss_2ec")[0] is True

    def test_shortcut_tree_experiment(self):
        t = run_shortcut_tree_experiment(sizes=(120,), trials=5, probabilities=(0.2, 0.8), seed=1)
        assert len(t.rows) == 2
        assert all(0 <= r <= 1 for r in t.column("success_rate"))


class TestSharedKPCells:
    def test_kp_columns_agree_wherever_tables_share_a_point(self):
        # E1-E4 read one KP cell per (kind, n, D) point, so the columns they
        # share cannot disagree (they did when each table sampled KP alone).
        from repro.analysis import run_all_experiments

        tables = {t.experiment_id: t for t in run_all_experiments(fast=True, seed=1)}

        def column_by_point(experiment_id, name):
            table = tables[experiment_id]
            points = zip(table.column("workload"), table.column("n"), table.column("D"))
            return dict(zip(points, table.column(name)))

        e1 = {name: column_by_point("E1", name) for name in ("congestion", "dilation", "quality")}
        for experiment_id, theirs, ours in (
            ("E2", "congestion", "congestion"),
            ("E3", "dilation", "dilation"),
            ("E4", "kp_quality", "quality"),
        ):
            other = column_by_point(experiment_id, theirs)
            shared = other.keys() & e1[ours].keys()
            assert shared, experiment_id
            assert {p: other[p] for p in shared} == {p: e1[ours][p] for p in shared}


class TestSweepDilationAccuracy:
    def test_sweep_matches_exact_on_fast_tier_kp_parts(self):
        # E1-E4 report the double-sweep dilation; at the fast-tier E1/E3
        # points it must equal the exact per-part value almost everywhere
        # (it is only guaranteed to lie in [exact/2, exact]).
        from repro.analysis.experiments import FAST_TIER
        from repro.shortcuts import build_kogan_parter_shortcut

        points = {
            (n, diameter_value)
            for experiment_id in ("E1", "E3")
            for n in FAST_TIER[experiment_id]["sizes"]
            for diameter_value in FAST_TIER[experiment_id]["diameters"]
        }
        total = equal = 0
        for n, diameter_value in sorted(points):
            w = make_workload("lower_bound", n, diameter_value, seed=1)
            for log_factor in (0.25, 1.0):
                for seed in (1, 2, 3):
                    shortcut = build_kogan_parter_shortcut(
                        w.graph, w.partition, diameter_value=w.diameter,
                        log_factor=log_factor, rng=seed,
                    ).shortcut
                    for i in range(shortcut.num_parts):
                        total += 1
                        equal += shortcut.part_dilation(i, exact=False) == shortcut.part_dilation(i)
        assert total > 100
        assert equal >= 0.95 * total


class TestRunAllOrder:
    def test_experiment_id_order_is_numeric(self):
        from repro.analysis import experiment_id_order

        ids = ["E1", "E10", "E11", "E12", "E13", "E14", "E2", "E3", "E4",
               "E5", "E6", "E7", "E8", "E9"]
        assert experiment_id_order(ids) == [f"E{i}" for i in range(1, 15)]

    def test_run_all_tables_come_in_id_order(self):
        # Regression: sorted(EXPERIMENT_RUNNERS) is lexicographic, which ran
        # E10-E14 between E1 and E2, contradicting the "in id order" doc.
        from repro.analysis import run_all_experiments

        tables = run_all_experiments(fast=True, seed=1)
        assert [t.experiment_id for t in tables] == [f"E{i}" for i in range(1, 16)]

    def test_run_all_forwards_seed_in_full_mode(self, monkeypatch):
        # Regression: fast=False used to build empty overrides, leaving every
        # experiment on its hardcoded default seed and making the documented
        # `seed` argument dead in full mode.
        from repro.analysis import experiments as experiments_module
        from repro.analysis.experiments import plan_probability_ablation

        received: dict[str, object] = {}

        def recording_planner(**kwargs):
            received.update(kwargs)
            return plan_probability_ablation(n=100, log_factors=(0.25,), seed=0)

        monkeypatch.setattr(
            experiments_module, "EXPERIMENT_PLANNERS", {"E12": recording_planner}
        )
        experiments_module.run_all_experiments(fast=False, seed=9)
        assert received == {"seed": 9}
        received.clear()
        experiments_module.run_all_experiments(fast=True, seed=9)
        assert received.get("seed") == 9


class TestAggregationRoutingExperiment:
    def test_e14_shortcut_beats_raw_on_worst_case(self):
        from repro.analysis import run_aggregation_routing_experiment

        t = run_aggregation_routing_experiment(part_sizes=(40,), seed=1)
        assert t.experiment_id == "E14"
        assert all(t.column("values_equal"))
        # The acceptance pin: strictly fewer simulated rounds through the
        # shortcut routing on the worst-case families (the broom rows are
        # the canonical witnesses; all current families clear it).
        shortcut_rounds = t.column("rounds_shortcut")
        raw_rounds = t.column("rounds_raw")
        families = t.column("family")
        assert any(
            s < r for s, r, f in zip(shortcut_rounds, raw_rounds, families)
            if f == "broom"
        )
        assert all(s < r for s, r in zip(shortcut_rounds, raw_rounds))

    def test_e14_registered(self):
        from repro.analysis import EXPERIMENT_RUNNERS

        assert "E14" in EXPERIMENT_RUNNERS
