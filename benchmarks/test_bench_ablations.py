"""E10-E12 — ablations of the construction's design choices.

E10 runs the simulated shortcut-consumer Boruvka MST with every phase's
MWOE aggregation routed over a fresh Kogan-Parter shortcut vs over the
bare fragment trees.  At these sizes the shortcut-routed phases are not
faster than the raw ones, so the test pins only exactness; the
shortcut-beats-raw round pin lives in E14's broom rows instead.
E11 ablates the number of sampling repetitions (the paper uses D; the
dilation argument consumes one repetition per recursion level).
E12 ablates the sampling probability, exposing the congestion/dilation
trade-off that the paper's choice p = k_D log n / N balances.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    run_distributed_mst_experiment,
    run_probability_ablation,
    run_repetition_ablation,
)


def test_bench_distributed_mst_simulation(run_experiment):
    table = run_experiment(
        run_distributed_mst_experiment,
        sizes=(80, 140),
        diameter_value=6,
        log_factor=0.3,
        seed=41,
    )
    assert all(table.column("weight_ok"))


def test_bench_repetition_ablation(run_experiment):
    table = run_experiment(
        run_repetition_ablation,
        n=400,
        diameter_value=6,
        repetition_choices=(1, 2, 3, 6, 12),
        log_factor=0.25,
        trials=5,
        seed=43,
    )
    dilations = table.column("dilation")
    # More repetitions reduce the (trial-averaged) dilation: D repetitions
    # clearly beat a single repetition, and doubling beyond D gains little —
    # the paper's choice of exactly D repetitions sits at the plateau.
    assert dilations[3] < dilations[0]
    assert abs(dilations[-1] - dilations[-2]) <= 1.0


def test_bench_probability_ablation(run_experiment):
    table = run_experiment(
        run_probability_ablation,
        n=400,
        diameter_value=6,
        log_factors=(0.05, 0.1, 0.25, 0.5, 1.0),
        seed=47,
    )
    dilations = table.column("dilation")
    congestions = table.column("congestion")
    # Dilation is non-increasing in the sampling probability; congestion is
    # non-decreasing (it saturates at the number of large parts).
    assert dilations == sorted(dilations, reverse=True)
    assert congestions == sorted(congestions)
