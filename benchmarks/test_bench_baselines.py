"""E4 — KP vs Ghaffari-Haeupler vs Kitamura-style vs trivial baselines.

Reproduces the positioning claims of the paper: the KP quality tracks the
Elkin lower-bound curve (within a modest factor), improves on the
single-repetition Kitamura-style sampling for D >= 5, and — asymptotically —
improves on the general-graph O(sqrt(n) + D) bound (at simulator scale the
predicted crossover lies beyond reachable n, see ``repro experiments``;
here we check the measured values sit between the lower-bound curve and the
naive extremes).
"""

from __future__ import annotations

from repro.analysis import run_baseline_experiment


def test_bench_baselines_lower_bound_instances(run_experiment):
    table = run_experiment(
        run_baseline_experiment,
        sizes=(200, 400),
        diameters=(4, 6, 8),
        kind="lower_bound",
        log_factor=0.25,
        seed=17,
    )
    for row_idx in range(len(table.rows)):
        lower = table.column("lower_bound")[row_idx]
        kp = table.column("kp_quality")[row_idx]
        kit = table.column("kitamura_quality")[row_idx]
        empty = table.column("empty_quality")[row_idx]
        # KP sits above the lower bound (it must) but within a modest factor,
        # and never behind the single-repetition construction by much.
        assert kp >= lower * 0.5
        assert kp <= 20 * lower
        assert kp <= kit + 2
        # On these long-path instances the do-nothing baseline is worse.
        assert kp <= empty


def test_bench_baselines_hub_workload(run_experiment):
    table = run_experiment(
        run_baseline_experiment,
        sizes=(300,),
        diameters=(6,),
        kind="hub",
        log_factor=0.25,
        seed=19,
    )
    assert all(q > 0 for q in table.column("kp_quality"))
