"""E7 — approximate minimum cut on planted-cut instances (Corollary 1.2).

Reproduces the min-cut corollary's shape: the shortcut-driven tree-packing
approximation recovers the planted minimum cut (approximation ratio 1.0 on
these instances); every packed tree is one run of the simulated Boruvka
consumer, whose rounds the table reports.
"""

from __future__ import annotations

from repro.analysis import run_mincut_experiment


def test_bench_mincut_planted(run_experiment):
    table = run_experiment(
        run_mincut_experiment,
        half_sizes=(30, 50),
        cut_edges=(3, 6),
        seed=29,
    )
    for ratio in table.column("ratio"):
        assert 1.0 <= ratio <= 1.5
    assert all(r > 0 for r in table.column("rounds"))
