"""E8 — 2-ECSS over shortcut MST trees (Corollary 4.3).

The 2-ECSS augmentation on top of the simulated shortcut Boruvka MST
returns a 2-edge-connected subgraph of weight within a small factor of the
MST lower bound; its rounds are the MST's simulated rounds.
"""

from __future__ import annotations

from repro.analysis import run_applications_experiment


def test_bench_two_ecss(run_experiment):
    table = run_experiment(run_applications_experiment, sizes=(100, 200), seed=31)
    assert all(table.column("ecss_2ec"))
    for ratio in table.column("ecss_weight_ratio"):
        assert 1.0 <= ratio <= 2.5
