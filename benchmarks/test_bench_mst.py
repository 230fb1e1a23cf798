"""E6 — MST round complexity with different shortcut engines (Corollary 1.2).

Reproduces the plug-in behaviour of the MST corollary: the same Boruvka
driver produces the exact MST under every engine, and the charged round
count orders the engines by their shortcut quality (naive >> KP ~ GH at
simulator scale; the KP vs GH asymptotic separation shows in the
predicted curves ``repro experiments`` prints).
"""

from __future__ import annotations

from repro.analysis import run_mst_experiment


def test_bench_mst_engines(run_experiment):
    table = run_experiment(
        run_mst_experiment,
        sizes=(100, 200, 400),
        diameter_value=6,
        kind="hub",
        log_factor=0.25,
        seed=23,
    )
    assert all(table.column("weight_matches_kruskal"))
    for kp, gh, naive in zip(
        table.column("kp_rounds"), table.column("gh_rounds"), table.column("naive_rounds")
    ):
        assert naive >= kp  # the naive engine pays its full congestion
        assert kp > 0 and gh > 0


def test_bench_mst_diameter_four(run_experiment):
    table = run_experiment(
        run_mst_experiment,
        sizes=(150,),
        diameter_value=4,
        kind="hub",
        log_factor=0.25,
        seed=29,
    )
    assert all(table.column("weight_matches_kruskal"))
