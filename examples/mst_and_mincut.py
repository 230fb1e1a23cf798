#!/usr/bin/env python3
"""MST and approximate min-cut over low-congestion shortcuts (Corollary 1.2).

The example runs Boruvka's algorithm where every phase's minimum-weight
outgoing edge selection is charged through a shortcut-based part-wise
aggregation, and compares the charged round counts when the shortcut engine
is swapped (Kogan-Parter vs Ghaffari-Haeupler vs the naive whole-graph
shortcut).  It then approximates the minimum cut of a planted-cut instance
with the shortcut-driven greedy tree packing and checks it against the exact
Stoer-Wagner value.

Run with:  python examples/mst_and_mincut.py
"""

from __future__ import annotations

from repro import (
    approximate_min_cut,
    boruvka_mst,
    build_ghaffari_haeupler_shortcut,
    build_naive_shortcut,
    hub_diameter_graph,
    kruskal_mst,
    stoer_wagner_min_cut,
    with_random_weights,
)
from repro.applications import default_shortcut_factory
from repro.graphs import planted_cut_graph


def main() -> None:
    # ------------------------------------------------------------------
    # MST with three shortcut engines
    # ------------------------------------------------------------------
    n, diameter = 400, 6
    graph = hub_diameter_graph(n, diameter, extra_edge_prob=0.01, rng=1)
    weighted = with_random_weights(graph, rng=2)
    _, kruskal_weight = kruskal_mst(weighted)
    print(f"MST on a hub graph (n={n}, D={diameter}); Kruskal weight = {kruskal_weight:.1f}\n")

    engines = {
        "kogan-parter": default_shortcut_factory(diameter_value=diameter, log_factor=0.25, rng=3),
        "ghaffari-haeupler": build_ghaffari_haeupler_shortcut,
        "naive (whole graph)": build_naive_shortcut,
    }
    print(f"{'engine':<22}{'weight ok':<11}{'phases':<8}{'charged rounds':<15}")
    for name, factory in engines.items():
        result = boruvka_mst(weighted, shortcut_factory=factory)
        ok = abs(result.weight - kruskal_weight) < 1e-6
        print(f"{name:<22}{str(ok):<11}{result.phases:<8}{result.total_rounds:<15}")

    # ------------------------------------------------------------------
    # Approximate min-cut on a planted-cut instance
    # ------------------------------------------------------------------
    print("\nApproximate min-cut (planted cut of 4 unit edges between two dense halves):")
    cut_graph = planted_cut_graph(40, 4, rng=5)
    exact_value, _ = stoer_wagner_min_cut(cut_graph)
    approx = approximate_min_cut(
        cut_graph,
        num_trees=4,
        shortcut_factory=default_shortcut_factory(log_factor=0.25, rng=7),
    )
    print(f"exact minimum cut  : {exact_value:.1f}")
    print(f"approximate value  : {approx.value:.1f}  (ratio {approx.value / exact_value:.3f})")
    print(f"packed trees       : {approx.num_trees}")
    print(f"charged rounds     : {approx.total_rounds}")


if __name__ == "__main__":
    main()
