#!/usr/bin/env python3
"""MST and approximate min-cut over low-congestion shortcuts (Corollary 1.2).

The example runs Boruvka's algorithm on the CONGEST simulator, where every
phase's minimum-weight outgoing edge selection is one part-wise aggregation
routed over a shortcut of the fragment partition, and compares the
simulated round counts when the shortcut engine is swapped (Kogan-Parter vs
Ghaffari-Haeupler vs the naive whole-graph shortcut).  It then approximates the minimum cut of a planted-cut instance
with the shortcut-driven greedy tree packing and checks it against the exact
Stoer-Wagner value.

Run with:  python examples/mst_and_mincut.py
"""

from __future__ import annotations

from repro import (
    approximate_min_cut,
    hub_diameter_graph,
    kruskal_mst,
    shortcut_boruvka_mst,
    stoer_wagner_min_cut,
    with_random_weights,
)
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
        "kogan-parter": "shortcut",
        "ghaffari-haeupler": "ghaffari-haeupler",
        "naive (whole graph)": "naive",
    }
    print(f"{'engine':<22}{'weight ok':<11}{'phases':<8}{'simulated rounds':<17}")
    for name, engine in engines.items():
        result = shortcut_boruvka_mst(
            weighted, engine=engine, diameter_value=diameter, log_factor=0.25, rng=3
        )
        ok = abs(result.weight - kruskal_weight) < 1e-6
        print(f"{name:<22}{str(ok):<11}{result.phases:<8}{result.total_rounds:<17}")

    # ------------------------------------------------------------------
    # Approximate min-cut on a planted-cut instance
    # ------------------------------------------------------------------
    print("\nApproximate min-cut (planted cut of 4 unit edges between two dense halves):")
    cut_graph = planted_cut_graph(40, 4, rng=5)
    exact_value, _ = stoer_wagner_min_cut(cut_graph)
    approx = approximate_min_cut(cut_graph, num_trees=4, rng=7)
    print(f"exact minimum cut  : {exact_value:.1f}")
    print(f"approximate value  : {approx.value:.1f}  (ratio {approx.value / exact_value:.3f})")
    print(f"packed trees       : {approx.num_trees}")
    print(f"simulated rounds   : {approx.total_rounds}")


if __name__ == "__main__":
    main()
