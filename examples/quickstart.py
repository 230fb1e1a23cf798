#!/usr/bin/env python3
"""Quickstart: build low-congestion shortcuts and inspect their quality.

This example walks through the core API:

1. generate a constant-diameter graph and an adversarial part collection
   (long vertex-disjoint paths);
2. run the Kogan-Parter sampling construction (Theorem 1.1);
3. measure congestion, dilation and quality, compare them with the paper's
   predicted ``k_D log n`` curve, the Elkin lower bound and the classic
   Ghaffari-Haeupler O(sqrt(n) + D) baseline.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Partition,
    build_ghaffari_haeupler_shortcut,
    build_kogan_parter_shortcut,
    elkin_lower_bound,
    ghaffari_haeupler_quality,
    hub_diameter_graph,
    k_d_value,
    path_partition,
    predicted_quality,
    verify_shortcut,
)


def main() -> None:
    n, diameter = 600, 6
    print(f"Building a hub graph with n={n}, diameter D={diameter} ...")
    graph = hub_diameter_graph(n, diameter, extra_edge_prob=0.01, rng=0)

    # Adversarial parts: long vertex-disjoint paths (the hard case for
    # dilation — without shortcuts each part's diameter equals its length).
    k_d = k_d_value(graph.num_vertices, diameter)
    parts = path_partition(graph, num_paths=20, path_length=int(3 * k_d), rng=0)
    partition = Partition(graph, parts)
    print(f"Partition: {partition.num_parts} parts, sizes "
          f"{sorted((len(p) for p in partition.parts), reverse=True)[:5]} ...")

    # The Kogan-Parter construction.  log_factor < 1 keeps the sampling
    # probability meaningfully below 1 at this small n (see `repro experiments`).
    result = build_kogan_parter_shortcut(
        graph, partition, diameter_value=diameter, log_factor=0.25, rng=0
    )
    report = result.shortcut.quality_report()
    params = result.parameters

    print("\n--- Kogan-Parter shortcut ---")
    print(f"sampling probability p      : {params.probability:.4f}")
    print(f"sampled parts               : {len(result.large_part_indices)} / {partition.num_parts}")
    print(f"congestion                  : {report.congestion}")
    print(f"dilation                    : {report.dilation}")
    print(f"quality (c + d)             : {report.quality}")
    print(f"predicted  ~k_D log n       : {0.25 * predicted_quality(graph.num_vertices, diameter):.1f}")
    print(f"Elkin lower bound  k_D      : {elkin_lower_bound(graph.num_vertices, diameter):.1f}")

    verification = verify_shortcut(result.shortcut)
    print(f"structurally valid          : {verification.valid}")

    # Baseline: the general-graph O(sqrt(n) + D) shortcut of [GH16].
    gh = build_ghaffari_haeupler_shortcut(graph, partition)
    gh_report = gh.quality_report()
    print("\n--- Ghaffari-Haeupler baseline ---")
    print(f"quality                     : {gh_report.quality}")
    print(f"predicted sqrt(n) + D       : {ghaffari_haeupler_quality(graph.num_vertices, diameter):.1f}")

    print("\nAt this simulator scale the two constructions are comparable; the")
    print("KP bound k_D log n only drops below sqrt(n) for very large n (the")
    print("crossover is ~1e16 for D = 6) — `repro experiments` prints the curves.")


if __name__ == "__main__":
    main()
