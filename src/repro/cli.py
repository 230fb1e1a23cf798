"""Command-line interface.

``python -m repro <command>`` exposes the most common workflows without
writing a script:

* ``info``        — print the paper's parameter values (k_D, N, p, bounds)
                    for a given (n, D);
* ``shortcut``    — generate a workload, build a shortcut with a chosen
                    engine and print its quality report (optionally save it
                    as JSON);
* ``mst``         — run the simulated Boruvka-over-shortcuts consumer on a
                    generated weighted workload and report rounds / weight
                    vs Kruskal (``--engine`` picks the routing substrate:
                    ``shortcut`` (Kogan-Parter, the default),
                    ``ghaffari-haeupler``, ``naive`` or ``raw``);
* ``components``  — run the simulated connected-components consumer on a
                    multi-piece workload and check its labels
                    (``shortcut``/``mst``/``components`` all take
                    ``--drop-rate``/``--crash``/``--adversary-seed``
                    adversarial fault knobs);
* ``generate``    — build a graph of a named family (``repro generate
                    --family broom ...``), print its stats, optionally save
                    it as JSON;
* ``experiments`` — run one or all of the E1-E15 experiment tables, at
                    the fast tier unless ``--full`` (``--workers N``
                    shards the sweep cells over N worker processes; the
                    tables stay bit-identical to a serial run);
* ``lint``        — run the AST-based invariant checker over the given
                    paths (``repro lint src tests``); exit code 1 when any
                    error-severity finding survives suppression.

Every command takes ``--seed`` and is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import io as repro_io
from .analysis.experiments import (
    EXPERIMENT_RUNNERS, experiment_id_order, make_workload, run_all_experiments,
)
from .applications.components import shortcut_connected_components
from .applications.mst import kruskal_mst
from .applications.shortcut_mst import CONSUMER_ENGINES, shortcut_boruvka_mst
from .graphs.components import connected_components
from .graphs.generators import (
    GENERATOR_FAMILIES,
    disjoint_union,
    make_family_graph,
    with_random_weights,
)
from .graphs.graph import Graph
from .graphs.traversal import is_connected, max_component_diameter
from .rng import derive_rng, derive_seed
from .params import (
    elkin_lower_bound,
    ghaffari_haeupler_quality,
    k_d_value,
    num_large_parts,
    predicted_congestion,
    predicted_dilation,
    predicted_quality,
    sampling_probability,
)
from .shortcuts.baselines import (
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_kitamura_style_shortcut,
    build_naive_shortcut,
)
from .shortcuts.distributed import build_distributed_kogan_parter
from .shortcuts.kogan_parter import build_kogan_parter_shortcut

#: Shortcut engines selectable from the command line.  ``distributed`` runs
#: the fully simulated CONGEST pipeline and additionally reports its
#: measured per-stage rounds.
ENGINES = ("kogan-parter", "distributed", "kitamura", "ghaffari-haeupler", "naive", "empty")


def _add_fault_args(sub: argparse.ArgumentParser) -> None:
    """The shared adversarial-fault knobs of the robustness commands.

    ``mst`` and ``components`` run their consumer loops against a live
    :func:`~repro.congest.adversary.make_fault_adversary` stack (simulated
    engines only); ``shortcut`` projects the same fault pattern onto the
    built shortcut and re-measures what survives.
    """
    sub.add_argument("--drop-rate", type=float, default=0.0,
                     help="Bernoulli message/edge drop probability "
                          "(simulated consumers turn on the retry/ack "
                          "protocol and stay exact)")
    sub.add_argument("--crash", type=int, default=0, metavar="N",
                     help="crash N nodes at adversarial rounds "
                          "(state wiped; results may degrade gracefully)")
    sub.add_argument("--adversary-seed", type=int, default=None,
                     help="base seed of the fault randomness "
                          "(default: derived from --seed)")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-congestion shortcuts in constant diameter graphs (PODC 2021) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print parameter values for (n, D)")
    info.add_argument("--n", type=int, required=True)
    info.add_argument("--diameter", "-D", type=int, required=True)

    shortcut = sub.add_parser("shortcut", help="build a shortcut on a generated workload")
    shortcut.add_argument("--n", type=int, default=400)
    shortcut.add_argument("--diameter", "-D", type=int, default=6)
    shortcut.add_argument("--workload", choices=("hub", "lower_bound", "cluster"), default="lower_bound")
    shortcut.add_argument("--engine", choices=ENGINES, default="kogan-parter")
    shortcut.add_argument("--log-factor", type=float, default=0.25)
    shortcut.add_argument("--seed", type=int, default=0)
    shortcut.add_argument("--save", help="write the shortcut (with its graph) to this JSON file")
    shortcut.add_argument("--exact-dilation", action="store_true",
                          help="measure dilation exactly (slower)")
    shortcut.add_argument("--unknown-diameter", action="store_true",
                          help="distributed engine only: run the diameter-guessing "
                               "loop (measured BFS 2-approximation + geometric doubling)")
    _add_fault_args(shortcut)

    mst = sub.add_parser("mst", help="run Boruvka-over-shortcuts on a generated workload")
    mst.add_argument("--n", type=int, default=300)
    mst.add_argument("--diameter", "-D", type=int, default=6)
    mst.add_argument("--workload", choices=("hub", "lower_bound", "cluster"), default="hub")
    mst.add_argument("--engine", choices=CONSUMER_ENGINES, default="shortcut",
                     help="routing substrate of every phase's simulated MWOE "
                          "aggregation: 'shortcut' (Kogan-Parter), "
                          "'ghaffari-haeupler' or 'naive' shortcuts of the "
                          "fragment partition, or 'raw' (bare fragment trees)")
    mst.add_argument("--log-factor", type=float, default=0.25)
    mst.add_argument("--seed", type=int, default=0)
    _add_fault_args(mst)

    components = sub.add_parser(
        "components", help="run the simulated connected-components consumer"
    )
    components.add_argument("--n", type=int, default=240,
                            help="approximate vertices per piece")
    components.add_argument("--pieces", type=int, default=3,
                            help="number of disconnected pieces")
    components.add_argument("--family", choices=sorted(GENERATOR_FAMILIES), default="torus")
    components.add_argument("--engine", choices=CONSUMER_ENGINES, default="shortcut")
    components.add_argument("--log-factor", type=float, default=0.25)
    components.add_argument("--seed", type=int, default=0)
    _add_fault_args(components)

    generate = sub.add_parser("generate", help="build a graph of a named family")
    generate.add_argument("--family", choices=sorted(GENERATOR_FAMILIES), required=True)
    generate.add_argument("--n", type=int, default=200)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--weighted", action="store_true",
                          help="attach unique random edge weights")
    generate.add_argument("--save", help="write the graph to this JSON file")

    experiments = sub.add_parser("experiments", help="run the experiment tables")
    experiments.add_argument("--experiment", choices=experiment_id_order(EXPERIMENT_RUNNERS),
                             help="run a single experiment (default: all)")
    experiments.add_argument("--full", action="store_true",
                             help="use the full (slow) parameter sets instead of the "
                                  "fast tier")
    experiments.add_argument("--seed", type=int, default=1)
    experiments.add_argument("--workers", type=int, default=1,
                             help="worker processes for the sweep cells (1 = serial, "
                                  "-1 = all cores); tables are bit-identical at "
                                  "every worker count except declared timing "
                                  "columns (E13's wall_s)")

    lint = sub.add_parser(
        "lint", help="check the repository's reproducibility invariants"
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files or directories to lint (default: src tests)")
    lint.add_argument("--rule", action="append", dest="rules", metavar="RPRNNN",
                      help="run only this rule id (repeatable)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format; json is byte-stable (sorted "
                           "findings, fixed key order)")
    lint.add_argument("--root", default=".",
                      help="project root for config lookup and relative "
                           "paths (default: cwd)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rule table and exit")
    return parser


def _command_info(args: argparse.Namespace) -> int:
    n, d = args.n, args.diameter
    print(f"n = {n}, D = {d}")
    print(f"k_D = n^((D-2)/(2D-2))          : {k_d_value(n, d):.3f}")
    print(f"N = ceil(n / k_D)               : {num_large_parts(n, d)}")
    print(f"sampling probability p          : {sampling_probability(n, d):.6f}")
    print(f"predicted quality  k_D log n    : {predicted_quality(n, d):.1f}")
    print(f"predicted congestion D k_D log n: {predicted_congestion(n, d):.1f}")
    print(f"predicted dilation  k_D log n   : {predicted_dilation(n, d):.1f}")
    print(f"Elkin lower bound  k_D          : {elkin_lower_bound(n, d):.3f}")
    print(f"Ghaffari-Haeupler  sqrt(n) + D  : {ghaffari_haeupler_quality(n, d):.1f}")
    return 0


def _build_engine_shortcut(engine: str, graph, partition, diameter_value, log_factor, seed):
    """Return ``(shortcut, sampler result or None)`` for a non-distributed engine."""
    if engine in ("kogan-parter", "kitamura"):
        build = (build_kogan_parter_shortcut if engine == "kogan-parter"
                 else build_kitamura_style_shortcut)
        result = build(graph, partition, diameter_value=diameter_value,
                       log_factor=log_factor, rng=seed)
        return result.shortcut, result
    if engine == "ghaffari-haeupler":
        return build_ghaffari_haeupler_shortcut(graph, partition), None
    if engine == "naive":
        return build_naive_shortcut(graph, partition), None
    if engine == "empty":
        return build_empty_shortcut(graph, partition), None
    raise ValueError(f"unknown engine {engine!r}")


def _command_shortcut(args: argparse.Namespace) -> int:
    if args.unknown_diameter and args.engine != "distributed":
        print("error: --unknown-diameter only applies to --engine distributed",
              file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.n, args.diameter, seed=args.seed)
    distributed_result = sampled = None
    if args.engine == "distributed":
        distributed_result = build_distributed_kogan_parter(
            workload.graph, workload.partition,
            diameter_value=None if args.unknown_diameter else workload.diameter,
            known_diameter=not args.unknown_diameter,
            log_factor=args.log_factor, rng=args.seed,
        )
        shortcut = distributed_result.shortcut
    else:
        shortcut, sampled = _build_engine_shortcut(
            args.engine, workload.graph, workload.partition, workload.diameter,
            args.log_factor, args.seed,
        )
    report = shortcut.quality_report(exact_dilation=args.exact_dilation)
    n = workload.graph.num_vertices
    print(f"workload        : {workload.name} (n={n}, m={workload.graph.num_edges}, D={workload.diameter})")
    print(f"parts           : {workload.partition.num_parts}")
    print(f"engine          : {args.engine}")
    if sampled is not None:
        print(f"sampled parts   : {len(sampled.large_part_indices)} / "
              f"{workload.partition.num_parts} "
              f"(radius > ⌈k_D⌉ = {sampled.parameters.detection_depth})")
    print(f"congestion      : {report.congestion}")
    print(f"dilation        : {report.dilation}")
    print(f"quality         : {report.quality}")
    print(f"shortcut edges  : {report.num_shortcut_edges}")
    print(f"predicted ~k_D log n : {args.log_factor * predicted_quality(n, workload.diameter):.1f}")
    print(f"Elkin lower bound    : {elkin_lower_bound(n, workload.diameter):.1f}")
    if distributed_result is not None:
        print(f"total rounds    : {distributed_result.total_rounds}")
        print(f"attempted guesses: {distributed_result.attempted_guesses}")
        print(f"spanning ok     : {distributed_result.spanning_ok}")
        print(f"fleet congestion: {distributed_result.fleet_congestion} "
              f"(stage-4 delays in [0, ĉ - 1])")
        for stage, rounds in distributed_result.rounds_breakdown.items():
            print(f"  rounds[{stage}] : {rounds}")
    if args.drop_rate > 0.0 or args.crash > 0:
        # Post-construction survival projection (the E15 fault model):
        # every shortcut edge incident to a crash victim dies, every other
        # edge survives an independent Bernoulli drop; re-measure what is
        # left.  The construction above stays untouched — the projection
        # answers "how much quality does this shortcut lose under faults".
        from .shortcuts.shortcut import surviving_shortcut

        seed_base = (args.adversary_seed if args.adversary_seed is not None
                     else derive_seed(args.seed, "shortcut-faults"))
        fault_rng = derive_rng(seed_base, "survive")
        victims = (set(fault_rng.sample(range(n), min(args.crash, n)))
                   if args.crash else set())
        survived = surviving_shortcut(shortcut, victims, args.drop_rate, fault_rng)
        total_edges = shortcut.total_shortcut_edges()
        lost_edges = total_edges - survived.total_shortcut_edges()
        surv_report = survived.quality_report(exact_dilation=args.exact_dilation)
        print(f"fault model     : drop_rate={args.drop_rate}, crashes={args.crash}")
        print(f"edges lost      : {lost_edges} / {total_edges}")
        print(f"surv congestion : {surv_report.congestion}")
        print(f"surv dilation   : {surv_report.dilation}")
    if args.save:
        repro_io.save_json(shortcut, args.save)
        print(f"saved to {args.save}")
    return 0


def _command_mst(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload, args.n, args.diameter, seed=args.seed)
    weighted = with_random_weights(workload.graph, rng=args.seed + 1)
    _, kruskal_weight = kruskal_mst(weighted)
    print(f"workload        : {workload.name} (n={weighted.num_vertices}, D={workload.diameter})")
    print(f"engine          : {args.engine}")
    if args.drop_rate > 0.0 or args.crash > 0:
        print(f"fault model     : drop_rate={args.drop_rate}, "
              f"crashes={args.crash}")
    result = shortcut_boruvka_mst(
        weighted, engine=args.engine, diameter_value=workload.diameter,
        log_factor=args.log_factor, rng=args.seed,
        drop_rate=args.drop_rate, crashes=args.crash,
        adversary_seed=args.adversary_seed, recover_after=16,
    )
    print(f"MST weight      : {result.weight:.2f}")
    print(f"Kruskal weight  : {kruskal_weight:.2f}")
    print(f"weights match   : {abs(result.weight - kruskal_weight) < 1e-6}")
    print(f"phases          : {result.phases}")
    print(f"simulated rounds: {result.total_rounds}")
    print(f"rounds per phase: {result.rounds_per_phase}")
    print(f"congestion per phase: {result.congestion_per_phase}")
    return 0


def _disjoint_union_workload(family: str, n: int, pieces: int, seed: int) -> Graph:
    """A graph of ``pieces`` disjoint blocks of the named family."""
    return disjoint_union(
        [make_family_graph(family, n, rng=seed + 17 * i) for i in range(pieces)]
    )


def _command_components(args: argparse.Namespace) -> int:
    if args.pieces < 1:
        print("error: --pieces must be at least 1", file=sys.stderr)
        return 2
    graph = _disjoint_union_workload(args.family, args.n, args.pieces, args.seed)
    if args.drop_rate > 0.0 or args.crash > 0:
        print(f"fault model     : drop_rate={args.drop_rate}, crashes={args.crash}")
    result = shortcut_connected_components(
        graph, engine=args.engine, log_factor=args.log_factor, rng=args.seed,
        drop_rate=args.drop_rate, crashes=args.crash,
        adversary_seed=args.adversary_seed, recover_after=16,
    )
    expected = connected_components(graph)
    got = sorted(
        ({v for v, lab in enumerate(result.labels) if lab == label}
         for label in set(result.labels)),
        key=min,
    )
    print(f"workload        : {args.pieces} x {args.family} "
          f"(n={graph.num_vertices}, m={graph.num_edges})")
    print(f"engine          : {args.engine}")
    print(f"components      : {result.num_components}")
    print(f"labels match    : {got == expected}")
    print(f"phases          : {result.phases}")
    print(f"simulated rounds: {result.total_rounds}")
    print(f"rounds per phase: {result.rounds_per_phase}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    graph = make_family_graph(args.family, args.n, rng=args.seed)
    if args.weighted:
        graph = with_random_weights(graph, rng=args.seed + 1)
    print(f"family          : {args.family}")
    print(f"vertices        : {graph.num_vertices}")
    print(f"edges           : {graph.num_edges}")
    print(f"connected       : {is_connected(graph)}")
    print(f"diameter        : {max_component_diameter(graph)}")
    if args.save:
        repro_io.save_json(graph, args.save)
        print(f"saved to {args.save}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    tables = run_all_experiments(
        fast=not args.full, seed=args.seed, workers=args.workers,
        experiment_ids=[args.experiment] if args.experiment else None,
    )
    for table in tables:
        print(table.render())
        print()
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the lint package is pure stdlib but irrelevant to
    # every other subcommand.
    from pathlib import Path

    from .lint import (
        format_json,
        format_rule_table,
        format_text,
        has_errors,
        lint_paths,
    )

    if args.list_rules:
        print(format_rule_table())
        return 0
    try:
        findings = lint_paths(args.paths, root=Path(args.root),
                              rules=args.rules)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 1 if has_errors(findings) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _command_info,
        "shortcut": _command_shortcut,
        "mst": _command_mst,
        "components": _command_components,
        "generate": _command_generate,
        "experiments": _command_experiments,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
