#!/usr/bin/env python3
"""Regenerate every experiment table (the script form of ``repro experiments``).

Runs the full experiment harness (E1-E15), or the one ``--experiment``
names, and prints the result tables.  Pass ``--fast`` for the reduced
parameter sets used in CI (with or without ``--experiment``), ``--workers N``
to shard the sweep cells over N processes (the tables are bit-identical to a
serial run).

Run with:  python examples/reproduce_experiments.py [--fast] [--experiment E4]
           [--workers 4]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis import EXPERIMENT_RUNNERS, experiment_id_order, run_all_experiments


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="use reduced parameter sets")
    parser.add_argument(
        "--experiment",
        choices=experiment_id_order(EXPERIMENT_RUNNERS),
        help="run a single experiment id instead of all of them",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep cells (-1 = all cores)")
    args = parser.parse_args(argv)

    start = time.time()
    tables = run_all_experiments(
        fast=args.fast, seed=args.seed, workers=args.workers,
        experiment_ids=[args.experiment] if args.experiment else None,
    )
    for table in tables:
        print(table.render())
        print()
    print(f"[done in {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
