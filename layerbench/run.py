"""Layered end-to-end benchmark of the Kogan-Parter reproduction.

Usage (from the repository root)::

    python3 layerbench/run.py --workload mst_consumer --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole instances, set-up included, and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
over the first instance of the batch and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; every
run also appends one record to ``layerbench/out/runs.jsonl``, and a traced
run writes its spans to ``layerbench/out/trace-<workload>-<seed>.jsonl``.
See ``layerbench/README.md`` for the workload and metric tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import mean, median

import numpy as np

from workloads import ROOT, WORKLOADS  # first: puts the checkout's src/ on sys.path
from spans import (
    NULL_TRACER, Tracer, clock, install, layer_metrics, median_metrics,
    tracing_overhead, wrapper_costs,
)
from repro.rng import derive_seed

OUT = ROOT / "layerbench" / "out"


@dataclass
class Instance:
    setup_s: float
    e2e_s: float
    counts: dict
    checks: list


def instance_seeds(wl, seed: int) -> list[int]:
    return [derive_seed(seed, wl.name, j) for j in range(wl.batch)]


def run_instance(wl, seed: int, tr) -> Instance:
    start = clock()
    state = wl.setup(wl.n, seed, tr)
    ready = clock()
    counts, checks = wl.solve(state, seed, tr)
    done = clock()
    return Instance(ready - start, done - start, counts, checks)


def _more(start: float, done: int, seconds: float) -> bool:
    """Whether one more step, as long as the average so far, still fits."""
    elapsed = clock() - start
    return elapsed + elapsed / done <= seconds


def measure(wl, seed: int, seconds: float):
    """Whole batches until the next would overrun ``seconds``."""
    seeds = instance_seeds(wl, seed)
    start = clock()
    batches: list[list[Instance]] = []
    while True:
        batch = []
        for s in seeds:
            batch.append(run_instance(wl, s, NULL_TRACER))
            gc.collect()
        batches.append(batch)
        if not _more(start, len(batches), seconds):
            break
    setups = [inst.setup_s for batch in batches for inst in batch]
    for j in range(wl.setup_repeats):
        t0 = clock()
        state = wl.setup(wl.n, seeds[j % len(seeds)], NULL_TRACER)
        setups.append(clock() - t0)
        del state
        gc.collect()
    checks = [c for batch in batches for inst in batch for c in inst.checks]
    first = [inst.counts for inst in batches[0]]
    checks += [("repeat_identical", [i.counts for i in b] == first) for b in batches[1:]]
    e2e = [mean(inst.e2e_s for inst in b) for b in batches]
    metrics = {
        "e2e_s": median(e2e),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": mean(c["rounds"] for c in first),
        "messages": mean(c["messages"] for c in first),
    }
    return metrics, checks, {"batch": wl.batch, "batch_e2e_s": e2e,
                             "setup_samples_s": setups}


def measure_traced(wl, seed: int, seconds: float, trace_path):
    """Alternate untraced and traced passes over the batch's first instance."""
    s0 = instance_seeds(wl, seed)[0]
    start = clock()
    plain: list[Instance] = []
    traced: list[tuple[Instance, Tracer]] = []
    while True:
        plain.append(run_instance(wl, s0, NULL_TRACER))
        gc.collect()
        tracer = Tracer()
        with install(tracer), tracer.span("bench.instance"):
            inst = run_instance(wl, s0, tracer)
        traced.append((inst, tracer))
        gc.collect()
        if not _more(start, len(traced), seconds):
            break
    reference = plain[0].counts
    checks = [c for inst in plain for c in inst.checks]
    for inst, _ in traced:
        checks += inst.checks
        checks.append(("traced_counts_identical", inst.counts == reference))
    passes = []
    declined: list[str] = []
    for _, tracer in traced:
        layers, declined = layer_metrics(tracer)
        passes.append(layers)
    metrics = median_metrics(passes)
    metrics.update({k: v for k, v in reference.items() if k not in ("rounds", "messages")})
    # The traced-minus-untraced difference is kept in the record, but the
    # machine's pass-to-pass noise is far larger than the tracer's cost, so
    # the metric is the calibrated per-call cost times the calls made.
    costs = wrapper_costs()
    metrics["trace.overhead_s"] = median(tracing_overhead(t, costs) for _, t in traced)
    difference = (median(inst.e2e_s for inst, _ in traced)
                  - median(inst.e2e_s for inst in plain))
    if wl.clean_reference is not None:
        state = wl.setup(wl.n, s0, NULL_TRACER)
        clean, clean_checks = wl.clean_reference(state, s0, NULL_TRACER)
        del state
        checks += clean_checks
        metrics["retry.rounds_ratio"] = reference["rounds"] / clean["rounds"]
        metrics["retry.useful_ratio"] = clean["messages"] / metrics["network.messages_sent"]
    traced[-1][1].write_jsonl(trace_path, {"workload": wl.name, "seed": seed,
                                           "instance_seed": s0})
    return metrics, checks, {
        "untraced_e2e_s": [inst.e2e_s for inst in plain],
        "traced_e2e_s": [inst.e2e_s for inst, _ in traced],
        "traced_minus_untraced_s": difference,
        "span_cost_s": costs[0], "counted_cost_s": costs[1],
        "bulk_declined": declined,
    }


def _git(*args: str):
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def fingerprint() -> dict:
    rev = _git("rev-parse", "HEAD")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "git_dirty": None if rev is None else bool(_git("status", "--porcelain")),
        "machine": platform.machine(),
    }


def declared_metrics(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    units = declared_metrics(traced)
    OUT.mkdir(parents=True, exist_ok=True)

    if traced:
        trace_path = OUT / f"trace-{wl.name}-{args.seed}.jsonl"
        values, checks, info = measure_traced(wl, args.seed, args.seconds, trace_path)
        produced = dict.fromkeys(units, 0)
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        produced.update(values)
        values = produced
        if info["bulk_declined"]:
            print(f"bulk-capable runs on the per-node path: {info['bulk_declined']}",
                  file=sys.stderr)
    else:
        values, checks, info = measure(wl, args.seed, args.seconds)
    failed = [name for name, ok in checks if not ok]
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": wl.name, "seed": args.seed, "traced": traced,
        "seconds": args.seconds, "fingerprint": fingerprint(),
        "attempted": len(checks), "failed": len(failed), "failed_checks": failed,
        "metrics": {k: v["value"] for k, v in metrics.items()}, **info,
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for name in failed:
        print(f"oracle check failed: {name}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
