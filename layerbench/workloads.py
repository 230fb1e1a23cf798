"""The four workloads: inputs from a seed, the pipeline, and its oracles.

Each workload is split into ``setup`` (input generation, CSR snapshot and,
where the workload owns it, ``Network()`` wiring) and ``solve`` (the
pipeline plus the oracle checks).  Every random choice — weights, sampler
and delay streams, adversary seed, BFS source — is derived from the
instance seed with :func:`repro.rng.derive_seed`;
:func:`~repro.graphs.lower_bound.lower_bound_instance` itself is seedless.

``solve`` returns the deterministic counts of the run (identical for the
same seed, traced or not) and a list of ``(oracle name, passed)`` checks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")

from repro.applications.mst import kruskal_mst  # noqa: E402
from repro.applications.shortcut_mst import shortcut_boruvka_mst  # noqa: E402
from repro.congest.network import Network  # noqa: E402
from repro.congest.primitives.bfs import DistributedBFS  # noqa: E402
from repro.congest.primitives.leader import FloodMax, read_leaders  # noqa: E402
from repro.graphs.generators import with_random_weights  # noqa: E402
from repro.graphs.graph import edge_key  # noqa: E402
from repro.graphs.lower_bound import lower_bound_instance  # noqa: E402
from repro.graphs.traversal import bfs_distances  # noqa: E402
from repro.rng import derive_seed  # noqa: E402
from repro.shortcuts.distributed import build_distributed_kogan_parter  # noqa: E402
from repro.shortcuts.partition import Partition  # noqa: E402
from repro.shortcuts.verification import verify_shortcut  # noqa: E402

DIAMETER = 6
#: Bernoulli drop probability of ``mst_lossy``.
DROP_RATE = 0.05

Counts = dict[str, float]
Checks = list[tuple[str, bool]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``batch`` instances (seeds derived from the run seed) make one
    measurement, so a run's figures average over that many inputs;
    ``setup_repeats`` extra set-ups add samples to ``setup_s`` where set-up
    is cheap next to the pipeline.  ``clean_reference`` solves the same
    instance fault-free, the base of the retry ratios.
    """

    name: str
    n: int
    batch: int
    setup_repeats: int
    setup: Callable[[int, int, Any], Any]
    solve: Callable[[Any, int, Any], tuple[Counts, Checks]]
    clean_reference: Optional[Callable[[Any, int, Any], tuple[Counts, Checks]]] = None


# ----------------------------------------------------------------------
# MST consumer (clean and lossy)
# ----------------------------------------------------------------------
def _setup_weighted(n: int, seed: int, tr):
    with tr.span("graphs.generate"):
        inst = lower_bound_instance(n, DIAMETER)
        graph = with_random_weights(inst.graph, rng=derive_seed(seed, "weights"))
    with tr.span("graphs.csr"):
        graph.csr()
    return graph


def _consume(graph, seed: int, tr, drop_rate: float) -> tuple[Counts, Checks]:
    faults = {}
    if drop_rate:
        faults = dict(drop_rate=drop_rate,
                      adversary_seed=derive_seed(seed, "adversary"))
    with tr.span("consumer"):
        result = shortcut_boruvka_mst(
            graph, engine="shortcut", diameter_value=DIAMETER,
            rng=derive_seed(seed, "consumer"), **faults,
        )
    with tr.span("oracle.check"):
        edges, weight = kruskal_mst(graph)
        checks = [
            ("kruskal_weight", abs(result.weight - weight) <= 1e-9 * max(1.0, weight)),
            ("kruskal_edges", sorted(edge_key(u, v) for u, v in edges) == result.edges),
        ]
    counts = {
        "rounds": result.total_rounds,
        "messages": result.messages,
        "consumer.phases": result.phases,
        "consumer.bfs_rounds": sum(result.bfs_rounds_per_phase),
        "consumer.agg_rounds": sum(result.aggregation_rounds_per_phase),
    }
    return counts, checks


def _solve_clean(graph, seed: int, tr):
    return _consume(graph, seed, tr, 0.0)


def _solve_lossy(graph, seed: int, tr):
    return _consume(graph, seed, tr, DROP_RATE)


# ----------------------------------------------------------------------
# distributed Kogan-Parter construction
# ----------------------------------------------------------------------
def _setup_construct(n: int, seed: int, tr):
    with tr.span("graphs.generate"):
        inst = lower_bound_instance(n, DIAMETER)
        partition = Partition(inst.graph, inst.parts, validate=False)
    with tr.span("graphs.csr"):
        inst.graph.csr()
    return inst.graph, partition


def _solve_construct(state, seed: int, tr):
    graph, partition = state
    with tr.span("construct"):
        result = build_distributed_kogan_parter(
            graph, partition, known_diameter=False,
            rng=derive_seed(seed, "construct"),
        )
    with tr.span("shortcuts.quality"):
        quality = verify_shortcut(result.shortcut, exact_dilation=False)
    with tr.span("oracle.check"):
        checks = [("spanning_ok", result.spanning_ok),
                  ("verify_shortcut_valid", quality.valid)]
    breakdown = result.rounds_breakdown
    counts = {
        "rounds": result.total_rounds,
        "messages": result.bfs_metrics.messages_delivered,
        "shortcuts.congestion": quality.congestion,
        "shortcuts.dilation": quality.dilation,
        "construct.probe_rounds": result.probe_rounds,
        "construct.detect_rounds": breakdown["detect_large_parts"],
        "construct.number_rounds": breakdown["number_large_parts"],
        "construct.fleet_rounds": breakdown["concurrent_bfs"],
        "construct.verify_rounds": breakdown["verification"],
    }
    return counts, checks


# ----------------------------------------------------------------------
# 300k-node flood: set-up (wiring) dominated
# ----------------------------------------------------------------------
def _setup_flood(n: int, seed: int, tr):
    with tr.span("graphs.generate"):
        graph = lower_bound_instance(n, DIAMETER).graph
    with tr.span("graphs.csr"):
        graph.csr()
    return graph, Network(graph)


def _solve_flood(state, seed: int, tr):
    graph, network = state
    n = graph.num_vertices
    source = derive_seed(seed, "bfs-source") % n
    bfs = network.run(DistributedBFS({source}))
    with tr.span("oracle.check"):
        expected = bfs_distances(graph, source)
        dist_ok = len(expected) == n and all(
            ctx.state.get("bfs_dist") == expected[v]
            for v, ctx in network.nodes.items()
        )
    flood = network.run(FloodMax())
    with tr.span("oracle.check"):
        leaders = read_leaders(network)
        leader_ok = len(leaders) == n and set(leaders.values()) == {n - 1}
    counts = {
        "rounds": bfs.rounds + flood.rounds,
        "messages": bfs.messages_delivered + flood.messages_delivered,
    }
    return counts, [("bfs_distances", dist_ok), ("max_id_leader", leader_ok)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Batch sizes keep the spread between seeds inside the bounds: one lossy
# instance's wall time moves by about a third with its seed, so mst_lossy
# averages many small instances.
WORKLOADS = {
    w.name: w for w in (
        Workload("mst_consumer", n=5_000, batch=3, setup_repeats=15,
                 setup=_setup_weighted, solve=_solve_clean),
        Workload("mst_lossy", n=200, batch=20, setup_repeats=0,
                 setup=_setup_weighted, solve=_solve_lossy,
                 clean_reference=_solve_clean),
        Workload("construct_kp", n=30_000, batch=1, setup_repeats=9,
                 setup=_setup_construct, solve=_solve_construct),
        Workload("scale_flood", n=300_000, batch=1, setup_repeats=0,
                 setup=_setup_flood, solve=_solve_flood),
    )
}
