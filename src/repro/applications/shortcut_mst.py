"""Boruvka MST as a true shortcut consumer, fully simulated per phase.

This is the closing of the paper's loop: Corollary 1.2 obtains the MST
round bound by running Boruvka's framework on top of part-wise aggregation
over low-congestion shortcuts, and this module executes exactly that
composition on the CONGEST simulator.  Every phase

1. takes the current fragments as the part collection and **re-invokes the
   Kogan-Parter construction on the merged-part partition** (fragments
   change every phase, so each phase gets a fresh shortcut, exactly as the
   framework prescribes);
2. spends one round on the neighbour fragment-id exchange that lets every
   node compute its lightest incident outgoing edge locally;
3. selects each fragment's minimum-weight outgoing edge (MWOE) with one
   part-wise *min* aggregation routed over the shortcut-augmented fragment
   trees (:func:`~repro.congest.primitives.aggregation.
   aggregate_over_shortcut` — concurrent masked BFS trees, then the
   :class:`~repro.congest.primitives.aggregation.PartAggregation`
   convergecast/broadcast), and merges along the winners.

The ``engine`` argument swaps the routing substrate while keeping the
algorithm fixed: ``"shortcut"`` routes over the Kogan-Parter augmented
subgraphs, ``"raw"`` over the bare fragment trees (an empty shortcut).
The measured per-phase rounds therefore isolate the quantity the paper
promises — rounds saved by routing aggregates through shortcut edges.

The reported rounds cover the aggregation runtime (the per-phase loop
above); the cost of *constructing* each shortcut distributedly is measured
separately by the E5/E13 pipeline experiments and is not double-charged
here.  The E10 ablation compares the two engines phase by phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..congest.adversary import (
    RetryPolicy,
    make_fault_adversary,
)
from ..congest.network import Network
from ..congest.primitives.aggregation import aggregate_over_shortcut
from ..graphs.components import UnionFind
from ..graphs.graph import WeightedGraph, edge_key
from ..graphs.traversal import max_component_diameter
from ..rng import RandomLike, derive_seed, ensure_rng
from ..shortcuts.baselines import build_empty_shortcut
from ..shortcuts.kogan_parter import build_kogan_parter_shortcut
from ..shortcuts.partition import Partition

#: Routing substrates of the simulated consumers.
CONSUMER_ENGINES = ("shortcut", "raw")

#: MWOE candidate of a node with no outgoing edge (compares larger than
#: every real ``(weight, u, v)`` candidate).
NO_CANDIDATE = (float("inf"), -1, -1)


@dataclass
class ShortcutMSTResult:
    """Output of the shortcut-consumer Boruvka run.

    Attributes:
        edges: the MST (or minimum spanning forest) edges, sorted.
        weight: total weight of ``edges``.
        phases: number of Boruvka phases executed.
        total_rounds: simulated rounds summed over phases (per phase: one
            fragment-id exchange round + the measured two-stage
            aggregation).
        rounds_per_phase: the per-phase breakdown.
        bfs_rounds_per_phase: tree-growing stage rounds per phase.
        aggregation_rounds_per_phase: convergecast/broadcast stage rounds
            per phase.
        messages: messages delivered across all simulated stages.
        engine: ``"shortcut"`` or ``"raw"``.
    """

    edges: list[tuple[int, int]]
    weight: float
    phases: int
    total_rounds: int
    rounds_per_phase: list[int] = field(default_factory=list)
    bfs_rounds_per_phase: list[int] = field(default_factory=list)
    aggregation_rounds_per_phase: list[int] = field(default_factory=list)
    messages: int = 0
    engine: str = "shortcut"


def node_crossing_candidates(
    graph, uf: UnionFind, edge_keys
) -> dict[int, tuple[float, int, int]]:
    """Each node's minimum-key incident crossing edge as a ``(key, u, v)``.

    The shared candidate step of both Boruvka-style consumers: MWOE
    selection keys edges by weight, component hooking by shared random
    priorities.  Vectorized over the CSR endpoint arrays: one ``find`` per
    vertex resolves every edge's crossing test at once, and the per-node
    lexicographic ``(key, u, v)`` minimum is a ``np.lexsort`` followed by a
    first-per-node cut.  Nodes with no crossing edge carry no entry; key
    objects in the result are taken from ``edge_keys`` untouched (the
    float64 comparison is exact for the float priorities and the modest
    integer weights the consumers use).

    Args:
        graph: the host graph (its CSR edge list orders ``edge_keys``).
        uf: the current fragment structure.
        edge_keys: per-edge comparison key, indexed by edge id.
    """
    csr = graph.csr()
    if not csr.num_edges:
        return {}
    arrays = csr.adjacency_arrays()
    eu, ev = arrays.edge_u, arrays.edge_v
    find = uf.find
    n = csr.num_vertices
    roots = np.fromiter((find(x) for x in range(n)), dtype=np.int64, count=n)
    cross = np.flatnonzero(roots[eu] != roots[ev])
    if not len(cross):
        return {}
    keys = np.asarray(edge_keys, dtype=np.float64)[cross]
    cu = eu[cross]
    cv = ev[cross]
    # Both endpoints of a crossing edge are candidates: duplicate the rows
    # and take the lexicographic minimum per endpoint.
    nodes = np.concatenate((cu, cv))
    k2 = np.concatenate((keys, keys))
    u2 = np.concatenate((cu, cu))
    v2 = np.concatenate((cv, cv))
    e2 = np.concatenate((cross, cross))
    order = np.lexsort((v2, u2, k2, nodes))
    ns = nodes[order]
    first = np.ones(len(ns), dtype=bool)
    first[1:] = ns[1:] != ns[:-1]
    sel = order[first]
    return {
        node: (edge_keys[eid], u, v)
        for node, eid, u, v in zip(
            ns[first].tolist(), e2[sel].tolist(),
            u2[sel].tolist(), v2[sel].tolist(),
        )
    }


def shortcut_boruvka_mst(
    graph: WeightedGraph,
    *,
    engine: str = "shortcut",
    diameter_value: Optional[int] = None,
    log_factor: float = 0.25,
    rng: RandomLike = None,
    max_rounds_per_phase: int = 200_000,
    max_phases: Optional[int] = None,
    drop_rate: float = 0.0,
    crashes: int = 0,
    adversary_seed: Optional[int] = None,
    recover_after: Optional[int] = None,
) -> ShortcutMSTResult:
    """Run the fully simulated shortcut-consumer Boruvka MST.

    Args:
        graph: a weighted graph (a disconnected graph yields the minimum
            spanning forest).
        engine: ``"shortcut"`` (route each phase's aggregation over a fresh
            Kogan-Parter shortcut of the fragment partition) or ``"raw"``
            (route over the bare fragment trees).
        diameter_value: host diameter ``D`` for the shortcut parameters
            (default: the largest component diameter, measured once).
        log_factor: sampling-probability factor of the per-phase shortcut.
        rng: randomness for the per-phase sampling and scheduler delays.
        max_rounds_per_phase: safety cap per simulated stage.
        max_phases: phase cap (default ``ceil(log2 n) + 2``).
        drop_rate: Bernoulli message-drop probability per delivery; any
            positive rate turns on the retry/ack protocol stack (the MST
            stays exact — every phase completes correctly under loss).
        crashes: number of nodes to crash per phase, at adversarially
            scheduled rounds.  Crashed nodes lose their state; a phase
            whose aggregates are lost simply retries on the next phase
            (everything is alive again between phases), so the run
            degrades gracefully instead of failing.
        adversary_seed: base seed of all fault randomness (per-phase
            streams are derived from it; with ``None`` it is derived from
            an int ``rng`` seed, and required when ``rng`` is a generator
            instance — fault streams are never drawn from OS entropy).
        recover_after: revive crashed nodes (with wiped state) this many
            rounds after their crash; ``None`` = no recovery.

    Returns:
        A :class:`ShortcutMSTResult`; the edge set equals the Kruskal MST
        (pinned against the oracle by ``tests/test_shortcut_consumers.py``,
        including under positive drop rates).
    """
    if engine not in CONSUMER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {CONSUMER_ENGINES}")
    n = graph.num_vertices
    if n == 0:
        return ShortcutMSTResult(edges=[], weight=0.0, phases=0, total_rounds=0,
                                 engine=engine)
    r = ensure_rng(rng)
    if max_phases is None:
        max_phases = math.ceil(math.log2(max(n, 2))) + 2
    if diameter_value is None and engine == "shortcut":
        # Double-sweep 2-approximation: any D in [D/2, D] parameterizes the
        # construction soundly, and the exact scan is O(n·m).
        diameter_value = max_component_diameter(graph, exact=False)

    faulty = drop_rate > 0.0 or crashes > 0
    if faulty and adversary_seed is None:
        # Fault streams must be reproducible (lint rule RPR001 bans the old
        # OS-entropy fallback): derive a default from an int rng seed, or
        # demand an explicit one.
        if isinstance(rng, int) and not isinstance(rng, bool):
            adversary_seed = derive_seed(rng, "mst-faults")
        else:
            raise ValueError(
                "drop_rate/crashes need a reproducible fault stream: pass "
                "adversary_seed=<int> (or an int rng seed to derive it from)"
            )
    retry = RetryPolicy() if faulty else None

    uf = UnionFind(n)
    network = Network(graph)
    mst_edges: set[tuple[int, int]] = set()
    rounds_per_phase: list[int] = []
    bfs_rounds: list[int] = []
    agg_rounds: list[int] = []
    messages = 0

    for phase in range(max_phases):
        fragments = uf.groups()
        if len(fragments) <= 1:
            break
        partition = Partition(graph, fragments, validate=False)
        candidates = node_crossing_candidates(graph, uf, graph.weight_array())
        if not candidates:
            # Every fragment is a finished component (spanning forest done).
            break
        if engine == "shortcut":
            shortcut = build_kogan_parter_shortcut(
                graph, partition, diameter_value=diameter_value,
                log_factor=log_factor, rng=r,
            ).shortcut
        else:
            shortcut = build_empty_shortcut(graph, partition)
        adversary = None
        if faulty:
            adversary = make_fault_adversary(
                drop_rate, crashes,
                seed=derive_seed(adversary_seed, "mst-phase", phase),
                num_vertices=n, recover_after=recover_after,
            )
        outcome = aggregate_over_shortcut(
            shortcut, candidates, "min",
            network=network, identity=NO_CANDIDATE, rng=r,
            max_rounds=max_rounds_per_phase,
            retry=retry, adversary=adversary,
        )
        # One extra round per phase for the neighbour fragment-id exchange
        # behind the local candidate computation.
        rounds_per_phase.append(1 + outcome.rounds)
        bfs_rounds.append(outcome.bfs_rounds)
        agg_rounds.append(outcome.aggregation_rounds)
        messages += outcome.messages

        merged_any = False
        for winner in outcome.values.values():
            if winner == NO_CANDIDATE:
                continue
            _, u, v = winner
            # The winners need not form a forest, but union-find absorbs
            # duplicates (the same edge picked by both fragments) for free.
            if uf.union(u, v):
                merged_any = True
                mst_edges.add(edge_key(u, v))
        # A fault-free phase with candidates but no merges cannot happen;
        # under crashes it means the phase's aggregates were lost, and the
        # remaining phase budget retries with everyone alive again.
        if not merged_any and not faulty:
            break

    return ShortcutMSTResult(
        edges=sorted(mst_edges),
        weight=graph.total_weight(mst_edges),
        phases=len(rounds_per_phase),
        total_rounds=sum(rounds_per_phase),
        rounds_per_phase=rounds_per_phase,
        bfs_rounds_per_phase=bfs_rounds,
        aggregation_rounds_per_phase=agg_rounds,
        messages=messages,
        engine=engine,
    )
