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
subgraphs, ``"ghaffari-haeupler"`` over the Ghaffari-Haeupler baseline
shortcut, ``"naive"`` over the whole-graph shortcut and ``"raw"`` over the
bare fragment trees (an empty shortcut).  The measured per-phase rounds
therefore isolate the quantity the paper promises — rounds saved by routing
aggregates through shortcut edges — and experiment E6 compares the
engines on one weighted workload.

The reported rounds cover the aggregation runtime (the per-phase loop
above) and exclude the rounds of *constructing* each shortcut; no table
adds the two yet.  The E10 ablation compares the two engines phase by
phase.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
from ..shortcuts.baselines import (
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_naive_shortcut,
)
from ..shortcuts.kogan_parter import build_kogan_parter_shortcut
from ..shortcuts.partition import Partition

#: Routing substrates of the simulated consumers.
CONSUMER_ENGINES = ("shortcut", "raw", "ghaffari-haeupler", "naive")

#: Safety cap on the rounds of each simulated stage.
MAX_ROUNDS_PER_STAGE = 200_000

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
        congestion_per_phase: the congestion ``ĉ`` of each phase's
            simulated fragment masks, which bounded its start delays
            (1 on ``"raw"``, the number of simulated fragments on
            ``"naive"``; 0 when every fragment was folded locally).
        messages: messages delivered across all simulated stages.
        engine: one of :data:`CONSUMER_ENGINES`.
    """

    edges: list[tuple[int, int]]
    weight: float
    phases: int
    total_rounds: int
    rounds_per_phase: list[int] = field(default_factory=list)
    bfs_rounds_per_phase: list[int] = field(default_factory=list)
    aggregation_rounds_per_phase: list[int] = field(default_factory=list)
    congestion_per_phase: list[int] = field(default_factory=list)
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
    rng: RandomLike,
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
            Kogan-Parter shortcut of the fragment partition),
            ``"ghaffari-haeupler"`` or ``"naive"`` (the baseline shortcuts
            of the same partition) or ``"raw"`` (route over the bare
            fragment trees).
        diameter_value: host diameter ``D`` for the shortcut parameters
            (default: the largest component diameter, measured once).
        log_factor: sampling-probability factor of the per-phase shortcut.
        rng: randomness for the per-phase sampling and scheduler delays;
            required, so a run is reproducible from its arguments.
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
    return _boruvka_phases(
        graph, lambda r: graph.weight_array(), "mst",
        engine=engine, diameter_value=diameter_value, log_factor=log_factor,
        rng=rng, max_phases=max_phases, drop_rate=drop_rate, crashes=crashes,
        adversary_seed=adversary_seed, recover_after=recover_after,
    )[1]


def _boruvka_phases(
    graph,
    edge_keys: Callable[[random.Random], Sequence[float]],
    faults_label: str,
    *,
    engine: str,
    diameter_value: Optional[int],
    log_factor: float,
    rng: RandomLike,
    max_phases: Optional[int],
    drop_rate: float,
    crashes: int,
    adversary_seed: Optional[int],
    recover_after: Optional[int],
) -> tuple[UnionFind, ShortcutMSTResult]:
    """The Boruvka phase loop both simulated consumers run.

    Each phase builds the fragment partition's shortcut, lets every node
    pick its minimum-key crossing edge, elects each fragment's winner with
    one part-wise *min* aggregation and merges along the winners.  The
    arguments are those of :func:`shortcut_boruvka_mst`, plus:

    Args:
        edge_keys: called once with the run's generator, before the first
            phase, for the per-edge comparison keys (indexed by edge id).
        faults_label: names the consumer's fault streams
            (``"<label>-faults"`` and ``"<label>-phase"``), so each
            consumer keeps its own :func:`~repro.rng.derive_seed` streams.

    Returns:
        The final fragment structure, and a :class:`ShortcutMSTResult`
        whose ``edges`` are the merged winners (``weight`` is 0 unless
        ``graph`` is weighted).
    """
    if engine not in CONSUMER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {CONSUMER_ENGINES}")
    n = graph.num_vertices
    uf = UnionFind(n)
    if n == 0:
        return uf, ShortcutMSTResult(edges=[], weight=0.0, phases=0,
                                     total_rounds=0, engine=engine)
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
            adversary_seed = derive_seed(rng, f"{faults_label}-faults")
        else:
            raise ValueError(
                "drop_rate/crashes need a reproducible fault stream: pass "
                "adversary_seed=<int> (or an int rng seed to derive it from)"
            )
    retry = RetryPolicy() if faulty else None

    network = Network(graph)
    merged: set[tuple[int, int]] = set()
    rounds_per_phase: list[int] = []
    bfs_rounds: list[int] = []
    agg_rounds: list[int] = []
    congestion: list[int] = []
    messages = 0
    keys = edge_keys(r)

    for phase in range(max_phases):
        fragments = uf.groups()
        if len(fragments) <= 1:
            break
        partition = Partition(graph, fragments, validate=False)
        candidates = node_crossing_candidates(graph, uf, keys)
        if not candidates:
            # Every fragment is a finished component (spanning forest done).
            break
        # The builders are looked up at call time, so a wrapper installed
        # on this module's globals sees every per-phase construction.
        if engine == "shortcut":
            shortcut = build_kogan_parter_shortcut(
                graph, partition, diameter_value=diameter_value,
                log_factor=log_factor, rng=r,
            ).shortcut
        elif engine == "ghaffari-haeupler":
            shortcut = build_ghaffari_haeupler_shortcut(graph, partition)
        elif engine == "naive":
            shortcut = build_naive_shortcut(graph, partition)
        else:
            shortcut = build_empty_shortcut(graph, partition)
        adversary = None
        if faulty:
            adversary = make_fault_adversary(
                drop_rate, crashes,
                seed=derive_seed(adversary_seed, f"{faults_label}-phase", phase),
                num_vertices=n, recover_after=recover_after,
            )
        outcome = aggregate_over_shortcut(
            shortcut, candidates, "min",
            network=network, identity=NO_CANDIDATE, rng=r,
            max_rounds=MAX_ROUNDS_PER_STAGE,
            retry=retry, adversary=adversary,
        )
        # One extra round per phase for the neighbour fragment-id exchange
        # behind the local candidate computation.
        rounds_per_phase.append(1 + outcome.rounds)
        bfs_rounds.append(outcome.bfs_rounds)
        agg_rounds.append(outcome.aggregation_rounds)
        congestion.append(outcome.congestion)
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
                merged.add(edge_key(u, v))
        # A fault-free phase with candidates but no merges cannot happen;
        # under crashes it means the phase's aggregates were lost, and the
        # remaining phase budget retries with everyone alive again.
        if not merged_any and not faulty:
            break

    return uf, ShortcutMSTResult(
        edges=sorted(merged),
        weight=graph.total_weight(merged) if isinstance(graph, WeightedGraph) else 0.0,
        phases=len(rounds_per_phase),
        total_rounds=sum(rounds_per_phase),
        rounds_per_phase=rounds_per_phase,
        bfs_rounds_per_phase=bfs_rounds,
        aggregation_rounds_per_phase=agg_rounds,
        congestion_per_phase=congestion,
        messages=messages,
        engine=engine,
    )
