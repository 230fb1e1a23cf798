"""Connected components as a shortcut consumer (Boruvka-style hooking).

The second aggregation workload of the applications layer: connected
components computed by fragment hooking, with every phase's label minimum
routed through part-wise aggregation over shortcut-augmented fragment
trees — the same consumer loop as :mod:`repro.applications.shortcut_mst`,
exercised on (possibly disconnected) unweighted graphs.

Each phase:

1. the current fragments form the part collection and the Kogan-Parter
   construction is re-invoked on that merged-part partition (``engine
   ="shortcut"``; ``engine="raw"`` keeps the bare fragment trees);
2. one round of neighbour fragment-id exchange lets every node compute its
   local hooking candidate — its minimum-*priority* incident edge leaving
   the fragment, where the priorities are shared random edge weights drawn
   once per run (the standard symmetry breaking of distributed hooking:
   with adversarially ordered ids a deterministic key lets union chains
   collapse whole components in one phase, leaving nothing to aggregate);
3. a part-wise *min* aggregation (:func:`~repro.congest.primitives.
   aggregation.aggregate_over_shortcut`) elects each fragment's winner and
   the fragments merge along the winning edges.

A fragment with no outgoing edge has found its component.  The priority
order is symmetric (both endpoints rank an edge identically), so
fragments pair up on mutually minimal edges exactly as Boruvka fragments
do: the unfinished-fragment count at least halves per phase, the loop
ends after ``O(log n)`` phases, and the later phases aggregate over
genuinely grown fragments — the regime the shortcut routing is for.  The
final labels (each vertex labelled by its component's smallest member)
match the sequential traversal exactly
(``tests/test_shortcut_consumers.py`` pins them to
:func:`repro.graphs.components.connected_components`).
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
from ..graphs.graph import Graph
from ..graphs.traversal import max_component_diameter
from ..rng import RandomLike, derive_seed, ensure_rng
from ..shortcuts.baselines import build_empty_shortcut
from ..shortcuts.kogan_parter import build_kogan_parter_shortcut
from ..shortcuts.partition import Partition
from .shortcut_mst import CONSUMER_ENGINES, NO_CANDIDATE, node_crossing_candidates


@dataclass
class ComponentsResult:
    """Output of the shortcut-consumer connected-components run.

    Attributes:
        labels: per-vertex component label — the smallest vertex id of the
            component (the ordering contract of
            :func:`repro.graphs.components.connected_components`).
        num_components: number of connected components.
        phases: hooking phases executed.
        total_rounds: simulated rounds summed over phases (per phase: one
            leader-exchange round + the measured two-stage aggregation).
        rounds_per_phase: the per-phase breakdown.
        messages: messages delivered across all simulated stages.
        engine: ``"shortcut"`` or ``"raw"``.
    """

    labels: list[int]
    num_components: int
    phases: int
    total_rounds: int
    rounds_per_phase: list[int] = field(default_factory=list)
    messages: int = 0
    engine: str = "shortcut"


def shortcut_connected_components(
    graph: Graph,
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
) -> ComponentsResult:
    """Label the connected components with the simulated consumer loop.

    Args:
        graph: the host graph (disconnected inputs are the interesting
            case).
        engine: routing substrate per phase — ``"shortcut"`` or ``"raw"``.
        diameter_value: host diameter for the shortcut parameters (default:
            the largest component diameter, measured once).
        log_factor: sampling-probability factor of the per-phase shortcut.
        rng: randomness for sampling and scheduler delays.
        max_rounds_per_phase: safety cap per simulated stage.
        max_phases: phase cap (default ``ceil(log2 n) + 2``).
        drop_rate: Bernoulli message-drop probability per delivery; any
            positive rate turns on the retry/ack protocol stack (labels
            stay exact under loss).
        crashes: nodes to crash per phase at adversarial rounds; lost
            aggregates make the phase retry within the phase budget
            (everyone is alive again between phases).
        adversary_seed: base seed of all fault randomness (per-phase
            streams derived from it; with ``None`` it is derived from an
            int ``rng`` seed, and required when ``rng`` is a generator
            instance — fault streams are never drawn from OS entropy).
        recover_after: revive crashed nodes after this many rounds
            (``None`` = no recovery).

    Returns:
        A :class:`ComponentsResult`.
    """
    if engine not in CONSUMER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {CONSUMER_ENGINES}")
    n = graph.num_vertices
    if n == 0:
        return ComponentsResult(labels=[], num_components=0, phases=0,
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
            adversary_seed = derive_seed(rng, "components-faults")
        else:
            raise ValueError(
                "drop_rate/crashes need a reproducible fault stream: pass "
                "adversary_seed=<int> (or an int rng seed to derive it from)"
            )
    retry = RetryPolicy() if faulty else None

    uf = UnionFind(n)
    network = Network(graph)
    rounds_per_phase: list[int] = []
    messages = 0
    # Shared random edge priorities (the O(log^2 n)-bit shared randomness
    # every node is assumed to hold, as in the random-delay theorem).
    priorities = [r.random() for _ in range(graph.num_edges)]

    for phase in range(max_phases):
        fragments = uf.groups()
        if len(fragments) <= 1:
            break
        partition = Partition(graph, fragments, validate=False)
        candidates = node_crossing_candidates(graph, uf, priorities)
        if not candidates:
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
                seed=derive_seed(adversary_seed, "components-phase", phase),
                num_vertices=n, recover_after=recover_after,
            )
        outcome = aggregate_over_shortcut(
            shortcut, candidates, "min",
            network=network, identity=NO_CANDIDATE, rng=r,
            max_rounds=max_rounds_per_phase,
            retry=retry, adversary=adversary,
        )
        rounds_per_phase.append(1 + outcome.rounds)
        messages += outcome.messages

        merged_any = False
        for winner in outcome.values.values():
            if winner == NO_CANDIDATE:
                continue
            _, u, v = winner
            if uf.union(u, v):
                merged_any = True
        # Under crashes a no-merge phase means lost aggregates; the
        # remaining phase budget retries with everyone alive again.
        if not merged_any and not faulty:
            break

    # Canonical labels: smallest member id per fragment, via one find per
    # vertex and a vectorized minimum over the root array.
    roots = np.fromiter((uf.find(v) for v in range(n)), dtype=np.int64,
                        count=n)
    uniq, inv = np.unique(roots, return_inverse=True)
    smallest = np.full(len(uniq), n, dtype=np.int64)
    np.minimum.at(smallest, inv, np.arange(n, dtype=np.int64))
    labels = smallest[inv].tolist()
    return ComponentsResult(
        labels=labels,
        num_components=len(uniq),
        phases=len(rounds_per_phase),
        total_rounds=sum(rounds_per_phase),
        rounds_per_phase=rounds_per_phase,
        messages=messages,
        engine=engine,
    )
