"""Connected components as a shortcut consumer (Boruvka-style hooking).

The second aggregation workload of the applications layer: connected
components computed by fragment hooking, with every phase's label minimum
routed through part-wise aggregation over shortcut-augmented fragment
trees.  It runs the Boruvka phase loop of
:mod:`repro.applications.shortcut_mst` itself, keyed by shared random edge
priorities instead of weights, on (possibly disconnected) unweighted
graphs.

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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from ..rng import RandomLike
from .shortcut_mst import _boruvka_phases


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
        engine: the routing substrate the phases used.
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
    rng: RandomLike,
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
        engine: routing substrate per phase, one of
            :data:`~repro.applications.shortcut_mst.CONSUMER_ENGINES`.
        diameter_value: host diameter for the shortcut parameters (default:
            the largest component diameter, measured once).
        log_factor: sampling-probability factor of the per-phase shortcut.
        rng: randomness for sampling and scheduler delays; required, so a
            run is reproducible from its arguments.
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
    uf, phases = _boruvka_phases(
        # Shared random edge priorities (the O(log^2 n)-bit shared
        # randomness every node is assumed to hold, as in the random-delay
        # theorem), drawn before the first phase.
        graph, lambda r: [r.random() for _ in range(graph.num_edges)],
        "components",
        engine=engine, diameter_value=diameter_value, log_factor=log_factor,
        rng=rng, max_phases=max_phases, drop_rate=drop_rate, crashes=crashes,
        adversary_seed=adversary_seed, recover_after=recover_after,
    )
    # Canonical labels: smallest member id per fragment, via one find per
    # vertex and a vectorized minimum over the root array.
    n = graph.num_vertices
    roots = np.fromiter((uf.find(v) for v in range(n)), dtype=np.int64,
                        count=n)
    uniq, inv = np.unique(roots, return_inverse=True)
    smallest = np.full(len(uniq), n, dtype=np.int64)
    np.minimum.at(smallest, inv, np.arange(n, dtype=np.int64))
    labels = smallest[inv].tolist()
    return ComponentsResult(
        labels=labels,
        num_components=len(uniq),
        phases=phases.phases,
        total_rounds=phases.total_rounds,
        rounds_per_phase=phases.rounds_per_phase,
        messages=phases.messages,
        engine=engine,
    )
