"""Distributed (CONGEST) implementation of the Kogan-Parter construction.

The paper's Section 2 gives a distributed implementation of the centralized
sampling construction that runs in ``~O(k_D)`` rounds:

1. **Large-part detection** — a truncated BFS of depth ``~k_D`` inside every
   ``G[S_i]`` (all parts in parallel; they are vertex-disjoint so they never
   compete for an edge) followed by a flag convergecast that tells each part
   leader whether some member was missed.
2. **Numbering** — the large parts are numbered ``1 .. N'`` over a global
   BFS tree with a pipelined convergecast/broadcast (``O(D + N')`` rounds).
3. **Local sampling** — every node samples its incident edges into each
   ``H_i`` locally; no communication.
4. **Parallel truncated BFS** — a BFS tree of depth ``~O(k_D log n)`` is
   grown in every augmented subgraph ``G[S_i] ∪ H_i`` simultaneously using
   the random-delay scheduler (Theorem 2.1); this is where congestion and
   dilation translate into measured rounds.
5. **Verification** — each leader checks its tree spans its part (another
   flag convergecast); with an unknown diameter the construction guesses
   ``D`` geometrically upward from a measured BFS 2-approximation and
   accepts the first guess whose verification succeeds.

Simulation fidelity
-------------------
All five stages are *fully simulated* on the CONGEST network: every entry
of ``rounds_breakdown`` is a measured round count, including all queueing
caused by congestion — there are no analytic round charges left.  Stage 1
runs a mask-restricted :class:`~repro.congest.primitives.bfs.DistributedBFS`
plus a :class:`~repro.congest.primitives.spanning.PartwiseFlagConvergecast`;
stage 2 builds a global BFS tree and runs a
:class:`~repro.congest.primitives.numbering.PipelinedNumbering` over it;
stage 4 runs the whole fleet through
:class:`~repro.congest.primitives.concurrent_bfs.ConcurrentMaskedBFS` (the
random-delay schedule specialised to CSR link masks, with the provably
useless parent-echo announce suppressed — see that module's docstring);
stage 5 is a second flag convergecast over the stage-4 trees.  Stage 3 is
free (communication-less) and reuses the centralized sampler, which
produces the identical distribution from the same node-local information.

With ``known_diameter=False`` the driver first runs one full-graph BFS (its
rounds are charged as ``probe_rounds``), reads off the source eccentricity
``ecc`` — a 2-approximation, ``ecc <= D <= 2 ecc`` — and tries the guesses
``ecc, 2 ecc`` geometrically (:func:`geometric_guesses`), charging every
failed guess.  This replaces the seed driver's linear ``D/2, D/2+1, ..., D``
sweep, which re-ran the whole construction O(D) times.

CSR-native subgraph views
-------------------------
All restricted traversals run on
:class:`~repro.graphs.csr.CSRLinkMask` views — flat permit arrays over the
engine's dense directed link ids — instead of per-part dict-of-sets
adjacency maps, eliminating the O(n·Δ) Python set construction the seed
driver paid per diameter guess and letting announcements use the
allocation-free ``multicast_links`` path.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from random import Random
from dataclasses import dataclass
from typing import Optional

from ..congest.network import Network, RunMetrics
from ..congest.primitives.bfs import DistributedBFS
from ..congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from ..congest.primitives.numbering import PipelinedNumbering
from ..congest.primitives.spanning import PartwiseFlagConvergecast
from ..congest.scheduler import draw_random_delays
from ..graphs.csr import CSRLinkMask
from ..graphs.graph import Graph
from .kogan_parter import (
    KoganParterParameters,
    build_kogan_parter_shortcut,
    resolve_parameters,
)
from .partition import Partition
from .shortcut import Shortcut

from ..rng import RandomLike, ensure_rng


@dataclass
class DistributedShortcutResult:
    """Output of the distributed construction.

    Attributes:
        shortcut: the constructed shortcut (same object model as the
            centralized result).
        parameters: resolved construction parameters for the accepted guess.
        total_rounds: sum of all stage round counts over all diameter
            guesses attempted, plus the diameter-probe rounds.
        rounds_breakdown: per-stage measured round counts of the *accepted*
            guess.
        attempted_guesses: the diameter guesses tried (in order).
        accepted_guess: the guess that verified successfully.
        probe_rounds: rounds of the BFS 2-approximation probe (0 when the
            diameter was known).
        bfs_metrics: the raw :class:`RunMetrics` of the stage-4 concurrent
            BFS of the accepted guess (rounds, messages, per-edge load).
        spanning_ok: whether every large part's tree spanned its part.
    """

    shortcut: Shortcut
    parameters: KoganParterParameters
    total_rounds: int
    rounds_breakdown: dict[str, int]
    attempted_guesses: list[int]
    accepted_guess: int
    probe_rounds: int = 0
    bfs_metrics: Optional[RunMetrics] = None
    spanning_ok: bool = True


@contextmanager
def _gc_paused():
    """Pause the cyclic GC around an allocation-heavy simulation loop.

    The stage-4 fleet allocates only short-lived messages and payload
    tuples; the generational collector would repeatedly rescan the large,
    static graph/engine structures for nothing, which dominates wall time
    at 10k-node scale.  No-op when the collector is already disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def geometric_guesses(lower: int, upper: int) -> list[int]:
    """Return the geometric guess sequence ``lower, 2·lower, ...``.

    Doubles until the first value at least ``upper`` (inclusive), so the
    sequence has ``O(log(upper / lower))`` entries — the guessing schedule
    of the paper's unknown-diameter construction, where ``lower`` is the
    measured BFS 2-approximation and ``upper = 2·lower`` bounds the true
    diameter from above.
    """
    lower = max(2, lower)
    guesses = [lower]
    g = lower
    while g < upper:
        g *= 2
        guesses.append(g)
    return guesses


def _intra_part_mask(partition: Partition) -> CSRLinkMask:
    """The link mask of the union of induced subgraphs ``G[S_i]``."""
    return CSRLinkMask.intra_partition(
        partition.graph.csr(), partition.vertex_labels()
    )


def _state_tree_lookup(network: Network, prefix: str):
    """A ``tree_lookup`` over a :class:`DistributedBFS` result in node state."""
    nodes = network.nodes
    key_dist = prefix + "dist"
    key_parent = prefix + "parent"

    def lookup(_part: int, v: int):
        state = nodes[v].state
        dist = state.get(key_dist)
        if dist is None:
            return None, None
        return dist, state[key_parent]

    return lookup


def detect_large_parts(
    network: Network,
    partition: Partition,
    depth: int,
    *,
    intra_mask: Optional[CSRLinkMask] = None,
    max_rounds: int = 200_000,
) -> tuple[list[int], int]:
    """Stage 1: find the parts whose radius from their leader exceeds ``depth``.

    A part with radius greater than ``k_D`` necessarily has more than
    ``k_D`` vertices, so every part flagged here is large in the paper's
    size sense; parts that are *not* flagged already have augmented diameter
    at most ``2 · depth`` without any shortcut edges, which is within the
    target dilation, so it is sound to skip them.

    Both phases are simulated: the truncated BFS inside the parts (over the
    intra-part link mask) and the flag convergecast that informs the
    leaders, whose ``depth + 2`` timeout rounds are charged through the
    engine's timer protocol.

    Returns:
        ``(large part indices, measured rounds)``.
    """
    if intra_mask is None:
        intra_mask = _intra_part_mask(partition)
    leaders = set(partition.leaders())
    bfs = DistributedBFS(
        leaders,
        allowed_links=intra_mask,
        max_depth=depth,
        prefix="lp_",
    )
    bfs_metrics = network.run(bfs, reset=False, max_rounds=max_rounds)
    check = PartwiseFlagConvergecast(
        partition.part_of,
        range(partition.num_parts),
        intra_mask,
        _state_tree_lookup(network, "lp_"),
        timeout=depth + 2,
        prefix="lpchk_",
    )
    check_metrics = network.run(check, reset=False, max_rounds=max_rounds)
    return sorted(check.flagged), bfs_metrics.rounds + check_metrics.rounds


def measure_diameter_probe(
    graph: Graph,
    *,
    bandwidth: int = 1,
    source: int = 0,
    max_rounds: int = 200_000,
) -> tuple[int, int]:
    """Run the BFS 2-approximation probe and return ``(ecc, rounds)``.

    The source eccentricity satisfies ``ecc <= D <= 2·ecc``; its rounds are
    what the unknown-diameter construction pays before its first guess.

    Raises:
        ValueError: if the graph is disconnected (some node unreached).
    """
    network = Network(graph, bandwidth=bandwidth)
    network.reset()
    bfs = DistributedBFS({source}, prefix="probe_")
    metrics = network.run(bfs, max_rounds=max_rounds)
    ecc = 0
    nodes = network.nodes
    for v in range(graph.num_vertices):
        dist = nodes[v].state.get("probe_dist")
        if dist is None:
            raise ValueError("graph must be connected")
        if dist > ecc:
            ecc = dist
    return ecc, metrics.rounds


def build_distributed_kogan_parter(
    graph: Graph,
    partition: Partition,
    *,
    diameter_value: Optional[int] = None,
    known_diameter: bool = True,
    log_factor: float = 1.0,
    probability: Optional[float] = None,
    depth_budget_factor: float = 4.0,
    rng: RandomLike = None,
    bandwidth: int = 1,
    max_rounds: int = 200_000,
) -> DistributedShortcutResult:
    """Run the distributed shortcut construction and measure its rounds.

    Args:
        graph: the communication graph.
        partition: the parts (every member is assumed to know its leader,
            the standard distributed input of [GH16]).
        diameter_value: the true diameter ``D`` if known; measured exactly
            when omitted (with ``known_diameter=True``).
        known_diameter: if ``False``, run the diameter-guessing loop of the
            paper: a simulated full-graph BFS measures the 2-approximation
            lower bound ``ecc`` (its rounds are charged as
            ``probe_rounds``), and the guesses grow geometrically from
            ``ecc`` (at most ``2·ecc``, which provably suffices); every
            failed guess's rounds are charged.  ``diameter_value`` is
            ignored for guessing in this mode.
        log_factor, probability: sampling-probability controls forwarded to
            the sampler (see the centralized construction).
        depth_budget_factor: the stage-4 BFS depth budget is
            ``ceil(depth_budget_factor · k_D · ln n)``.
        rng: randomness for sampling and the scheduler delays.
        bandwidth: CONGEST link bandwidth (1 = standard model).
        max_rounds: safety cap per simulated stage.

    Returns:
        A :class:`DistributedShortcutResult`.
    """
    r = ensure_rng(rng)
    probe_rounds = 0
    if known_diameter:
        if diameter_value is None:
            from ..graphs.traversal import diameter as graph_diameter

            measured = graph_diameter(graph)
            if measured == float("inf"):
                raise ValueError("graph must be connected")
            diameter_value = int(measured)
        guesses = [diameter_value]
    else:
        ecc, probe_rounds = measure_diameter_probe(
            graph, bandwidth=bandwidth, max_rounds=max_rounds
        )
        guesses = geometric_guesses(max(2, ecc), 2 * ecc)

    intra_mask = _intra_part_mask(partition)

    total_rounds = probe_rounds
    attempted: list[int] = []
    last_result: Optional[DistributedShortcutResult] = None

    for guess in guesses:
        attempted.append(guess)
        with _gc_paused():
            result = _run_single_guess(
                graph,
                partition,
                guess,
                intra_mask=intra_mask,
                log_factor=log_factor,
                probability=probability,
                depth_budget_factor=depth_budget_factor,
                rng=r,
                bandwidth=bandwidth,
                max_rounds=max_rounds,
            )
        total_rounds += result.total_rounds
        last_result = result
        if result.spanning_ok:
            return DistributedShortcutResult(
                shortcut=result.shortcut,
                parameters=result.parameters,
                total_rounds=total_rounds,
                rounds_breakdown=result.rounds_breakdown,
                attempted_guesses=attempted,
                accepted_guess=guess,
                probe_rounds=probe_rounds,
                bfs_metrics=result.bfs_metrics,
                spanning_ok=True,
            )

    # No guess verified (can happen when the depth budget is too small for
    # the chosen log_factor); return the last attempt with the flag down so
    # callers can decide how to proceed.
    assert last_result is not None
    return DistributedShortcutResult(
        shortcut=last_result.shortcut,
        parameters=last_result.parameters,
        total_rounds=total_rounds,
        rounds_breakdown=last_result.rounds_breakdown,
        attempted_guesses=attempted,
        accepted_guess=attempted[-1],
        probe_rounds=probe_rounds,
        bfs_metrics=last_result.bfs_metrics,
        spanning_ok=False,
    )


def _run_single_guess(
    graph: Graph,
    partition: Partition,
    diameter_guess: int,
    *,
    intra_mask: CSRLinkMask,
    log_factor: float,
    probability: Optional[float],
    depth_budget_factor: float,
    rng: Random,
    bandwidth: int,
    max_rounds: int,
) -> DistributedShortcutResult:
    """Run stages 1-5 for one diameter guess (all rounds measured)."""
    n = graph.num_vertices
    csr = graph.csr()
    params = resolve_parameters(
        graph,
        diameter_value=diameter_guess,
        probability=probability,
        log_factor=log_factor,
    )
    k_d = params.k_d
    detection_depth = max(1, math.ceil(k_d))
    depth_budget = max(
        detection_depth, math.ceil(depth_budget_factor * k_d * math.log(max(n, 2)))
    )

    network = Network(graph, bandwidth=bandwidth)
    network.reset()
    breakdown: dict[str, int] = {}

    # Stage 1: large-part detection (truncated BFS + flag convergecast).
    large, rounds_detect = detect_large_parts(
        network, partition, detection_depth,
        intra_mask=intra_mask, max_rounds=max_rounds,
    )
    breakdown["detect_large_parts"] = rounds_detect

    # Stage 2: numbering the large parts — a global BFS tree (rooted at the
    # maximum id, the leader-election convention) plus a pipelined
    # convergecast/broadcast that ranks the large-part leaders.
    root = n - 1
    global_tree = DistributedBFS({root}, prefix="gt_")
    tree_metrics = network.run(global_tree, reset=False, max_rounds=max_rounds)
    large_leaders = [partition.leader(i) for i in large]
    # Reverse-path ("count") mode: every node learns N' (all a sampler
    # needs — its per-part samples carry abstract indices 1..N'), and each
    # large-part leader learns its own rank to tag its stage-4 BFS with.
    numbering = PipelinedNumbering(
        {leader: leader for leader in large_leaders},
        tree_prefix="gt_",
        prefix="num_",
        broadcast="count",
    )
    numbering_metrics = network.run(numbering, reset=False, max_rounds=max_rounds)
    breakdown["number_large_parts"] = tree_metrics.rounds + numbering_metrics.rounds

    # Stage 3: local sampling (no communication).  The centralized sampler
    # consumes only node-local information (incident edges, N', p), so its
    # output distribution is exactly what per-node sampling produces.
    kp = build_kogan_parter_shortcut(
        graph,
        partition,
        diameter_value=diameter_guess,
        probability=params.probability,
        repetitions=params.repetitions,
        log_factor=log_factor,
        large_threshold=params.large_threshold,
        rng=rng,
    )
    shortcut = kp.shortcut
    breakdown["local_sampling"] = 0

    # Stage 4: concurrent truncated BFS in every augmented subgraph of a
    # large part, scheduled with random delays (the round-dominant stage).
    bfs_metrics: Optional[RunMetrics] = None
    fleet: Optional[ConcurrentMaskedBFS] = None
    if large:
        # Per-part permits from the sampler's edge-id sets.  For the KP
        # sampler ``H_i`` already contains every edge incident to a part
        # member (step 1), so ``H_i`` alone *is* the augmented subgraph
        # ``G[S_i] ∪ H_i``.
        masks = [
            CSRLinkMask.from_edge_ids(csr, shortcut.subgraph_edge_id_array(part_idx))
            for part_idx in large
        ]
        max_delay = max(1, math.ceil(params.k_d * math.log(max(n, 2))))
        delays = draw_random_delays(len(large), max_delay, rng)
        fleet = ConcurrentMaskedBFS(
            large_leaders,
            masks,
            delays,
            depth_budget,
            [f"sc{part_idx}_" for part_idx in large],
            n,
            suppress_parent_echo=True,
        )
        bfs_metrics = network.run(fleet, reset=False, max_rounds=max_rounds)
        breakdown["concurrent_bfs"] = bfs_metrics.rounds
    else:
        breakdown["concurrent_bfs"] = 0

    # Stage 5: verification — spanning-flag convergecast over the stage-4
    # trees (which overlap on shortcut edges, so this one runs
    # multi-channel and its queueing rounds are measured).
    spanning_ok = True
    if large:
        order_of = {part_idx: order for order, part_idx in enumerate(large)}
        tree_lookup = fleet.tree_lookup

        def lookup(part_idx: int, v: int):
            return tree_lookup(order_of[part_idx], v)

        check = PartwiseFlagConvergecast(
            partition.part_of,
            large,
            intra_mask,
            lookup,
            timeout=depth_budget + 2,
            prefix="scchk_",
        )
        check_metrics = network.run(check, reset=False, max_rounds=max_rounds)
        breakdown["verification"] = check_metrics.rounds
        spanning_ok = not check.flagged
    else:
        breakdown["verification"] = 0

    total = sum(breakdown.values())
    return DistributedShortcutResult(
        shortcut=shortcut,
        parameters=params,
        total_rounds=total,
        rounds_breakdown=breakdown,
        attempted_guesses=[diameter_guess],
        accepted_guess=diameter_guess,
        bfs_metrics=bfs_metrics,
        spanning_ok=spanning_ok,
    )
