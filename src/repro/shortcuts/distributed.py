"""Distributed (CONGEST) implementation of the Kogan-Parter construction.

The paper's Section 2 gives a distributed implementation of the centralized
sampling construction that runs in ``~O(k_D)`` rounds:

1. **Large-part detection** — a truncated BFS of depth ``~k_D + 1`` inside
   every ``G[S_i]`` (all parts in parallel; they are vertex-disjoint so they
   never compete for an edge) followed by a max-convergecast over each
   part's tree that tells the leader whether some member lies beyond depth
   ``~k_D``.
2. **Numbering** — the large parts are numbered ``1 .. N'`` over a global
   BFS tree with a pipelined convergecast/broadcast (``O(D + N')`` rounds).
3. **Local sampling** — every node samples its incident edges into the
   ``H_i`` of each part flagged in stage 1, locally; no communication.
4. **Parallel truncated BFS** — a BFS tree of depth ``~O(k_D log n)`` is
   grown in every augmented subgraph ``G[S_i] ∪ H_i`` simultaneously using
   the random-delay scheduler (Theorem 2.1), with start delays drawn from
   ``[0, ĉ - 1]`` for the congestion ``ĉ`` of those subgraphs' link masks;
   this is where congestion and dilation translate into measured rounds.
5. **Verification** — a max-convergecast and broadcast over the stage-2
   global tree of one bit per node, "my part's stage-4 tree missed me", so
   every node learns whether all large parts are spanned; with an unknown
   diameter the construction guesses ``D`` geometrically upward from a
   measured BFS 2-approximation and accepts the first guess whose
   verification succeeds.

Simulation fidelity
-------------------
All five stages are *fully simulated* on the CONGEST network: every entry
of ``rounds_breakdown`` is a measured round count, including all queueing
caused by congestion — there are no analytic round charges left.  Stages 1
and 5 both end in a
:class:`~repro.congest.primitives.aggregation.PartAggregation` over trees
that already exist: stage 1 runs a mask-restricted
:class:`~repro.congest.primitives.bfs.DistributedBFS` and one instance per
part over its ``G[S_i]`` tree (disjoint parts, so congestion 1); stage 2
builds a global BFS tree and runs a
:class:`~repro.congest.primitives.numbering.PipelinedNumbering` over it;
stage 4 runs the whole fleet through
:class:`~repro.congest.primitives.concurrent_bfs.ConcurrentMaskedBFS` (the
random-delay schedule specialised to CSR link masks, with the provably
useless parent-echo announce suppressed — see that module's docstring);
stage 5 is a single instance over the stage-2 tree's own edges, so it costs
``O(D)`` rounds and ``4(n - 1)`` messages.  Stage 3 is free
(communication-less) and reuses the centralized sampler on stage 1's flagged
parts, which produces the identical distribution from the same node-local
information.

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

import math
from random import Random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..congest.network import Network, RunMetrics, gc_paused
from ..congest.primitives.aggregation import PartAggregation, shortcut_link_masks
from ..congest.primitives.bfs import DistributedBFS
from ..congest.primitives.concurrent_bfs import UNREACHED, ConcurrentMaskedBFS
from ..congest.primitives.numbering import PipelinedNumbering
from ..congest.scheduler import draw_random_delays, mask_congestion
from ..graphs.csr import CSRGraph, CSRLinkMask
from ..graphs.graph import Graph
from .baselines import build_empty_shortcut
from .kogan_parter import KoganParterParameters, _sample_shortcut, resolve_parameters
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
        fleet_congestion: ĉ of the accepted guess's stage-4 masks (the
            most of them permitting one directed link); its start delays
            were drawn from ``[0, ĉ - 1]``.  0 when no part was flagged.
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
    fleet_congestion: int = 0


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


def _tree_mask(csr: CSRGraph, parent: list[int]) -> CSRLinkMask:
    """The link mask of a spanning tree's own edges, from parent pointers."""
    parent_of = np.asarray(parent, dtype=np.int64)
    child = np.flatnonzero(parent_of != np.arange(len(parent_of)))
    arrays = csr.adjacency_arrays()
    # Adjacency entries ascend by (row, neighbour), so one search finds
    # every child -> parent entry.
    n = csr.num_vertices
    pos = np.searchsorted(arrays.rows * n + arrays.indices,
                          child * n + parent_of[child])
    return CSRLinkMask.from_edge_ids(csr, arrays.edge_ids[pos])


def detect_large_parts(
    network: Network,
    partition: Partition,
    depth: int,
    *,
    intra_mask: Optional[CSRLinkMask] = None,
    max_rounds: int = 200_000,
) -> tuple[list[int], int]:
    """Stage 1: find the parts whose radius from their leader exceeds ``depth``.

    This is the one large-part rule: every sampler (stage 3 here, and the
    central :func:`~repro.shortcuts.kogan_parter.build_kogan_parter_shortcut`
    and :func:`~repro.shortcuts.odd_diameter.build_odd_diameter_shortcut`
    through :func:`~repro.shortcuts.kogan_parter.radius_large_parts`)
    samples exactly the parts flagged at ``depth = max(1, ceil(k_D))``.
    It is sound.  A part that is not flagged has every member within
    ``depth`` hops of its leader inside ``G[S_i]``, so any two members are
    joined in ``G[S_i] ∪ H_i`` by at most ``2 · depth`` edges: its dilation
    is O(k_D) with no sampled edge, which is all Ghaffari–Haeupler's
    part-wise aggregation asks of it.  A flagged part holds a shortest path
    of ``depth + 1 > k_D`` edges, hence more than ``k_D`` vertices; the
    parts are disjoint, so at most ``N = ceil(n / k_D)`` parts are flagged
    and Theorem 1.1's congestion and dilation bounds hold as stated.

    Both phases are simulated.  A BFS truncated at ``depth + 1`` grows every
    part's tree over the intra-part link mask; parts are connected, so some
    member sits at distance ``depth + 1`` exactly when the radius exceeds
    ``depth``.  A :class:`PartAggregation` with one instance per part then
    takes the maximum of that bit up each tree to the leader (the parts are
    disjoint, so congestion is 1 and no start delays are needed).

    Returns:
        ``(large part indices, measured rounds)``.
    """
    if intra_mask is None:
        intra_mask = _intra_part_mask(partition)
    bfs = DistributedBFS(
        set(partition.leaders()),
        allowed_links=intra_mask,
        max_depth=depth + 1,
        prefix="lp_",
    )
    bfs_metrics = network.run(bfs, reset=False, max_rounds=max_rounds)
    nodes = network.nodes
    parents: list[dict[int, int]] = []
    beyond: list[dict[int, int]] = []
    for i in range(partition.num_parts):
        part_parents: dict[int, int] = {}
        part_beyond: dict[int, int] = {}
        for v in partition.part(i):
            state = nodes[v].state
            dist = state.get("lp_dist")
            if dist is None:
                part_parents[v] = UNREACHED
            else:
                part_parents[v] = state["lp_parent"]
                part_beyond[v] = int(dist > depth)
        parents.append(part_parents)
        beyond.append(part_beyond)
    masks = shortcut_link_masks(
        build_empty_shortcut(partition.graph, partition), range(partition.num_parts)
    )
    radius_check = PartAggregation(masks, parents, beyond, "max", broadcast_result=False)
    check_metrics = network.run(radius_check, reset=False, max_rounds=max_rounds)
    large = [i for i, flag in enumerate(radius_check.results) if flag == 1]
    return large, bfs_metrics.rounds + check_metrics.rounds


def measure_diameter_probe(
    graph: Graph,
    *,
    source: int = 0,
    max_rounds: int = 200_000,
) -> tuple[int, int]:
    """Run the BFS 2-approximation probe and return ``(ecc, rounds)``.

    The source eccentricity satisfies ``ecc <= D <= 2·ecc``; its rounds are
    what the unknown-diameter construction pays before its first guess.

    Raises:
        ValueError: if the graph is disconnected (some node unreached).
    """
    network = Network(graph)
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
        ecc, probe_rounds = measure_diameter_probe(graph, max_rounds=max_rounds)
        guesses = geometric_guesses(max(2, ecc), 2 * ecc)

    intra_mask = _intra_part_mask(partition)

    total_rounds = probe_rounds
    attempted: list[int] = []
    last_result: Optional[DistributedShortcutResult] = None

    for guess in guesses:
        attempted.append(guess)
        # The stage-4 fleet allocates only short-lived messages and payload
        # tuples; collections would rescan the static graph and engine
        # structures for nothing, which dominates wall time at 10k nodes.
        with gc_paused():
            result = _run_single_guess(
                graph,
                partition,
                guess,
                intra_mask=intra_mask,
                log_factor=log_factor,
                probability=probability,
                depth_budget_factor=depth_budget_factor,
                rng=r,
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
                fleet_congestion=result.fleet_congestion,
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
        fleet_congestion=last_result.fleet_congestion,
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
    detection_depth = params.detection_depth
    depth_budget = max(
        detection_depth, math.ceil(depth_budget_factor * k_d * math.log(max(n, 2)))
    )

    network = Network(graph)
    breakdown: dict[str, int] = {}

    # Stage 1: large-part detection (truncated BFS + max-convergecast).
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
    # Every node learns N' (all a sampler needs — its per-part samples
    # carry abstract indices 1..N'), and each large-part leader learns its
    # own rank to tag its stage-4 BFS with.
    numbering = PipelinedNumbering(
        {leader: leader for leader in large_leaders},
        tree_prefix="gt_",
        prefix="num_",
    )
    numbering_metrics = network.run(numbering, reset=False, max_rounds=max_rounds)
    breakdown["number_large_parts"] = tree_metrics.rounds + numbering_metrics.rounds

    # Stage 3: local sampling (no communication) for exactly the parts
    # stage 1 flagged.  The centralized sampler consumes only node-local
    # information (incident edges, N', p, the leader's flag), so its
    # output distribution is exactly what per-node sampling produces.
    shortcut = _sample_shortcut(graph, partition, params, large, rng).shortcut
    breakdown["local_sampling"] = 0

    # Stage 4: concurrent truncated BFS in every augmented subgraph of a
    # large part, scheduled with random delays (the round-dominant stage).
    # As Theorem 2.1 asks, the delays are drawn from ``[0, ĉ - 1]``, where
    # ĉ is the congestion of the masks scheduled (the part-wise aggregation
    # draws from the same range).
    bfs_metrics: Optional[RunMetrics] = None
    fleet: Optional[ConcurrentMaskedBFS] = None
    congestion = 0
    if large:
        # Per-part permits from the sampler's edge-id arrays.  For the KP
        # sampler ``H_i`` already contains every edge incident to a part
        # member (step 1), so ``H_i`` alone *is* the augmented subgraph
        # ``G[S_i] ∪ H_i``.
        masks = [
            CSRLinkMask.from_edge_ids(csr, shortcut.subgraph_edge_id_array(part_idx))
            for part_idx in large
        ]
        congestion = mask_congestion(masks)
        delays = draw_random_delays(len(large), max(0, congestion - 1), rng)
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

    # Stage 5: verification — a max-convergecast and broadcast over the
    # stage-2 tree of "my part's stage-4 tree missed me", read off the
    # fleet's distance rows (the trees already exist; no new one is grown).
    spanning_ok = True
    if large:
        nodes = network.nodes
        gt_parent = [nodes[v].state["gt_parent"] for v in range(n)]
        missed = dict.fromkeys(range(n), 0)
        for order, part_idx in enumerate(large):
            dist = fleet.dist[order]
            for v in partition.part(part_idx):
                if dist[v] == UNREACHED:
                    missed[v] = 1
        check = PartAggregation(
            [_tree_mask(csr, gt_parent)], [gt_parent], [missed], "max",
            broadcast_result=True,
        )
        check_metrics = network.run(check, reset=False, max_rounds=max_rounds)
        breakdown["verification"] = check_metrics.rounds
        spanning_ok = check.results[0] == 0
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
        fleet_congestion=congestion,
    )
