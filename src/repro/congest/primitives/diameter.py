"""Distributed diameter estimation (2-approximation).

The shortcut construction needs ``k_D``, which depends on the exact
diameter ``D``.  Following the paper (Section 2), the nodes first obtain a
2-factor approximation ``D'`` of the diameter by building a BFS tree from an
elected leader and measuring its depth: the BFS depth (graph eccentricity of
the root) satisfies ``depth <= D <= 2 * depth``.  The "guess the diameter"
wrapper of the distributed construction then iterates candidate values from
``depth`` upward.

:func:`estimate_diameter` chains the flooding leader election, a BFS from
the elected leader and a max-convergecast of the BFS depth (a one-instance
:class:`~repro.congest.primitives.aggregation.PartAggregation` over the
whole graph) as three successive ``Network.run(..., reset=False)`` stages.
"""

from __future__ import annotations

import numpy as np

from ...graphs.csr import CSRLinkMask
from .aggregation import PartAggregation
from .bfs import DistributedBFS
from .leader import FloodMax


def estimate_diameter(network) -> tuple[int, int, list]:
    """Run the 3-stage diameter estimation on ``network``.

    The stages are: (1) elect the max-id node as global leader via flooding,
    (2) grow a BFS tree from the node that elected itself, (3) convergecast
    the maximum BFS depth to the leader over that tree and broadcast it
    back, so every node learns it.

    Returns:
        ``(lower, upper, runs)``: the leader's BFS eccentricity and twice
        it, which bound the true diameter, and the three stages'
        :class:`~repro.congest.network.RunMetrics`.

    Raises:
        ValueError: if the graph is disconnected (more than one node
            elects itself).
    """
    runs = [network.run(FloodMax(prefix="flood_"))]
    nodes = network.nodes
    sources = {v for v, ctx in nodes.items() if ctx.state["flood_leader"] == v}
    if len(sources) != 1:
        raise ValueError("graph must be connected")
    runs.append(network.run(DistributedBFS(sources, prefix="ecc_bfs_"), reset=False))
    # One leader means one component, so the BFS reached every node.
    states = [nodes[v].state for v in range(len(nodes))]
    csr = network.graph.csr()
    convergecast = PartAggregation(
        [CSRLinkMask(csr, np.ones(csr.num_edges, dtype=bool))],
        [[state["ecc_bfs_parent"] for state in states]],
        [{v: state["ecc_bfs_dist"] for v, state in enumerate(states)}],
        "max",
        broadcast_result=True,
    )
    runs.append(network.run(convergecast, reset=False))
    depth = convergecast.results[0]
    return depth, 2 * depth, runs
