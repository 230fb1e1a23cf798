"""Bulk-kernel equivalence oracle: the vectorized round kernels are pinned
bit-identical to the per-node engine.

Every test runs the same algorithm twice — once with ``bulk_capable``
forced off (the authoritative per-node path) and once with it on — and
compares the *full* observable surface: round count, messages sent and
delivered, max link backlog, per-edge traffic (including multicast-folded
sends), termination flag, node state, and the algorithm's own outputs.
The sweep covers all six generator families for each ported primitive,
plus the boundary behaviours: ``max_rounds`` cutoffs (both paths raise
alike and leave the same node state, and the cut network must be reset),
resumed algorithm objects, and the fallback for configurations no kernel
models: every decline is named in
``RunMetrics.bulk_declined``, and retry mode and adversarial runs also
warn once per network.
"""

import decimal
import random
import warnings

import numpy as np
import pytest

from repro.congest import bulk
from repro.congest.network import BulkFallbackWarning, Network, RoundLimitExceeded
from repro.congest.adversary import RetryPolicy, make_fault_adversary
from repro.congest.primitives.aggregation import (
    PartAggregation,
    draw_random_delays,
    run_part_aggregation,
)
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from repro.congest.primitives.leader import FloodMax, read_leaders
from repro.graphs.csr import CSRLinkMask
from repro.graphs import Graph, path_graph
from repro.graphs.generators import GENERATOR_FAMILIES
from repro.params import k_d_value

from test_distributed_pipeline import DELAY_REGIMES, regime_delays
from test_network_wiring import _LeaderBurst

FAMILIES = sorted(GENERATOR_FAMILIES)

#: Classes whose ``bulk_capable`` flag the oracle toggles.
BULK_CLASSES = (FloodMax, DistributedBFS, ConcurrentMaskedBFS, PartAggregation)


@pytest.fixture
def bulk_toggle(monkeypatch):
    def set_bulk(enabled: bool) -> None:
        for cls in BULK_CLASSES:
            monkeypatch.setattr(cls, "bulk_capable", enabled)

    return set_bulk


def metrics_tuple(m):
    return (m.rounds, m.messages_sent, m.messages_delivered,
            m.max_link_backlog, m.terminated, dict(m.per_edge_messages))


def node_states(net):
    # Double-underscore entries (e.g. the per-node path's ``<prefix>__allowed``
    # adjacency memo) are engine-internal caches, not algorithm state.
    return {
        v: {k: s for k, s in ctx.state.items() if "__" not in k}
        for v, ctx in enumerate(net._node_list)
    }


def family_graph(family, n=36, seed=5):
    return GENERATOR_FAMILIES[family](n, random.Random(seed))


def label_masks(g, num_parts=4, seed=5):
    """A random vertex partition's intra-part link masks + roots + values."""
    rng = random.Random(seed)
    csr = g.csr()
    lab = np.asarray(
        [rng.randrange(num_parts) for _ in range(g.num_vertices)],
        dtype=np.int64,
    )
    masks = [
        CSRLinkMask(csr, np.asarray(
            [lab[u] == k and lab[v] == k for (u, v) in csr.edge_list],
            dtype=bool,
        ))
        for k in range(num_parts)
    ]
    roots = [
        int(np.flatnonzero(lab == k)[0]) if (lab == k).any() else 0
        for k in range(num_parts)
    ]
    values = [
        {v: 7 * v + k for v in np.flatnonzero(lab == k).tolist()}
        for k in range(num_parts)
    ]
    return masks, roots, values


def fleet_labels(fleet, num):
    out = []
    for i in range(num):
        row = []
        for container in (fleet.dist[i], fleet.parent[i], fleet.root[i]):
            if isinstance(container, list):
                row.append(tuple(container))
            else:
                row.append(tuple(sorted(
                    (k, v) for k, v in container.items() if v != -1
                )))
        out.append(tuple(row))
    return out


# ----------------------------------------------------------------------
# per-primitive equivalence across all six generator families
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_floodmax_bulk_matches_per_node(family, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        net = Network(family_graph(family))
        algo = FloodMax()
        m = net.run(algo)
        return metrics_tuple(m), node_states(net), read_leaders(net)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
def test_bfs_bulk_matches_per_node(family, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        net = Network(g)
        algo = DistributedBFS({0, g.num_vertices // 2})
        m = net.run(algo)
        return metrics_tuple(m), node_states(net)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sparse", [True, False])
def test_fleet_bulk_matches_per_node(family, sparse, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        masks, roots, _ = label_masks(g)
        net = Network(g)
        fleet = ConcurrentMaskedBFS(
            roots, masks, [1, 0, 2, 0], g.num_vertices,
            [f"pa{i}_" for i in range(4)], g.num_vertices,
            suppress_parent_echo=True, sparse_labels=sparse,
        )
        m = net.run(fleet, reset=False, max_rounds=200_000)
        return metrics_tuple(m), fleet_labels(fleet, 4)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("regime", DELAY_REGIMES)
def test_crowded_fleet_bulk_matches_per_node(family, regime, bulk_toggle):
    # Thirty instances over random 80% edge samples share most links, as
    # stage 4's augmented subgraphs do, so sends queue several deep; the
    # delays come from either of stage 4's ranges.
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family, n=48)
        n = g.num_vertices
        csr = g.csr()
        rng = random.Random(9)
        num = 30
        masks = [
            CSRLinkMask.from_edge_ids(csr, [
                e for e in range(csr.num_edges) if rng.random() < 0.8
            ])
            for _ in range(num)
        ]
        roots = [rng.randrange(n) for _ in range(num)]
        delays = regime_delays(regime, masks, k_d_value(n, 6), n,
                               random.Random(11))
        net = Network(g)
        fleet = ConcurrentMaskedBFS(
            roots, masks, delays, n, [f"c{i}_" for i in range(num)], n,
            suppress_parent_echo=True,
        )
        m = net.run(fleet, reset=False, max_rounds=200_000)
        assert m.max_link_backlog >= 3
        return metrics_tuple(m), fleet_labels(fleet, num), node_states(net)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("op,broadcast", [
    ("sum", True), ("min", False), ("min", True), ("max", True),
])
def test_aggregation_pipeline_bulk_matches_per_node(
    family, op, broadcast, bulk_toggle
):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        masks, roots, values = label_masks(g)
        net = Network(g)
        res = run_part_aggregation(
            net, roots, masks, values, op, rng=random.Random(3),
            broadcast_result=broadcast,
        )
        return (res.rounds, res.messages, res.results,
                [dict(sorted(d.items())) for d in res.delivered])

    assert once(True) == once(False)


# ----------------------------------------------------------------------
# the cutoff contract: a run that hits max_rounds raises and is final
# ----------------------------------------------------------------------
CUTOFF_KINDS = ("floodmax", "bfs", "fleet", "aggregation")


def _cutoff_subject(kind, g):
    """A factory of fresh ``kind`` objects on ``g`` and their outputs.

    Returns ``(make, outputs)``: ``outputs(algo)`` reads what the object
    keeps off ``node.state`` (fleet labels; aggregation results and
    receipts).  The start delays stretch the fleet and the aggregation
    past every cutoff the contract test uses; the aggregation folds over
    the trees of a fleet run to completion on a separate network.
    """
    n = g.num_vertices
    if kind == "floodmax":
        return FloodMax, lambda algo: None
    if kind == "bfs":
        return lambda: DistributedBFS({0}), lambda algo: None
    masks, roots, values = label_masks(g)

    def make_fleet():
        return ConcurrentMaskedBFS(
            roots, masks, [1, 0, 12, 5], n, [f"pa{i}_" for i in range(4)], n,
            suppress_parent_echo=True, sparse_labels=True,
        )

    if kind == "fleet":
        return make_fleet, lambda algo: fleet_labels(algo, 4)
    trees = make_fleet()
    Network(g).run(trees)

    def make_aggregation():
        return PartAggregation(masks, trees.parent, values, "min",
                               delays=[2, 0, 10, 3])

    return make_aggregation, lambda algo: (
        list(algo.results), [dict(sorted(d.items())) for d in algo.delivered]
    )


def _full_states(net):
    """Every node's state, the fleet's start-round ticks included."""
    return {v: {k: s for k, s in ctx.state.items() if not k.endswith("__allowed")}
            for v, ctx in enumerate(net._node_list)}


def _cutoff_outcome(kind, family, max_rounds, enabled, bulk_toggle):
    """Run ``kind`` under ``max_rounds`` and check the network after it.

    A run that needs at most ``max_rounds`` rounds terminates with the
    fresh run's metrics (both paths test for quiescence once more after
    the last allowed round).  A run that needs more raises; its
    exception, the node state it reached and the object's outputs are
    returned for the caller to compare across paths.  No run declines the
    kernel.  The cut network refuses a ``reset=False`` follow-up and,
    reset by ``run()``, runs exactly as a fresh one.
    """
    bulk_toggle(enabled)
    g = family_graph(family, n=120)
    make, outputs = _cutoff_subject(kind, g)
    fresh_net = Network(g)
    fresh = make()
    fresh_metrics = fresh_net.run(fresh)
    assert fresh_metrics.bulk_declined is None
    net = Network(g)
    algo = make()
    if max_rounds >= fresh_metrics.rounds:
        metrics = net.run(algo, max_rounds=max_rounds)
        assert metrics_tuple(metrics) == metrics_tuple(fresh_metrics)
        return None, _full_states(net), outputs(algo)
    with pytest.raises(RoundLimitExceeded) as cut:
        net.run(algo, max_rounds=max_rounds)
    err = cut.value
    assert not err.metrics.terminated and err.metrics.rounds == max_rounds
    assert err.metrics.bulk_declined is None
    seen = (type(err), metrics_tuple(err.metrics), err.last_active_set,
            _full_states(net), outputs(algo))
    with pytest.raises(ValueError, match="reset"):
        net.run(make(), reset=False)
    again = make()
    metrics = net.run(again)
    assert metrics_tuple(metrics) == metrics_tuple(fresh_metrics)
    assert _full_states(net) == _full_states(fresh_net)
    assert outputs(again) == outputs(fresh)
    return seen


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("max_rounds", [0, 1, 4, 9])
@pytest.mark.parametrize("kind", CUTOFF_KINDS)
def test_cutoff_contract(kind, max_rounds, family, bulk_toggle):
    """Bulk and per-node cut a run alike: the same exception with the
    same partial metrics and awake count, the same node state and
    outputs, a refused ``reset=False`` follow-up and a clean rerun."""
    with_bulk = _cutoff_outcome(kind, family, max_rounds, True, bulk_toggle)
    per_node = _cutoff_outcome(kind, family, max_rounds, False, bulk_toggle)
    assert with_bulk == per_node


def test_run_quiescent_after_its_last_allowed_round_terminates(bulk_toggle):
    """``DistributedBFS({0})`` on ``path_graph(5)`` needs 5 rounds: at
    ``max_rounds=5`` both paths terminate with the fresh run's metrics,
    and at 4 both raise with equal partial metrics.  A run with nothing
    to send terminates at ``max_rounds=0``."""

    def once(enabled):
        bulk_toggle(enabled)
        g = path_graph(5)
        fresh = Network(g).run(DistributedBFS({0}))
        assert fresh.rounds == 5
        exact = Network(g).run(DistributedBFS({0}), max_rounds=5)
        assert exact.terminated and exact.bulk_declined is None
        assert metrics_tuple(exact) == metrics_tuple(fresh)
        with pytest.raises(RoundLimitExceeded) as cut:
            Network(g).run(DistributedBFS({0}), max_rounds=4)
        assert cut.value.metrics.rounds == 4
        idle = Network(Graph(1)).run(FloodMax(), max_rounds=0)
        assert idle.terminated and idle.rounds == 0
        return (metrics_tuple(exact), metrics_tuple(cut.value.metrics),
                cut.value.last_active_set, metrics_tuple(idle))

    assert once(True) == once(False)


@pytest.mark.parametrize("kind", CUTOFF_KINDS)
def test_follow_up_folds_inherited_backlog_maxima(kind, bulk_toggle):
    """A congested run leaves per-link backlog maxima behind; a
    ``reset=False`` follow-up folds them into its ``max_link_backlog`` on
    every delivery over those links, so each kernel reads them off the
    network as the per-node delivery does."""
    burst = 4

    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph("torus")
        make, outputs = _cutoff_subject(kind, g)
        net = Network(g)
        net.run(FloodMax())
        net.run(_LeaderBurst(burst), reset=False)
        algo = make()
        m = net.run(algo, reset=False)
        assert m.bulk_declined is None
        return metrics_tuple(m), _full_states(net), outputs(algo)

    with_bulk = once(True)
    assert with_bulk[0][3] == burst
    assert with_bulk == once(False)


@pytest.mark.parametrize("op", ["min", "sum"])
def test_multicast_folded_per_edge_messages(op, bulk_toggle):
    """The ANN phase multicasts one payload over a node's whole mask slice;
    the bulk kernel must still charge every directed link individually.
    ``min`` runs the kernel; ``sum`` declines it and runs per-node."""

    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph("torus")
        masks, roots, values = label_masks(g)
        net = Network(g)
        rng = random.Random(11)
        fleet = ConcurrentMaskedBFS(
            roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
            [f"pa{i}_" for i in range(4)], g.num_vertices,
            suppress_parent_echo=True, sparse_labels=True,
        )
        net.run(fleet, reset=False, max_rounds=200_000)
        agg = PartAggregation(
            masks, fleet.parent, values, op,
            delays=draw_random_delays(4, 2, rng),
        )
        return net.run(agg, reset=False, max_rounds=200_000)

    with_bulk = once(True)
    per_node = once(False)
    assert with_bulk.bulk_declined == (
        None if op == "min" else "kernel_refused"
    )
    per_edge_bulk = dict(with_bulk.per_edge_messages)
    assert per_edge_bulk == dict(per_node.per_edge_messages)
    assert with_bulk.messages_delivered == per_node.messages_delivered
    # The folded multicast really fans out: total per-edge traffic accounts
    # for every delivery, not one count per multicast call.
    assert sum(per_edge_bulk.values()) == with_bulk.messages_delivered


# ----------------------------------------------------------------------
# fallback observability: declined configurations warn once per network
# ----------------------------------------------------------------------
def _retry_aggregation(g, masks, roots, values):
    rng = random.Random(3)
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
        [f"pa{i}_" for i in range(4)], g.num_vertices,
        suppress_parent_echo=True, sparse_labels=True,
    )
    net.run(fleet, reset=False, max_rounds=200_000)
    agg = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(4, 2, rng), retry=RetryPolicy(),
    )
    return net, agg


def test_retry_config_warns_once_per_network(bulk_toggle):
    bulk_toggle(True)
    g = family_graph("hub")
    masks, roots, values = label_masks(g)
    net, agg = _retry_aggregation(g, masks, roots, values)
    with pytest.warns(BulkFallbackWarning, match="retry"):
        net.run(agg, reset=False, max_rounds=200_000)
    # Same network, same reason: the fallback stays silent the second time.
    _, agg2 = _retry_aggregation(g, masks, roots, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BulkFallbackWarning)
        net.run(agg2, reset=False, max_rounds=200_000)
    # A fresh network warns again — the de-duplication is per network, not
    # per process.
    net3, agg3 = _retry_aggregation(g, masks, roots, values)
    with pytest.warns(BulkFallbackWarning, match="retry"):
        net3.run(agg3, reset=False, max_rounds=200_000)


def test_adversarial_run_warns_and_matches_fault_free_per_node(bulk_toggle):
    bulk_toggle(True)
    g = family_graph("broom")
    adversary = make_fault_adversary(0.2, 0, seed=13)
    net = Network(g)
    with pytest.warns(BulkFallbackWarning, match="adversary"):
        net.run(FloodMax(), adversary=adversary, max_rounds=500)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BulkFallbackWarning)
        net.run(FloodMax(prefix="second_"), adversary=adversary,
                max_rounds=500)


# ----------------------------------------------------------------------
# decline reasons: a bulk-capable algorithm on the per-node path says why
# ----------------------------------------------------------------------
def test_decline_reason_retry(bulk_toggle):
    bulk_toggle(True)
    g = family_graph("hub")
    masks, roots, values = label_masks(g)
    net, agg = _retry_aggregation(g, masks, roots, values)
    with pytest.warns(BulkFallbackWarning, match="retry"):
        m = net.run(agg, reset=False, max_rounds=200_000)
    assert m.bulk_declined == "retry"


def test_decline_reason_adversary(bulk_toggle):
    bulk_toggle(True)
    net = Network(family_graph("broom"))
    with pytest.warns(BulkFallbackWarning, match="adversary"):
        m = net.run(FloodMax(), adversary=make_fault_adversary(0.2, 0, seed=13),
                    max_rounds=500)
    assert m.bulk_declined == "adversary"


def test_decline_reason_queued(bulk_toggle):
    """Messages sent from outside any run wait on the links; the next run
    delivers them on the per-node path, without a warning, exactly as
    with bulk off."""

    def once(enabled):
        bulk_toggle(enabled)
        net = Network(family_graph("expander"))
        net.run(FloodMax())
        net.node(0).broadcast("hello", 0, algorithm_id=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BulkFallbackWarning)
            m = net.run(DistributedBFS({0}), reset=False)
        return m.bulk_declined, metrics_tuple(m), node_states(net)

    assert once(True) == ("queued",) + once(False)[1:]


@pytest.mark.parametrize("case", ["packed_limit", "restricted_adjacency"])
def test_decline_reason_kernel_refused(case, bulk_toggle, monkeypatch):
    """A kernel build guard (``bulk_kernel`` returns ``None``) and a
    configuration the algorithm does not vectorize both run per-node,
    exactly, without a warning."""
    g = family_graph("torus")
    if case == "packed_limit":
        monkeypatch.setattr(bulk, "_PACKED_NODE_LIMIT", g.num_vertices - 1)

    def once(enabled):
        bulk_toggle(enabled)
        net = Network(g)
        if case == "packed_limit":
            algo = DistributedBFS({0})
        else:
            algo = FloodMax(allowed_adjacency={
                v: set(g.neighbors(v)) for v in range(g.num_vertices)
            })
        with warnings.catch_warnings():
            warnings.simplefilter("error", BulkFallbackWarning)
            m = net.run(algo)
        return m, (metrics_tuple(m), node_states(net))

    refused, refused_out = once(True)
    node, node_out = once(False)
    assert refused.bulk_declined == "kernel_refused"
    assert node.bulk_declined is None
    assert refused_out == node_out


#: One shared NaN object: equality of results that carry it then holds by
#: identity, as it does for every other value.
NAN = float("nan")


def _fleet_then_aggregation(values, op):
    """A fleet over ``label_masks`` trees, then a ``PartAggregation``."""
    g = family_graph("caterpillar")
    masks, roots, _ = label_masks(g)
    rng = random.Random(3)
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
        [f"pa{i}_" for i in range(4)], g.num_vertices,
        suppress_parent_echo=True, sparse_labels=True,
    )
    net.run(fleet, reset=False, max_rounds=200_000)
    agg = PartAggregation(
        masks, fleet.parent, values, op,
        delays=draw_random_delays(4, 2, rng),
    )
    return net, agg


@pytest.mark.parametrize("case", ["sum", "count", "nan", "rerun"])
def test_unranked_aggregation_declines_kernel(case, bulk_toggle):
    """The aggregation kernel folds value ranks, so ``sum``/``count``,
    ``min`` over values ``_rankable`` rejects (NaN), and a finished
    aggregation run again with ``reset=False`` run per-node, exactly, and
    say so."""

    def once(enabled):
        bulk_toggle(enabled)
        _, _, values = label_masks(family_graph("caterpillar"))
        op = case if case in ("sum", "count") else "min"
        if case == "count":
            values = [{v: 1 for v in vals} for vals in values]
        elif case == "nan":
            values = [
                {v: NAN if x % 5 == 0 else x / 4 for v, x in vals.items()}
                for vals in values
            ]
        net, agg = _fleet_then_aggregation(values, op)
        if case == "rerun":
            first = net.run(agg, reset=False, max_rounds=200_000)
            assert first.bulk_declined is None
        with warnings.catch_warnings():
            warnings.simplefilter("error", BulkFallbackWarning)
            m = net.run(agg, reset=False, max_rounds=200_000)
        return m, (
            metrics_tuple(m), list(agg.results),
            [dict(sorted(d.items())) for d in agg.delivered],
        )

    refused, refused_out = once(True)
    node, node_out = once(False)
    assert refused.bulk_declined == "kernel_refused"
    assert node.bulk_declined is None
    assert refused_out == node_out


def test_unrankable_illegal_payload_fails_on_both_paths(bulk_toggle):
    """``decimal.Decimal`` fails ``_rankable`` and is no legal CONGEST
    payload either: the declined kernel leaves it to the per-node path,
    whose first send rejects it, with bulk on as with bulk off."""

    def once(enabled):
        bulk_toggle(enabled)
        _, _, values = label_masks(family_graph("caterpillar"))
        values = [
            {v: decimal.Decimal(x) / 4 for v, x in vals.items()}
            for vals in values
        ]
        net, agg = _fleet_then_aggregation(values, "min")
        with pytest.raises(ValueError) as err:
            net.run(agg, reset=False, max_rounds=200_000)
        return str(err.value)

    with_bulk = once(True)
    assert "not a valid CONGEST message payload" in with_bulk
    assert with_bulk == once(False)
