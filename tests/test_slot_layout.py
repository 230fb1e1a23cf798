"""One slot layout per mask fleet, and per-node state built only on read.

The fleet and aggregation kernels share one :class:`~repro.congest.bulk.
SlotLayout`: its slots are each mask's participants, read off the mask's
sorted sender rows, plus row-less extras (fleet sources and value holders
outside every mask slice).  These tests pin

* the participants a mask reports — equal to its distinct targets and to
  its distinct senders on every symmetric construction, on all six
  generator families, empty masks included — and the O(n) ``starts`` array
  staying unbuilt until asked for;
* the hand-off: after a bulk run no label list, per-node dict or
  ``delivered`` dict exists until something reads it, and what a read
  builds equals the bulk-off run;
* the extra-slot merge, with a value holder outside every mask;
* the value-key contract: a key that is no vertex id raises the same
  ``ValueError`` with bulk on and off.
"""

import pickle
import random

import numpy as np
import pytest

from repro.congest.bulk import LazyRows
from repro.congest.network import Network, RoundLimitExceeded
from repro.congest.primitives.aggregation import (
    PartAggregation,
    draw_random_delays,
    run_part_aggregation,
)
from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import GENERATOR_FAMILIES

FAMILIES = sorted(GENERATOR_FAMILIES)
BULK_CLASSES = (ConcurrentMaskedBFS, PartAggregation)


@pytest.fixture
def bulk_toggle(monkeypatch):
    def set_bulk(enabled: bool) -> None:
        for cls in BULK_CLASSES:
            monkeypatch.setattr(cls, "bulk_capable", enabled)

    return set_bulk


def family_graph(family, n=36, seed=5):
    return GENERATOR_FAMILIES[family](n, random.Random(seed))


def random_labels(g, num_parts, seed=5):
    rng = random.Random(seed)
    return np.asarray(
        [rng.randrange(num_parts) for _ in range(g.num_vertices)], dtype=np.int64
    )


def label_masks(g, labels, num_parts):
    """Intra-part masks, first-member roots and ``7v + k`` values."""
    csr = g.csr()
    masks = [
        CSRLinkMask(csr, np.asarray(
            [labels[u] == k and labels[v] == k for (u, v) in csr.edge_list],
            dtype=bool,
        ))
        for k in range(num_parts)
    ]
    roots = [
        int(np.flatnonzero(labels == k)[0]) if (labels == k).any() else 0
        for k in range(num_parts)
    ]
    values = [
        {v: 7 * v + k for v in np.flatnonzero(labels == k).tolist()}
        for k in range(num_parts)
    ]
    return masks, roots, values


def build_masks(g, constructor):
    csr = g.csr()
    labels = random_labels(g, 3)
    if constructor == "permit":
        return [
            CSRLinkMask(csr, np.asarray(
                [labels[u] == k and labels[v] == k for (u, v) in csr.edge_list],
                dtype=bool,
            ))
            for k in range(3)
        ] + [CSRLinkMask(csr, np.zeros(csr.num_edges, dtype=bool))]
    if constructor == "from_edge_ids":
        eids = list(range(0, csr.num_edges, 3))
        return [CSRLinkMask.from_edge_ids(csr, eids),
                CSRLinkMask.from_edge_ids(csr, np.asarray(eids[:2], dtype=np.int64)),
                CSRLinkMask.from_edge_ids(csr, [])]
    labels[::4] = -1
    return [CSRLinkMask.intra_partition(csr, labels)]


# ----------------------------------------------------------------------
# the mask side of the layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("constructor", ["permit", "from_edge_ids", "intra_partition"])
def test_mask_participants_are_distinct_targets_and_senders(family, constructor):
    g = family_graph(family)
    csr = g.csr()
    arrays = csr.adjacency_arrays()
    for mask in build_masks(g, constructor):
        assert mask.symmetric
        senders, offsets, targets, links = mask.sender_slices()
        # Nothing so far needed the O(n) start array.
        assert mask._starts_np is None
        participants = mask.participants()
        assert participants.dtype == np.int64
        assert participants.tolist() == np.unique(targets).tolist()
        # The distinct sources of the permitted links (each link's source
        # row, looked up independently of the mask's own bookkeeping).
        row_of_link = np.empty(2 * csr.num_edges, dtype=np.int64)
        row_of_link[arrays.adj_link_ids] = arrays.rows
        assert participants.tolist() == np.unique(row_of_link[links]).tolist()
        assert senders.tolist() == participants.tolist()
        assert np.repeat(senders, np.diff(offsets)).tolist() == \
            row_of_link[links].tolist()
        # The arrays() / list contract: starts built on demand, CSR-style.
        starts, t_np, l_np = mask.arrays()
        assert len(starts) == csr.num_vertices + 1
        assert np.diff(starts)[senders].tolist() == np.diff(offsets).tolist()
        assert int(np.diff(starts).sum()) == len(targets)
        assert mask.starts == starts.tolist()
        assert t_np is targets and l_np is links
        for v in range(csr.num_vertices):
            assert mask.neighbors_of(v) == targets[starts[v]:starts[v + 1]].tolist()


def test_one_directional_mask_reports_targets_and_runs_per_node(bulk_toggle):
    """A per-link permit allowing one direction only is no symmetric mask:
    its participants are its targets, and the fleet kernel declines it."""
    g = family_graph("torus")
    csr = g.csr()
    permits = np.zeros(2 * csr.num_edges, dtype=bool)
    permits[0:2 * csr.num_edges:2] = True          # every lo -> hi link
    mask = CSRLinkMask(csr, permits)
    assert not mask.symmetric
    assert mask.participants().tolist() == np.unique(mask.arrays()[1]).tolist()

    def once(enabled):
        bulk_toggle(enabled)
        net = Network(g)
        fleet = ConcurrentMaskedBFS([0], [mask], [0], g.num_vertices, ["x_"],
                                    g.num_vertices, suppress_parent_echo=True)
        m = net.run(fleet)
        return m.bulk_declined, m.rounds, m.messages_delivered, list(fleet.dist[0])

    declined, *bulk_out = once(True)
    assert declined == "kernel_refused"
    assert bulk_out == list(once(False))[1:]


# ----------------------------------------------------------------------
# the hand-off: arrays until read
# ----------------------------------------------------------------------
def _stages(family, enabled, bulk_toggle, labels=None, values=None):
    """Fleet, then a ``min`` aggregation over its trees, on one network."""
    bulk_toggle(enabled)
    g = family_graph(family)
    if labels is None:
        labels = random_labels(g, 4)
    num_parts = int(labels.max()) + 1
    masks, roots, default_values = label_masks(g, labels, num_parts)
    rng = random.Random(7)
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, draw_random_delays(num_parts, 2, rng), g.num_vertices,
        [f"pa{i}_" for i in range(num_parts)], g.num_vertices,
        suppress_parent_echo=True, sparse_labels=True,
    )
    m1 = net.run(fleet, reset=False)
    agg = PartAggregation(
        masks, fleet.parent, default_values if values is None else values,
        "min", delays=draw_random_delays(num_parts, 2, rng),
    )
    m2 = net.run(agg, reset=False)
    return fleet, agg, (m1, m2)


PER_NODE_STATE = ("_heard", "_done", "_child_targets", "_child_links",
                  "_child_values", "delivered")


@pytest.mark.parametrize("family", FAMILIES)
def test_bulk_run_builds_no_per_node_container_until_read(family, bulk_toggle):
    fleet, agg, metrics = _stages(family, True, bulk_toggle)
    assert all(m.bulk_declined is None and m.terminated for m in metrics)
    # The trees crossed as arrays: nothing was built on either side.
    for rows in (fleet.dist, fleet.parent, fleet.root):
        assert isinstance(rows, LazyRows) and rows.untouched()
    for name in PER_NODE_STATE:
        rows = getattr(agg, name)
        assert isinstance(rows, LazyRows) and rows.untouched()
    assert agg._pending is None

    node_fleet, node_agg, node_metrics = _stages(family, False, bulk_toggle)
    assert [(m.rounds, m.messages_delivered) for m in metrics] == \
        [(m.rounds, m.messages_delivered) for m in node_metrics]
    assert agg.results == node_agg.results
    # Reading one instance builds that instance only.
    agg.delivered[1]
    assert agg.delivered.is_built(1) and not agg.delivered.is_built(0)
    for name in ("_heard", "_done", "_child_targets", "_child_links", "delivered"):
        assert list(getattr(agg, name)) == getattr(node_agg, name), name
    # Child reports are folded on arrival (into the node's own value): the
    # rebuilt lists keep the report count and the node's final fold, not
    # the individual reports.
    for own, built, node in zip(agg.values, agg._child_values,
                                node_agg._child_values):
        def folds(rows):
            return {v: (len(vals), min(vals + [own.get(v, vals[0])]))
                    for v, vals in rows.items()}

        assert folds(built) == folds(node)
    for name in ("dist", "parent", "root"):
        built = [{v: x for v, x in row.items() if x != -1}
                 for row in getattr(fleet, name)]
        node = [{v: x for v, x in row.items() if x != -1}
                for row in getattr(node_fleet, name)]
        assert built == node, name


def test_dense_fleet_labels_build_per_instance(bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph("expander")
        labels = random_labels(g, 3)
        masks, roots, _ = label_masks(g, labels, 3)
        net = Network(g)
        fleet = ConcurrentMaskedBFS(roots, masks, [0, 1, 0], g.num_vertices,
                                    ["a_", "b_", "c_"], g.num_vertices)
        net.run(fleet)
        lookups = [(fleet.dist[i][v], fleet.parent[i][v]) for i in range(3)
                   for v in range(g.num_vertices)]
        return fleet, lookups

    fleet, lookups = once(True)
    assert not fleet.root.is_built(0) and fleet.dist.is_built(0)
    node_fleet, node_lookups = once(False)
    assert lookups == node_lookups
    assert list(fleet.root) == node_fleet.root
    assert all(isinstance(row, list) for row in fleet.root)
    # A view pickles as the plain list of its rows.
    assert pickle.loads(pickle.dumps(fleet.parent)) == node_fleet.parent


def test_value_holder_outside_every_mask_matches_per_node(bulk_toggle):
    """A singleton part (empty mask: its root and value holder are extra
    slots of both layouts) and a value on a node outside its instance's
    mask (an extra slot of the aggregation layout only) run bulk and match
    per-node on results and delivered."""
    g = family_graph("caterpillar")
    labels = random_labels(g, 3)
    lonely = int(np.flatnonzero(labels == 2)[0])
    labels[labels == 2] = 1
    labels[lonely] = 2
    stray = int(np.flatnonzero(labels == 1)[0])
    _, _, values = label_masks(g, labels, 3)
    values[0][stray] = -5

    _, bulk_agg, bulk_metrics = _stages("caterpillar", True, bulk_toggle,
                                        labels, values)
    _, node_agg, node_metrics = _stages("caterpillar", False, bulk_toggle,
                                        labels, values)
    assert [m.bulk_declined for m in bulk_metrics] == [None, None]
    assert [(m.rounds, m.messages_delivered) for m in bulk_metrics] == \
        [(m.rounds, m.messages_delivered) for m in node_metrics]
    assert bulk_agg.results == node_agg.results
    assert bulk_agg.results[2] == 7 * lonely + 2
    # The stray holder is no tree member: it never reaches the root.
    assert bulk_agg.results[0] == min(v for v in values[0].values() if v != -5)
    assert list(bulk_agg.delivered) == node_agg.delivered


# ----------------------------------------------------------------------
# value keys must be vertex ids, on both paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("enabled", [True, False], ids=["bulk", "per_node"])
@pytest.mark.parametrize("case", ["aliased", "negative"])
def test_value_key_outside_vertex_range_raises(case, enabled, bulk_toggle):
    """``n + v`` once aliased into the next instance's slots on the bulk
    path (84 deliveries against 83 per-node), and ``-1`` crashed the bulk
    build while per-node ignored it; both now fail alike."""
    bulk_toggle(enabled)
    g = family_graph("torus")
    n = g.num_vertices
    masks, roots, values = label_masks(g, random_labels(g, 2), 2)
    values[0][n + roots[1] if case == "aliased" else -1] = 0
    with pytest.raises(ValueError, match="not a vertex id"):
        run_part_aggregation(Network(g), roots, masks, values, "min", rng=3)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("first_rounds", [0, 200_000])
def test_rerun_fleet_resumes_from_its_views(first_rounds, sparse, bulk_toggle):
    """A fleet run again resumes from the labels the first run left behind
    its views, as per-node: with ``reset=False`` after termination, and on
    the reset network after a silent cutoff (every start still pending)."""

    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph("hub")
        masks, roots, _ = label_masks(g, random_labels(g, 3), 3)
        net = Network(g)
        fleet = ConcurrentMaskedBFS(roots, masks, [2, 1, 3], g.num_vertices,
                                    ["a_", "b_", "c_"], g.num_vertices,
                                    suppress_parent_echo=True,
                                    sparse_labels=sparse)
        if first_rounds:
            first = net.run(fleet, reset=False, max_rounds=first_rounds)
        else:
            with pytest.raises(RoundLimitExceeded) as cut:
                net.run(fleet, reset=False, max_rounds=first_rounds)
            first = cut.value.metrics
            net.reset()
        runs = [first, net.run(fleet, reset=False, max_rounds=200_000)]
        labels = [[{v: x for v, x in enumerate(row) if x != -1}
                   if isinstance(row, list) else
                   {v: x for v, x in row.items() if x != -1} for row in rows]
                  for rows in (fleet.dist, fleet.parent, fleet.root)]
        return [m.bulk_declined for m in runs], \
            [(m.rounds, m.messages_delivered, m.terminated) for m in runs], labels

    declined, *bulk_out = once(True)
    assert declined == [None, None]
    assert bulk_out == list(once(False))[1:]
