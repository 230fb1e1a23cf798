"""Self-tests of the benchmark's tracing layer.

Run with ``python3 -m pytest layerbench`` from the repository root (the
directory is outside the suite's ``testpaths`` on purpose).
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings

import pytest

import spans
from spans import Tracer, classify_run, install, layer_metrics
from workloads import WORKLOADS

from repro.applications import shortcut_mst
from repro.congest.adversary import NullAdversary
from repro.congest.network import Network
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.leader import FloodMax
from repro.graphs.graph import Graph
from repro.shortcuts.kogan_parter import build_kogan_parter_shortcut


@pytest.fixture
def fake_clock(monkeypatch):
    """Each clock read returns the next scripted instant."""
    def script(*instants):
        ticks = iter(instants)
        monkeypatch.setattr(spans, "clock", lambda: next(ticks))
    return script


def test_self_time_subtracts_direct_children_only(fake_clock):
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0)
    tr = Tracer()
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("a1"):
                pass
        with tr.span("b"):
            pass
    by_name = {s.name: s for s in tr.spans}
    assert by_name["root"].self_time == 10.0 - 3.0 - 1.0
    assert by_name["a"].self_time == 3.0 - 1.0
    assert by_name["a1"].self_time == 1.0
    assert by_name["a"].parent == by_name["root"].id
    assert by_name["a1"].parent == by_name["a"].id


def test_counted_calls_are_children_of_the_open_span(fake_clock):
    fake_clock(0.0, 1.0, 1.25, 8.0)
    tr = Tracer()
    work = spans.counted(tr, "flush", lambda: None)
    with tr.span("root"):
        work()
    root = tr.spans[0]
    assert tr.counted["flush"] == [1, 0.25]
    assert root.self_time == 8.0 - 0.25
    metrics, _ = layer_metrics(tr)
    assert metrics["other_s"] == root.self_time
    assert metrics["trace.e2e_s"] == 8.0


def test_tracing_overhead_is_calls_times_calibrated_cost():
    tr = Tracer()
    work = spans.counted(tr, "flush", lambda: None)
    with tr.span("root"), tr.span("child"):
        for _ in range(5):
            work()
    assert spans.tracing_overhead(tr, (0.5, 0.25)) == 2 * 0.5 + 5 * 0.25


def test_out_of_order_close_is_an_error():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_classify_run_truth_table():
    assert classify_run(bulk_started=True, adversarial=False) == "bulk"
    assert classify_run(bulk_started=False, adversarial=False) == "pernode"
    for bulk_started in (False, True):
        assert classify_run(bulk_started, adversarial=True) == "adversarial"


def _path_graph(n: int) -> Graph:
    graph = Graph(n)
    graph.add_edges([(v, v + 1) for v in range(n - 1)])
    return graph


def test_path_classifier_on_a_tiny_graph():
    graph = _path_graph(6)
    adjacency = {v: set(graph.neighbors(v)) for v in range(6)}
    tr = Tracer()
    with install(tr), tr.span("bench.instance"):
        network = Network(graph)
        flood = network.run(FloodMax())
        restricted = network.run(DistributedBFS({0}, allowed_adjacency=adjacency))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            faulty = network.run(DistributedBFS({0}), adversary=NullAdversary())
    runs = [s for s in tr.spans if s.name == "network.run"]
    assert [(s.attrs["algo"], s.attrs["path"]) for s in runs] == [
        ("FloodMax", "bulk"),
        ("DistributedBFS", "pernode"),
        ("DistributedBFS", "adversarial"),
    ]
    assert [s.attrs["rounds"] for s in runs] == [flood.rounds, restricted.rounds,
                                                 faulty.rounds]
    metrics, declined = layer_metrics(tr)
    assert declined == ["DistributedBFS"]
    assert (metrics["network.runs_bulk"], metrics["network.runs_pernode"],
            metrics["network.runs_adversarial"]) == (1, 1, 1)
    assert metrics["network.wire_calls"] == 1
    assert metrics["bulk.event_rounds"] >= 1


def test_install_restores_every_binding():
    run, init = Network.run, Network.__init__
    tr = Tracer()
    with install(tr):
        assert shortcut_mst.build_kogan_parter_shortcut is not build_kogan_parter_shortcut
        assert Network.run is not run
    assert shortcut_mst.build_kogan_parter_shortcut is build_kogan_parter_shortcut
    assert (Network.run, Network.__init__) == (run, init)


@pytest.mark.parametrize("name", ["mst_lossy", "mst_consumer"])
def test_traced_pass_reproduces_untraced_counts(name):
    wl = dataclasses.replace(WORKLOADS[name], n=60)
    plain = wl.solve(wl.setup(wl.n, 7, spans.NULL_TRACER), 7, spans.NULL_TRACER)
    tr = Tracer()
    with install(tr), tr.span("bench.instance"):
        traced = wl.solve(wl.setup(wl.n, 7, tr), 7, tr)
    assert traced == plain
    assert all(ok for _, ok in traced[1])
    metrics, declined = layer_metrics(tr)
    assert declined == []
    if name == "mst_lossy":
        assert metrics["network.runs_adversarial"] > 0
        assert metrics["reliable.flush_calls"] > 0
        assert metrics["bulk.event_rounds"] == 0
    else:
        assert metrics["network.runs_adversarial"] == 0
        assert metrics["reliable.flush_calls"] == 0
        assert metrics["bulk.event_rounds"] > 0
    names = {s.name for s in tr.spans}
    assert {"consumer", "shortcuts.sample", "aggregation.init",
            "consumer.partition", "consumer.candidates"} <= names


def test_every_workload_declares_distinct_instance_seeds():
    from run import instance_seeds

    for wl in WORKLOADS.values():
        seeds = instance_seeds(wl, 1)
        assert len(set(seeds)) == wl.batch
        assert seeds == instance_seeds(wl, 1)
    assert all(a != b for a, b in itertools.combinations(
        [instance_seeds(wl, 1)[0] for wl in WORKLOADS.values()], 2))
