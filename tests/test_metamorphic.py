"""Metamorphic cross-engine tests.

Different engines implementing the same abstract computation must agree on
its observable output even though their internal mechanics (simulated
CONGEST routing vs analytic charging, distributed sampler vs in-memory
sampler) differ entirely:

* the fully simulated MST consumer under every routing engine and the
  Kruskal oracle all produce the same forest, for any seed;
* the distributed CONGEST pipeline and the in-memory sampler both produce
  structurally valid shortcuts when driven from the same derived seed;
* the simulated connected-components consumer matches the sequential
  traversal labels engine-for-engine.
"""

from __future__ import annotations

import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import CONSUMER_ENGINES, shortcut_boruvka_mst
from repro.graphs.components import connected_components
from repro.graphs.generators import (
    disjoint_union,
    hub_diameter_graph,
    make_family_graph,
    with_random_weights,
)
from repro.graphs.lower_bound import lower_bound_instance
from repro.rng import derive_seed
from repro.shortcuts.distributed import build_distributed_kogan_parter
from repro.shortcuts.kogan_parter import build_kogan_parter_shortcut
from repro.shortcuts.partition import Partition
from repro.shortcuts.verification import is_valid_shortcut, verify_shortcut


class TestMSTEnginesAgree:
    """Every ``mst --engine`` ≡ Kruskal weight."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engines_and_oracle_agree_on_hub(self, seed):
        graph = hub_diameter_graph(90, 6, extra_edge_prob=0.04, rng=seed)
        weighted = with_random_weights(graph, rng=derive_seed(seed, "weights"))
        _, kruskal_weight = kruskal_mst(weighted)
        results = [
            shortcut_boruvka_mst(
                weighted, engine=engine, diameter_value=6, log_factor=0.25,
                rng=derive_seed(seed, "mst", engine),
            )
            for engine in CONSUMER_ENGINES
        ]
        for result in results:
            assert result.weight == pytest.approx(kruskal_weight), result.engine
        # Unique weights make the MST edge set unique, so the engines agree
        # edge-for-edge, not just in total weight.
        assert all(result.edges == results[0].edges for result in results)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_engines_agree_on_lower_bound_instance(self, seed):
        inst = lower_bound_instance(120, 6)
        weighted = with_random_weights(inst.graph, rng=derive_seed(seed, "weights"))
        _, kruskal_weight = kruskal_mst(weighted)
        for engine in CONSUMER_ENGINES:
            result = shortcut_boruvka_mst(
                weighted, engine=engine, diameter_value=6, log_factor=0.25,
                rng=derive_seed(seed, "mst", engine),
            )
            assert result.weight == pytest.approx(kruskal_weight), engine


class TestSamplerEnginesAgree:
    """Distributed and in-memory KP samplers under the same derived seed."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_engines_produce_valid_shortcuts(self, seed):
        inst = lower_bound_instance(120, 4)
        partition = Partition(inst.graph, inst.parts, validate=False)
        sampler_seed = derive_seed(seed, "sampler")

        in_memory = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=inst.diameter,
            log_factor=0.25, rng=sampler_seed,
        ).shortcut
        distributed = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=inst.diameter,
            log_factor=0.25, rng=sampler_seed,
        )

        assert distributed.spanning_ok
        for shortcut in (in_memory, distributed.shortcut):
            report = verify_shortcut(shortcut)
            assert report.valid, report.violations
            assert report.dilation < float("inf")
            assert is_valid_shortcut(shortcut)

    def test_engines_stay_valid_under_tight_shared_budget(self):
        # Metamorphic relation on the budgets: both engines' measured
        # quality fits within 4x of whichever engine is worse — neither
        # sampler degenerates relative to the other on the same stream.
        inst = lower_bound_instance(120, 4)
        partition = Partition(inst.graph, inst.parts, validate=False)
        sampler_seed = derive_seed(9, "sampler")
        reports = []
        in_memory = build_kogan_parter_shortcut(
            inst.graph, partition, diameter_value=inst.diameter,
            log_factor=0.25, rng=sampler_seed,
        ).shortcut
        distributed = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=inst.diameter,
            log_factor=0.25, rng=sampler_seed,
        ).shortcut
        for shortcut in (in_memory, distributed):
            reports.append(verify_shortcut(shortcut))
        budget_c = 4 * max(r.congestion for r in reports)
        budget_d = 4 * max(r.dilation for r in reports)
        for shortcut in (in_memory, distributed):
            assert is_valid_shortcut(
                shortcut, max_congestion=budget_c, max_dilation=budget_d
            )


class TestComponentsEnginesAgree:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", ["torus", "expander"])
    def test_simulated_labels_match_traversal(self, family, seed):
        graph = disjoint_union([
            make_family_graph(family, 40, rng=derive_seed(seed, family, i))
            for i in range(2)
        ])
        expected = connected_components(graph)
        for engine in ("shortcut", "raw"):
            result = shortcut_connected_components(
                graph, engine=engine, log_factor=0.25,
                rng=derive_seed(seed, "components", engine),
            )
            got = sorted(
                ({v for v, lab in enumerate(result.labels) if lab == label}
                 for label in set(result.labels)),
                key=min,
            )
            assert got == expected, engine
            assert result.num_components == len(expected)
