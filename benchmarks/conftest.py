"""Shared helpers for the benchmark suite.

Every benchmark regenerates one ``repro experiments`` table by calling
the corresponding ``run_*`` function from :mod:`repro.analysis.experiments`.
``pytest-benchmark`` measures the wall-clock of one full experiment run
(``rounds=1`` — the experiments are seconds-long sweeps, not microbenchmarks)
and the rendered result table is attached to the benchmark's ``extra_info``
so that ``pytest benchmarks/ --benchmark-only`` output contains the
reproduced numbers alongside the timings.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Fixture returning a runner that benchmarks one experiment function."""

    def _run(runner, **kwargs):
        table = benchmark.pedantic(runner, kwargs=kwargs, rounds=1, iterations=1)
        benchmark.extra_info["experiment"] = table.experiment_id
        benchmark.extra_info["table"] = "\n" + table.render()
        return table

    return _run
