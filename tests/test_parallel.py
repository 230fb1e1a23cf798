"""Tests for the deterministic parallel experiment executor.

The headline property (the acceptance pin of the parallel runtime): the
full fast-tier E1-E15 sweep produces bit-identical tables at every worker
count.  The smaller tests cover the executor pieces — worker resolution,
chunking, ordering, pickling and the serial fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.analysis import (
    CELL_RUNNERS,
    EXPERIMENT_PLANNERS,
    CellTask,
    default_chunksize,
    resolve_workers,
    run_all_experiments,
    run_cells,
    run_congestion_experiment,
    run_probability_ablation,
    run_repetition_ablation,
)
from repro.analysis import parallel as parallel_module
from repro.analysis.experiments import FAST_TIER

#: One KP cell: a Kogan-Parter sample on the n=100, D=6 lower-bound instance.
KP_KWARGS = dict(kind="lower_bound", n=100, diameter_value=6, trial=0,
                 log_factor=0.25, repetitions=None, seed=3)


class TestResolveWorkers:
    def test_none_zero_one_mean_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1) == max(1, os.cpu_count() or 1)

    def test_positive_passes_through(self):
        assert resolve_workers(7) == 7


class TestDefaultChunksize:
    def test_four_batches_per_worker(self):
        assert default_chunksize(80, 4) == 5
        assert default_chunksize(16, 4) == 1

    def test_never_below_one(self):
        assert default_chunksize(1, 16) == 1
        assert default_chunksize(0, 4) == 1


class TestCellTask:
    def test_picklable(self):
        task = CellTask("kp", dict(KP_KWARGS))
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_run_executes_registered_runner(self):
        task = CellTask("kp", dict(KP_KWARGS))
        assert task.run() == CELL_RUNNERS["kp"](**KP_KWARGS)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            CellTask("E99", {}).run()

    def test_key_tells_int_from_float(self):
        # derive_seed hashes repr, so log_factor=1 and 1.0 sample differently
        # and must not be merged as one cell.
        as_int = CellTask("kp", dict(KP_KWARGS, log_factor=1))
        as_float = CellTask("kp", dict(KP_KWARGS, log_factor=1.0))
        assert as_int.key() != as_float.key()
        assert as_float.key() == CellTask("kp", dict(reversed(as_float.kwargs.items()))).key()


class TestRunCells:
    def _tasks(self):
        return [
            CellTask("kp", dict(KP_KWARGS, log_factor=factor))
            for factor in (0.1, 0.25, 0.5)
        ]

    def test_serial_preserves_task_order(self):
        results = run_cells(self._tasks(), workers=1)
        assert [cell["log_factor"] for cell in results] == [0.1, 0.25, 0.5]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_tasks_run_once_and_share_one_result(self, workers):
        tasks = self._tasks()
        results = run_cells(tasks + tasks[::-1], workers=workers)
        assert results[:3] == run_cells(tasks, workers=1)
        assert [results[i] is results[5 - i] for i in range(3)] == [True] * 3

    def test_parallel_matches_serial(self):
        tasks = self._tasks()
        assert run_cells(tasks, workers=2) == run_cells(tasks, workers=1)

    def test_chunksize_does_not_change_results(self):
        tasks = self._tasks()
        baseline = run_cells(tasks, workers=1)
        assert run_cells(tasks, workers=2, chunksize=1) == baseline
        assert run_cells(tasks, workers=2, chunksize=3) == baseline

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", broken_pool)
        tasks = self._tasks()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = run_cells(tasks, workers=2)
        assert results == run_cells(tasks, workers=1)

    def test_cell_exceptions_propagate_instead_of_falling_back(self):
        # A cell that raises inside a worker must surface its own error —
        # not be misread as "pool unavailable" and re-run serially.  The
        # E14 runner rejects unknown families with ValueError.
        tasks = [
            CellTask("E14", dict(family="broom", size=12, log_factor=1.0, seed=0)),
            CellTask("E14", dict(family="no-such-family", size=12, log_factor=1.0, seed=0)),
        ]
        with pytest.raises(ValueError, match="no-such-family"):
            run_cells(tasks, workers=2)
        with pytest.raises(ValueError, match="no-such-family"):
            run_cells(tasks, workers=1)


class TestExperimentParallelism:
    """Per-experiment serial/parallel identity on cheap sweeps."""

    def test_congestion_rows_identical(self):
        serial = run_congestion_experiment(sizes=(120, 150), seed=5, workers=1)
        parallel = run_congestion_experiment(sizes=(120, 150), seed=5, workers=2)
        assert serial.rows == parallel.rows
        assert serial.headers == parallel.headers
        assert serial.notes == parallel.notes

    def test_trial_grouping_reducer_identical(self):
        # E11 groups (repetitions x trials) cells back into per-repetition
        # rows; the ordered merge must survive sharding mid-group.
        serial = run_repetition_ablation(
            n=150, repetition_choices=(1, 3), trials=3, seed=5, workers=1
        )
        parallel = run_repetition_ablation(
            n=150, repetition_choices=(1, 3), trials=3, seed=5, workers=3
        )
        assert serial.rows == parallel.rows

    def test_single_cell_sweep(self):
        serial = run_probability_ablation(n=100, log_factors=(0.25,), seed=2, workers=1)
        parallel = run_probability_ablation(n=100, log_factors=(0.25,), seed=2, workers=4)
        assert serial.rows == parallel.rows


def _counting(key, runner, log):
    """Wrap a cell runner so every execution appends the cell's key to ``log``
    (forked pool workers inherit the wrapper and append to the same file)."""

    def run(**kwargs):
        with open(log, "a") as handle:
            handle.write(repr(CellTask(key, kwargs).key()) + "\n")
        return runner(**kwargs)

    return run


class TestSharedCells:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_distinct_cell_runs_once_per_sweep(self, workers, monkeypatch, tmp_path):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers see the patched registry")
        log = tmp_path / "runs.log"
        for key, runner in list(CELL_RUNNERS.items()):
            monkeypatch.setitem(CELL_RUNNERS, key, _counting(key, runner, log))
        run_all_experiments(fast=True, seed=1, workers=workers)
        plans = [planner(**FAST_TIER[key], seed=1) for key, planner in EXPERIMENT_PLANNERS.items()]
        listed = [task.key() for tasks, _ in plans for task in tasks]
        runs = log.read_text().splitlines()
        assert sorted(runs) == sorted({repr(key) for key in listed})
        # The fast sweep lists the shared KP and baselines cells in several
        # tables; each of them ran once all the same.
        assert len(runs) < len(listed)


@pytest.mark.slow
class TestFullSweepBitIdentity:
    """The acceptance pin: ``--workers 4`` == ``--workers 1`` on the full
    fast-tier E1-E15 sweep, bit for bit (timing columns excluded)."""

    def test_fast_sweep_identical_across_worker_counts(self):
        serial = run_all_experiments(fast=True, seed=1, workers=1)
        for workers in (2, 4):
            parallel = run_all_experiments(fast=True, seed=1, workers=workers)
            assert [t.experiment_id for t in parallel] == [t.experiment_id for t in serial]
            for s, p in zip(serial, parallel):
                assert s.headers == p.headers
                assert s.notes == p.notes
                assert s.deterministic_rows() == p.deterministic_rows(), s.experiment_id
