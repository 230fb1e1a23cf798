"""Deterministic parallel execution of experiment cells.

The experiment harness decomposes every sweep into *cells* — pure,
picklable tasks (one workload construction + measurement, typically one
``(size, trial)`` point of a table) identified by an experiment id and a
kwargs dict.  This module shards those cells across a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back in
submission order.

The contract the test-suite pins: because every cell derives its own RNG
stream from its parameters (:func:`repro.rng.derive_seed`) and the merge
preserves cell order, the assembled tables are **bit-identical** for every
worker count, including the serial path.  Parallelism changes wall time
only, never a value.

Workers execute cells by looking the experiment's cell runner up in
:data:`repro.analysis.experiments.CELL_RUNNERS`, so only the small kwargs
dicts cross the process boundary — graphs are regenerated inside the
worker from their derived seeds, which is cheap at experiment scale and
keeps dispatch chunks tiny.

When no process pool can be created (sandboxes without fork/spawn, missing
``/dev/shm``), execution falls back to the serial path with a warning —
the results are identical by construction.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class CellTask:
    """One schedulable unit of an experiment sweep.

    Attributes:
        experiment_id: key into ``CELL_RUNNERS``: an experiment's own cell
            (e.g. ``"E5"``), or a shared cell that several experiments view
            (``"kp"`` and ``"baselines"`` behind E1-E4, E11 and E12).
        kwargs: keyword arguments for the cell runner.  Must be picklable
            and fully determine the cell, including its derived seeds.
    """

    experiment_id: str
    kwargs: dict

    def key(self) -> tuple[str, str]:
        """Identity of the cell: equal keys run the same computation.

        Values enter by ``repr``, as in :func:`repro.rng.derive_seed`, so
        ``1`` and ``1.0`` (equal, but seeded differently) stay distinct.
        """
        return self.experiment_id, repr(sorted(self.kwargs.items()))

    def run(self) -> object:
        """Execute this cell in the current process."""
        # Imported lazily: experiments.py imports this module at load time,
        # and worker processes only need the registry once they run a cell.
        from .experiments import CELL_RUNNERS

        return CELL_RUNNERS[self.experiment_id](**self.kwargs)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count argument.

    ``None``, ``0`` and ``1`` mean serial; a negative count means "all
    cores"; anything else is used as given.
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


def default_chunksize(num_cells: int, workers: int) -> int:
    """Chunk cells so each worker receives a handful of batches.

    Four batches per worker balances dispatch overhead against load skew
    from uneven cell costs (an E13 construction is orders of magnitude
    slower than an E12 row).
    """
    return max(1, math.ceil(num_cells / (4 * workers)))


def _run_task(task: CellTask) -> object:
    return task.run()


def _pool_probe() -> bool:
    """No-op worker task used to prove the pool can actually spawn."""
    return True


def run_cells(
    tasks: Sequence[CellTask],
    *,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> list[object]:
    """Run cells, in parallel when asked, returning results in task order.

    Args:
        tasks: the cells to execute.
        workers: worker processes (see :func:`resolve_workers`); serial
            when it resolves to 1.
        chunksize: cells per dispatched batch (default
            :func:`default_chunksize`).

    Returns:
        One result per task, ordered exactly like ``tasks`` — the property
        the deterministic reducers rely on.  Tasks with equal
        :meth:`CellTask.key` run once and share one result object, which
        reducers therefore never mutate.
    """
    unique: dict[tuple[str, str], CellTask] = {}
    for task in tasks:
        unique.setdefault(task.key(), task)
    results = _run_unique(list(unique.values()), resolve_workers(workers), chunksize)
    by_key = dict(zip(unique, results))
    return [by_key[task.key()] for task in tasks]


def _run_unique(
    tasks: list[CellTask], workers: int, chunksize: Optional[int]
) -> list[object]:
    """Run distinct cells, over ``workers`` processes when more than one."""
    if workers <= 1 or len(tasks) <= 1:
        return [task.run() for task in tasks]
    if chunksize is None:
        chunksize = default_chunksize(len(tasks), workers)
    # Prove the pool can spawn with a no-op probe before dispatching real
    # work: ProcessPoolExecutor forks lazily, so a sandbox that cannot
    # spawn processes only fails on first use.  Keeping the probe — and
    # only the probe — inside the try means an OSError raised *by a cell*
    # (disk full, OOM during workload generation) propagates to the caller
    # instead of being misread as "no pool" and triggering a pointless
    # serial re-run of the whole sweep.
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        pool.submit(_pool_probe).result()
    except (OSError, NotImplementedError, BrokenExecutor) as exc:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        warnings.warn(
            f"process pool unavailable ({exc!r}); running {len(tasks)} cells serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return [task.run() for task in tasks]
    with pool:
        return list(pool.map(_run_task, tasks, chunksize=chunksize))
