"""Baseline scheduling strategies of Section 6.3.

* :func:`all_proc_cache` — no co-scheduling: applications run in
  sequence, each on all ``p`` processors with the whole LLC.  Every
  figure in the paper is normalized against this strategy (or against
  DominantMinRatio).
* :func:`fair` — every application gets ``p/n`` processors and a cache
  share proportional to its access frequency, ``x_i = f_i / sum_j f_j``.
* :func:`zero_cache` — nobody gets cache (``x_i = 0``); processors are
  assigned so all applications finish together.  Isolates the value of
  the *cache-allocation* decision: the only difference between this and
  the dominant heuristics is the cache partition.
* :func:`random_partition` — a uniformly random subset shares the
  cache with Theorem-3 fractions inside it; processors equal-finish.
  Isolates the value of choosing a *dominant* subset rather than an
  arbitrary one.

Each is written once, over a :class:`~repro.core.batch.BatchProblem`
(the ``*_batch`` functions); the scalar entry points are batches of
one (AllProcCache, a plain constructor call, excepted), checked bit
for bit against ``tests/golden/legacy_baselines.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .application import Workload
from .batch import (BatchProblem, BatchSchedule, equal_finish_allocation_batch,
                    execution_times_batch)
from .dominance import cache_weights_batch, optimal_cache_fractions_batch
from .heuristics import _row_rngs
from .platform import Platform
from .schedule import Schedule, SequentialSchedule

__all__ = ["all_proc_cache", "fair", "zero_cache", "random_partition",
           "all_proc_cache_batch", "fair_batch", "zero_cache_batch",
           "random_partition_batch"]


def all_proc_cache_batch(problem: BatchProblem) -> list[SequentialSchedule]:
    """AllProcCache for every row: one :class:`SequentialSchedule` each,
    holding its row of the batch's whole-machine execution times."""
    times = execution_times_batch(problem, problem.p[:, None], 1.0)
    return [SequentialSchedule(wl, pf, times=times[i, :wl.n].copy())
            for i, (wl, pf) in enumerate(problem.instances)]


def fair_batch(problem: BatchProblem) -> BatchSchedule:
    """Fair for every row; a row with all ``f == 0`` splits the cache equally.

    Each row's frequency total is NumPy's pairwise sum over that row's
    own applications: summing a padded row can move the last ulp.
    """
    n = problem.counts[:, None].astype(np.float64)
    totals = np.array([wl.freq.sum() for wl, _ in problem.instances])[:, None]
    even = totals == 0.0
    shares = np.where(even, problem.valid, problem.freq) / np.where(even, n, totals)
    return BatchSchedule(problem, problem.valid * (problem.p[:, None] / n), shares)


def zero_cache_batch(problem: BatchProblem) -> BatchSchedule:
    """0cache for every row: no cache, equal-finish processors."""
    x = np.zeros(problem.valid.shape)
    procs, _ = equal_finish_allocation_batch(problem, x)
    return BatchSchedule(problem, procs, x)


def random_partition_batch(
    problem: BatchProblem,
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> BatchSchedule:
    """RandomPart for every row, row *i* drawing ``rngs[i].random(n_i)``.

    An application joins the cache subset when its draw is below 1/2
    and its cache weight is positive; a row selecting nobody is 0cache.
    """
    draws = np.ones(problem.valid.shape)
    for i, rng in enumerate(_row_rngs(rngs, len(problem))):
        rng = rng if rng is not None else np.random.default_rng()
        draws[i, :problem.counts[i]] = rng.random(problem.counts[i])
    weights = cache_weights_batch(problem)
    masks = problem.valid & (weights > 0) & (draws < 0.5)
    x = optimal_cache_fractions_batch(problem, masks, weights=weights)
    procs, _ = equal_finish_allocation_batch(problem, x)
    return BatchSchedule(problem, procs, x)


def all_proc_cache(workload: Workload, platform: Platform) -> SequentialSchedule:
    """Sequential execution, whole machine per application (AllProcCache).

    A constructor call: packing a batch of one would only add its cost.
    """
    return SequentialSchedule(workload, platform)


def fair(workload: Workload, platform: Platform) -> Schedule:
    """Equal processors, frequency-proportional cache shares (Fair)."""
    return fair_batch(BatchProblem([(workload, platform)])).schedules()[0]


def zero_cache(workload: Workload, platform: Platform) -> Schedule:
    """No cache for anyone; equal-finish processor allocation (0cache)."""
    return zero_cache_batch(BatchProblem([(workload, platform)])).schedules()[0]


def random_partition(workload: Workload, platform: Platform,
                     rng: np.random.Generator | None = None) -> Schedule:
    """Random cache subset with Theorem-3 fractions inside (RandomPart)."""
    return random_partition_batch(
        BatchProblem([(workload, platform)]), [rng]).schedules()[0]
