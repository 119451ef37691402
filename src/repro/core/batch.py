"""Structure-of-arrays batching across independent problem instances.

The scheduling core is already vectorized *within* one instance (one
workload on one platform).  This module vectorizes *across* instances:
a :class:`BatchProblem` packs ``B`` (workload, platform) pairs into
padded ``(B, N)`` arrays — ``N`` being the widest instance — with a
prefix validity mask, so the cost model, the dominance machinery, the
eviction loops, and the equal-finish solver advance a whole batch per
NumPy call instead of per Python call.  Batches reach it through
:func:`repro.core.registry.schedule_batch`, which both the experiment
engine (one call per scheduler per figure grid) and the service
dispatcher (one call per scheduler per coalesced request batch) use,
and directly from the benchmark grids.  The scalar
dominant heuristics are batches of one: a single instance is packed
without padding, as read-only views of its workload's columns, so a
batch of one copies nothing.

Bit-identity contract
---------------------
A padded row computes the **same bits** as the one-instance path on
the compressed arrays, and as the same instance in a batch of one.
Three disciplines make that true:

* each formula of the model has one body, which runs on one workload's
  ``(n,)`` columns with its platform's floats and on a batch's
  ``(B, N)`` columns with the ``(B, 1)`` columns of
  :attr:`BatchProblem.platforms` (IEEE elementwise ops are
  value-determined, so broadcasting over extra rows changes nothing,
  and every power goes through
  :func:`~repro.core.powerlaw.pow_rowwise`, so both take the same
  scalar-exponent fast paths);
* every reduction is padding-invariant: totals use left-to-right
  accumulation (see :func:`repro.core.dominance.masked_totals`), maxima
  fill padding with ``-inf``;
* padding values are chosen so no intermediate produces NaN (work 1.0,
  sequential fraction 0.0, access frequency 0.0, baseline miss rate
  0.0, footprint ``inf``, baseline cache 1.0 — giving a padded
  sequential time of exactly 1.0 and zero cache weight).

The golden suites (``tests/golden/test_batch_equivalence.py`` and
``tests/golden/test_formula_equivalence.py``) assert this with ``==``
on floats over seeded ragged sweeps, against the frozen heuristics and
formulas of ``tests/golden/legacy_*.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from ..types import FEASIBILITY_SLACK, ModelError
from .application import Workload
from .execution import exe_times, unit_times
from .platform import Platform
from .processor_allocation import equal_finish_batch
from .schedule import Schedule

__all__ = [
    "BatchProblem",
    "BatchSchedule",
    "PlatformColumns",
    "execution_times_batch",
    "equal_finish_allocation_batch",
]

#: Padding values per application column — chosen so padded cells flow
#: through the whole model without producing NaN (see module docstring).
_PAD = {
    "work": 1.0,
    "seq": 0.0,
    "freq": 0.0,
    "miss0": 0.0,
    "footprint": np.inf,
    "baseline_cache": 1.0,
}

#: Relative margin below a capacity bound for BatchSchedule._suspect_rows.
_SUM_MARGIN = 1e-12


class PlatformColumns(NamedTuple):
    """A batch's platform constants as ``(B, 1)`` columns.

    Field for field the :class:`~repro.core.platform.Platform`
    constants the model's formulas read, so a formula written for
    ``(workload, platform)`` runs unchanged on ``(problem,
    problem.platforms)``.
    """

    cache_size: np.ndarray
    latency_cache: np.ndarray
    latency_memory: np.ndarray
    alpha: np.ndarray


class BatchProblem:
    """``B`` independent (workload, platform) instances as padded arrays.

    Application columns (``work``, ``seq``, ``freq``, ``miss0``,
    ``footprint``, ``baseline_cache``) have shape ``(B, N)`` where
    ``N = max_i n_i``; ``valid`` is the boolean prefix mask of real
    applications and ``counts`` the per-row ``n_i``.  Platform columns
    (``p``, ``cache_size``, ``latency_cache``, ``latency_memory``,
    ``alpha``) have shape ``(B,)`` — instances may mix platforms
    freely — and :attr:`platforms` holds them again as ``(B, 1)``
    columns, the shape the model's formulas broadcast.  The original
    pairs stay reachable through :attr:`instances` / :meth:`row` so
    results can be materialized back into per-instance
    :class:`~repro.core.schedule.Schedule` objects.
    """

    __slots__ = (
        "instances", "counts", "valid",
        "work", "seq", "freq", "miss0", "footprint", "baseline_cache",
        "p", "cache_size", "latency_cache", "latency_memory", "alpha",
        "platforms",
    )

    def __init__(self, instances: Iterable[tuple[Workload, Platform]]):
        pairs = tuple(instances)
        if not pairs:
            raise ModelError("a batch needs at least one instance")
        for i, pair in enumerate(pairs):
            if (not isinstance(pair, Sequence) or len(pair) != 2
                    or not isinstance(pair[0], Workload)
                    or not isinstance(pair[1], Platform)):
                raise ModelError(
                    f"instance {i} must be a (Workload, Platform) pair, "
                    f"got {pair!r}")
        self.instances = pairs
        if len(pairs) == 1:
            # A batch of one needs no padding: its rows are (read-only)
            # views of the workload's own columns.
            wl, pf = pairs[0]
            self.counts = np.array([wl.n], dtype=np.intp)
            self.valid = np.ones((1, wl.n), dtype=bool)
            for name in _PAD:
                setattr(self, name, getattr(wl, name)[None, :])
        else:
            # One scatter per column: the row-major order of the valid
            # cells is the order of the concatenated workloads.
            counts = np.array([wl.n for wl, _ in pairs], dtype=np.intp)
            self.counts = counts
            self.valid = np.arange(counts.max()) < counts[:, None]
            for name, fill in _PAD.items():
                col = np.full(self.valid.shape, fill)
                col[self.valid] = np.concatenate([getattr(wl, name) for wl, _ in pairs])
                setattr(self, name, col)
        self.p = np.array([pf.p for _, pf in pairs])
        self.cache_size = np.array([pf.cache_size for _, pf in pairs])
        self.latency_cache = np.array([pf.latency_cache for _, pf in pairs])
        self.latency_memory = np.array([pf.latency_memory for _, pf in pairs])
        self.alpha = np.array([pf.alpha for _, pf in pairs])
        self.platforms = PlatformColumns(
            self.cache_size[:, None], self.latency_cache[:, None],
            self.latency_memory[:, None], self.alpha[:, None])

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.instances)

    @property
    def n_instances(self) -> int:
        """Batch size ``B``."""
        return len(self.instances)

    @property
    def max_apps(self) -> int:
        """Padded width ``N`` (the widest instance)."""
        return self.valid.shape[1]

    def row(self, i: int) -> tuple[Workload, Platform]:
        """The original (workload, platform) pair of row *i*."""
        return self.instances[i]

    def __repr__(self) -> str:
        return (f"BatchProblem({self.n_instances} instances, "
                f"max {self.max_apps} apps)")


def execution_times_batch(problem: BatchProblem, procs, cache_fractions) -> np.ndarray:
    """Batched ``Exe_i(p_i, x_i)`` (Eq. 2); padding yields 0.

    Unlike the one-instance :func:`repro.core.execution.execution_times`,
    padded cells may carry ``procs == 0`` — they are masked out rather
    than rejected.
    """
    procs = np.asarray(procs, dtype=np.float64)
    if (problem.valid & (procs <= 0.0)).any():
        raise ModelError("processor allocation must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        times = exe_times(problem, problem.platforms, procs, cache_fractions)
    return np.where(problem.valid, times, 0.0)


def equal_finish_allocation_batch(
    problem: BatchProblem, cache_fractions
) -> tuple[np.ndarray, np.ndarray]:
    """Batched equal-finish allocation for given cache fractions.

    Returns ``(procs, K)`` with ``procs`` of shape ``(B, N)`` (zeros in
    padding) and ``K`` the per-row makespans, shape ``(B,)``.
    """
    c = unit_times(problem, problem.platforms, cache_fractions)
    return equal_finish_batch(problem.seq, c, problem.valid, problem.p)


class BatchSchedule:
    """Equal-finish schedules for a whole batch, kept as arrays.

    The result of :func:`repro.core.heuristics.dominant_schedule_batch`
    and of the batch baselines (:mod:`repro.core.baselines`):
    processor and cache arrays of shape ``(B, N)`` plus the originating
    :class:`BatchProblem`.  Execution times and makespans are computed
    vectorized; :meth:`schedules` materializes per-row
    :class:`~repro.core.schedule.Schedule` objects only when a consumer
    needs them — constructing ``B`` Schedule objects costs more than
    solving the batch, so the hot paths stay on the arrays.  Their
    feasibility is checked in bulk, with :class:`Schedule`'s per-row
    check kept for the rows the bulk pass cannot clear.
    """

    __slots__ = ("problem", "procs", "cache", "_times")

    def __init__(self, problem: BatchProblem, procs: np.ndarray,
                 cache: np.ndarray):
        self.problem = problem
        self.procs = procs
        self.cache = cache
        self._times = None

    def __len__(self) -> int:
        return len(self.problem)

    def __repr__(self) -> str:
        return f"BatchSchedule({len(self)} instances)"

    def times(self) -> np.ndarray:
        """Per-cell execution times ``Exe_i(p_i, x_i)``, zeros in padding."""
        if self._times is None:
            self._times = execution_times_batch(
                self.problem, self.procs, self.cache)
        return self._times

    def makespans(self) -> np.ndarray:
        """Per-row makespans ``max_i Exe_i``, shape ``(B,)``."""
        return np.where(self.problem.valid, self.times(), -np.inf).max(axis=1)

    def schedules(self) -> list[Schedule]:
        """Materialize one feasibility-checked :class:`Schedule` per row.

        Each schedule gets its row of :meth:`times` (bit-identical to
        a scalar recompute), so its ``times()`` and ``makespan()`` cost
        nothing more.  Only the rows :meth:`_suspect_rows` flags take
        :class:`Schedule`'s own check, so an infeasible batch raises the
        per-row :class:`~repro.types.InfeasibleScheduleError` text.
        """
        times = self.times()
        suspect = self._suspect_rows()
        return [Schedule(wl, pf, self.procs[i, :wl.n].copy(),
                         self.cache[i, :wl.n].copy(), validate=bool(suspect[i]),
                         times=times[i, :wl.n].copy())
                for i, (wl, pf) in enumerate(self.problem.instances)]

    def _suspect_rows(self) -> np.ndarray:
        """Rows that need the exact per-row feasibility check, shape ``(B,)``.

        One pass clears a row whose procs are positive, whose fractions
        lie in [0, 1], and whose sums stay ``_SUM_MARGIN`` below their
        bounds: a padded sum may differ from the row's own pairwise sum
        by ulps.  NaN clears nothing; a batch of one is always checked.
        """
        problem = self.problem
        if len(problem) == 1:
            return np.ones(1, dtype=bool)
        valid = problem.valid
        slack = FEASIBILITY_SLACK
        clear = ((self.procs > 0) | ~valid).all(axis=1)
        clear &= (((self.cache >= 0) & (self.cache <= 1)) | ~valid).all(axis=1)
        clear &= (np.where(valid, self.procs, 0.0).sum(axis=1)
                  < (problem.p * (1 + slack) + slack) * (1 - _SUM_MARGIN))
        clear &= (np.where(valid, self.cache, 0.0).sum(axis=1)
                  < (1 + slack) * (1 - _SUM_MARGIN))
        return ~clear

    def schedule(self, i: int) -> Schedule:
        """Materialize the :class:`Schedule` of row *i*."""
        wl, pf = self.problem.row(i)
        n = wl.n
        return Schedule(wl, pf, self.procs[i, :n].copy(),
                        self.cache[i, :n].copy())
