"""Structure-of-arrays batching across independent problem instances.

The scheduling core is already vectorized *within* one instance (one
workload on one platform).  This module vectorizes *across* instances:
a :class:`BatchProblem` packs ``B`` (workload, platform) pairs into
padded ``(B, N)`` arrays — ``N`` being the widest instance — with a
prefix validity mask, so the cost model, the dominance machinery, the
eviction loops, and the equal-finish solver advance a whole batch per
NumPy call instead of per Python call.  The natural producers of such
batches are the experiment engine's task chunks, the service's
coalesced request batches, and the benchmark grids.  The scalar
dominant heuristics are batches of one: a single instance is packed
without padding, as read-only views of its workload's columns, so a
batch of one costs what the scalar path used to.

Bit-identity contract
---------------------
A padded row computes the **same bits** as the scalar path on the
compressed arrays, and as the same instance in a batch of one.  Three
disciplines make that true:

* every elementwise expression is transcribed from the scalar module
  it mirrors, in the same operation order (IEEE elementwise ops are
  value-determined, so broadcasting over extra rows changes nothing);
* every reduction is padding-invariant: totals use left-to-right
  accumulation (see :func:`repro.core.dominance.masked_total`), maxima
  fill padding with ``-inf``;
* padding values are chosen so no intermediate produces NaN (work 1.0,
  sequential fraction 0.0, access frequency 0.0, baseline miss rate
  0.0, footprint ``inf``, baseline cache 1.0 — giving a padded
  sequential time of exactly 1.0 and zero cache weight).

The golden suite (``tests/golden/test_batch_equivalence.py``) asserts
this with ``==`` on floats over seeded ragged sweeps, against the
frozen scalar heuristics of ``tests/golden/legacy_heuristics.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..types import ModelError
from .application import Workload
from .platform import Platform
from .powerlaw import pow_rowwise
from .processor_allocation import equal_finish_batch
from .schedule import Schedule

__all__ = [
    "BatchProblem",
    "BatchSchedule",
    "miss_rates_batch",
    "access_cost_factor_batch",
    "sequential_times_batch",
    "execution_times_batch",
    "equal_finish_allocation_batch",
    "equal_finish_makespan_batch",
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


class BatchProblem:
    """``B`` independent (workload, platform) instances as padded arrays.

    Application columns (``work``, ``seq``, ``freq``, ``miss0``,
    ``footprint``, ``baseline_cache``) have shape ``(B, N)`` where
    ``N = max_i n_i``; ``valid`` is the boolean prefix mask of real
    applications and ``counts`` the per-row ``n_i``.  Platform columns
    (``p``, ``cache_size``, ``latency_cache``, ``latency_memory``,
    ``alpha``) have shape ``(B,)`` — instances may mix platforms
    freely.  The original pairs stay reachable through
    :attr:`instances` / :meth:`row` so results can be materialized back
    into per-instance :class:`~repro.core.schedule.Schedule` objects.
    """

    __slots__ = (
        "instances", "counts", "valid",
        "work", "seq", "freq", "miss0", "footprint", "baseline_cache",
        "p", "cache_size", "latency_cache", "latency_memory", "alpha",
        "_miss_coefficients",
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
        self._miss_coefficients = None
        if len(pairs) == 1:
            # A batch of one needs no padding: its rows are (read-only)
            # views of the workload's own columns.
            wl, pf = pairs[0]
            self.counts = np.array([wl.n], dtype=np.intp)
            self.valid = np.ones((1, wl.n), dtype=bool)
            for name in _PAD:
                setattr(self, name, getattr(wl, name)[None, :])
        else:
            B = len(pairs)
            counts = np.array([wl.n for wl, _ in pairs], dtype=np.intp)
            self.counts = counts
            valid = np.zeros((B, int(counts.max())), dtype=bool)
            for name, fill in _PAD.items():
                setattr(self, name, np.full(valid.shape, fill))
            for i, (wl, _) in enumerate(pairs):
                valid[i, :wl.n] = True
                for name in _PAD:
                    getattr(self, name)[i, :wl.n] = getattr(wl, name)
            self.valid = valid
        self.p = np.array([pf.p for _, pf in pairs])
        self.cache_size = np.array([pf.cache_size for _, pf in pairs])
        self.latency_cache = np.array([pf.latency_cache for _, pf in pairs])
        self.latency_memory = np.array([pf.latency_memory for _, pf in pairs])
        self.alpha = np.array([pf.alpha for _, pf in pairs])

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

    # -- derived quantities ------------------------------------------------
    def miss_coefficients(self) -> np.ndarray:
        """``d = m0 * (C0 / Cs)^alpha`` per cell, shape ``(B, N)``.

        Mirrors :meth:`repro.core.application.Workload.miss_coefficients`
        elementwise; padding yields 0.  Computed once per problem (every
        dominance building block needs it) and returned read-only.
        """
        if self._miss_coefficients is None:
            d = self.miss0 * pow_rowwise(
                self.baseline_cache / self.cache_size[:, None], self.alpha)
            d.flags.writeable = False
            self._miss_coefficients = d
        return self._miss_coefficients


def miss_rates_batch(problem: BatchProblem, cache_fractions) -> np.ndarray:
    """Batched :func:`repro.core.execution.miss_rates`: ``(B, N)``.

    Inputs were validated when the individual applications/platforms
    were built, so this applies Eq. 1 plus the footprint clamp
    directly.  Padding (``m0 == 0``) yields 0.
    """
    x = np.asarray(cache_fractions, dtype=np.float64)
    cache_bytes = np.minimum(
        x * problem.cache_size[:, None], problem.footprint)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = problem.miss0 * pow_rowwise(
            problem.baseline_cache / cache_bytes, problem.alpha)
    return np.where(problem.miss0 == 0.0, 0.0, np.minimum(1.0, scaled))


def access_cost_factor_batch(problem: BatchProblem, cache_fractions) -> np.ndarray:
    """Batched ``1 + f*(ls + ll*m(x))`` of Eq. 2; padding yields 1."""
    m = miss_rates_batch(problem, cache_fractions)
    return 1.0 + problem.freq * (
        problem.latency_cache[:, None] + problem.latency_memory[:, None] * m
    )


def sequential_times_batch(problem: BatchProblem, cache_fractions) -> np.ndarray:
    """Batched single-processor times ``c_i``; padding yields 1."""
    return problem.work * access_cost_factor_batch(problem, cache_fractions)


def execution_times_batch(problem: BatchProblem, procs, cache_fractions) -> np.ndarray:
    """Batched ``Exe_i(p_i, x_i)`` (Eq. 2); padding yields 0.

    Unlike the scalar :func:`repro.core.execution.execution_times`,
    padded cells may carry ``procs == 0`` — they are masked out rather
    than rejected.
    """
    procs = np.asarray(procs, dtype=np.float64)
    if np.any(problem.valid & (procs <= 0.0)):
        raise ModelError("processor allocation must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        flops = problem.seq * problem.work + (
            1.0 - problem.seq) * problem.work / procs
        times = flops * access_cost_factor_batch(problem, cache_fractions)
    return np.where(problem.valid, times, 0.0)


def equal_finish_allocation_batch(
    problem: BatchProblem, cache_fractions, *, xtol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """Batched equal-finish allocation for given cache fractions.

    Returns ``(procs, K)`` with ``procs`` of shape ``(B, N)`` (zeros in
    padding) and ``K`` the per-row makespans, shape ``(B,)``.
    """
    c = sequential_times_batch(problem, cache_fractions)
    return equal_finish_batch(problem.seq, c, problem.valid, problem.p,
                              xtol=xtol)


def equal_finish_makespan_batch(
    problem: BatchProblem, cache_fractions, *, xtol: float = 1e-12
) -> np.ndarray:
    """Per-row equal-finish makespans, shape ``(B,)``."""
    return equal_finish_allocation_batch(problem, cache_fractions,
                                         xtol=xtol)[1]


class BatchSchedule:
    """Equal-finish schedules for a whole batch, kept as arrays.

    The result of :func:`repro.core.heuristics.dominant_schedule_batch`:
    processor and cache arrays of shape ``(B, N)`` plus the originating
    :class:`BatchProblem`.  Execution times and makespans are computed
    vectorized; :meth:`schedules` materializes per-row
    :class:`~repro.core.schedule.Schedule` objects (with full
    validation) only when a consumer needs them — constructing ``B``
    Schedule objects costs more than solving the batch, so the hot
    paths stay on the arrays.
    """

    __slots__ = ("problem", "procs", "cache", "makespans_", "_times")

    def __init__(self, problem: BatchProblem, procs: np.ndarray,
                 cache: np.ndarray, makespans: np.ndarray | None = None):
        self.problem = problem
        self.procs = procs
        self.cache = cache
        self.makespans_ = makespans
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

    def schedules(self, *, validate: bool = True) -> list[Schedule]:
        """Materialize one :class:`Schedule` per row.

        Each schedule gets its row of :meth:`times` (bit-identical to
        a scalar recompute), so its ``times()`` and ``makespan()`` cost
        nothing more.
        """
        times = self.times()
        out = []
        for i, (wl, pf) in enumerate(self.problem.instances):
            n = wl.n
            out.append(Schedule(wl, pf, self.procs[i, :n].copy(),
                                self.cache[i, :n].copy(), validate=validate,
                                times=times[i, :n].copy()))
        return out

    def schedule(self, i: int) -> Schedule:
        """Materialize the :class:`Schedule` of row *i*."""
        wl, pf = self.problem.row(i)
        n = wl.n
        return Schedule(wl, pf, self.procs[i, :n].copy(),
                        self.cache[i, :n].copy())
