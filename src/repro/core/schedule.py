"""Schedule data structures: co-schedules and sequential schedules.

A :class:`Schedule` is the paper's solution object — one pair
``(p_i, x_i)`` per application, all applications starting at time 0 and
running concurrently; its makespan is ``max_i Exe_i(p_i, x_i)``
(Definition 1).  A :class:`SequentialSchedule` models the
``AllProcCache`` baseline where applications run one after another,
each owning the whole machine; its makespan is the *sum* of the
per-application times.

Both expose the same small interface (``times()``, ``makespan()``,
``describe()``) so experiment code can treat every scheduling strategy
uniformly.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..types import FEASIBILITY_SLACK, InfeasibleScheduleError, ModelError
from .application import Workload
from .execution import execution_times
from .platform import Platform

__all__ = ["BaseSchedule", "Schedule", "SequentialSchedule"]


class BaseSchedule(abc.ABC):
    """Common interface for concurrent and sequential schedules."""

    workload: Workload
    platform: Platform
    #: Processors per application, shape ``(n,)``.
    procs: np.ndarray
    #: Cache fraction per application, shape ``(n,)``.
    cache: np.ndarray

    @abc.abstractmethod
    def times(self) -> np.ndarray:
        """Per-application execution times (not completion times)."""

    @abc.abstractmethod
    def makespan(self) -> float:
        """Time at which the last application completes."""

    @property
    @abc.abstractmethod
    def concurrent(self) -> bool:
        """Whether applications run simultaneously (True) or in sequence."""

    def describe(self) -> str:
        """Multi-line human-readable allocation table."""
        lines = [
            f"{type(self).__name__} on {self.platform.name} "
            f"(p={self.platform.p:g}, Cs={self.platform.cache_size:g}B): "
            f"makespan={self.makespan():.6g}",
            f"{'app':<12}{'procs':>12}{'cache x':>12}{'time':>16}",
        ]
        times = self.times()
        for name, p, x, t in zip(self.workload.names, self.procs, self.cache,
                                 times):
            lines.append(f"{name:<12}{p:>12.4f}{x:>12.6f}{t:>16.6g}")
        return "\n".join(lines)


class Schedule(BaseSchedule):
    """A concurrent cache-partitioned schedule ``{(p_i, x_i)}``.

    Parameters
    ----------
    workload : Workload
        The applications being co-scheduled.
    platform : Platform
        The machine they share.
    procs : array_like
        Processor allocations ``p_i > 0``, shape ``(n,)``.
    cache : array_like
        Cache fractions ``x_i in [0, 1]``, shape ``(n,)``.
    validate : bool
        When True (default), resource-capacity constraints are checked
        at construction and :class:`InfeasibleScheduleError` is raised
        on violation (with :data:`~repro.types.FEASIBILITY_SLACK`
        slack to absorb solver tolerance).
    times : array_like, optional
        The execution times ``Exe_i(p_i, x_i)`` when the caller has
        already computed them — a batch evaluation hands each row its
        slice of the vectorized times, which are bit-identical to
        :func:`~repro.core.execution.execution_times`.  Computed
        lazily when omitted.
    """

    def __init__(
        self,
        workload: Workload,
        platform: Platform,
        procs,
        cache,
        *,
        validate: bool = True,
        times=None,
    ):
        self.workload = workload
        self.platform = platform
        self.procs = np.ascontiguousarray(procs, dtype=np.float64)
        self.cache = np.ascontiguousarray(cache, dtype=np.float64)
        if self.procs.shape != (workload.n,):
            raise ModelError(
                f"procs must have shape ({workload.n},), got {self.procs.shape}"
            )
        if self.cache.shape != (workload.n,):
            raise ModelError(
                f"cache must have shape ({workload.n},), got {self.cache.shape}"
            )
        self._times: Optional[np.ndarray] = _times_column(times, workload.n)
        if validate:
            self.assert_feasible()

    @property
    def concurrent(self) -> bool:
        return True

    @property
    def cache_subset(self) -> np.ndarray:
        """Boolean mask of the applications receiving a nonzero fraction."""
        return self.cache > 0.0

    def feasibility_violations(self) -> list[str]:
        """Return a list of violated-constraint descriptions (empty if OK)."""
        issues: list[str] = []
        if (self.procs <= 0).any():
            bad = np.flatnonzero(self.procs <= 0)
            issues.append(f"non-positive processor allocation at indices {bad.tolist()}")
        if (self.cache < 0).any() or (self.cache > 1).any():
            bad = np.flatnonzero((self.cache < 0) | (self.cache > 1))
            issues.append(f"cache fraction outside [0, 1] at indices {bad.tolist()}")
        total_p = float(self.procs.sum())
        slack = FEASIBILITY_SLACK
        if total_p > self.platform.p * (1 + slack) + slack:
            issues.append(f"sum of processors {total_p:.9g} exceeds p={self.platform.p:g}")
        total_x = float(self.cache.sum())
        if total_x > 1 + slack:
            issues.append(f"sum of cache fractions {total_x:.9g} exceeds 1")
        return issues

    def is_feasible(self) -> bool:
        """True when all resource constraints hold, up to FEASIBILITY_SLACK."""
        return not self.feasibility_violations()

    def assert_feasible(self) -> None:
        """Raise :class:`InfeasibleScheduleError` listing any violations."""
        issues = self.feasibility_violations()
        if issues:
            raise InfeasibleScheduleError("; ".join(issues))

    def times(self) -> np.ndarray:
        if self._times is None:
            self._times = execution_times(
                self.workload, self.platform, self.procs, self.cache
            )
        return self._times

    def makespan(self) -> float:
        return float(self.times().max())

    def finish_time_spread(self) -> float:
        """Relative gap ``(max - min) / max`` of the finish times.

        An equal-finish schedule (Lemma 1) has spread ~0; large spread
        signals wasted processors.
        """
        t = self.times()
        mx = float(t.max())
        if mx == 0:
            return 0.0
        return float((t.max() - t.min()) / mx)


class SequentialSchedule(BaseSchedule):
    """Applications executed one after another, each owning the machine.

    This is the paper's ``AllProcCache`` reference point: every
    application gets all ``p`` processors and the whole LLC, and the
    makespan is the sum of the individual execution times.  ``times``
    takes precomputed execution times, as for :class:`Schedule`.
    """

    def __init__(self, workload: Workload, platform: Platform, *, times=None):
        self.workload = workload
        self.platform = platform
        self.procs = np.full(workload.n, float(platform.p))
        self.cache = np.ones(workload.n)
        self._times: Optional[np.ndarray] = _times_column(times, workload.n)

    @property
    def concurrent(self) -> bool:
        return False

    def times(self) -> np.ndarray:
        if self._times is None:
            self._times = execution_times(
                self.workload, self.platform, self.procs, self.cache
            )
        return self._times

    def makespan(self) -> float:
        return float(self.times().sum())


def _times_column(times, n: int) -> Optional[np.ndarray]:
    """Precomputed execution times as a float64 array of shape ``(n,)``."""
    if times is None:
        return None
    times = np.ascontiguousarray(times, dtype=np.float64)
    if times.shape != (n,):
        raise ModelError(f"times must have shape ({n},), got {times.shape}")
    return times
