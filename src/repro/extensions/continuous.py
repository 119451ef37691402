"""Continuous optimization of the cache partition (scipy SLSQP).

The strongest (and costliest) point of the design space: treat the
cache fractions ``x`` directly as decision variables and minimize the
equal-finish makespan ``K(x)`` under ``sum x <= 1``, ``x >= 0`` with a
sequential quadratic programming solver.  The objective is smooth
wherever no application sits exactly at its Eq. 3 threshold; SLSQP
handles the remaining kinks well in practice when warm-started from
the dominant heuristic's solution.

This optimizer subsumes both the Theorem-3 closed form (it recovers it
for perfectly parallel workloads) and the speedup-aware fixed point —
the benchmarks use it as the reference upper bound on what *any*
fraction-based strategy can achieve for a given platform.
"""

from __future__ import annotations

import numpy as np

from ..core.application import Workload
from ..core.dominance import optimal_cache_fractions
from ..core.heuristics import dominant_partition
from ..core.platform import Platform
from ..core.processor_allocation import (
    build_equal_finish_schedule,
    equal_finish_makespan,
)
from ..core.schedule import Schedule
from ..types import SolverError

__all__ = ["optimize_fractions", "continuous_schedule"]


def optimize_fractions(
    workload: Workload,
    platform: Platform,
    *,
    x0=None,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> np.ndarray:
    """Minimize the equal-finish makespan over cache fractions.

    Parameters
    ----------
    workload, platform
        The instance.
    x0 : array_like, optional
        Warm start; defaults to the Theorem-3 fractions of the
        all-positive-weight subset.
    max_iter, tol
        SLSQP knobs.

    Returns
    -------
    numpy.ndarray
        Fractions with ``sum <= 1`` (tiny allocations below 1e-12 are
        snapped to zero).  Guaranteed no worse than the warm start.
    """
    from scipy.optimize import minimize  # deferred: scipy costs ~0.5 s to import

    n = workload.n
    if x0 is None:
        d = workload.miss_coefficients(platform)
        eligible = (workload.work * workload.freq * d) > 0
        x0 = (
            optimal_cache_fractions(workload, platform, eligible)
            if eligible.any()
            else np.zeros(n)
        )
    x0 = np.asarray(x0, dtype=np.float64)

    def objective(x: np.ndarray) -> float:
        x = np.clip(x, 0.0, 1.0)
        return equal_finish_makespan(workload, platform, x)

    baseline = objective(x0)
    scale = baseline if baseline > 0 else 1.0

    result = minimize(
        lambda x: objective(x) / scale,
        x0,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x.sum()}],
        options={"maxiter": max_iter, "ftol": tol},
    )
    if not np.all(np.isfinite(result.x)):
        raise SolverError("SLSQP returned non-finite fractions")
    x = np.clip(result.x, 0.0, 1.0)
    total = float(x.sum())
    if total > 1.0:
        x /= total
    x[x < 1e-12] = 0.0
    # Keep the warm start if the solver wandered (SLSQP can stall on
    # the min() kinks of Eq. 2).
    if objective(x) > baseline:
        return x0
    return x


def continuous_schedule(
    workload: Workload,
    platform: Platform,
    rng: np.random.Generator | None = None,
) -> Schedule:
    """Schedule from SLSQP-optimized fractions (warm-started dominant)."""
    mask = dominant_partition(workload, platform, "minratio", rng)
    warm = (
        optimal_cache_fractions(workload, platform, mask)
        if mask.any()
        else np.zeros(workload.n)
    )
    x = optimize_fractions(workload, platform, x0=warm)
    return build_equal_finish_schedule(workload, platform, x)
