"""The execution-time model of Eq. 2, vectorized over applications.

For application ``Ti`` on ``pi`` processors with a fraction ``xi`` of
the LLC:

    ``Exe_i(pi, xi) = Fl_i(pi) * (1 + fi * (ls + ll * m_i(xi)))``

where ``Fl_i(pi) = si*wi + (1-si)*wi/pi`` is Amdahl's per-processor
operation count and ``m_i(xi)`` is the power-law miss rate of the
allocation, clamped by the memory footprint (second branch of Eq. 2).

Each formula has one unchecked body that broadcasts over the columns of
one workload with its platform's floats (``apps, platform =
workload, platform``) or over a padded batch with its ``(B, 1)``
platform columns (``apps, platform = problem, problem.platforms``, see
:class:`repro.core.batch.BatchProblem`): :func:`amdahl_ops`,
:func:`clamped_miss_rates`, :func:`cost_factors`, :func:`unit_times`
and :func:`exe_times`.  The checked one-instance entry points
(:func:`miss_rates`, :func:`access_cost_factor`,
:func:`sequential_times`, :func:`execution_times`, ...) validate their
inputs and call them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..types import ModelError
from .application import Application, Workload
from .platform import Platform
from .powerlaw import power_law_miss_rates

__all__ = [
    "amdahl_flops",
    "amdahl_speedup",
    "miss_rates",
    "access_cost_model",
    "access_cost_factor",
    "sequential_times",
    "execution_times",
    "execution_time_single",
    "amdahl_ops",
    "clamped_miss_rates",
    "cost_factors",
    "unit_times",
    "exe_times",
]


def amdahl_ops(work, seq, procs):
    """Per-processor operation count ``Fl(p) = s*w + (1-s)*w/p``, unchecked."""
    return seq * work + (1.0 - seq) * work / procs


def clamped_miss_rates(apps, platform, x):
    """Eq. 1 miss rates of the fractions *x*, clamped by the footprint.

    The bytes that count are ``min(x_i * Cs, a_i)``.  Unchecked; zero
    where ``m0 == 0`` (batch padding included).
    """
    cache_bytes = np.minimum(x * platform.cache_size, apps.footprint)
    return power_law_miss_rates(apps.miss0, apps.baseline_cache,
                                cache_bytes, platform.alpha)


def cost_factors(apps, platform, x):
    """Eq. 2's per-operation cost multiplier ``1 + f*(ls + ll*m(x))``.

    Unchecked; 1 in batch padding (``f == 0``).
    """
    m = clamped_miss_rates(apps, platform, x)
    return 1.0 + apps.freq * (
        platform.latency_cache + platform.latency_memory * m
    )


def unit_times(apps, platform, x):
    """Single-processor times ``c_i = Exe_i(1, x_i) = w_i * factor_i``, unchecked."""
    return apps.work * cost_factors(apps, platform, x)


def exe_times(apps, platform, procs, x):
    """``Exe_i(p_i, x_i) = Fl_i(p_i) * factor_i`` (Eq. 2), unchecked."""
    return amdahl_ops(apps.work, apps.seq, procs) * cost_factors(apps, platform, x)


def amdahl_flops(work, seq, procs):
    """Per-processor operation count ``Fl(p) = s*w + (1-s)*w/p``.

    Broadcasts over its arguments.  ``procs`` must be positive.
    """
    work = np.asarray(work, dtype=np.float64)
    seq = np.asarray(seq, dtype=np.float64)
    procs = np.asarray(procs, dtype=np.float64)
    if np.any(procs <= 0):
        raise ModelError("processor allocation must be positive")
    out = amdahl_ops(work, seq, procs)
    if out.ndim == 0:
        return float(out)
    return out


def amdahl_speedup(seq, procs):
    """Amdahl speedup ``1 / (s + (1-s)/p)``."""
    seq = np.asarray(seq, dtype=np.float64)
    procs = np.asarray(procs, dtype=np.float64)
    if np.any(procs <= 0):
        raise ModelError("processor allocation must be positive")
    out = 1.0 / (seq + (1.0 - seq) / procs)
    if out.ndim == 0:
        return float(out)
    return out


def _checked_fractions(workload: Workload, cache_fractions) -> np.ndarray:
    """*cache_fractions* as a float64 array of shape ``(n,)``, all >= 0."""
    x = np.asarray(cache_fractions, dtype=np.float64)
    if x.shape != (workload.n,):
        raise ModelError(f"cache_fractions must have shape ({workload.n},), got {x.shape}")
    if (x < 0).any():
        raise ModelError("cache fractions must be >= 0")
    return x


def miss_rates(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """Per-application miss rates for the given cache fractions.

    Applies both the power law and the footprint clamp: the bytes that
    actually count are ``min(x_i * Cs, a_i)``.
    """
    return clamped_miss_rates(workload, platform,
                              _checked_fractions(workload, cache_fractions))


def access_cost_model(workload: Workload, platform: Platform):
    """Eq. 2's cost multiplier as a function of the cache fractions alone.

    Returns ``factors(x)``: :func:`access_cost_factor` for a float64
    array *x* of shape ``(n,)`` and >= 0, taken as given.  A caller
    pricing many allocations of one workload — the online engine
    re-prices at every event — builds it once and skips the checks.
    """
    return partial(cost_factors, workload, platform)


def access_cost_factor(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """Per-operation cost multiplier ``1 + f*(ls + ll*m(x))`` of Eq. 2."""
    return cost_factors(workload, platform,
                        _checked_fractions(workload, cache_fractions))


def sequential_times(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """``Exeseq_i(x_i) = Exe_i(1, x_i)`` for every application.

    This is the quantity the theory calls ``c_i``: total work times the
    access-cost factor, on a single processor.
    """
    return unit_times(workload, platform,
                      _checked_fractions(workload, cache_fractions))


def execution_times(
    workload: Workload,
    platform: Platform,
    procs,
    cache_fractions,
) -> np.ndarray:
    """Vector of ``Exe_i(p_i, x_i)`` (Eq. 2) for the whole workload.

    Parameters
    ----------
    workload : Workload
        Applications to evaluate.
    platform : Platform
        Machine parameters.
    procs : array_like
        Positive processor allocations, shape ``(n,)``.
    cache_fractions : array_like
        Cache fractions in ``[0, 1]``, shape ``(n,)``.

    Returns
    -------
    numpy.ndarray
        Execution times, shape ``(n,)``.
    """
    p = np.asarray(procs, dtype=np.float64)
    if p.shape != (workload.n,):
        raise ModelError(f"procs must have shape ({workload.n},), got {p.shape}")
    if np.any(p <= 0):
        raise ModelError("processor allocation must be positive")
    return exe_times(workload, platform, p,
                     _checked_fractions(workload, cache_fractions))


def execution_time_single(
    app: Application, platform: Platform, procs: float, cache_fraction: float
) -> float:
    """Scalar ``Exe(p, x)`` for one application (convenience wrapper)."""
    wl = Workload([app])
    return float(
        execution_times(wl, platform, np.array([procs]), np.array([cache_fraction]))[0]
    )
