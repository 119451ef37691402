"""Power law of cache misses (Eq. 1) and its footprint-aware variant.

The model: if a workload has miss rate ``m0`` on a baseline cache of
size ``C0``, its miss rate on a cache of size ``C`` is

    ``m(C) = min(1, m0 * (C0 / C)^alpha)``

with sensitivity ``alpha`` in (0, 1].  A cache allocation larger than
the application's memory footprint ``a`` brings no further benefit, so
the effective cache size is ``min(C, a)`` (second branch of Eq. 2).

All functions are numpy ufunc-style: scalars in, scalar out; arrays in,
array out (with broadcasting).
"""

from __future__ import annotations

import numpy as np

from ..types import ModelError

__all__ = [
    "miss_rate",
    "power_law_miss_rates",
    "miss_rate_fraction",
    "effective_cache",
    "useful_fraction_bounds",
    "cache_for_target_miss_rate",
    "pow_rowwise",
]


def pow_rowwise(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``base ** exponents[:, None]``, bit-identical per row to the
    scalar expression ``row ** float(exponent)``.

    NumPy special-cases a *Python-float scalar* exponent in
    ``ndarray.__pow__`` (e.g. ``x ** 2.0`` becomes ``square``,
    ``x ** 0.5`` becomes ``sqrt``) — fast paths a broadcast exponent
    *array* never takes, and whose results can differ from the generic
    ``pow`` ufunc in the last ulp.  The batch modules therefore raise
    to per-row powers through this helper: one vectorized ``**`` with a
    genuine Python-float exponent per *distinct* exponent value, which
    reproduces whatever fast path the scalar code hit.  Batches usually
    share one platform ``alpha`` (a batch of one always does), so that
    case is one expression with no ``np.unique`` pass.
    """
    exponents = np.asarray(exponents, dtype=np.float64)
    first = exponents[0]
    if exponents.size == 1 or (exponents == first).all():
        return base ** float(first)
    out = np.empty_like(base, dtype=np.float64)
    for e in np.unique(exponents):
        rows = exponents == e
        out[rows] = base[rows] ** float(e)
    return out


def miss_rate(m0, c0, cache, alpha):
    """Miss rate on a cache of *cache* bytes (Eq. 1).

    Parameters
    ----------
    m0 : array_like
        Baseline miss rate(s) in [0, 1].
    c0 : array_like
        Baseline cache size(s), bytes, > 0.
    cache : array_like
        Allocated cache size(s), bytes, >= 0.  Zero means "no cache":
        the miss rate saturates at 1 (if ``m0 > 0``).
    alpha : float
        Power-law sensitivity in (0, 1].

    Returns
    -------
    numpy.ndarray or float
        ``min(1, m0 * (c0 / cache)^alpha)`` with the convention that a
        zero allocation yields a miss rate of 1 for any ``m0 > 0`` and
        0 when ``m0 == 0`` (an application that never misses anywhere).
    """
    m0 = np.asarray(m0, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    cache = np.asarray(cache, dtype=np.float64)
    if np.any(m0 < 0) or np.any(m0 > 1):
        raise ModelError("m0 must lie in [0, 1]")
    if np.any(c0 <= 0):
        raise ModelError("baseline cache size c0 must be positive")
    if np.any(cache < 0):
        raise ModelError("cache size must be >= 0")
    if not 0 < alpha <= 1:
        raise ModelError(f"alpha must be in (0, 1], got {alpha}")

    out = power_law_miss_rates(m0, c0, cache, alpha)
    if out.ndim == 0:
        return float(out)
    return out


def power_law_miss_rates(m0: np.ndarray, c0: np.ndarray, cache: np.ndarray,
                         alpha: float) -> np.ndarray:
    """:func:`miss_rate` on float64 arrays that are already valid.

    Eq. 1 for one workload, with no checks and no scalar unwrapping,
    for callers whose inputs were validated when they were built
    (:func:`repro.core.batch.miss_rates_batch` is its batch twin).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scaled = m0 * (c0 / cache) ** alpha
    out = np.minimum(1.0, scaled)
    # cache == 0 with m0 == 0 produces 0 * inf = nan; define it as 0.
    return np.where(m0 == 0.0, 0.0, out)


def miss_rate_fraction(d, x, alpha):
    """Miss rate from the miss coefficient ``d`` and cache fraction ``x``.

    This is Eq. 1 rewritten for a *fraction* ``x`` of a platform LLC:
    ``min(1, d / x^alpha)`` where ``d = m0 * (C0 / Cs)^alpha`` (see
    :meth:`repro.core.application.Application.miss_coefficient`).
    ``x == 0`` yields 1 (or 0 when ``d == 0``).
    """
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if np.any(d < 0):
        raise ModelError("miss coefficient d must be >= 0")
    if np.any(x < 0) or np.any(x > 1):
        raise ModelError("cache fraction x must lie in [0, 1]")
    if not 0 < alpha <= 1:
        raise ModelError(f"alpha must be in (0, 1], got {alpha}")

    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.minimum(1.0, d / x**alpha)
    out = np.where(d == 0.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def effective_cache(cache, footprint):
    """Clamp an allocation to the application's memory footprint.

    Cache beyond the footprint is wasted (second branch of Eq. 2):
    the application's resident set simply fits.
    """
    cache = np.asarray(cache, dtype=np.float64)
    footprint = np.asarray(footprint, dtype=np.float64)
    if np.any(footprint <= 0):
        raise ModelError("footprint must be positive")
    out = np.minimum(cache, footprint)
    if out.ndim == 0:
        return float(out)
    return out


def useful_fraction_bounds(d, footprint, cache_size, alpha):
    """Per-application open/closed bounds on useful cache fractions.

    Returns the pair ``(lo, hi)`` of Eq. 3: a nonzero allocation is
    only useful when ``d^(1/alpha) < x <= a / Cs``.  Any ``x`` in
    ``(0, lo]`` is wasted (miss rate stays 1) and any ``x > hi`` is
    wasted (footprint already fits).  When ``lo >= hi`` the application
    should receive no cache at all.

    Parameters
    ----------
    d : array_like
        Miss coefficient(s) ``d_i``.
    footprint : array_like
        Footprint(s) ``a_i`` in bytes (may be ``inf``).
    cache_size : float
        Platform LLC size ``Cs`` in bytes.
    alpha : float
        Power-law sensitivity.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Arrays ``lo = d^(1/alpha)`` and ``hi = min(1, a / Cs)``.
    """
    d = np.asarray(d, dtype=np.float64)
    footprint = np.asarray(footprint, dtype=np.float64)
    if cache_size <= 0:
        raise ModelError("cache_size must be positive")
    if not 0 < alpha <= 1:
        raise ModelError(f"alpha must be in (0, 1], got {alpha}")
    lo = d ** (1.0 / alpha)
    hi = np.minimum(1.0, footprint / cache_size)
    return lo, hi


def cache_for_target_miss_rate(m0, c0, target, alpha):
    """Invert Eq. 1: cache bytes needed to reach miss rate *target*.

    Returns ``c0 * (m0 / target)^(1/alpha)``; raises when the target is
    not reachable (``target <= 0``) or trivially met (``target >= 1``
    needs no cache, returns 0).
    """
    m0 = np.asarray(m0, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if np.any(target <= 0):
        raise ModelError("target miss rate must be positive")
    out = np.where(target >= 1.0, 0.0, c0 * (m0 / target) ** (1.0 / alpha))
    if out.ndim == 0:
        return float(out)
    return out
