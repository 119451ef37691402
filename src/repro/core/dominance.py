"""Dominant partitions: Definition 4, Lemma 4, and Theorem 3.

The intractability of CoSchedCache (Theorem 1) boils down to choosing
the subset ``IC`` of applications that share the LLC.  Once ``IC`` is
fixed, the optimal fractions have the closed form of Lemma 4 /
Theorem 3:

    ``x_i = (w_i f_i d_i)^(1/(alpha+1)) / sum_{j in IC} (w_j f_j d_j)^(1/(alpha+1))``

and the partition is worth keeping only if it is *dominant*
(Definition 4): for every ``i in IC``,

    ``ratio_i := (w_i f_i d_i)^(1/(alpha+1)) / d_i^(1/alpha) > sum_{j in IC} (w_j f_j d_j)^(1/(alpha+1))``

which is exactly the statement that the closed-form ``x_i`` lands
strictly above the useless-allocation threshold ``d_i^(1/alpha)`` of
Eq. 3.  Theorem 2 shows a non-dominant partition can always be strictly
improved by evicting an offending application.

This module provides the vectorized building blocks shared by the six
greedy heuristics, the exact solver, and the baselines.

Batch variants
--------------
Every building block has a ``*_batch`` twin operating on a
:class:`~repro.core.batch.BatchProblem` — structure-of-arrays over
``n_instances x max_apps`` with a prefix validity mask — so one NumPy
call prices a whole batch of independent problem instances.  The
scalar and batch paths are **bit-identical**: both compute subset
totals with :func:`masked_total`, a strict left-to-right summation
that is invariant to trailing padding (NumPy's pairwise ``sum`` is
not, so sharing it is what makes a padded row reproduce the compressed
scalar arrays float for float).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..types import ModelError
from .application import Workload
from .platform import Platform
from .powerlaw import pow_rowwise

if TYPE_CHECKING:  # pragma: no cover - typing only (batch imports us)
    from .batch import BatchProblem

__all__ = [
    "DominanceModel",
    "masked_total",
    "masked_totals",
    "cache_weights",
    "cache_weights_batch",
    "dominance_ratios",
    "dominance_ratios_batch",
    "is_dominant",
    "violating_applications",
    "optimal_cache_fractions",
    "optimal_cache_fractions_batch",
    "cache_fractions_for_subset",
    "bounded_optimal_cache_fractions",
]


def masked_total(values: np.ndarray, mask: np.ndarray) -> float:
    """Strict left-to-right total of ``values[mask]``.

    The one summation discipline shared by the scalar and batch
    dominance paths.  A left-to-right accumulation is invariant to
    interleaved (and trailing-padding) zeros — ``x + 0.0 == x`` exactly
    — whereas NumPy's pairwise ``sum`` reassociates differently for a
    compressed length-``k`` array than for a padded length-``N`` row.
    Using this helper everywhere is what makes
    ``evict_until_dominant_batch`` bit-identical to the scalar loop.
    """
    return float(np.add.accumulate(np.where(mask, values, 0.0))[-1])


def masked_totals(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row-wise :func:`masked_total` over ``(B, N)`` arrays."""
    return np.add.accumulate(np.where(masks, values, 0.0), axis=1)[:, -1]


class DominanceModel:
    """Lemma 4's weights and Definition 4's ratios of one workload.

    Binds the platform-dependent constants once — the miss
    coefficients ``d``, the thresholds ``d^(1/alpha)`` and the weight
    exponent ``1/(alpha+1)`` — so a caller re-weighting the same
    applications many times (the online engine, at every event, with
    their *remaining* work) evaluates only what depends on the work.
    :func:`cache_weights` and :func:`dominance_ratios` are this model
    applied to the workload's total operations.
    """

    __slots__ = ("freq", "d", "weight_power", "thresholds", "no_threshold")

    def __init__(self, workload: Workload, platform: Platform):
        self.freq = workload.freq
        self.d = workload.miss_coefficients(platform)
        self.weight_power = 1.0 / (platform.alpha + 1.0)
        self.thresholds = self.d ** (1.0 / platform.alpha)
        self.no_threshold = self.thresholds == 0.0

    def weights(self, work: np.ndarray) -> np.ndarray:
        """Weights ``(w_i f_i d_i)^(1/(alpha+1))`` for the work vector *work*."""
        return (work * self.freq * self.d) ** self.weight_power

    def ratios(self, weights: np.ndarray) -> np.ndarray:
        """Ratios ``weight_i / d_i^(1/alpha)`` of the given *weights*."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = weights / self.thresholds
        # d == 0: threshold is 0.  weight is 0 too (w*f*d == 0), 0/0 -> inf
        # by the convention of dominance_ratios.
        return np.where(self.no_threshold, np.inf, ratios)


def cache_weights(workload: Workload, platform: Platform) -> np.ndarray:
    """Per-application weights ``(w_i f_i d_i)^(1/(alpha+1))``.

    These are the unnormalized optimal cache shares of Lemma 4: within
    a subset ``IC`` the optimal fraction of application ``i`` is its
    weight divided by the subset's total weight.  Applications that
    never touch memory (``f == 0``) or never miss (``m0 == 0``) have
    weight 0.  :class:`DominanceModel` weighs other work vectors.
    """
    return DominanceModel(workload, platform).weights(workload.work)


def dominance_ratios(workload: Workload, platform: Platform) -> np.ndarray:
    """Per-application ratios ``weight_i / d_i^(1/alpha)`` of Definition 4.

    An application belongs to a dominant subset only when its ratio
    exceeds the subset's total weight.  Applications with ``d_i == 0``
    (no misses even with no cache) get ratio ``+inf``: giving them any
    epsilon of cache is never *harmful* under the convention of Eq. 3,
    but their weight is 0 so they also never attract cache.  The
    heuristics therefore naturally leave them out of ``IC``.
    """
    model = DominanceModel(workload, platform)
    return model.ratios(model.weights(workload.work))


def _weights_and_ratios(workload: Workload, platform: Platform):
    """``(cache_weights, dominance_ratios)`` from one model."""
    model = DominanceModel(workload, platform)
    weights = model.weights(workload.work)
    return weights, model.ratios(weights)


def is_dominant(workload: Workload, platform: Platform, subset) -> bool:
    """Check Definition 4 for the boolean mask *subset*.

    The empty subset is vacuously dominant.  The check ignores
    applications outside the subset.
    """
    mask = _as_mask(subset, workload.n)
    if not mask.any():
        return True
    weights, ratios = _weights_and_ratios(workload, platform)
    total = masked_total(weights, mask)
    return bool(np.all(ratios[mask] > total))


def violating_applications(workload: Workload, platform: Platform, subset) -> np.ndarray:
    """Indices inside *subset* whose ratio fails the dominance test.

    These are the candidates Theorem 2 says can be evicted to strictly
    improve the solution.
    """
    mask = _as_mask(subset, workload.n)
    if not mask.any():
        return np.array([], dtype=np.intp)
    weights, ratios = _weights_and_ratios(workload, platform)
    total = masked_total(weights, mask)
    bad = mask & (ratios <= total)
    return np.flatnonzero(bad)


def optimal_cache_fractions(workload: Workload, platform: Platform, subset) -> np.ndarray:
    """Closed-form optimal fractions of Theorem 3 for the mask *subset*.

    Returns the full length-``n`` vector: Theorem-3 fractions inside the
    subset (summing to 1 whenever the subset has positive total weight)
    and zeros outside.  Raises when every selected application has zero
    weight — such a subset cannot use the cache at all.
    """
    mask = _as_mask(subset, workload.n)
    x = np.zeros(workload.n)
    if not mask.any():
        return x
    weights = cache_weights(workload, platform)
    total = masked_total(weights, mask)
    if total <= 0.0:
        raise ModelError(
            "cannot partition cache: every selected application has zero weight "
            "(w*f*d == 0)"
        )
    x[mask] = weights[mask] / total
    return x


def cache_weights_batch(problem: "BatchProblem") -> np.ndarray:
    """Batched :func:`cache_weights`: ``(B, N)`` weights, zero in padding."""
    d = problem.miss_coefficients()
    base = problem.work * problem.freq * d
    return pow_rowwise(base, 1.0 / (problem.alpha + 1.0))


def dominance_ratios_batch(problem: "BatchProblem", *,
                           weights=None) -> np.ndarray:
    """Batched :func:`dominance_ratios`: ``(B, N)`` Definition-4 ratios.

    Pass precomputed *weights* (:func:`cache_weights_batch`) to skip
    recomputing them.
    """
    d = problem.miss_coefficients()
    if weights is None:
        weights = cache_weights_batch(problem)
    thresholds = pow_rowwise(d, 1.0 / problem.alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = weights / thresholds
    ratios = np.where(thresholds == 0.0, np.inf, ratios)
    return ratios


def optimal_cache_fractions_batch(
    problem: "BatchProblem", masks: np.ndarray, *, weights=None
) -> np.ndarray:
    """Batched Theorem-3 fractions for per-row boolean *masks*.

    Rows with an empty mask get all-zero fractions (the scalar
    convention).  Pass precomputed *weights* to skip recomputing them.
    Raises when some nonempty row selects only zero-weight
    applications, like the scalar function does.
    """
    masks = np.asarray(masks, dtype=bool)
    if weights is None:
        weights = cache_weights_batch(problem)
    totals = masked_totals(weights, masks)
    bad = masks.any(axis=1) & (totals <= 0.0)
    if bad.any():
        raise ModelError(
            "cannot partition cache: every selected application has zero "
            f"weight (w*f*d == 0) in batch rows {np.flatnonzero(bad).tolist()}"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(masks, weights / totals[:, None], 0.0)
    return x


def cache_fractions_for_subset(
    workload: Workload, platform: Platform, subset, *, require_dominant: bool = False
) -> np.ndarray:
    """Theorem-3 fractions with an optional dominance assertion.

    Convenience wrapper used by heuristics: same as
    :func:`optimal_cache_fractions` but optionally verifies that the
    subset is dominant first (so the closed form is the true optimum of
    CoSchedCache-Part, not just of the relaxed -Ext problem).
    """
    if require_dominant and not is_dominant(workload, platform, subset):
        raise ModelError("subset is not dominant; Theorem 3 does not apply")
    return optimal_cache_fractions(workload, platform, subset)


def bounded_optimal_cache_fractions(
    coefficients,
    upper_bounds,
    alpha: float,
    *,
    budget: float = 1.0,
) -> np.ndarray:
    """Minimize ``sum_i k_i / x_i^alpha`` s.t. ``sum x <= budget``, ``x <= b``.

    Generalizes Lemma 4 to per-application *upper bounds* (footprints
    smaller than the LLC, Eq. 3's ``x_i <= a_i/Cs``).  The KKT solution
    is the waterfilling ``x_i = min(b_i, c * k_i^(1/(alpha+1)))`` with
    the scale ``c`` chosen so the budget is met; when even the bounds
    fit within the budget, ``x = b`` is optimal (cost is decreasing in
    every ``x_i``).

    Parameters
    ----------
    coefficients : array_like
        Nonnegative ``k_i`` (in Lemma 4, ``k_i = w_i f_i d_i``).  Zero
        coefficients receive zero cache.
    upper_bounds : array_like
        Per-application maxima ``b_i > 0`` (use 1.0 or the footprint
        fraction).
    alpha : float
        Power-law sensitivity in (0, 1].
    budget : float
        Total fraction available (1.0 for the whole LLC).

    Returns
    -------
    numpy.ndarray
        The optimal ``x`` (same shape as *coefficients*).
    """
    k = np.asarray(coefficients, dtype=np.float64)
    b = np.broadcast_to(np.asarray(upper_bounds, dtype=np.float64), k.shape).copy()
    if np.any(k < 0):
        raise ModelError("coefficients must be >= 0")
    if np.any(b <= 0):
        raise ModelError("upper bounds must be positive")
    if budget <= 0:
        raise ModelError("budget must be positive")
    if not 0 < alpha <= 1:
        raise ModelError(f"alpha must be in (0, 1], got {alpha}")

    x = np.zeros_like(k)
    active = k > 0
    if not active.any():
        return x
    b = np.minimum(b, budget)
    if float(b[active].sum()) <= budget:
        x[active] = b[active]
        return x

    g = k[active] ** (1.0 / (alpha + 1.0))
    bounds = b[active]
    # Saturation thresholds: item i is at its bound once c >= b_i / g_i.
    thresholds = bounds / g
    order = np.argsort(thresholds)
    g_sorted = g[order]
    b_sorted = bounds[order]
    t_sorted = thresholds[order]
    # Prefix sums: saturated mass and unsaturated weight for each cut.
    sat_mass = np.concatenate(([0.0], np.cumsum(b_sorted)))
    unsat_weight = g_sorted[::-1].cumsum()[::-1]
    unsat_weight = np.concatenate((unsat_weight, [0.0]))
    m = len(g_sorted)
    for cut in range(m):
        # Items order[:cut] saturated, the rest scale with c.
        if unsat_weight[cut] == 0.0:
            continue
        c = (budget - sat_mass[cut]) / unsat_weight[cut]
        lo = t_sorted[cut - 1] if cut > 0 else 0.0
        if lo <= c <= t_sorted[cut] * (1 + 1e-15):
            vals = np.minimum(b_sorted, c * g_sorted)
            out_active = np.empty(m)
            out_active[order] = vals
            x[active] = out_active
            return x
    # All saturated (numerically): fall back to the bounds.
    x[active] = bounds
    return x


def _as_mask(subset, n: int) -> np.ndarray:
    mask = np.asarray(subset)
    if mask.dtype != bool:
        idx = mask.astype(np.intp, copy=False)
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
    if mask.shape != (n,):
        raise ModelError(f"subset mask must have shape ({n},), got {mask.shape}")
    return mask
