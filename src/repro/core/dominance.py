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

One instance and a batch
------------------------
:class:`DominanceModel` holds the one body of Lemma 4's weights,
Definition 4's ratios and Theorem 3's fractions.  It is built from a
workload and its platform, or from a
:class:`~repro.core.batch.BatchProblem` — structure-of-arrays over
``n_instances x max_apps`` with a prefix validity mask — with its
``(B, 1)`` platform columns, so one NumPy call prices a whole batch of
independent problem instances.  Both shapes compute subset totals with
:func:`masked_totals`, a strict left-to-right summation that is
invariant to trailing padding (NumPy's pairwise ``sum`` is not, so
sharing it is what makes a padded row reproduce the compressed
one-instance arrays float for float).
"""

from __future__ import annotations

import numpy as np

from ..types import ModelError
from .application import Workload
from .platform import Platform
from .powerlaw import miss_coefficients, pow_rowwise

__all__ = [
    "DominanceModel",
    "masked_total",
    "masked_totals",
    "cache_weights",
    "dominance_ratios",
    "is_dominant",
    "violating_applications",
    "optimal_cache_fractions",
    "bounded_optimal_cache_fractions",
]


def masked_totals(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Strict left-to-right totals of *values* under *masks*, along the last axis.

    The one summation discipline shared by one instance and a batch.
    A left-to-right accumulation is invariant to interleaved (and
    trailing-padding) zeros — ``x + 0.0 == x`` exactly — whereas
    NumPy's pairwise ``sum`` reassociates differently for a compressed
    length-``k`` array than for a padded length-``N`` row.  Using it
    everywhere is what makes a padded row of
    ``evict_until_dominant_batch`` bit-identical to its instance alone.
    """
    return np.add.accumulate(np.where(masks, values, 0.0), axis=-1)[..., -1]


def masked_total(values: np.ndarray, mask: np.ndarray) -> float:
    """:func:`masked_totals` of one ``(n,)`` mask, as a float."""
    return float(masked_totals(values, mask))


class DominanceModel:
    """Lemma 4's weights, Definition 4's ratios and Theorem 3's fractions.

    Built from ``(workload, platform)`` for one instance, or from
    ``(problem, problem.platforms)`` for a
    :class:`~repro.core.batch.BatchProblem`, whose padding gets weight
    0.  It binds the platform-dependent constants once — the miss
    coefficients ``d``, the thresholds ``d^(1/alpha)`` and the weight
    exponent ``1/(alpha+1)`` — and the :attr:`cache_weights` of the
    total work, so a solve prices its partition and its fractions from
    one model, and a caller re-weighting the same applications many
    times (the online engine, at every event, with their *remaining*
    work) evaluates only what depends on the work.
    """

    __slots__ = ("freq", "d", "weight_power", "thresholds", "no_threshold",
                 "cache_weights")

    def __init__(self, apps, platform):
        self.freq = apps.freq
        self.d = miss_coefficients(apps.miss0, apps.baseline_cache,
                                   platform.cache_size, platform.alpha)
        self.weight_power = 1.0 / (platform.alpha + 1.0)
        self.thresholds = pow_rowwise(self.d, 1.0 / platform.alpha)
        self.no_threshold = self.thresholds == 0.0
        self.cache_weights = self.weights(apps.work)

    def weights(self, work: np.ndarray) -> np.ndarray:
        """Weights ``(w_i f_i d_i)^(1/(alpha+1))`` for the work vector *work*."""
        return pow_rowwise(work * self.freq * self.d, self.weight_power)

    def ratios(self, weights: np.ndarray) -> np.ndarray:
        """Ratios ``weight_i / d_i^(1/alpha)`` of the given *weights*."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = weights / self.thresholds
        # d == 0: threshold is 0.  weight is 0 too (w*f*d == 0), 0/0 -> inf
        # by the convention of dominance_ratios.
        return np.where(self.no_threshold, np.inf, ratios)

    def fractions(self, masks: np.ndarray) -> np.ndarray:
        """Theorem-3 fractions of :attr:`cache_weights` over boolean *masks*.

        Each subset's fractions are its weights over its total, zeros
        outside it (so also for an empty subset).  Raises when a
        nonempty subset selects only zero-weight applications — such a
        subset cannot use the cache at all.
        """
        weights = self.cache_weights
        totals = masked_totals(weights, masks)
        bad = masks.any(axis=-1) & (totals <= 0.0)
        if bad.any():
            rows = f" in batch rows {np.flatnonzero(bad).tolist()}" if bad.ndim else ""
            raise ModelError(
                "cannot partition cache: every selected application has zero "
                f"weight (w*f*d == 0){rows}")
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(masks, weights / totals[..., None], 0.0)


def cache_weights(workload: Workload, platform: Platform) -> np.ndarray:
    """Per-application weights ``(w_i f_i d_i)^(1/(alpha+1))``.

    These are the unnormalized optimal cache shares of Lemma 4: within
    a subset ``IC`` the optimal fraction of application ``i`` is its
    weight divided by the subset's total weight.  Applications that
    never touch memory (``f == 0``) or never miss (``m0 == 0``) have
    weight 0.  :class:`DominanceModel` weighs other work vectors.
    """
    return DominanceModel(workload, platform).cache_weights


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
    return model.ratios(model.cache_weights)


def _weights_and_ratios(workload: Workload, platform: Platform):
    """``(cache_weights, dominance_ratios)`` from one model."""
    model = DominanceModel(workload, platform)
    return model.cache_weights, model.ratios(model.cache_weights)


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
    return DominanceModel(workload, platform).fractions(_as_mask(subset, workload.n))


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
