"""Equal-finish allocation over *remaining* work.

An online scheduler reallocates mid-flight, when each application has
some sequential and parallel operations left.  With a cache fraction
fixing the access factor ``factor_i`` (Eq. 2's per-operation cost), the
time for application ``i`` to finish on ``p_i`` processors is

    ``t_i = factor_i * (seq_left_i + par_left_i / p_i)``.

Writing ``c_i = factor_i * (seq_left_i + par_left_i)`` (the remaining
time on one processor) and ``s_i = factor_i * seq_left_i / c_i`` (its
sequential share) turns this into the offline Section 5 model term for
term, so the horizon ``K`` solves the same equation
``sum_i (1-s_i) / (K/c_i - s_i) = p``.  There is no second root finder:
the solve goes through the scalar Newton/false-position kernel of
:mod:`repro.core.processor_allocation`.
"""

from __future__ import annotations

import numpy as np

from ..core.processor_allocation import _equal_finish_single
from ..types import ModelError

__all__ = ["remaining_equal_finish"]

_EPS_PROC = 1e-9


def remaining_equal_finish(
    seq_ops,
    par_ops,
    factors,
    p: float,
) -> tuple[np.ndarray, float]:
    """Processors equalizing the finish of partially executed apps.

    Parameters
    ----------
    seq_ops, par_ops : array_like
        Remaining sequential / parallel operations (>= 0; at least one
        of the two positive per application).
    factors : array_like
        Per-operation access-cost factors (> 0).
    p : float
        Processors available.

    Returns
    -------
    (procs, horizon)
        Positive allocations summing to <= p and the common remaining
        time ``K`` (relative to now).
    """
    seq = np.asarray(seq_ops, dtype=np.float64)
    par = np.asarray(par_ops, dtype=np.float64)
    fac = np.asarray(factors, dtype=np.float64)
    if not (seq.shape == par.shape == fac.shape) or seq.ndim != 1 or seq.size == 0:
        raise ModelError("seq_ops, par_ops, factors must be equal-length 1-D arrays")
    if (seq < 0).any() or (par < 0).any() or (fac <= 0).any():
        raise ModelError("remaining ops must be >= 0 and factors > 0")
    if ((seq == 0) & (par == 0)).any():
        raise ModelError("finished applications must be removed before reallocating")
    if p <= 0:
        raise ModelError(f"p must be positive, got {p}")

    seq_time = seq * fac          # time of the remaining sequential part
    par_work = par * fac          # processor-time of the parallel part

    if (par_work == 0).all():
        # Only sequential tails left: processors are irrelevant.
        procs = np.full(seq.size, _EPS_PROC)
        return procs, float(seq_time.max())

    # The kernel clamps every share at _EPS_PROC before rescaling to p.
    c = seq_time + par_work
    procs, K = _equal_finish_single(
        (seq_time / c).tolist(), c.tolist(), float(p))
    return np.array(procs), float(K)
