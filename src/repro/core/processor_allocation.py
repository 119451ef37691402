"""Processor allocation: Lemma 2 and the equal-finish solve.

Two regimes:

* **Perfectly parallel** (``s_i = 0``): Lemma 2 gives the closed form
  ``p_i = p * c_i / sum_j c_j`` with ``c_i = Exe_i(1, x_i)``, and the
  common makespan is ``sum_i c_i / p`` (Lemma 3).

* **Amdahl** (``s_i > 0`` allowed): Section 5 of the paper imposes the
  equal-finish property and solves ``sum_i (1-s_i) / (K/c_i - s_i) = p``
  for the makespan ``K`` by binary search; each application then gets
  ``p_i = (1-s_i) / (K/c_i - s_i)`` processors.

The left-hand side ``g(K)`` is strictly decreasing in ``K`` on
``(max_i s_i c_i, inf)`` and tends to ``sum_i (1-s_i) * c_i / K -> 0``,
so a unique root exists for every ``p > 0``.  We bracket it with the
paper's bounds (every application on ``p`` processors, respectively on
1 processor — expanded geometrically when ``n > p`` makes the upper
bound insufficient).

Root finder
-----------
The solver is a safeguarded Newton-bisection implemented directly on
``(B, N)`` arrays — :func:`equal_finish_batch` solves a whole batch of
independent instances in lockstep, and the scalar entry points route
through it as a batch of one, which is what makes the scalar and batch
paths bit-identical by construction.  ``g`` is convex
and decreasing on the bracket, so a Newton step from the left bracket
edge can never overshoot the root; whenever the step is unusable
(singular ``g``, out of bracket) the iteration falls back to plain
bisection, keeping convergence guaranteed.  The paper's literal
binary search and SciPy's ``brentq`` are not shipped: the paper-claim
row ``equal-finish-brentq-matches-bisect`` keeps them as references
and holds this solver to both.

The scalar path (:func:`_equal_finish_single`) is also the online
engine's re-solve: :func:`repro.online.allocation.remaining_equal_finish`
maps an application's remaining work onto ``(s_i, c_i)`` and calls it,
so offline and online share one equal-finish kernel.

Unlike the dominant heuristics, whose scalar entry points are plain
batches of one, the equal-finish solve keeps this Python-float path
for ``B == 1``: the vectorized body at one row is 4-5x slower (about
175 -> 670-1180 us at n = 4 and 200-245 -> 930-1300 us at n = 16, on
a 2-CPU container with Python 3.11 and numpy 2.4), and the online
engine's re-solves and the service's one-request batches are one-row
solves, hundreds per chaos round or request burst (the experiment
engine batches a whole figure grid per scheduler).  ``B`` selects the
path; both give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from ..types import SolverError
from .application import Workload
from .execution import sequential_times
from .platform import Platform
from .schedule import Schedule

__all__ = [
    "lemma2_processor_allocation",
    "perfectly_parallel_makespan",
    "equal_finish_makespan",
    "equal_finish_allocation",
    "equal_finish_batch",
    "build_equal_finish_schedule",
    "XTOL",
]

#: Relative tolerance on the makespan ``K`` of every equal-finish solve.
#: One value for the scalar and the batch path, which is part of what
#: keeps them bit-identical.
XTOL = 1e-12


def lemma2_processor_allocation(
    workload: Workload, platform: Platform, cache_fractions
) -> np.ndarray:
    """Closed-form allocation ``p_i = p * c_i / sum_j c_j`` (Lemma 2).

    Exactly optimal for perfectly parallel applications; used as the
    paper does — a guide — otherwise.
    """
    c = sequential_times(workload, platform, cache_fractions)
    return platform.p * c / c.sum()


def perfectly_parallel_makespan(
    workload: Workload, platform: Platform, cache_fractions
) -> float:
    """Makespan ``(1/p) sum_i Exe_i(1, x_i)`` of Lemma 3."""
    c = sequential_times(workload, platform, cache_fractions)
    return float(c.sum() / platform.p)


def equal_finish_batch(
    seq: np.ndarray,
    c: np.ndarray,
    valid: np.ndarray,
    p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized equal-finish solve for a batch of independent instances.

    Parameters
    ----------
    seq, c : (B, N) float arrays
        Sequential fractions and single-processor times, padded to the
        widest instance.
    valid : (B, N) bool array
        Prefix validity mask (True for real applications, False for
        padding).  Every row needs at least one valid application.
    p : (B,) float array
        Per-row processor budget.

    Returns
    -------
    (procs, K)
        ``procs`` is ``(B, N)`` with zeros in padding; ``K`` is ``(B,)``.

    All row-wise reductions (totals via left-to-right accumulation,
    maxima over ``-inf``-filled padding) are invariant to trailing
    padding, so a row of this solver reproduces the scalar path float
    for float — the scalar entry points below *are* this function at
    ``B = 1``.
    """
    seq = np.asarray(seq, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    p = np.asarray(p, dtype=np.float64)
    B, N = c.shape
    counts = valid.sum(axis=1)
    if (counts < 1).any():
        raise SolverError("every batch row needs at least one valid application")

    if B == 1:
        # Scalar fast path: the same algorithm on Python floats (see
        # _equal_finish_single) — array-op dispatch overhead dominates
        # at B == 1.  Bit-identical to the vectorized body below, which
        # the golden batch-equivalence sweep asserts.
        idx = np.flatnonzero(valid[0])
        procs_row, K1 = _equal_finish_single(
            seq[0, idx].tolist(), c[0, idx].tolist(), float(p[0]))
        procs = np.zeros((1, N))
        procs[0, idx] = procs_row
        return procs, np.array([K1])
    one_minus = np.where(valid, 1.0 - seq, 0.0)
    pcol = p[:, None]

    def demand(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``(g(K) - p, g'(K))``; ``(+inf, -inf)`` past the pole."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = K[:, None] / c - seq
            term = np.where(valid, one_minus / denom, 0.0)
            slope = np.where(valid, term / (denom * c), 0.0)
        bad = (valid & (denom <= 0.0)).any(axis=1)
        f = np.where(bad, np.inf, np.add.accumulate(term, axis=1)[:, -1] - p)
        fp = np.where(bad, -np.inf, -np.add.accumulate(slope, axis=1)[:, -1])
        return f, fp

    # Lower bound: every application on all p processors (finishing
    # earlier than that is impossible).  -inf fill keeps the row maxima
    # padding-invariant.
    lo = np.where(valid, (seq + (1.0 - seq) / pcol) * c, -np.inf).max(axis=1)
    # Upper bound: every application on one processor.
    hi = np.where(valid, c, -np.inf).max(axis=1)
    hi = np.where(hi <= lo, lo * (1.0 + 1e-9) + 1e-300, hi)

    K = lo.copy()
    # One application takes the whole machine: K is the closed form
    # (s + (1-s)/p) * c, which is exactly this row's lo.
    single = counts == 1
    f_lo, fp_lo = demand(lo)
    # Degenerate rows: even the fastest possible finish needs fewer than
    # p processors in total; the solution saturates at lo.
    active = ~(single | (f_lo <= 0.0))

    # Expand hi geometrically for rows where one processor each is not
    # enough (n > p).
    expansions = np.zeros(B, dtype=np.int64)
    while True:
        f_hi, _ = demand(hi)
        need = active & (f_hi > 0.0)
        if not need.any():
            break
        hi = np.where(need, hi * 2.0, hi)
        expansions[need] += 1
        if (expansions > 200).any():
            raise SolverError("could not bracket the equal-finish makespan")

    # Safeguarded pincer iteration in lockstep.  g is convex decreasing
    # on the bracket, so a Newton step from the left edge a (where
    # f(a) > 0) never overshoots the root, and the chord between the
    # bracket edges lies above the curve — its zero crossing is always a
    # valid new right edge.  Alternating the two closes the bracket from
    # both sides superlinearly; midpoint bisection is the safeguard
    # whenever either step is unusable.  Converged rows are frozen with
    # np.where so later iterations cannot drift them — which keeps every
    # row's trajectory identical to solving it alone.
    a = lo.copy()
    b = hi.copy()
    fa, fpa = f_lo, fp_lo
    fb = f_hi
    live = active.copy()
    for it in range(200):
        live &= (b - a) > XTOL * np.maximum(1.0, a)
        if not live.any():
            break
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            newton = a - fa / fpa
            falsepos = a + fa * (b - a) / (fa - fb)
        n_ok = np.isfinite(newton) & (newton > a) & (newton < b)
        f_ok = np.isfinite(falsepos) & (falsepos > a) & (falsepos < b)
        mid = 0.5 * (a + b)
        if it % 2 == 0:
            cand = np.where(n_ok, newton, np.where(f_ok, falsepos, mid))
        else:
            cand = np.where(f_ok, falsepos, np.where(n_ok, newton, mid))
        fc, fpc = demand(np.where(live, cand, a))
        hit = live & (fc == 0.0)
        move_a = live & (fc > 0.0)
        move_b = live & ~move_a
        a = np.where(move_a | hit, cand, a)
        fa = np.where(move_a, fc, fa)
        fpa = np.where(move_a, fpc, fpa)
        b = np.where(move_b, cand, b)
        fb = np.where(move_b, fc, fb)
    K = np.where(active, 0.5 * (a + b), K)

    # Allocation: p_i = (1-s_i) / (K/c_i - s_i), clamped exactly like the
    # scalar path, with leftover processors rescaled proportionally.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = np.maximum(K[:, None] / c - seq, 1e-300)
        procs = np.where(valid, np.maximum(one_minus / denom, 1e-9), 0.0)
    totals = np.add.accumulate(procs, axis=1)[:, -1]
    scale = np.where(totals > p, p / totals, 1.0)
    procs = procs * scale[:, None]
    if single.any():
        rows = np.flatnonzero(single)
        procs[rows, :] = 0.0
        procs[rows, valid.argmax(axis=1)[rows]] = p[rows]
    return procs, K


def _equal_finish_single(seq, c, p):
    """:func:`equal_finish_batch` for one instance, on Python floats.

    Exact transcription of the vectorized body for a single row —
    Python floats and NumPy float64 are both IEEE doubles, the
    left-to-right accumulations become plain loops, and every branch
    decision mirrors the np.where masks, so the two produce identical
    bits.  Exists because array-op dispatch overhead at ``B == 1``
    would otherwise dominate the scalar scheduling path, which includes
    every online re-solve
    (:func:`repro.online.allocation.remaining_equal_finish`).
    """
    n = len(c)
    one_minus = [1.0 - s for s in seq]
    rows = list(zip(c, seq, one_minus))

    def demand(K):
        f = 0.0
        fp = 0.0
        for ci, s, om in rows:
            denom = K / ci - s
            if denom <= 0.0:
                return math.inf, -math.inf
            term = om / denom
            f += term
            fp += term / (denom * ci)
        return f - p, -fp

    lo = max((s + (1.0 - s) / p) * ci for s, ci in zip(seq, c))
    if n == 1:
        return [p], lo
    hi = max(c)
    if hi <= lo:
        hi = lo * (1.0 + 1e-9) + 1e-300

    K = lo
    fa, fpa = demand(lo)
    if fa > 0.0:
        expansions = 0
        while True:
            fb, _ = demand(hi)
            if fb <= 0.0:
                break
            hi *= 2.0
            expansions += 1
            if expansions > 200:
                raise SolverError("could not bracket the equal-finish makespan")
        a, b = lo, hi
        for it in range(200):
            if not (b - a) > XTOL * max(1.0, a):
                break
            newton = a - fa / fpa if fpa != 0.0 else math.inf
            n_ok = math.isfinite(newton) and a < newton < b
            if fa != fb:
                falsepos = a + fa * (b - a) / (fa - fb)
            else:
                falsepos = math.inf
            f_ok = math.isfinite(falsepos) and a < falsepos < b
            mid = 0.5 * (a + b)
            if it % 2 == 0:
                cand = newton if n_ok else (falsepos if f_ok else mid)
            else:
                cand = falsepos if f_ok else (newton if n_ok else mid)
            fc, fpc = demand(cand)
            if fc > 0.0:
                a, fa, fpa = cand, fc, fpc
            else:
                b, fb = cand, fc
                if fc == 0.0:
                    a = cand
        K = 0.5 * (a + b)

    procs = [max(om / max(K / ci - s, 1e-300), 1e-9)
             for om, s, ci in zip(one_minus, seq, c)]
    total = 0.0
    for q in procs:
        total += q
    if total > p:
        scale = p / total
        procs = [q * scale for q in procs]
    return procs, K


def equal_finish_makespan(
    workload: Workload,
    platform: Platform,
    cache_fractions,
) -> float:
    """Solve ``g(K) = p`` for the equal-finish makespan ``K``.

    The vectorized Newton-bisection of :func:`equal_finish_batch` on a
    batch of one, to relative tolerance :data:`XTOL` on ``K``.

    Returns
    -------
    float
        The common finish time ``K``.
    """
    seq = workload.seq
    c = sequential_times(workload, platform, cache_fractions)
    p = platform.p

    if workload.n == 1:
        # One application takes the whole machine.
        return float((seq[0] + (1.0 - seq[0]) / p) * c[0])

    _, K = equal_finish_batch(
        seq[None, :], c[None, :],
        np.ones((1, workload.n), dtype=bool),
        np.array([float(p)]))
    return float(K[0])


def equal_finish_allocation(
    workload: Workload,
    platform: Platform,
    cache_fractions,
) -> tuple[np.ndarray, float]:
    """Processor allocation making all applications finish together.

    Returns ``(procs, makespan)`` where
    ``procs_i = (1-s_i) / (K/c_i - s_i)`` and ``K`` solves ``g(K)=p``.
    When the solution saturates (fewer than ``p`` processors needed in
    total), leftover processors are spread proportionally — they change
    nothing for perfectly parallel apps already at their bound and keep
    the schedule feasible.
    """
    c = sequential_times(workload, platform, cache_fractions)
    procs, K = equal_finish_batch(
        workload.seq[None, :], c[None, :],
        np.ones((1, workload.n), dtype=bool),
        np.array([float(platform.p)]))
    return procs[0].copy(), float(K[0])


def build_equal_finish_schedule(
    workload: Workload,
    platform: Platform,
    cache_fractions,
) -> Schedule:
    """Construct the :class:`Schedule` for a given cache partition.

    This is the final step shared by every co-scheduling heuristic in
    the paper: fractions come from the partitioning strategy, processors
    from the equal-finish solver.
    """
    procs, _ = equal_finish_allocation(workload, platform, cache_fractions)
    return Schedule(workload, platform, procs, cache_fractions)
