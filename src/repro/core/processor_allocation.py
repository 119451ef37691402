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

Root finders
------------
``"hybrid"`` (default) is a safeguarded Newton-bisection implemented
directly on ``(B, N)`` arrays — :func:`equal_finish_batch` solves a
whole batch of independent instances in lockstep, and the scalar entry
points route through it as a batch of one, which is what makes the
scalar and batch paths bit-identical by construction.  ``g`` is convex
and decreasing on the bracket, so a Newton step from the left bracket
edge can never overshoot the root; whenever the step is unusable
(singular ``g``, out of bracket) the iteration falls back to plain
bisection, keeping convergence guaranteed.  ``"brentq"`` (SciPy) and
``"bisect"`` (the paper's literal binary search) are retained for the
solver-ablation benchmark; SciPy is imported only on the ``"brentq"``
branch, so the package itself does not load it.

The scalar path (:func:`_equal_finish_single`) is also the online
engine's re-solve: :func:`repro.online.allocation.remaining_equal_finish`
maps an application's remaining work onto ``(s_i, c_i)`` and calls it,
so offline and online share one equal-finish kernel.

Unlike the dominant heuristics, whose scalar entry points are plain
batches of one, the equal-finish solve keeps this Python-float path
for ``B == 1``: the vectorized body at one row is 4-5x slower (about
175 -> 670-1180 us at n = 4 and 200-245 -> 930-1300 us at n = 16, on
a 2-CPU container with Python 3.11 and numpy 2.4), and the experiment
engine, the online engine and the service make hundreds of one-row
solves per figure sweep or chaos round.  ``B`` selects the path; both
give the same bits.
"""

from __future__ import annotations

from typing import Callable

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
    "processor_demand",
]


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


def processor_demand(seq: np.ndarray, c: np.ndarray, makespan: float) -> float:
    """Total processors needed for every app to finish at *makespan*.

    Evaluates ``g(K) = sum_i (1-s_i) / (K/c_i - s_i)``.  Infinite when
    ``K <= s_i * c_i`` for some ``i`` (no processor count suffices).
    Applications whose work is entirely sequential (``s_i == 1``)
    contribute 0 processors-of-demand beyond feasibility: they finish at
    ``c_i`` regardless, so ``K >= c_i`` is required and the demand is
    the limit value 0 there.
    """
    denom = makespan / c - seq
    if np.any(denom <= 0):
        return np.inf
    return float(((1.0 - seq) / denom).sum())


def equal_finish_batch(
    seq: np.ndarray,
    c: np.ndarray,
    valid: np.ndarray,
    p: np.ndarray,
    *,
    xtol: float = 1e-12,
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
    xtol : float
        Relative tolerance on the makespan ``K``.

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
            seq[0, idx].tolist(), c[0, idx].tolist(), float(p[0]), xtol)
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
        live &= (b - a) > xtol * np.maximum(1.0, a)
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


def _equal_finish_single(seq, c, p, xtol):
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

    def demand(K):
        f = 0.0
        fp = 0.0
        for i in range(n):
            denom = K / c[i] - seq[i]
            if denom <= 0.0:
                return np.inf, -np.inf
            term = one_minus[i] / denom
            f += term
            fp += term / (denom * c[i])
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
            if not (b - a) > xtol * max(1.0, a):
                break
            newton = a - fa / fpa if fpa != 0.0 else np.inf
            n_ok = np.isfinite(newton) and a < newton < b
            if fa != fb:
                falsepos = a + fa * (b - a) / (fa - fb)
            else:
                falsepos = np.inf
            f_ok = np.isfinite(falsepos) and a < falsepos < b
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
    *,
    xtol: float = 1e-12,
    method: str = "hybrid",
) -> float:
    """Solve ``g(K) = p`` for the equal-finish makespan ``K``.

    Parameters
    ----------
    workload, platform, cache_fractions
        The co-schedule being priced.
    xtol : float
        Relative tolerance on ``K``.
    method : {"hybrid", "brentq", "bisect"}
        Root finder.  ``"hybrid"`` (default) is the vectorized
        Newton-bisection shared with :func:`equal_finish_batch`;
        ``"bisect"`` is the paper's literal binary search and
        ``"brentq"`` the previous SciPy default, both kept for the
        solver-ablation benchmark.

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

    if method == "hybrid":
        _, K = equal_finish_batch(
            seq[None, :], c[None, :],
            np.ones((1, workload.n), dtype=bool),
            np.array([float(p)]), xtol=xtol)
        return float(K[0])

    # Lower bound: every application on all p processors (finishing
    # earlier than that is impossible).  Strictly above the singularity
    # max_i s_i * c_i, so g(lo) is finite and >= p.
    lo = float(((seq + (1.0 - seq) / p) * c).max())
    # Upper bound: every application on one processor; expand when
    # n > p makes even that insufficient.
    hi = float(c.max())
    if hi <= lo:
        hi = lo * (1.0 + 1e-9) + 1e-300
    g = lambda K: processor_demand(seq, c, K) - p  # noqa: E731
    g_lo = g(lo)
    if g_lo <= 0:
        # Degenerate: even the fastest possible finish needs fewer than
        # p processors in total (can happen when n is tiny and the
        # budget huge); the equal-finish solution then saturates at lo.
        return lo
    expansions = 0
    while g(hi) > 0:
        hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise SolverError("could not bracket the equal-finish makespan")

    if method == "bisect":
        return _bisect(g, lo, hi, xtol=xtol)
    if method != "brentq":
        raise ValueError(f"unknown method {method!r}")
    from scipy.optimize import brentq  # deferred: only this ablation needs scipy

    try:
        return float(brentq(g, lo, hi, xtol=max(xtol * lo, 1e-300), rtol=1e-14))
    except ValueError as exc:  # pragma: no cover - bracket guaranteed above
        raise SolverError(f"brentq failed on [{lo}, {hi}]: {exc}") from exc


def _bisect(g: Callable[[float], float], lo: float, hi: float, *, xtol: float) -> float:
    """Plain binary search on a decreasing function, paper-style."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def equal_finish_allocation(
    workload: Workload,
    platform: Platform,
    cache_fractions,
    *,
    method: str = "hybrid",
) -> tuple[np.ndarray, float]:
    """Processor allocation making all applications finish together.

    Returns ``(procs, makespan)`` where
    ``procs_i = (1-s_i) / (K/c_i - s_i)`` and ``K`` solves ``g(K)=p``.
    When the solution saturates (fewer than ``p`` processors needed in
    total), leftover processors are spread proportionally — they change
    nothing for perfectly parallel apps already at their bound and keep
    the schedule feasible.
    """
    seq = workload.seq
    c = sequential_times(workload, platform, cache_fractions)
    if method == "hybrid":
        procs2, K2 = equal_finish_batch(
            seq[None, :], c[None, :],
            np.ones((1, workload.n), dtype=bool),
            np.array([float(platform.p)]))
        return procs2[0].copy(), float(K2[0])
    K = equal_finish_makespan(workload, platform, cache_fractions, method=method)
    if workload.n == 1:
        return np.array([float(platform.p)]), K
    denom = K / c - seq
    # Guard against roundoff putting a denominator at/below zero for the
    # slowest application: clamp to the smallest positive share.
    denom = np.maximum(denom, 1e-300)
    procs = (1.0 - seq) / denom
    # A fully sequential application (s == 1) demands 0 processors in
    # the limit; give it an epsilon so the schedule stays valid.
    procs = np.maximum(procs, 1e-9)
    total = procs.sum()
    if total > platform.p:
        procs *= platform.p / total
    return procs, float(K)


def build_equal_finish_schedule(
    workload: Workload,
    platform: Platform,
    cache_fractions,
    *,
    method: str = "hybrid",
) -> Schedule:
    """Construct the :class:`Schedule` for a given cache partition.

    This is the final step shared by every co-scheduling heuristic in
    the paper: fractions come from the partitioning strategy, processors
    from the equal-finish solver.
    """
    procs, _ = equal_finish_allocation(workload, platform, cache_fractions, method=method)
    return Schedule(workload, platform, procs, cache_fractions)
