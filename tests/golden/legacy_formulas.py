"""The model's formulas as they were written twice, frozen as a test oracle.

Until each formula got one implementation for one instance and for a
batch, ``repro.core`` wrote most of the paper's closed forms twice: a
one-instance copy over a workload's ``(n,)`` columns and a ``*_batch``
twin over a :class:`~repro.core.batch.BatchProblem`'s padded ``(B, N)``
arrays, kept equal only by transcription.  This module keeps both
copies of every such formula verbatim -- the miss coefficient ``d``,
Eq. 1 with the footprint clamp, Eq. 2's access-cost factor, ``c_i``
and ``Exe_i`` (with ``estimate_horizon``'s inline copy), Lemma 4's
weights, Definition 4's ratios, Theorem 3's fractions and subset
totals, and the phase-clock step of both event kernels -- so
``test_formula_equivalence.py`` can assert, with ``==``, that the live
code still computes the same bits.

Methods are written as functions of their former ``self``; a call to
a method that no longer exists (``problem.miss_coefficients()``,
``workload.miss_coefficients(platform)``) calls this module's copy.
``pow_rowwise`` is copied too, so the oracle does not move with it.

Do not "fix" anything here: the point is to freeze the historical
arithmetic so any drift in the live formulas is caught exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.application import Workload
from repro.core.batch import BatchProblem
from repro.core.platform import Platform
from repro.core.processor_allocation import equal_finish_batch
from repro.simulate.kernel import (
    ABS_TOL,
    REL_TOL,
    AllocateFn,
    BatchPhaseKernelResult,
    CompleteFn,
    EventLog,
    PhaseKernelResult,
    TimelineFn,
    at_or_before,
)
from repro.types import ModelError


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


# -- d = m0 (C0/Cs)^alpha ---------------------------------------------------


def application_miss_coefficient(self, platform: Platform) -> float:
    """Return ``d = m0 * (C0 / Cs)^alpha`` for *platform*.

    ``d`` is the miss rate the application would see if it owned the
    *entire* LLC of the platform; with a fraction ``x`` of the LLC
    its miss rate is ``min(1, d / x^alpha)`` (Eq. 1 rewritten).
    """
    return self.miss_rate * (self.baseline_cache / platform.cache_size) ** platform.alpha


def workload_miss_coefficients(self, platform: Platform) -> np.ndarray:
    """Vector of ``d_i = m0_i * (C0_i / Cs)^alpha`` (read-write copy)."""
    return self.miss0 * (self.baseline_cache / platform.cache_size) ** platform.alpha


def batch_miss_coefficients(self) -> np.ndarray:
    """``BatchProblem.miss_coefficients`` without its per-problem cache."""
    d = self.miss0 * pow_rowwise(
        self.baseline_cache / self.cache_size[:, None], self.alpha)
    d.flags.writeable = False
    return d


# -- Eq. 1 and the footprint clamp ------------------------------------------


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


def _checked_fractions(workload: Workload, cache_fractions) -> np.ndarray:
    """*cache_fractions* as a float64 array of shape ``(n,)``, all >= 0."""
    x = np.asarray(cache_fractions, dtype=np.float64)
    if x.shape != (workload.n,):
        raise ModelError(f"cache_fractions must have shape ({workload.n},), got {x.shape}")
    if (x < 0).any():
        raise ModelError("cache fractions must be >= 0")
    return x


def _miss_rates(workload: Workload, platform: Platform, x: np.ndarray) -> np.ndarray:
    """:func:`miss_rates` for checked fractions *x*."""
    cache_bytes = np.minimum(x * platform.cache_size, workload.footprint)
    return power_law_miss_rates(workload.miss0, workload.baseline_cache,
                                cache_bytes, platform.alpha)


def miss_rates(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """Per-application miss rates for the given cache fractions.

    Applies both the power law and the footprint clamp: the bytes that
    actually count are ``min(x_i * Cs, a_i)``.
    """
    return _miss_rates(workload, platform, _checked_fractions(workload, cache_fractions))


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


# -- Eq. 2: the access-cost factor, c_i and Exe_i --------------------------


def _access_cost_factor(workload: Workload, platform: Platform, x: np.ndarray) -> np.ndarray:
    """:func:`access_cost_factor` for checked fractions *x*."""
    m = _miss_rates(workload, platform, x)
    return 1.0 + workload.freq * (
        platform.latency_cache + platform.latency_memory * m
    )


def access_cost_factor(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """Per-operation cost multiplier ``1 + f*(ls + ll*m(x))`` of Eq. 2."""
    return _access_cost_factor(workload, platform,
                               _checked_fractions(workload, cache_fractions))


def sequential_times(workload: Workload, platform: Platform, cache_fractions) -> np.ndarray:
    """``Exeseq_i(x_i) = Exe_i(1, x_i)`` for every application.

    This is the quantity the theory calls ``c_i``: total work times the
    access-cost factor, on a single processor.
    """
    return workload.work * access_cost_factor(workload, platform, cache_fractions)


def amdahl_flops(work, seq, procs):
    """Per-processor operation count ``Fl(p) = s*w + (1-s)*w/p``.

    Broadcasts over its arguments.  ``procs`` must be positive.
    """
    work = np.asarray(work, dtype=np.float64)
    seq = np.asarray(seq, dtype=np.float64)
    procs = np.asarray(procs, dtype=np.float64)
    if np.any(procs <= 0):
        raise ModelError("processor allocation must be positive")
    out = seq * work + (1.0 - seq) * work / procs
    if out.ndim == 0:
        return float(out)
    return out


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
    flops = amdahl_flops(workload.work, workload.seq, p)
    return flops * access_cost_factor(workload, platform, cache_fractions)


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
    if (problem.valid & (procs <= 0.0)).any():
        raise ModelError("processor allocation must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        flops = problem.seq * problem.work + (
            1.0 - problem.seq) * problem.work / procs
        times = flops * access_cost_factor_batch(problem, cache_fractions)
    return np.where(problem.valid, times, 0.0)


def equal_finish_allocation_batch(
    problem: BatchProblem, cache_fractions
) -> tuple[np.ndarray, np.ndarray]:
    """Batched equal-finish allocation for given cache fractions.

    Returns ``(procs, K)`` with ``procs`` of shape ``(B, N)`` (zeros in
    padding) and ``K`` the per-row makespans, shape ``(B,)``.
    """
    c = sequential_times_batch(problem, cache_fractions)
    return equal_finish_batch(problem.seq, c, problem.valid, problem.p)


def estimate_horizon(workload: Workload, platform: Platform,
                     arrivals: np.ndarray) -> float:
    """Pessimistic completion bound used as the fault-drawing horizon.

    Serialize everything — the fcfs worst case: each application runs
    alone on the whole machine with the whole cache (so its Eq. 2
    factor is its best one), its sequential phase on one processor —
    and double it to absorb crash-destroyed work and outage time.
    Faults are only drawn up to the horizon; a run outliving it
    (possible in principle, with enough lost work) simply sees a calm
    platform afterwards.  Tighter is better here: the horizon sets how
    many hazard-driven events are compiled, and with it the kernel's
    event budget.
    """
    factor_alone = access_cost_factor(workload, platform,
                                      np.ones(workload.n))
    serial = (workload.seq * workload.work
              + (1.0 - workload.seq) * workload.work / platform.p)
    return float(arrivals.max() + 2.0 * (serial * factor_alone).sum())


# -- Lemma 4's weights, Definition 4's ratios, Theorem 3 --------------------


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
        self.d = workload_miss_coefficients(workload, platform)
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
    d = batch_miss_coefficients(problem)
    base = problem.work * problem.freq * d
    return pow_rowwise(base, 1.0 / (problem.alpha + 1.0))


def dominance_ratios_batch(problem: "BatchProblem", *,
                           weights=None) -> np.ndarray:
    """Batched :func:`dominance_ratios`: ``(B, N)`` Definition-4 ratios.

    Pass precomputed *weights* (:func:`cache_weights_batch`) to skip
    recomputing them.
    """
    d = batch_miss_coefficients(problem)
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


def _as_mask(subset, n: int) -> np.ndarray:
    mask = np.asarray(subset)
    if mask.dtype != bool:
        idx = mask.astype(np.intp, copy=False)
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
    if mask.shape != (n,):
        raise ModelError(f"subset mask must have shape ({n},), got {mask.shape}")
    return mask


# -- the phase clock --------------------------------------------------------


def run_phase_kernel(
    work: np.ndarray,
    seq_work: np.ndarray,
    par_work: np.ndarray,
    *,
    allocate: AllocateFn,
    arrivals: np.ndarray | None = None,
    on_complete: CompleteFn | None = None,
    timeline: TimelineFn | None = None,
    max_events: int | None = None,
    budget_message: str = "simulation exceeded its event budget",
    log: EventLog | None = None,
) -> PhaseKernelResult:
    """Run the two-phase (sequential then parallel) event clock.

    Parameters
    ----------
    work : numpy.ndarray
        Total operations per application — the scale of each
        application's phase-boundary tolerance.
    seq_work, par_work : numpy.ndarray
        Initial remaining operations of the sequential / parallel
        phase (copied; the caller's arrays are not mutated).
    allocate : AllocateFn
        Reallocation hook, invoked on every event with the active set.
        Progress rates follow Eq. 2's convention: ``1 / factor`` during
        the sequential phase (for applications actually holding
        processors; an application allocated none stalls), ``procs /
        factor`` during the parallel phase.
    arrivals : numpy.ndarray, optional
        Per-application arrival instants; admission uses the canonical
        tolerance at the clock's scale.  ``None`` means everyone is
        present from the start (the offline convention: no admission
        events at all, not even at ``t == 0``).
    on_complete : CompleteFn, optional
        Invoked when an application finishes, before the next event.
    timeline : TimelineFn, optional
        Source of exogenous breakpoints (fault events, probe ticks):
        while work is in flight the step never crosses
        ``timeline(now)``, so ``allocate`` observes every exogenous
        instant.  During an idle gap (nothing arrived and unfinished)
        the clock still jumps straight to the next arrival — exogenous
        state is owned by the caller, who applies idle-gap events
        lazily (see :class:`repro.chaos.FaultInjector`).
    max_events : int, optional
        Event budget; exceeding it raises :class:`ModelError` with
        *budget_message*.  Defaults to ``20 * n + 10``.
    log : EventLog, optional
        Log to append to (a fresh one is created by default).
    """
    work = np.asarray(work, dtype=np.float64)
    n = work.size
    tol = ABS_TOL + REL_TOL * np.abs(work)
    seq_left = np.asarray(seq_work, dtype=np.float64).copy()
    par_left = np.asarray(par_work, dtype=np.float64).copy()
    if arrivals is None:
        # Everyone present from the start: no admission events, no
        # admission iteration — the offline convention.
        arrivals = np.zeros(n)
        arrived = np.ones(n, dtype=bool)
    else:
        arrivals = np.asarray(arrivals, dtype=np.float64)
        arrived = np.zeros(n, dtype=bool)
    finished = np.zeros(n, dtype=bool)
    finish = np.zeros(n)
    if log is None:
        log = EventLog()
    usage: list[tuple[float, float]] = []

    # Counts stand in for reductions over the masks: finished apps are
    # a subset of the arrived ones, so the active set is empty exactly
    # when the two counts agree.  Admission is monotone in the arrival
    # instant, so the earliest pending arrival decides whether any is
    # due; it changes only when someone is admitted.
    n_arrived = int(arrived.sum())
    n_finished = 0
    next_arrival = float(arrivals[~arrived].min()) if n_arrived < n else np.inf

    now = 0.0
    events = 0
    limit = max_events if max_events is not None else 20 * n + 10

    while n_finished < n:
        events += 1
        if events > limit:
            raise ModelError(budget_message)

        if n_arrived == n_finished:
            # Idle: jump the clock straight to the next arrival (an
            # exact assignment, not an accumulation).
            usage.append((now, 0.0))
            now = next_arrival
        else:
            active = arrived & ~finished
            procs, factors = allocate(now, active, seq_left, par_left)
            usage.append((now, float(procs[active].sum())))

            # Progress rates and per-application time to the next phase
            # boundary.  A queued application (no processors) stalls.
            in_seq = active & (seq_left > 0.0)
            in_par = active & (seq_left <= 0.0)
            rate = np.zeros(n)
            sel = in_seq & (procs > 0.0)
            rate[sel] = 1.0 / factors[sel]
            rate[in_par] = procs[in_par] / factors[in_par]
            remaining = np.where(in_seq, seq_left, par_left)
            running = active & (rate > 0.0)
            dt_finish = np.full(n, np.inf)
            dt_finish[running] = remaining[running] / rate[running]
            next_exo = np.inf if timeline is None else float(timeline(now))
            dt = min(float(dt_finish.min()), next_arrival - now, next_exo - now)
            if not math.isfinite(dt):
                raise ModelError(
                    "kernel stalled: no running application, pending arrival, "
                    "or exogenous event can advance the clock"
                )
            dt = max(dt, 0.0)
            now += dt

            # Advance everyone by dt, each in its current phase.
            left = np.maximum(remaining - rate * dt, 0.0)
            seq_left = np.where(in_seq, left, seq_left)
            par_left = np.where(in_par, left, par_left)

            # Phase transitions, with the canonical tolerance at the
            # scale of each application's total work; only the
            # applications that change phase are visited, in index order.
            seq_done = in_seq & (seq_left <= tol)
            seq_left[seq_done] = 0.0
            done = active & (seq_left == 0.0) & (par_left <= tol)
            par_left[done] = 0.0
            for i in (seq_done | done).nonzero()[0]:
                if seq_done[i]:
                    log.record(now, "seq-done", i)
                if done[i]:
                    finished[i] = True
                    finish[i] = now
                    n_finished += 1
                    log.record(now, "done", i)
                    if on_complete is not None:
                        on_complete(int(i), now, ~finished)

        # Admissions (after completions: an arrival coinciding with a
        # completion event joins the system the moment it frees up).
        if at_or_before(next_arrival, now):
            newly = ~arrived & at_or_before(arrivals, now)
            arrived |= newly
            for i in newly.nonzero()[0]:
                log.record(now, "arrival", i)
            n_arrived = int(arrived.sum())
            next_arrival = (float(arrivals[~arrived].min()) if n_arrived < n
                            else np.inf)

    return PhaseKernelResult(
        finish_times=finish,
        events=events,
        log=log,
        usage=usage,
        now=now,
    )


def run_phase_kernel_batch(
    work: np.ndarray,
    seq_work: np.ndarray,
    par_work: np.ndarray,
    *,
    procs: np.ndarray,
    factors: np.ndarray,
    valid: np.ndarray | None = None,
    max_events: int | np.ndarray | None = None,
    budget_message: str = "simulation exceeded its event budget",
) -> BatchPhaseKernelResult:
    """Advance ``B`` static-allocation phase clocks in lockstep.

    The batched twin of :func:`run_phase_kernel` for its hot special
    case — everyone present from the start (no arrivals) and a fixed
    allocation (no reallocation or completion hooks): each global
    iteration advances every still-running row by that row's own next
    event, exactly as the scalar loop would, so per-row finish times,
    clocks, and event counts are **bit-identical** to running the
    scalar kernel row by row (same elementwise rate/progress
    expressions, per-row minima over the same values, and dt == 0.0
    no-op advances once a row is done).

    Parameters
    ----------
    work, seq_work, par_work : numpy.ndarray
        ``(B, N)`` padded arrays (see :class:`repro.core.batch.BatchProblem`);
        *work* sets each cell's phase-boundary tolerance scale.
    procs, factors : numpy.ndarray
        Static per-cell processor allocation and Eq. 2 access factors.
    valid : numpy.ndarray, optional
        Boolean ``(B, N)`` mask of real cells; padding is treated as
        finished from the start.  Default: everything valid.
    max_events : int or numpy.ndarray, optional
        Per-row event budget (broadcast from a scalar); exceeding it
        raises :class:`ModelError` with *budget_message*.  Defaults to
        ``20 * n_row + 10``.
    """
    work = np.asarray(work, dtype=np.float64)
    if work.ndim != 2:
        raise ModelError(
            f"batch kernel expects (B, N) arrays, got shape {work.shape}")
    B, n = work.shape
    seq_left = np.asarray(seq_work, dtype=np.float64).copy()
    par_left = np.asarray(par_work, dtype=np.float64).copy()
    procs = np.asarray(procs, dtype=np.float64)
    factors = np.asarray(factors, dtype=np.float64)
    if valid is None:
        valid = np.ones((B, n), dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
    counts = valid.sum(axis=1)
    if max_events is None:
        limits = 20 * counts + 10
    else:
        limits = np.broadcast_to(np.asarray(max_events), (B,))
    tol = ABS_TOL + REL_TOL * np.abs(work)

    finished = ~valid  # padding is done before the clock starts
    finish = np.zeros((B, n))
    now = np.zeros(B)
    events = np.zeros(B, dtype=np.intp)

    while True:
        live = ~finished.all(axis=1)
        if not live.any():
            break
        events = np.where(live, events + 1, events)
        if (live & (events > limits)).any():
            raise ModelError(budget_message)
        active = valid & ~finished

        # Rates, exactly as the scalar kernel: one-processor speed in
        # the sequential phase (only while holding processors),
        # Amdahl-parallel speed after.
        in_seq = active & (seq_left > 0.0)
        in_par = active & (seq_left <= 0.0)
        rate = np.zeros((B, n))
        sel = in_seq & (procs > 0.0)
        rate[sel] = 1.0 / factors[sel]
        rate[in_par] = procs[in_par] / factors[in_par]
        remaining = np.where(in_seq, seq_left, par_left)
        running = active & (rate > 0.0)
        dt_finish = np.full((B, n), np.inf)
        dt_finish[running] = remaining[running] / rate[running]
        dt = np.maximum(dt_finish.min(axis=1), 0.0)
        dt = np.where(live, dt, 0.0)
        now = now + dt

        # Advance, then apply phase transitions with the canonical
        # per-cell tolerance.
        progress = rate * dt[:, None]
        seq_left = np.where(
            in_seq, np.maximum(seq_left - progress, 0.0), seq_left)
        par_left = np.where(
            in_par, np.maximum(par_left - progress, 0.0), par_left)
        seq_left = np.where(in_seq & (seq_left <= tol), 0.0, seq_left)
        done = active & (seq_left == 0.0) & (par_left <= tol)
        par_left = np.where(done, 0.0, par_left)
        finish = np.where(done, now[:, None], finish)
        finished |= done

    return BatchPhaseKernelResult(finish_times=finish, events=events, now=now)
