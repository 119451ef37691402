"""Verbatim pre-kernel reference implementations of the phase clock.

These are the hand-rolled time-stepping loops that ``repro`` shipped
before the unified event kernel (:mod:`repro.simulate.kernel`):

* the offline phase loop of ``repro/simulate/engine.py``,
* the online arrival loop of ``repro/online/engine.py``.

They exist only as golden references: the ``kernel_equivalence`` test
suite re-runs seeded sweeps through both the legacy loops below and the
kernel-backed engines and asserts **bit-identical** results.  Do not
"fix" bugs here — the point is to freeze the historical arithmetic
(including its quirks) so any drift in the refactor is caught exactly.

It also freezes the online engine's former bisection equal-finish
solve (:func:`legacy_remaining_equal_finish`), which the property tests
of ``tests/online/test_allocation.py`` use as an oracle.

The single intentional divergence class: the legacy loops' epsilon
handling (relative-only arrival admission, per-loop tolerances) differs
from the kernel's canonical abs+rel tolerance on razor-edge instances
that the seeded sweeps never produce; dedicated regression tests cover
those edges separately.
"""

from __future__ import annotations

import numpy as np

from repro.core.application import Workload
from repro.core.execution import access_cost_factor
from repro.core.registry import get_entry, scheduler_names
from repro.online.allocation import remaining_equal_finish
from repro.types import ModelError, SolverError

_EPS = 1e-12
_REL_EPS = 1e-12


# ---------------------------------------------------------------------------
# Legacy offline engine (repro/simulate/engine.py before the kernel).
# ---------------------------------------------------------------------------

def legacy_simulate_schedule(schedule, *, policy="static"):
    """The pre-kernel ``simulate_schedule`` loop, verbatim.

    Returns ``(finish_times, events, peak_processors)``.
    """
    if policy not in ("static", "work-conserving"):
        raise ModelError(f"unknown policy {policy!r}")
    wl = schedule.workload
    n = wl.n
    factor = access_cost_factor(wl, schedule.platform, schedule.cache)

    seq_left = wl.seq * wl.work
    par_left = (1.0 - wl.seq) * wl.work
    procs = schedule.procs.astype(np.float64).copy()
    in_seq = seq_left > 0.0
    running = np.ones(n, dtype=bool)

    finish = np.zeros(n)
    events: list[tuple[float, str, int]] = []
    now = 0.0
    peak = float(procs.sum())

    for _ in range(2 * n + 1):
        if not running.any():
            break
        rate = np.where(in_seq, 1.0 / factor, procs / factor)
        remaining = np.where(in_seq, seq_left, par_left)
        dt = np.where(running, remaining / np.maximum(rate, _EPS), np.inf)
        step = float(dt[running].min())
        now += step
        progressed = rate * step
        seq_progress = np.where(running & in_seq, progressed, 0.0)
        par_progress = np.where(running & ~in_seq, progressed, 0.0)
        seq_left = np.maximum(seq_left - seq_progress, 0.0)
        par_left = np.maximum(par_left - par_progress, 0.0)

        for i in np.flatnonzero(running):
            if in_seq[i] and seq_left[i] <= _EPS * wl.work[i]:
                seq_left[i] = 0.0
                in_seq[i] = False
                events.append((now, "seq-done", int(i)))
            if not in_seq[i] and par_left[i] <= _EPS * wl.work[i]:
                par_left[i] = 0.0
                if running[i]:
                    running[i] = False
                    finish[i] = now
                    events.append((now, "done", int(i)))
                    if policy == "work-conserving" and running.any():
                        freed = procs[i]
                        procs[i] = 0.0
                        share = procs[running]
                        total = float(share.sum())
                        if total > 0:
                            procs[running] += freed * share / total
    else:  # pragma: no cover - safety net
        raise ModelError("simulation failed to converge (phase loop exhausted)")

    return finish, events, peak


# ---------------------------------------------------------------------------
# Legacy online engine (repro/online/engine.py before the kernel).
# ---------------------------------------------------------------------------

def _legacy_dominant_fractions_remaining(workload, platform, active, work_left):
    d = workload.miss_coefficients(platform)
    base = work_left * workload.freq * d
    weights = base ** (1.0 / (platform.alpha + 1.0))
    thresholds = d ** (1.0 / platform.alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(thresholds > 0, weights / thresholds, np.inf)

    mask = active & (weights > 0)
    while mask.any():
        total = float(weights[mask].sum())
        violating = mask & (ratios <= total)
        if not violating.any():
            break
        idx = np.flatnonzero(violating)
        mask[idx[np.argmin(ratios[idx])]] = False

    x = np.zeros(workload.n)
    if mask.any():
        total = float(weights[mask].sum())
        x[mask] = weights[mask] / total
    return x


def _legacy_registry_allocation(workload, platform, idx, seq_left, par_left,
                                policy, rng):
    try:
        entry = get_entry(policy)
    except ModelError:
        raise ModelError(
            f"unknown policy {policy!r}; builtin policies: dominant, fair, "
            f"fcfs, plus any registered concurrent scheduler "
            f"({', '.join(scheduler_names())})"
        ) from None
    snapshot = Workload(
        workload[int(i)].scaled(
            work=float(seq_left[i] + par_left[i]),
            seq_fraction=float(seq_left[i] / (seq_left[i] + par_left[i])),
        )
        for i in idx
    )
    schedule = entry(snapshot, platform, rng)
    if not schedule.concurrent:
        raise ModelError(
            f"policy {policy!r} builds a sequential schedule; the online "
            "engine needs a concurrent strategy (use 'fcfs' instead)"
        )
    n = workload.n
    procs = np.zeros(n)
    cache = np.zeros(n)
    procs[idx] = schedule.procs
    cache[idx] = schedule.cache
    return procs, cache


def _legacy_allocate(workload, platform, active, seq_left, par_left, policy,
                     fcfs_order, rng):
    n = workload.n
    procs = np.zeros(n)
    cache = np.zeros(n)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return procs, cache

    if policy == "fcfs":
        head = idx[np.argmin(fcfs_order[idx])]
        procs[head] = platform.p
        cache[head] = 1.0
        return procs, cache

    if policy == "fair":
        procs[idx] = platform.p / idx.size
        total_freq = float(workload.freq[idx].sum())
        if total_freq > 0:
            cache[idx] = workload.freq[idx] / total_freq
        else:
            cache[idx] = 1.0 / idx.size
        return procs, cache

    if policy == "dominant":
        work_left = seq_left + par_left
        cache = _legacy_dominant_fractions_remaining(
            workload, platform, active, work_left)
        factors = access_cost_factor(workload, platform, cache)
        alloc, _ = remaining_equal_finish(
            seq_left[idx], par_left[idx], factors[idx], platform.p
        )
        procs[idx] = alloc
        return procs, cache

    return _legacy_registry_allocation(
        workload, platform, idx, seq_left, par_left, policy, rng
    )


def legacy_simulate_online(workload, platform, arrival_times, *,
                           policy="dominant", max_events=None, rng=None):
    """The pre-kernel ``simulate_online`` loop, verbatim.

    Returns ``(finish_times, events)``.
    """
    arrivals = np.asarray(arrival_times, dtype=np.float64)
    if arrivals.shape != (workload.n,):
        raise ModelError(f"arrival_times must have shape ({workload.n},)")
    if np.any(arrivals < 0):
        raise ModelError("arrival times must be >= 0")

    n = workload.n
    seq_left = workload.seq * workload.work
    par_left = (1.0 - workload.seq) * workload.work
    arrived = np.zeros(n, dtype=bool)
    finished = np.zeros(n, dtype=bool)
    finish = np.zeros(n)
    fcfs_order = np.argsort(np.argsort(arrivals, kind="stable")).astype(np.float64)

    now = 0.0
    events = 0
    limit = max_events if max_events is not None else 20 * n + 10

    while not finished.all():
        events += 1
        if events > limit:
            raise ModelError("online simulation exceeded its event budget")
        active = arrived & ~finished
        pending = ~arrived
        next_arrival = float(arrivals[pending].min()) if pending.any() else np.inf

        if not active.any():
            now = next_arrival
            newly = pending & (arrivals <= now * (1 + _REL_EPS))
            arrived |= newly
            continue

        procs, cache = _legacy_allocate(
            workload, platform, active, seq_left, par_left, policy, fcfs_order,
            rng,
        )
        factors = access_cost_factor(workload, platform, cache)

        in_seq = active & (seq_left > 0)
        in_par = active & (seq_left <= 0)
        rate = np.zeros(n)
        held = procs > 0
        rate[in_seq & held] = 1.0 / factors[in_seq & held]
        rate[in_par] = procs[in_par] / factors[in_par]
        waiting = active & (rate <= 0)
        remaining = np.where(in_seq, seq_left, par_left)
        dt_finish = np.full(n, np.inf)
        running = active & ~waiting
        dt_finish[running] = remaining[running] / rate[running]
        dt = min(float(dt_finish.min()), next_arrival - now)
        dt = max(dt, 0.0)
        now += dt

        progress = rate * dt
        seq_left = np.where(in_seq, np.maximum(seq_left - progress, 0.0), seq_left)
        par_left = np.where(in_par, np.maximum(par_left - progress, 0.0), par_left)
        for i in np.flatnonzero(active):
            tol = _REL_EPS * workload.work[i]
            if seq_left[i] <= tol:
                seq_left[i] = 0.0
            if seq_left[i] == 0.0 and par_left[i] <= tol:
                par_left[i] = 0.0
                finished[i] = True
                finish[i] = now
        newly = pending & (arrivals <= now * (1 + _REL_EPS) + 1e-300)
        arrived |= newly

    return finish, events


# ---------------------------------------------------------------------------
# Legacy online equal-finish solve (repro/online/allocation.py before it
# went through the offline kernel).  An oracle for the property tests
# only: legacy_simulate_online above calls the live solver, so the
# kernel-equivalence sweeps compare clocks, not root finders.
# ---------------------------------------------------------------------------

_LEGACY_EPS_PROC = 1e-9


def legacy_remaining_equal_finish(seq_ops, par_ops, factors, p, *,
                                  xtol=1e-12):
    """The 200-step bisection ``remaining_equal_finish``, verbatim.

    Returns ``(procs, horizon)``.
    """
    seq = np.asarray(seq_ops, dtype=np.float64)
    par = np.asarray(par_ops, dtype=np.float64)
    fac = np.asarray(factors, dtype=np.float64)
    if not (seq.shape == par.shape == fac.shape) or seq.ndim != 1 or seq.size == 0:
        raise ModelError("seq_ops, par_ops, factors must be equal-length 1-D arrays")
    if np.any(seq < 0) or np.any(par < 0) or np.any(fac <= 0):
        raise ModelError("remaining ops must be >= 0 and factors > 0")
    if np.any((seq == 0) & (par == 0)):
        raise ModelError("finished applications must be removed before reallocating")
    if p <= 0:
        raise ModelError(f"p must be positive, got {p}")

    seq_time = seq * fac
    par_work = par * fac

    if np.all(par_work == 0):
        procs = np.full(seq.size, _LEGACY_EPS_PROC)
        return procs, float(seq_time.max())

    def demand(K):
        denom = K - seq_time
        if np.any(denom <= 0):
            return np.inf
        with np.errstate(divide="ignore"):
            return float(np.where(par_work > 0, par_work / denom, 0.0).sum())

    lo = float((seq_time + par_work / p).max())
    g_lo = demand(lo)
    if g_lo <= p:
        K = lo
    else:
        hi = float((seq_time + par_work).max())
        if hi <= lo:
            hi = lo * (1 + 1e-9) + 1e-300
        expansions = 0
        while demand(hi) > p:
            hi *= 2.0
            expansions += 1
            if expansions > 200:
                raise SolverError("could not bracket the online horizon")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if demand(mid) > p:
                lo = mid
            else:
                hi = mid
            if hi - lo <= xtol * max(1.0, lo):
                break
        K = 0.5 * (lo + hi)

    denom = np.maximum(K - seq_time, 1e-300)
    procs = np.maximum(par_work / denom, _LEGACY_EPS_PROC)
    total = procs.sum()
    if total > p:
        procs *= p / total
    return procs, float(K)
