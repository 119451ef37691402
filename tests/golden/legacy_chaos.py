"""The chaos path's per-stop machinery, frozen as a test oracle.

A chaos run (:func:`repro.chaos.run_chaos`) stops the event kernel at
every arrival, phase exit, fault event, restart and probe tick, and
re-solves its policy at each stop.  This module keeps verbatim copies
of the injector and the kernel loop as they were before that per-stop
path was compiled: :class:`LegacyFaultInjector` (with ``pool_at``) and
:func:`legacy_run_phase_kernel`.  :func:`legacy_run_chaos` wires them
to the frozen builtin policies of
:func:`golden.legacy_engines._legacy_allocate` and to a verbatim copy of
the registry-snapshot allocation (:func:`_snapshot_registry_allocation`:
unlike the older snapshot in ``legacy_engines``, an application with no
progress keeps its own work and sequential fraction, which can differ
by an ulp from their rebuilt values), so the golden suite can assert
that the live chaos path produces the same bits: finish times, event
log, processor usage, probe rows, pool history and fault counters.

Do not "fix" anything here — the point is to freeze the historical
arithmetic exactly.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.faults import CompiledFaults, FaultSpec, parse_fault_spec
from repro.chaos.probes import ProbeSample, ProbeTimeline
from repro.chaos.runner import ChaosResult, estimate_horizon
from repro.core.application import Workload
from repro.core.execution import access_cost_factor
from repro.core.platform import Platform
from repro.core.registry import get_entry, scheduler_names
from repro.online.engine import arrival_order, check_arrivals
from repro.simulate.kernel import (
    AllocateFn,
    CompleteFn,
    EventLog,
    PhaseKernelResult,
    TimelineFn,
    at_or_before,
    boundary_tol,
)
from repro.types import ModelError

from .legacy_engines import _legacy_allocate

__all__ = ["LegacyFaultInjector", "legacy_run_phase_kernel", "legacy_run_chaos"]


def _snapshot_registry_allocation(
    workload: Workload,
    platform: Platform,
    idx: np.ndarray,
    seq_left: np.ndarray,
    par_left: np.ndarray,
    policy: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(procs, cache) from a registered scheduler over the active apps.

    The entry sees a snapshot workload whose applications carry their
    *remaining* work and the sequential fraction of that remainder, so
    an offline strategy re-solves the shrinking instance at each event.
    """
    try:
        entry = get_entry(policy)
    except ModelError:
        raise ModelError(
            f"unknown policy {policy!r}; builtin policies: "
            "dominant, fair, fcfs, plus any registered "
            f"concurrent scheduler ({', '.join(scheduler_names())})"
        ) from None
    # An application with no progress yet passes through unchanged:
    # rebuilding it from seq_left + par_left can move its sequential
    # fraction (and work) by an ulp, which a local optimizer such as
    # continuous-opt's SLSQP amplifies into a different schedule.
    seq_ops = workload.seq * workload.work
    par_ops = (1.0 - workload.seq) * workload.work
    apps = []
    for i in idx:
        app = workload[int(i)]
        if seq_left[i] != seq_ops[i] or par_left[i] != par_ops[i]:
            work = float(seq_left[i] + par_left[i])
            app = app.scaled(work=work, seq_fraction=float(seq_left[i] / work))
        apps.append(app)
    schedule = entry(Workload(apps), platform, rng)
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


def legacy_run_phase_kernel(
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

    now = 0.0
    events = 0
    limit = max_events if max_events is not None else 20 * n + 10

    while not finished.all():
        events += 1
        if events > limit:
            raise ModelError(budget_message)
        active = arrived & ~finished
        pending = ~arrived
        next_arrival = float(arrivals[pending].min()) if pending.any() else np.inf

        if not active.any():
            # Idle: jump the clock straight to the next arrival (an
            # exact assignment, not an accumulation).
            usage.append((now, 0.0))
            now = next_arrival
            newly = pending & at_or_before(arrivals, now)
            arrived |= newly
            for i in np.flatnonzero(newly):
                log.record(now, "arrival", i)
            continue

        procs, factors = allocate(now, active, seq_left, par_left)
        usage.append((now, float(procs[active].sum())))

        # Progress rates and per-application time to the next phase
        # boundary.  A queued application (no processors) stalls.
        in_seq = active & (seq_left > 0.0)
        in_par = active & (seq_left <= 0.0)
        rate = np.zeros(n)
        held = procs > 0.0
        sel = in_seq & held
        rate[sel] = 1.0 / factors[sel]
        rate[in_par] = procs[in_par] / factors[in_par]
        remaining = np.where(in_seq, seq_left, par_left)
        running = active & (rate > 0.0)
        dt_finish = np.full(n, np.inf)
        dt_finish[running] = remaining[running] / rate[running]
        next_exo = np.inf if timeline is None else float(timeline(now))
        dt = min(float(dt_finish.min()), next_arrival - now, next_exo - now)
        if not np.isfinite(dt):
            raise ModelError(
                "kernel stalled: no running application, pending arrival, "
                "or exogenous event can advance the clock"
            )
        dt = max(dt, 0.0)
        now += dt

        # Advance everyone by dt.
        progress = rate * dt
        seq_left = np.where(in_seq, np.maximum(seq_left - progress, 0.0), seq_left)
        par_left = np.where(in_par, np.maximum(par_left - progress, 0.0), par_left)

        # Phase transitions, with the canonical tolerance at the scale
        # of each application's total work.
        for i in np.flatnonzero(active):
            tol = boundary_tol(work[i])
            if in_seq[i] and seq_left[i] <= tol:
                seq_left[i] = 0.0
                log.record(now, "seq-done", i)
            if seq_left[i] == 0.0 and par_left[i] <= tol:
                par_left[i] = 0.0
                finished[i] = True
                finish[i] = now
                log.record(now, "done", i)
                if on_complete is not None:
                    on_complete(int(i), now, ~finished)

        # Admissions (after completions: an arrival coinciding with a
        # completion event joins the system the moment it frees up).
        newly = pending & at_or_before(arrivals, now)
        if newly.any():
            arrived |= newly
            for i in np.flatnonzero(newly):
                log.record(now, "arrival", i)

    return PhaseKernelResult(
        finish_times=finish,
        events=events,
        log=log,
        usage=usage,
        now=now,
    )


def pool_at(timeline: list[tuple[float, float]], t: float) -> float:
    """Pool size at instant *t* under a stepwise trajectory."""
    pool = timeline[0][1]
    for time, size in timeline:
        if at_or_before(time, t):
            pool = size
        else:
            break
    return pool


class LegacyFaultInjector:
    """Inject a compiled fault stream into a phase-kernel run.

    Wire-up (what :func:`repro.chaos.run_chaos` does)::

        log = EventLog()
        allocate = make_policy_allocator(workload, platform, policy, ...)
        injector = FaultInjector(workload, platform, compiled,
                                 allocate=allocate, log=log,
                                 arrivals=arrivals, probe=probe)
        result = run_phase_kernel(..., allocate=injector.allocate,
                                  timeline=injector.timeline, log=log)
        injector.finalize(result.now)

    Parameters
    ----------
    workload, platform : the scenario under test.
    compiled : CompiledFaults
        The fault stream (see :meth:`repro.chaos.FaultSpec.compile`).
    allocate : AllocateFn
        The wrapped policy allocator; it sees only the applications
        that are active *and* up, against the nominal platform — the
        injector rescales its decision to the instantaneous pool.
    log : EventLog
        Shared log; fault events are recorded at their own timestamps,
        interleaved chronologically with the kernel's events.  Pass
        the same object to the kernel.
    arrivals : numpy.ndarray, optional
        Arrival instants (zeros by default); probes use them for
        per-class latency.
    probe : ProbeTimeline, optional
        Cadence scraper; ticks become timeline breakpoints, so while
        work is in flight every sample lands at its exact tick time.

    Attributes
    ----------
    pool : float
        Instantaneous processor pool.
    pool_timeline : list[tuple[float, float]]
        Stepwise pool history, starting ``(0.0, platform.p)``.
    crashes, preemptions : int
        Faults that actually struck a running application.
    dropped_faults : int
        Crash/preempt candidates that hit an idle, finished, or
        already-down application (no-ops by construction).
    lost_work : float
        Total operations destroyed by crashes and re-queued.
    """

    def __init__(
        self,
        workload: Workload,
        platform: Platform,
        compiled: CompiledFaults,
        *,
        allocate,
        log: EventLog,
        arrivals: np.ndarray | None = None,
        probe: ProbeTimeline | None = None,
    ) -> None:
        n = workload.n
        self._platform = platform
        self._compiled = compiled
        self._base = allocate
        self._log = log
        self._probe = probe
        self._arrivals = (np.zeros(n) if arrivals is None
                          else np.asarray(arrivals, dtype=np.float64))
        self._init_seq = workload.seq * workload.work
        self._init_par = (1.0 - workload.seq) * workload.work
        self._classes = (None if compiled.classes is None
                         else np.asarray(compiled.classes))
        self._n_classes = (1 if self._classes is None
                           else int(self._classes.max()) + 1)
        self._cursor = 0
        self._down_until = np.zeros(n)
        self._restart_at = np.full(n, np.inf)
        self._finish_time = np.full(n, np.nan)
        self._log_cursor = 0

        self.pool = float(platform.p)
        self.pool_timeline: list[tuple[float, float]] = [(0.0, self.pool)]
        self.crashes = 0
        self.preemptions = 0
        self.dropped_faults = 0
        self.lost_work = 0.0

    # -- kernel hooks ---------------------------------------------------

    def timeline(self, now: float) -> float:
        """Next exogenous instant: fault event, restart/resume, probe tick."""
        nxt = np.inf
        if self._cursor < len(self._compiled.events):
            nxt = self._compiled.events[self._cursor].time
        pending = self._down_until[~at_or_before(self._down_until, now)]
        if pending.size:
            nxt = min(nxt, float(pending.min()))
        if self._probe is not None:
            nxt = min(nxt, self._probe.next_tick())
        return nxt

    def allocate(self, now, active, seq_left, par_left):
        """The kernel's reallocation hook, fault-aware."""
        self._harvest_finishes()
        self._apply_due(now, active, seq_left, par_left)

        up = at_or_before(self._down_until, now)
        available = active & up

        n = active.size
        if available.any():
            procs, factors = self._base(now, available, seq_left, par_left)
            procs = np.asarray(procs, dtype=np.float64).copy()
            factors = np.asarray(factors, dtype=np.float64)
            procs[~available] = 0.0
            # The wrapped policy allocated against the nominal machine;
            # rescale its decision to the processors actually present.
            procs *= self.pool / self._platform.p
            self._apply_class_cap(procs, available)
        else:
            # Everyone active is down: hold (the timeline hook reports
            # the next resume, so the kernel's stall guard stays quiet).
            procs = np.zeros(n)
            factors = np.ones(n)

        if self._probe is not None:
            self._probe.poll(
                now,
                lambda t: self._sample(t, now, active, seq_left, par_left,
                                       procs),
            )
        return procs, factors

    def finalize(self, now: float) -> None:
        """Force one last probe sample; restore global log order.

        Lazy idle-gap catch-up can append a fault event stamped
        earlier than an arrival the kernel logged at the same
        allocation instant, so the shared log gets one stable
        chronological sort here.
        """
        self._harvest_finishes()
        self._log.sort()
        if self._probe is not None:
            n = self._arrivals.size
            zeros = np.zeros(n)
            self._probe.force(
                now,
                lambda t: self._sample(
                    t, now, np.zeros(n, dtype=bool), zeros, zeros, zeros),
            )

    # -- fault application ----------------------------------------------

    def _apply_due(self, now, active, seq_left, par_left) -> None:
        """Apply every fault/restart due by *now*, in time order.

        Events are logged at their own timestamps — during in-flight
        work the kernel stops at each one, so ``now`` matches; across
        an idle gap this is the lazy catch-up described in the module
        docstring.
        """
        events = self._compiled.events
        while True:
            t_ev = (events[self._cursor].time
                    if self._cursor < len(events) else np.inf)
            due = np.flatnonzero(at_or_before(self._restart_at, now))
            t_rs = float(self._restart_at[due].min()) if due.size else np.inf
            if np.isfinite(t_rs) and t_rs <= t_ev:
                i = int(due[np.argmin(self._restart_at[due])])
                self._log.record(self._restart_at[i], "restart", i)
                self._restart_at[i] = np.inf
                continue
            if not at_or_before(t_ev, now):
                break
            ev = events[self._cursor]
            self._cursor += 1
            if ev.kind in ("proc_join", "proc_leave"):
                delta = ev.magnitude if ev.kind == "proc_join" else -ev.magnitude
                self.pool += delta
                self.pool_timeline.append((ev.time, self.pool))
                self._log.record(ev.time, ev.kind, -1)
            elif ev.kind == "crash":
                self._apply_crash(ev, seq_left, par_left)
            elif ev.kind == "preempt":
                i = ev.target
                if self._active_at(i, ev.time):
                    self._down_until[i] = max(self._down_until[i],
                                              ev.time + ev.magnitude)
                    self.preemptions += 1
                    self._log.record(ev.time, "preempt", i)
                else:
                    self.dropped_faults += 1

    def _active_at(self, i: int, t: float) -> bool:
        """Was application *i* arrived, unfinished, and up at instant *t*?

        Judged at the event's own timestamp, not the catch-up instant:
        a crash candidate compiled into an idle gap must not strike an
        application that only arrived after it (faults do not travel
        forward in time).  An application that *was* active at *t*
        implies the kernel was not idle then, so the timeline hook
        stopped the clock there and live and lazy application agree.
        """
        if not at_or_before(self._arrivals[i], t):
            return False
        fin = self._finish_time[i]
        if not np.isnan(fin) and at_or_before(fin, t):
            return False
        return bool(at_or_before(self._down_until[i], t))

    def _apply_crash(self, ev, seq_left, par_left) -> None:
        i = ev.target
        if not self._active_at(i, ev.time):
            self.dropped_faults += 1
            return
        # Destroy a `lost` fraction of the completed work and put it
        # back on the queue, in place, parallel phase first (the most
        # recent progress is the least likely to be checkpointed).
        done_seq = max(float(self._init_seq[i] - seq_left[i]), 0.0)
        done_par = max(float(self._init_par[i] - par_left[i]), 0.0)
        restore = ev.aux * (done_seq + done_par)
        back_par = min(restore, done_par)
        par_left[i] += back_par
        seq_left[i] += min(restore - back_par, done_seq)
        self.lost_work += restore
        self.crashes += 1
        self._down_until[i] = ev.time + ev.magnitude
        self._restart_at[i] = ev.time + ev.magnitude
        self._log.record(ev.time, "crash", i)

    def _apply_class_cap(self, procs: np.ndarray, available: np.ndarray) -> None:
        """Background classes collectively hold exactly ``low_share`` of
        the pool whenever foreground work is also runnable — a cap on
        background and, symmetrically, its no-starvation floor."""
        if self._classes is None:
            return
        fg = available & (self._classes == 0)
        bg = available & (self._classes > 0)
        if not (fg.any() and bg.any()):
            return
        bg_target = self._compiled.low_share * self.pool
        for mask, target in ((fg, self.pool - bg_target), (bg, bg_target)):
            current = float(procs[mask].sum())
            if current > 0.0:
                procs[mask] *= target / current
            else:
                # The wrapped policy gave this class nothing (e.g. fcfs
                # serializes on the other class's head); split its
                # guaranteed share equally so the floor actually holds.
                procs[mask] = target / int(mask.sum())

    # -- probe support ---------------------------------------------------

    def _harvest_finishes(self) -> None:
        """Pick exact completion instants out of the shared event log."""
        fresh = self._log.since(self._log_cursor)
        for ev in fresh:
            if ev.kind == "done":
                self._finish_time[ev.index] = ev.time
        self._log_cursor += len(fresh)

    def _sample(self, t, now, active, seq_left, par_left, procs) -> ProbeSample:
        """State at tick *t*, scraped while the kernel clock sits at *now*.

        While work is in flight the tick is a timeline breakpoint, so
        ``t == now`` (a *live* tick) and the kernel's own state is the
        truth.  A tick with ``t < now`` was skipped by an idle jump —
        nothing was arrived-and-unfinished at *t* — so its state is
        reconstructed: no one active, no processors in use, the pool as
        of *t* (churn history is in :attr:`pool_timeline` regardless of
        when the events were lazily applied).
        """
        fin = np.where(np.isnan(self._finish_time), np.inf, self._finish_time)
        arrived = at_or_before(self._arrivals, t)
        finished = at_or_before(fin, t)
        live = at_or_before(now, t)
        if live:
            act = active
            pr = procs
            pool = self.pool
            up = at_or_before(self._down_until, t)
        else:
            act = arrived & ~finished
            pr = np.zeros(active.size)
            pool = pool_at(self.pool_timeline, t)
            up = np.ones(active.size, dtype=bool)
        down = act & ~up
        running = act & up & (pr > 0.0)
        left = seq_left + par_left
        total = self._init_seq + self._init_par
        classes = (np.zeros(act.size, dtype=np.intp)
                   if self._classes is None else self._classes)
        class_procs = []
        class_active = []
        class_mean_flow = []
        for c in range(self._n_classes):
            sel = classes == c
            class_procs.append(float(pr[sel].sum()))
            class_active.append(int((act & sel).sum()))
            flows = (fin - self._arrivals)[sel & finished]
            class_mean_flow.append(float(flows.mean()) if flows.size else 0.0)
        return ProbeSample(
            time=float(t),
            pool=float(pool),
            arrived=int(arrived.sum()),
            active=int(act.sum()),
            running=int(running.sum()),
            down=int(down.sum()),
            finished=int(finished.sum()),
            procs_in_use=float(pr[act].sum()),
            queue_depth=int((act & (pr <= 0.0)).sum()),
            work_done=float((total - left)[arrived].sum()) if arrived.any() else 0.0,
            work_remaining=float(left[act].sum()),
            class_procs=tuple(class_procs),
            class_active=tuple(class_active),
            class_mean_flow=tuple(class_mean_flow),
        )


def legacy_run_chaos(workload, platform, arrival_times=None, *, faults="none",
                     policy="dominant", rng=None, fault_rng=None,
                     probe_interval=None, horizon=None, max_samples=2048):
    """``run_chaos`` over the frozen injector, kernel loop and policies."""
    if arrival_times is None:
        arrivals = np.zeros(workload.n)
    else:
        arrivals = check_arrivals(workload, arrival_times)

    if horizon is None:
        horizon = estimate_horizon(workload, platform, arrivals)
    if isinstance(faults, str):
        faults = parse_fault_spec(faults)
    if isinstance(faults, FaultSpec):
        if fault_rng is None:
            fault_rng = np.random.default_rng(0)
        compiled = faults.compile(workload.n, platform.p, horizon, fault_rng)
    else:
        compiled = faults

    if probe_interval is None:
        probe_interval = horizon / 128.0
    probe = ProbeTimeline(probe_interval, max_samples=max_samples)

    log = EventLog()
    fcfs_order = arrival_order(arrivals)

    def allocate(now, active, seq_left, par_left):
        if policy in ("dominant", "fair", "fcfs"):
            procs, cache = _legacy_allocate(workload, platform, active, seq_left,
                                            par_left, policy, fcfs_order, rng)
        else:
            procs, cache = _snapshot_registry_allocation(
                workload, platform, np.flatnonzero(active), seq_left,
                par_left, policy, rng)
        return procs, access_cost_factor(workload, platform, cache)

    injector = LegacyFaultInjector(
        workload, platform, compiled,
        allocate=allocate, log=log, arrivals=arrivals, probe=probe,
    )

    max_events = (20 * workload.n + 10
                  + 8 * len(compiled.events)
                  + 2 * probe.max_samples + 64)

    result = legacy_run_phase_kernel(
        workload.work,
        workload.seq * workload.work,
        (1.0 - workload.seq) * workload.work,
        allocate=injector.allocate,
        arrivals=arrivals if arrival_times is not None else None,
        timeline=injector.timeline,
        max_events=max_events,
        budget_message=(
            f"chaos run ({policy!r}) exceeded its event budget of "
            f"{max_events}; loosen the fault spec"),
        log=log,
    )
    injector.finalize(result.now)

    return ChaosResult(
        policy=policy,
        faults=compiled,
        arrival_times=arrivals.copy(),
        finish_times=result.finish_times,
        events=result.events,
        log=log,
        processor_usage=result.usage,
        probe=probe,
        pool_timeline=injector.pool_timeline,
        crashes=injector.crashes,
        preemptions=injector.preemptions,
        dropped_faults=injector.dropped_faults,
        lost_work=injector.lost_work,
        total_work=float(workload.work.sum()),
    )
