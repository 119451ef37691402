"""Threading compiled fault streams through the event kernel.

The kernel (:func:`repro.simulate.kernel.run_phase_kernel`) was built
with three seams — the ``allocate`` hook (invoked at every event with
the active set and the *live* remaining-work arrays), the arrival
admission path, and the exogenous ``timeline`` hook.
:class:`FaultInjector` drives all of it through those seams, without
forking the kernel:

* the **timeline** hook reports the next fault instant, pending
  restart/resume, or probe tick, so the kernel never steps across one
  while work is in flight and the injector observes every fault at
  (within tolerance of) its own timestamp;
* the **allocate** hook applies every due fault in chronological
  order, then delegates to the wrapped policy allocator
  (:func:`repro.online.make_policy_allocator`) over the applications
  that are both active and *up*, rescales the decision to the
  instantaneous pool, and enforces the multi-tenant class cap;
* **crashed work is re-queued in place**: the kernel hands ``allocate``
  references to its internal ``seq_left`` / ``par_left`` arrays, so
  restoring lost operations is two in-place additions — the kernel's
  own phase logic takes it from there.

Idle gaps are the one place the kernel's clock jumps without calling
``allocate`` (straight to the next arrival).  Fault events falling
inside such a gap are applied *lazily* at the next allocation — in
time order, logged at their own timestamps — which is observationally
equivalent: nothing was running, so nothing could crash, be preempted,
or use the processors that left.
"""

from __future__ import annotations

import numpy as np

from ..core.application import Workload
from ..core.platform import Platform
from ..simulate.kernel import EventLog, at_or_before, boundary_tol
from .faults import CompiledFaults
from .probes import ProbeSample, ProbeTimeline

__all__ = [
    "FaultInjector",
    "pool_at",
]


def pool_at(timeline: list[tuple[float, float]], t: float) -> float:
    """Pool size at instant *t* under a stepwise trajectory."""
    pool = timeline[0][1]
    for time, size in timeline:
        if at_or_before(time, t):
            pool = size
        else:
            break
    return pool


class FaultInjector:
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
        Each tick is also a stop at which the wrapped policy
        re-decides: policies that read the remaining work (``dominant``
        and the registry ones) give cadence-dependent results (see
        :mod:`repro.chaos.probes`).

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
        self._init_work = self._init_seq + self._init_par
        self._classes = (None if compiled.classes is None
                         else np.asarray(compiled.classes))
        self._n_classes = (1 if self._classes is None
                           else int(self._classes.max()) + 1)
        self._cursor = 0
        self._down_until = np.zeros(n)
        self._restart_at = np.full(n, np.inf)
        # Completion instants, inf until harvested from the log.
        self._finish_time = np.full(n, np.inf)
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
        pending = self._down_until[self._down_until > now + boundary_tol(now)]
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
            procs = np.where(available, np.asarray(procs, dtype=np.float64), 0.0)
            factors = np.asarray(factors, dtype=np.float64)
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
        clock = now + boundary_tol(now)
        if ((self._cursor == len(events) or events[self._cursor].time > clock)
                and not (self._restart_at <= clock).any()):
            return  # nothing due: the common case
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
        if at_or_before(self._finish_time[i], t):
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
        fin = self._finish_time
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
        n_active = int(np.count_nonzero(act))
        left = seq_left + par_left
        if self._classes is None:
            # One class holds everyone: its totals are the run's.
            flows = (fin - self._arrivals)[finished]
            class_procs = (float(pr.sum()),)
            class_active = (n_active,)
            class_mean_flow = (float(flows.mean()) if flows.size else 0.0,)
        else:
            class_procs, class_active, class_mean_flow = [], [], []
            for c in range(self._n_classes):
                sel = self._classes == c
                class_procs.append(float(pr[sel].sum()))
                class_active.append(int(np.count_nonzero(act & sel)))
                flows = (fin - self._arrivals)[sel & finished]
                class_mean_flow.append(float(flows.mean()) if flows.size else 0.0)
        return ProbeSample(
            time=float(t),
            pool=float(pool),
            arrived=int(np.count_nonzero(arrived)),
            active=n_active,
            running=int(np.count_nonzero(act & up & (pr > 0.0))),
            down=int(np.count_nonzero(act & ~up)),
            finished=int(np.count_nonzero(finished)),
            procs_in_use=float(pr[act].sum()),
            queue_depth=int(np.count_nonzero(act & (pr <= 0.0))),
            work_done=(float((self._init_work - left)[arrived].sum())
                       if arrived.any() else 0.0),
            work_remaining=float(left[act].sum()),
            class_procs=tuple(class_procs),
            class_active=tuple(class_active),
            class_mean_flow=tuple(class_mean_flow),
        )

