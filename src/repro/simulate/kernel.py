"""The one discrete-event kernel behind every simulation.

The offline phase loop (:func:`repro.simulate.simulate_schedule`) and
the online arrival loop (:func:`repro.online.simulate_online`) are thin
adapters over the one phase clock of this module, run one instance at
a time (:func:`run_phase_kernel`) or as a lockstep batch
(:func:`run_phase_kernel_batch`), so every boundary decision — a
phase residue, an arrival admitted at ``now`` — is made one way.

Tolerance convention
--------------------
Every boundary decision of the phase clock uses **one** canonical combined
absolute + relative tolerance::

    tol(scale) = ABS_TOL + REL_TOL * |scale|

where *scale* is the natural magnitude of the quantity being compared:

* **phase transitions** compare remaining operations against zero with
  ``scale = `` the application's total work (a residue below one part
  in 10^12 of the work is rounding noise, not unfinished work);
* **arrival admission** compares an arrival instant against the clock
  with ``scale = now`` (an arrival within one part in 10^12 of the
  current instant — or within ``ABS_TOL`` of a clock still at zero —
  happens *now*).

The absolute term keeps the comparison meaningful at ``t == 0`` (a
purely relative tolerance admits nothing early there); the relative
term keeps it meaningful at large magnitudes (a purely absolute
tolerance vanishes next to ``t ~ 1e9``).  Use :func:`boundary_tol` /
:func:`at_or_before` rather than re-deriving epsilons locally.

Clock discipline
----------------
The phase clock *accumulates* (``now += dt``) while work is being
retired, and *jumps* (``now = t``) when idle — jumping to an arrival
instant keeps it exact, and the admission tolerance absorbs the
accumulated ulps when an arrival coincides with a completion event.

Hooks
-----
:func:`run_phase_kernel` is parameterized by

* an **arrival source**: the per-application arrival instants (zeros
  for an offline simulation; see :mod:`repro.online.arrivals` for
  generated and replayed streams),
* a **reallocation policy**: the ``allocate`` callback, invoked at
  every event with the active set and remaining work (static schedules
  return a fixed allocation; online policies re-solve the shrunken
  instance; work-conserving redistribution mutates its allocation from
  the ``on_complete`` callback),
* **phase transitions**: applied by the kernel itself with the
  canonical tolerance, recorded in the typed event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..types import ModelError

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "boundary_tol",
    "at_or_before",
    "Event",
    "EventLog",
    "PhaseKernelResult",
    "run_phase_kernel",
    "BatchPhaseKernelResult",
    "run_phase_kernel_batch",
]

#: Absolute component of the canonical boundary tolerance.
ABS_TOL: float = 1e-12

#: Relative component of the canonical boundary tolerance.
REL_TOL: float = 1e-12


def boundary_tol(scale: float = 0.0) -> float:
    """The canonical combined tolerance ``ABS_TOL + REL_TOL * |scale|``."""
    return ABS_TOL + REL_TOL * abs(scale)


def at_or_before(value, boundary, *, scale=None):
    """Tolerant ``value <= boundary`` (vectorized over *value*).

    *scale* defaults to *boundary* — the common case of asking whether
    an instant has been reached by a clock of that magnitude.
    """
    if scale is None:
        scale = boundary
    return value <= boundary + boundary_tol(scale)


#: Event kinds the kernel emits, in the order they can occur at one
#: instant: completions and phase exits before admissions.  The tail
#: kinds are the fault-injection events of :mod:`repro.chaos`.  New
#: kinds are appended, never reordered: :mod:`repro.chaos.faults`
#: breaks ties between fault events at one instant by each kind's
#: index in this tuple.
EVENT_KINDS: tuple[str, ...] = (
    "seq-done", "done", "arrival",
    "proc_join", "proc_leave", "crash", "restart", "preempt",
)


@dataclass(frozen=True, slots=True)
class Event:
    """One typed entry of the kernel's event log.

    Attributes
    ----------
    time : float
        Simulated instant.
    kind : str
        One of :data:`EVENT_KINDS`.
    index : int
        Application / batch index the event concerns.
    """

    time: float
    kind: str
    index: int

    def as_tuple(self) -> tuple[float, str, int]:
        return (self.time, self.kind, self.index)


class EventLog:
    """Chronological typed event log shared by every kernel run."""

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[Event] = []

    def record(self, time: float, kind: str, index: int) -> Event:
        if kind not in EVENT_KINDS:
            raise ModelError(f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        event = Event(float(time), kind, int(index))
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def since(self, start: int) -> list[Event]:
        """Events appended at or after position *start*.

        A cheap slice for incremental consumers (the chaos probes poll
        this once per allocation; materializing :attr:`events` there
        would be quadratic in the run length).
        """
        return self._events[start:]

    def sort(self) -> None:
        """Stable chronological re-order.

        The kernel itself appends in time order, but a consumer
        logging exogenous events lazily (the chaos injector's
        idle-gap catch-up) can append an event stamped earlier than
        one already recorded at the same allocation instant; one
        stable sort at the end restores the global order without
        touching same-instant insertion order.
        """
        self._events.sort(key=lambda e: e.time)

    def select(self, *kinds: str) -> tuple[Event, ...]:
        """Events of the given kinds, in log order.

        Unknown kinds raise :class:`~repro.types.ModelError`: a filter
        naming a kind outside :data:`EVENT_KINDS` would silently match
        nothing, which hid typos while the registered set was four
        entries and is outright dangerous now that fault injection adds
        five more.
        """
        for kind in kinds:
            if kind not in EVENT_KINDS:
                raise ModelError(
                    f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        return tuple(e for e in self._events if e.kind in kinds)

    def as_tuples(self, *kinds: str) -> list[tuple[float, str, int]]:
        """Legacy ``(time, kind, index)`` view, optionally filtered.

        Like :meth:`select`, raises on kinds not in :data:`EVENT_KINDS`.
        """
        selected = self.select(*kinds) if kinds else self._events
        return [e.as_tuple() for e in selected]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


#: Reallocation hook: ``allocate(now, active, seq_left, par_left) ->
#: (procs, factors)`` — full length-``n`` arrays; entries outside the
#: active set are ignored.  ``factors`` are per-operation access-cost
#: multipliers (> 0 for active applications).
AllocateFn = Callable[
    [float, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray],
]

#: Completion hook: ``on_complete(index, now, alive)`` where *alive*
#: masks the applications still unfinished (arrived or not).  A
#: work-conserving adapter mutates its processor array here.
CompleteFn = Callable[[int, float, np.ndarray], None]

#: Exogenous timeline hook: ``timeline(now) -> float`` returns the next
#: instant strictly after *now* at which something outside the model
#: happens (a fault event, a metric-probe tick), or ``inf`` when none
#: is pending.  The kernel never advances the clock past it, so the
#: ``allocate`` hook is guaranteed to run at (within the canonical
#: tolerance of) every exogenous instant while work is in flight.
TimelineFn = Callable[[float], float]


@dataclass(frozen=True)
class PhaseKernelResult:
    """Outcome of a :func:`run_phase_kernel` run.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant per application.
    events : int
        Kernel iterations processed (each handles one clock event:
        a phase boundary, a completion, or an arrival admission).
    log : EventLog
        The typed event log.
    usage : list[tuple[float, float]]
        ``(time, processors in use)`` sampled at every allocation —
        the in-use total holds until the next event.
    now : float
        Final clock value.
    """

    finish_times: np.ndarray
    events: int
    log: EventLog
    usage: list[tuple[float, float]] = field(repr=False)
    now: float = 0.0


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


@dataclass(frozen=True)
class BatchPhaseKernelResult:
    """Outcome of a :func:`run_phase_kernel_batch` run.

    Attributes
    ----------
    finish_times : numpy.ndarray
        Completion instant per cell, shape ``(B, N)``; zeros in
        padding.
    events : numpy.ndarray
        Kernel iterations each row consumed, shape ``(B,)`` — equal to
        the scalar kernel's ``events`` for the same instance.
    now : numpy.ndarray
        Final per-row clock values, shape ``(B,)``.
    """

    finish_times: np.ndarray
    events: np.ndarray
    now: np.ndarray


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
