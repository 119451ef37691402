"""Declarative, seedable fault sources.

The paper's platform is frozen: ``p`` processors from the first instant
to the last, applications that never fail, no tenant ever preempted.
This module opens that axis.  A *fault source* is a frozen dataclass
describing one class of disturbance; compiling a
:class:`FaultSpec` (a bundle of sources) against a workload size, a
processor count, a time horizon, and a seeded generator yields a
:class:`CompiledFaults` — a time-sorted tuple of :class:`FaultEvent`
records plus the static multi-tenant class assignment.  Compilation is
a pure function of ``(spec, n, p, horizon, rng)``: every policy
evaluated at the same experiment cell faces the **identical** fault
stream, the same per-cell RNG discipline
:mod:`repro.experiments.online` uses for arrival streams.

Sources and their spec grammar (parsed by :func:`parse_fault_spec`;
sources combine with ``+``):

``churn:period=P[,drop=D,min=F,max=G,start=S]``
    :class:`ProcessorChurn` — every *P* time units the pool gains or
    loses (seeded coin flip) a *D* fraction of its current size,
    clamped to ``[F * p, G * p]``.  Compilation simulates the pool
    trajectory, so events carry absolute processor deltas.
``crash:hazard=H,delay=R[,lost=L,start=S]``
    :class:`CrashRestart` — per-application Poisson crash candidates
    with rate *H* (crashes per time unit).  A candidate striking an
    application that is not running is a no-op.  A crash destroys an
    *L* fraction (default 1.0) of the work completed so far and takes
    the application down for *R* time units before it restarts.
``preempt:period=P,duration=D[,victims=K,start=S]``
    :class:`Preemption` — every *P* time units, *K* seeded victim
    applications are suspended for *D* time units (a higher-priority
    tenant borrowing their processors).
``classes:count=K[,share=S]``
    :class:`PriorityClasses` — seeded assignment of each application
    to one of *K* priority classes (0 is foreground).  Whenever
    foreground and background applications are runnable together, the
    background classes are collectively capped at an *S* fraction of
    the instantaneous pool — and guaranteed that floor, which is the
    no-starvation bound the invariant suite checks.

Every source also works alone; ``none`` parses to an empty spec (the
paper's fault-free platform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..online.arrivals import parse_kv
from ..simulate.kernel import EVENT_KINDS
from ..types import ModelError

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "CompiledFaults",
    "FaultSpec",
    "ProcessorChurn",
    "CrashRestart",
    "Preemption",
    "PriorityClasses",
    "parse_fault_spec",
]

#: Spec prefixes understood by :func:`parse_fault_spec`.
FAULT_KINDS: tuple[str, ...] = ("churn", "crash", "preempt", "classes")

#: Event kinds a compiled fault stream may carry (all registered with
#: the kernel's event log).
_TIMED_KINDS: tuple[str, ...] = ("proc_join", "proc_leave", "crash", "preempt")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault, compiled and ready for injection.

    Attributes
    ----------
    time : float
        Injection instant.
    kind : str
        ``proc_join`` / ``proc_leave`` (platform churn), ``crash``, or
        ``preempt``.
    target : int
        Application index, or ``-1`` for platform-wide events.
    magnitude : float
        Processor delta for churn events, outage duration for a crash
        (the restart delay) and for a preemption (the slice length).
    aux : float
        Second parameter where one is needed: the lost-work fraction
        of a crash.
    """

    time: float
    kind: str
    target: int = -1
    magnitude: float = 0.0
    aux: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _TIMED_KINDS:
            raise ModelError(
                f"unknown fault event kind {self.kind!r}; known: {_TIMED_KINDS}")
        if not (self.time >= 0 and math.isfinite(self.time)):
            raise ModelError(f"fault time must be finite and >= 0, got {self.time}")


def _sort_events(events: list[FaultEvent]) -> tuple[FaultEvent, ...]:
    """Deterministic chronological order (ties: kernel kind order, target)."""
    return tuple(sorted(
        events,
        key=lambda e: (e.time, EVENT_KINDS.index(e.kind), e.target),
    ))


@dataclass(frozen=True)
class CompiledFaults:
    """A fault stream pinned to one ``(n, p, horizon, rng)`` scenario.

    Attributes
    ----------
    events : tuple[FaultEvent, ...]
        Time-sorted timed faults.
    classes : numpy.ndarray or None
        Per-application priority class (0 = foreground), or ``None``
        when the spec carries no :class:`PriorityClasses` source.
    low_share : float
        Pool fraction the background classes are collectively capped
        at — and guaranteed — while foreground work is runnable.
    horizon : float
        The horizon events were drawn over; faults beyond it do not
        exist (the platform calms down).
    """

    events: tuple[FaultEvent, ...] = ()
    classes: np.ndarray | None = None
    low_share: float = 0.0
    horizon: float = 0.0


def _positive(name: str, value: float) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise ModelError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _fraction(name: str, value: float, *, closed_low: bool = False) -> float:
    lo_ok = value >= 0 if closed_low else value > 0
    if not (lo_ok and value <= 1):
        bound = "[0, 1]" if closed_low else "(0, 1]"
        raise ModelError(f"{name} must lie in {bound}, got {value}")
    return float(value)


@dataclass(frozen=True)
class ProcessorChurn:
    """Processors leaving and (re)joining the platform mid-run.

    Every *period* time units from *start* (default: one period in) the
    pool moves: a seeded coin picks the direction, and the pool loses
    or gains a *drop* fraction of its current size, clamped to
    ``[min_frac * p, max_frac * p]``.  A move that the clamp would
    reduce to nothing flips direction, so a pool sitting at its floor
    churns back up instead of idling.
    """

    period: float
    drop: float = 0.25
    min_frac: float = 0.25
    max_frac: float = 1.0
    start: float | None = None

    def __post_init__(self) -> None:
        _positive("churn period", self.period)
        _fraction("churn drop", self.drop)
        _fraction("churn min", self.min_frac)
        if not (self.max_frac >= self.min_frac and math.isfinite(self.max_frac)):
            raise ModelError(
                f"churn max must be finite and >= min ({self.min_frac}), "
                f"got {self.max_frac}")
        if self.start is not None and not (self.start >= 0 and math.isfinite(self.start)):
            raise ModelError(f"churn start must be finite and >= 0, got {self.start}")

    def events(self, n: int, p: float, horizon: float,
               rng: np.random.Generator) -> list[FaultEvent]:
        out: list[FaultEvent] = []
        pool = float(p)
        floor, ceil = self.min_frac * p, self.max_frac * p
        t = self.period if self.start is None else self.start
        while t < horizon:
            leave = bool(rng.random() < 0.5)
            step = self.drop * pool
            if leave:
                delta = min(step, pool - floor)
                if delta <= 0.0:
                    leave, delta = False, min(step, ceil - pool)
            else:
                delta = min(step, ceil - pool)
                if delta <= 0.0:
                    leave, delta = True, min(step, pool - floor)
            if delta > 0.0:
                pool += -delta if leave else delta
                out.append(FaultEvent(
                    time=t,
                    kind="proc_leave" if leave else "proc_join",
                    magnitude=delta,
                ))
            t += self.period
        return out


@dataclass(frozen=True)
class CrashRestart:
    """Per-application crash hazard with restart delay and lost work.

    Crash candidates are a per-application Poisson process with rate
    *hazard* drawn over the horizon at compile time (application order,
    so the stream is independent of anything the policies do).  At
    injection, a candidate striking an application that is not
    currently running is dropped; otherwise the application loses a
    *lost* fraction of the work it had completed (parallel-phase
    progress is rolled back before sequential-phase progress — the most
    recent work is the least likely to have been checkpointed) and
    stalls for *delay* time units before restarting.
    """

    hazard: float
    delay: float
    lost: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        _positive("crash hazard", self.hazard)
        _positive("crash delay", self.delay)
        _fraction("crash lost", self.lost, closed_low=True)
        if not (self.start >= 0 and math.isfinite(self.start)):
            raise ModelError(f"crash start must be finite and >= 0, got {self.start}")

    def events(self, n: int, p: float, horizon: float,
               rng: np.random.Generator) -> list[FaultEvent]:
        out: list[FaultEvent] = []
        for i in range(n):
            t = self.start
            while True:
                t += rng.exponential(1.0 / self.hazard)
                if t >= horizon:
                    break
                out.append(FaultEvent(
                    time=t, kind="crash", target=i,
                    magnitude=self.delay, aux=self.lost,
                ))
        return out


@dataclass(frozen=True)
class Preemption:
    """Periodic preemption slices against seeded victim applications.

    Every *period* time units from *start* (default: one period in),
    *victims* distinct applications — drawn at compile time, so every
    policy faces the same victims — are suspended for *duration* time
    units.  A slice hitting an application that is not running is a
    no-op; overlapping outages extend, never shorten.
    """

    period: float
    duration: float
    victims: int = 1
    start: float | None = None

    def __post_init__(self) -> None:
        _positive("preempt period", self.period)
        _positive("preempt duration", self.duration)
        if self.victims < 1:
            raise ModelError(f"preempt victims must be >= 1, got {self.victims}")
        if self.start is not None and not (self.start >= 0 and math.isfinite(self.start)):
            raise ModelError(f"preempt start must be finite and >= 0, got {self.start}")

    def events(self, n: int, p: float, horizon: float,
               rng: np.random.Generator) -> list[FaultEvent]:
        out: list[FaultEvent] = []
        t = self.period if self.start is None else self.start
        k = min(self.victims, n)
        while t < horizon:
            for i in rng.choice(n, size=k, replace=False):
                out.append(FaultEvent(
                    time=t, kind="preempt", target=int(i),
                    magnitude=self.duration,
                ))
            t += self.period
        return out


@dataclass(frozen=True)
class PriorityClasses:
    """Multi-tenant priority classes with background demotion.

    Applications are assigned (seeded, at compile time) to one of
    *count* classes; class 0 is the foreground tenant.  Whenever
    foreground and background applications are runnable at the same
    instant, the background classes collectively hold exactly a
    *share* fraction of the instantaneous pool — a cap (foreground
    latency is protected) that is simultaneously a floor (background
    work cannot be starved below it), which is the bound the
    no-starvation invariant checks.
    """

    count: int = 2
    share: float = 0.25

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ModelError(f"classes count must be >= 2, got {self.count}")
        if not (0.0 < self.share < 1.0):
            raise ModelError(f"classes share must lie in (0, 1), got {self.share}")

    def events(self, n: int, p: float, horizon: float,
               rng: np.random.Generator) -> list[FaultEvent]:
        return []

    def assign(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.count, size=n)


#: Anything compilable into fault events.
FaultSource = ProcessorChurn | CrashRestart | Preemption | PriorityClasses


@dataclass(frozen=True)
class FaultSpec:
    """A bundle of fault sources, compiled together against one scenario."""

    sources: tuple[FaultSource, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        n_classes = sum(isinstance(s, PriorityClasses) for s in self.sources)
        if n_classes > 1:
            raise ModelError(
                "a fault spec may carry at most one classes: source, "
                f"got {n_classes}")

    @property
    def empty(self) -> bool:
        return not self.sources

    def compile(self, n: int, p: float, horizon: float,
                rng: np.random.Generator) -> CompiledFaults:
        """Draw the concrete fault stream for one scenario.

        Sources consume *rng* in declaration order, so the compiled
        stream is a pure function of ``(spec, n, p, horizon, rng
        state)`` — byte-identical for the same fault seed wherever it
        is evaluated.
        """
        if n < 1:
            raise ModelError(f"need at least one application, got n={n}")
        _positive("fault horizon", horizon)
        events: list[FaultEvent] = []
        classes: np.ndarray | None = None
        low_share = 0.0
        for source in self.sources:
            events.extend(source.events(n, p, horizon, rng))
            if isinstance(source, PriorityClasses):
                classes = source.assign(n, rng)
                low_share = source.share
        return CompiledFaults(
            events=_sort_events(events),
            classes=classes,
            low_share=low_share,
            horizon=float(horizon),
        )


_SPEC_EXAMPLES = (
    "none, churn:period=P[,drop=D,min=F,max=G,start=S], "
    "crash:hazard=H,delay=R[,lost=L,start=S], "
    "preempt:period=P,duration=D[,victims=K,start=S], "
    "classes:count=K[,share=S] — combined with '+'"
)


def _require(fields: dict[str, float], spec: str, *names: str) -> None:
    for name in names:
        if math.isnan(fields[name]):
            raise ModelError(f"bad fault spec {spec!r}: {name}= is required")


def parse_fault_spec(spec: str) -> FaultSpec:
    """Turn a CLI fault spec string into a :class:`FaultSpec`.

    Examples::

        none
        churn:period=2e8,drop=0.25
        crash:hazard=4e-9,delay=5e7,lost=1
        churn:period=2e8+crash:hazard=4e-9,delay=5e7+classes:count=2,share=0.2
    """
    text = spec.strip()
    if text.lower() in ("", "none"):
        return FaultSpec()
    sources: list[FaultSource] = []
    for segment in text.split("+"):
        kind, _, body = segment.strip().partition(":")
        kind = kind.lower()
        if kind == "churn":
            f = parse_kv(body, spec, {"period": math.nan, "drop": 0.25,
                                      "min": 0.25, "max": 1.0,
                                      "start": math.nan}, "fault")
            _require(f, spec, "period")
            sources.append(ProcessorChurn(
                period=f["period"], drop=f["drop"], min_frac=f["min"],
                max_frac=f["max"],
                start=None if math.isnan(f["start"]) else f["start"],
            ))
        elif kind == "crash":
            f = parse_kv(body, spec, {"hazard": math.nan, "delay": math.nan,
                                      "lost": 1.0, "start": 0.0}, "fault")
            _require(f, spec, "hazard", "delay")
            sources.append(CrashRestart(
                hazard=f["hazard"], delay=f["delay"], lost=f["lost"],
                start=f["start"],
            ))
        elif kind == "preempt":
            f = parse_kv(body, spec, {"period": math.nan, "duration": math.nan,
                                      "victims": 1.0, "start": math.nan},
                         "fault")
            _require(f, spec, "period", "duration")
            victims = int(f["victims"])
            if victims != f["victims"]:
                raise ModelError(
                    f"bad fault spec {spec!r}: victims must be an integer, "
                    f"got {f['victims']}")
            sources.append(Preemption(
                period=f["period"], duration=f["duration"], victims=victims,
                start=None if math.isnan(f["start"]) else f["start"],
            ))
        elif kind == "classes":
            f = parse_kv(body, spec, {"count": 2.0, "share": 0.25}, "fault")
            count = int(f["count"])
            if count != f["count"]:
                raise ModelError(
                    f"bad fault spec {spec!r}: count must be an integer, "
                    f"got {f['count']}")
            sources.append(PriorityClasses(count=count, share=f["share"]))
        else:
            raise ModelError(
                f"unknown fault spec {segment.strip()!r}; expected one of: "
                f"{_SPEC_EXAMPLES}"
            )
    return FaultSpec(sources=tuple(sources))
