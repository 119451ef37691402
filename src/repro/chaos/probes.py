"""Step-wise metric scraping on a fixed cadence.

The kernel's :class:`~repro.simulate.kernel.EventLog` answers *what
happened*; end-of-run aggregates answer *how it ended*.  Neither shows
the shape of a run — how deep the queue got while half the pool was
away, how long the background class sat at its floor.  This module
adds the third view: a :class:`ProbeTimeline` polled on a fixed
interval, the ``scrape_metrics``-style cadence scraper serving stacks
use, emitting typed :class:`ProbeSample` rows next to the event log.

Exactness: probe ticks are exogenous breakpoints (the injector's
``timeline`` hook reports the next tick), so while work is in flight
the kernel stops *at* each tick and the sample carries the true state
at its own timestamp.  Ticks falling inside an idle gap are scraped
lazily at the next allocation — still stamped with their tick time,
with the post-gap state (nothing ran in between, so only arrivals
differ).

Samples are plain frozen dataclasses of floats/ints/tuples; two runs
of the same seeded scenario produce byte-identical
:meth:`ProbeTimeline.as_rows` output, in one process or across
processes, which is what the determinism tests and the CI smoke job
compare.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

from ..types import ModelError

__all__ = ["ProbeSample", "ProbeTimeline", "PROBE_COLUMNS"]


@dataclass(frozen=True, slots=True)
class ProbeSample:
    """One cadence scrape of a fault-injected run.

    Attributes
    ----------
    time : float
        Tick instant the sample describes.
    pool : float
        Instantaneous processor pool (elastic under churn).
    arrived, active, running, down, finished : int
        Application counts: admitted so far; admitted and unfinished;
        actually progressing (up, holding processors); taken out by a
        crash/preemption; completed.
    procs_in_use : float
        Processors allocated across the active set.
    queue_depth : int
        Active applications holding zero processors (stalled behind a
        serializing policy, a class cap, or an outage).
    work_done, work_remaining : float
        Operations retired (net of crash-destroyed work) / outstanding.
    class_procs, class_active : tuple
        Per-priority-class processor totals and active counts
        (single-class runs have one entry).
    class_mean_flow : tuple
        Mean flow time (finish - arrival) of the applications of each
        class that have finished by this tick; 0.0 while none have.
    """

    time: float
    pool: float
    arrived: int
    active: int
    running: int
    down: int
    finished: int
    procs_in_use: float
    queue_depth: int
    work_done: float
    work_remaining: float
    class_procs: tuple[float, ...]
    class_active: tuple[int, ...]
    class_mean_flow: tuple[float, ...]

    def as_row(self) -> tuple:
        """Flat, comparison-friendly view (tuples stay nested)."""
        return tuple(getattr(self, f.name) for f in fields(self))


#: Header matching :meth:`ProbeSample.as_row` column order.
PROBE_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(ProbeSample))


class ProbeTimeline:
    """Fixed-cadence scraper: one :class:`ProbeSample` per *interval*.

    The first tick is at ``t == 0``; *max_samples* bounds the tick
    count (and therefore the kernel's extra event budget) — a run
    outliving its sample budget simply stops scraping, it does not
    fail.  :meth:`force` appends one final out-of-cadence sample, which
    :meth:`repro.chaos.FaultInjector.finalize` uses to pin the
    end-of-run state.
    """

    __slots__ = ("interval", "max_samples", "samples", "_next")

    def __init__(self, interval: float, *, max_samples: int = 2048) -> None:
        if not interval > 0:
            raise ModelError(f"probe interval must be positive, got {interval}")
        if max_samples < 1:
            raise ModelError(f"max_samples must be >= 1, got {max_samples}")
        self.interval = float(interval)
        self.max_samples = int(max_samples)
        self.samples: list[ProbeSample] = []
        self._next = 0.0

    def next_tick(self) -> float:
        """Next pending tick instant, ``inf`` once the budget is spent."""
        if len(self.samples) >= self.max_samples:
            return float("inf")
        return self._next

    def poll(self, now: float, sample: Callable[[float], ProbeSample]) -> None:
        """Scrape every tick due by *now* (tolerantly), stamping each
        sample with its own tick time."""
        from ..simulate.kernel import at_or_before  # cycle-free at runtime

        while (len(self.samples) < self.max_samples
               and at_or_before(self._next, now)):
            self.samples.append(sample(self._next))
            self._next += self.interval

    def force(self, now: float, sample: Callable[[float], ProbeSample]) -> None:
        """Append one sample at *now* regardless of cadence or budget."""
        if self.samples and self.samples[-1].time == float(now):
            return
        self.samples.append(sample(float(now)))

    def as_rows(self) -> list[tuple]:
        """All samples as flat tuples (see :data:`PROBE_COLUMNS`)."""
        return [s.as_row() for s in self.samples]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)
