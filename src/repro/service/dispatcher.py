"""Decision computation: turn allocation request batches into decisions.

This is the service's bridge to the scheduling machinery built in the
earlier layers: a request names a strategy in the scheduler registry
(:mod:`repro.core.registry`), the dispatcher resolves the
:class:`~repro.core.registry.SchedulerEntry`, runs it on the request's
workload and platform, and packages the resulting schedule's
``(procs, cache, times)`` into an immutable
:class:`~repro.service.protocol.AllocationDecision`.

Batches are evaluated inline on the calling thread — the batcher's
collector thread — with no pool behind it: schedulers with a
vectorized ``batch_fn`` take their whole group in one call, the rest
run one after another.  Deduplication is the batcher's job (a request
identical to one in flight rides on it), so a batch reaching
:meth:`Dispatcher.evaluate` contains only distinct requests and the
dispatcher spends no time re-hashing them on the latency-bound path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.registry import get_entry
from ..types import ReproError
from .metrics import Gauge
from .protocol import AllocationDecision, AllocationRequest

__all__ = ["compute_decision", "Dispatcher", "RequestError"]


class RequestError(ReproError):
    """A per-request evaluation failure, tagged with its fingerprint.

    Wraps the underlying :class:`~repro.types.ReproError` so the HTTP
    layers can put *which* request failed (``request_id``) and on
    *which* scheduler into the error payload instead of a bare repr.
    Non-Repro exceptions (genuine bugs) are never wrapped — they must
    keep surfacing as internal errors (500), not client errors (400).
    """

    def __init__(self, cause: ReproError, request_id: str, scheduler: str):
        super().__init__(str(cause))
        self.__cause__ = cause
        self.request_id = request_id
        self.scheduler = scheduler

    def to_payload(self) -> dict:
        return {
            "error": str(self),
            "request_id": self.request_id,
            "scheduler": self.scheduler,
        }


def _floats(values) -> tuple[float, ...]:
    return tuple(np.asarray(values, dtype=np.float64).tolist())


def _decision_from_schedule(request: AllocationRequest, name: str,
                            schedule) -> AllocationDecision:
    """Package a computed schedule as the request's decision.

    Reads the schedule's arrays as they are: a batch-evaluated
    schedule already carries its row of the vectorized times.
    """
    times = schedule.times()
    procs = getattr(schedule, "procs", None)
    cache = getattr(schedule, "cache", None)
    return AllocationDecision(
        names=request.workload().names,
        procs=_floats(np.full(times.size, request.platform.p)
                      if procs is None else procs),
        cache=_floats(np.ones(times.size) if cache is None else cache),
        times=_floats(times),
        makespan=float(schedule.makespan()),
        scheduler=name,
    )


def _request_rng(request: AllocationRequest) -> np.random.Generator | None:
    seed = request.effective_seed()
    return np.random.default_rng(seed) if seed is not None else None


def compute_decision(request: AllocationRequest) -> AllocationDecision:
    """Evaluate one request: run the named scheduler, package the answer."""
    entry = get_entry(request.scheduler)
    schedule = entry(request.workload(), request.platform,
                     _request_rng(request))
    return _decision_from_schedule(request, entry.name, schedule)


def _compute_or_error(request: AllocationRequest,
                      ) -> AllocationDecision | Exception:
    try:
        return compute_decision(request)
    except Exception as exc:
        return exc


class Dispatcher:
    """Turns request batches into decision lists on the calling thread."""

    def __init__(self) -> None:
        self.inflight = Gauge()

    def evaluate(self, requests: Sequence[AllocationRequest],
                 keys: Sequence[str],
                 ) -> list[AllocationDecision | Exception]:
        """Evaluate a batch; position *i* answers ``requests[i]``.

        Requests naming a scheduler with a vectorized ``batch_fn`` are
        coalesced into one structure-of-arrays batch call per scheduler
        (bit-identical to per-request evaluation, each request keeping
        its own seed-derived generator); the rest are evaluated one by
        one, in order.  A failing request (unknown scheduler, infeasible
        model input) yields its exception *in place* rather than
        poisoning the batch — concurrent callers coalesced onto other
        slots must still get their answers, so a failing batch call
        falls back to per-request evaluation of its group.

        ``keys`` are the per-request fingerprints: model failures come
        back as :class:`RequestError` carrying the failing request's
        fingerprint and scheduler.  Non-Repro exceptions stay
        unwrapped — those are server bugs.
        """
        self.inflight.inc(len(requests))
        try:
            out = self._evaluate(requests)
        finally:
            self.inflight.dec(len(requests))
        for i, result in enumerate(out):
            if (isinstance(result, ReproError)
                    and not isinstance(result, RequestError)):
                out[i] = RequestError(result, keys[i], requests[i].scheduler)
        return out

    def _evaluate(self, requests: Sequence[AllocationRequest],
                  ) -> list[AllocationDecision | Exception]:
        if len(requests) == 1:
            return [_compute_or_error(requests[0])]

        out: list[AllocationDecision | Exception | None] = [None] * len(requests)
        groups: dict[str, list[int]] = {}
        for i, req in enumerate(requests):
            try:
                entry = get_entry(req.scheduler)
            except Exception:
                entry = None
            if entry is not None and entry.batch_fn is not None:
                groups.setdefault(entry.name, []).append(i)
            else:
                out[i] = _compute_or_error(req)
        for name, idxs in groups.items():
            if len(idxs) == 1:
                out[idxs[0]] = _compute_or_error(requests[idxs[0]])
                continue
            entry = get_entry(name)
            group = [requests[i] for i in idxs]
            try:
                schedules = entry.batch_fn(
                    [(req.workload(), req.platform) for req in group],
                    [_request_rng(req) for req in group])
                for i, req, schedule in zip(idxs, group, schedules):
                    out[i] = _decision_from_schedule(req, entry.name, schedule)
            except Exception:
                # Per-request evaluation isolates the failing slot(s).
                for i, req in zip(idxs, group):
                    out[i] = _compute_or_error(req)
        return out
