"""Decision computation: turn allocation request batches into decisions.

This is the service's bridge to the scheduling machinery built in the
earlier layers: a request names a strategy in the scheduler registry
(:mod:`repro.core.registry`), the dispatcher resolves the
:class:`~repro.core.registry.SchedulerEntry`, runs it on the request's
workload and platform, and packages the resulting schedule's
``(procs, cache, times)`` into an immutable
:class:`~repro.service.protocol.AllocationDecision`.

Batches are evaluated inline on the calling thread — the batcher's
collector thread — with no pool behind it: :func:`evaluate` hands each
scheduler's group to :func:`~repro.core.registry.schedule_batch`, the
same call the experiment engine makes, and :func:`compute_decision`
is the one-request scalar reference.  Deduplication is the batcher's
job (a request identical to one in flight rides on it), so a batch
reaching :func:`evaluate` contains only distinct requests and the
dispatcher spends no time re-hashing them on the latency-bound path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.registry import get_entry, schedule_batch
from ..types import ReproError
from .protocol import AllocationDecision, AllocationRequest

__all__ = ["compute_decision", "evaluate", "RequestError"]


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
    return AllocationDecision(
        names=request.workload().names,
        procs=_floats(schedule.procs),
        cache=_floats(schedule.cache),
        times=_floats(schedule.times()),
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


def evaluate(requests: Sequence[AllocationRequest], keys: Sequence[str],
             ) -> list[AllocationDecision | Exception]:
    """Evaluate a batch; position *i* answers ``requests[i]``.

    Requests are grouped by lower-cased scheduler name, and each group
    is one :func:`~repro.core.registry.schedule_batch` call, each
    request keeping its own seed-derived generator — bit-identical to
    :func:`compute_decision` per request.  A failing request (unknown
    scheduler, infeasible model input) yields its exception *in place*
    rather than poisoning the batch: concurrent callers coalesced onto
    other slots must still get their answers, so a group whose call
    raises is evaluated request by request.

    ``keys`` are the per-request fingerprints: model failures come back
    as :class:`RequestError` carrying the failing request's fingerprint
    and scheduler.  Non-Repro exceptions stay unwrapped — those are
    server bugs.
    """
    groups: dict[str, list[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.scheduler.lower(), []).append(i)
    out: list[AllocationDecision | Exception | None] = [None] * len(requests)
    for name, idxs in groups.items():
        group = [requests[i] for i in idxs]
        try:
            schedules = schedule_batch(
                name, [(req.workload(), req.platform) for req in group],
                [req.effective_seed() for req in group])
            results = [_decision_from_schedule(req, name, schedule)
                       for req, schedule in zip(group, schedules)]
        except Exception:
            results = [_compute_or_error(req) for req in group]
        for i, result in zip(idxs, results):
            if isinstance(result, ReproError):
                result = RequestError(result, keys[i], requests[i].scheduler)
            out[i] = result
    return out
