"""repro.service — batched, cache-backed co-scheduling decision service.

The serving subsystem: the paper's schedulers, wrapped as an online
decision API.  A request — application set, platform, scheduler name —
is canonicalized and fingerprinted (:mod:`.protocol`); repeats are
answered from the tiered decision cache (:mod:`repro.cache`); misses
queue at the batcher (:mod:`.batcher`), whose one thread evaluates
what is queued whenever it is free (:mod:`.dispatcher`: one
:func:`~repro.core.registry.schedule_batch` call per scheduler, the
call the experiment engine makes too), and a request identical to one
in flight rides on it.  The transport-agnostic core
(:class:`DecisionService`) is fronted by one asyncio HTTP JSON API
(:mod:`.aserver`: ``/v1/allocate``, ``/v1/schedulers``, ``/metrics``)
with a thin client (:mod:`.client`) and the ``repro serve`` /
``repro request`` CLI verbs.

Quickstart::

    from repro.service import DecisionService, AllocationRequest
    from repro.machine import taihulight
    from repro.workloads import npb6

    with DecisionService() as svc:
        req = AllocationRequest(
            applications=tuple(npb6(seq_range=None)),
            platform=taihulight(),
            scheduler="dominant-minratio",
        )
        first = svc.allocate(req)    # computed
        again = svc.allocate(req)    # decision-cache hit
        assert again.cache_hit and again.decision == first.decision
"""

from .aserver import AsyncServerThread, serve_async
from .batcher import QueueFullError, RequestBatcher
from .client import ServiceClient, ServiceError
from .core import DecisionService
from .dispatcher import RequestError, compute_decision
from .metrics import Gauge, LatencyHistogram
from .protocol import (
    AllocationDecision,
    AllocationRequest,
    AllocationResponse,
    canonical_json,
    parse_platform,
    request_from_payload,
)

__all__ = [
    "AllocationDecision",
    "AllocationRequest",
    "AllocationResponse",
    "AsyncServerThread",
    "DecisionService",
    "Gauge",
    "LatencyHistogram",
    "QueueFullError",
    "RequestBatcher",
    "RequestError",
    "ServiceClient",
    "ServiceError",
    "canonical_json",
    "compute_decision",
    "parse_platform",
    "request_from_payload",
    "serve_async",
]
