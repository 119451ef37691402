"""The transport-agnostic decision service.

:class:`DecisionService` is the object everything talks to: the
HTTP front end, the CLI, tests and benchmarks.  One call —
:meth:`~DecisionService.allocate` — runs the full serving path:

1. canonicalize + fingerprint the request (:mod:`.protocol`),
2. answer from the tiered decision cache on a repeat — the in-memory
   LRU tier first, then (when a cache directory is configured) the
   persistent disk tier (:mod:`repro.cache`),
3. otherwise submit to the batcher (:mod:`.batcher`), whose one
   thread evaluates what is queued whenever it is free through the
   dispatcher (:mod:`.dispatcher`) and stores each fresh decision in
   the cache before the batch's fingerprints leave its in-flight map —
   so a request identical to one in flight rides on it, and one
   arriving after it finished is a cache hit, never a recompute,
4. stamp serving metadata (latency, batch size, hit/coalesced flags)
   onto the response.

The service also aggregates every layer's counters into one
``metrics()`` mapping — the single source for ``/metrics``.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter

from ..cache import (
    DecisionDiskTier,
    LRUCache,
    TieredCache,
    resolve_cache_dir,
)
from . import dispatcher
from .batcher import RequestBatcher
from .metrics import Gauge, LatencyHistogram
from .protocol import (
    AllocationDecision,
    AllocationRequest,
    AllocationResponse,
)

__all__ = ["DecisionService"]


async def _blocking_result(future):
    """Wait on *future* by blocking the calling thread (no suspension)."""
    return future.result()


class DecisionService:
    """Batched, cache-backed co-scheduling decision service.

    Parameters
    ----------
    cache_capacity : int
        Size (entries) of the in-memory
        :class:`~repro.cache.LRUCache` decision tier.
    max_batch_size : int
        Largest batch the batcher dispatches at once.
    max_queue_depth : int, optional
        Batcher backpressure limit — submissions beyond this many
        distinct queued requests raise
        :class:`~repro.service.batcher.QueueFullError` (the HTTP
        front end answers 503 + ``Retry-After``); a request identical
        to one in flight rides on it and is never shed.  None =
        unbounded.
    cache_dir : str | Path, optional
        Directory for the persistent decision tier.  When set (or when
        ``REPRO_CACHE_DIR`` is in the environment), every fresh
        decision is also written through to disk and a new process
        answers previously-seen requests as cache hits from its very
        first call — a cross-restart warm start.  None with no env var
        keeps the cache memory-only.
    """

    def __init__(
        self,
        *,
        cache_capacity: int = 1024,
        max_batch_size: int = 16,
        max_queue_depth: int | None = None,
        cache_dir=None,
    ):
        disk_dir = resolve_cache_dir(cache_dir)
        self.cache = TieredCache(
            LRUCache(cache_capacity),
            disk=DecisionDiskTier(disk_dir) if disk_dir is not None else None,
            encode=AllocationDecision.canonical_bytes,
            decode=AllocationDecision.from_payload,
        )
        self.batcher = RequestBatcher(
            self._evaluate,
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
        )
        self.latency = LatencyHistogram()
        self.inflight = Gauge()
        self._lock = threading.Lock()
        self._decisions = 0
        self._errors = 0
        self._latency_total_s = 0.0

    # -- serving -----------------------------------------------------------
    def _evaluate(self, requests, keys):
        """Evaluate one batch on the batcher thread and store its decisions.

        Storing here, before the batcher forgets the batch's keys,
        closes the window in which a twin would be neither a rider nor
        a cache hit; it also keeps the disk write off the event loop.
        """
        results = dispatcher.evaluate(requests, keys)
        for key, result in zip(keys, results):
            if not isinstance(result, Exception):
                self.cache.put(key, result)
        return results

    async def _serve(self, request: AllocationRequest, wait,
                     ) -> AllocationResponse:
        """The serving body shared by both entry points.

        Fingerprint, probe the tiered cache, submit to the batcher
        (whose evaluation stores the fresh decision) and respond.
        *wait* turns the batcher future into an awaitable:
        :meth:`allocate_async` passes :func:`asyncio.wrap_future`,
        :meth:`allocate` a coroutine that blocks on the future and so
        never suspends.
        """
        start = perf_counter()
        self.inflight.inc()
        try:
            try:
                key = request.fingerprint()
            except Exception:
                self._count_error()
                raise
            cached = self.cache.get(key)
            if cached is not None:
                return self._respond(key, cached, start, cache_hit=True,
                                     coalesced=False, batch_size=0)
            try:
                decision, batch_size, coalesced = await wait(
                    self.batcher.submit(request, key))
            except Exception:
                self._count_error()
                raise
            return self._respond(key, decision, start,
                                 cache_hit=False, coalesced=coalesced,
                                 batch_size=batch_size)
        finally:
            self.inflight.dec()

    def allocate(self, request: AllocationRequest) -> AllocationResponse:
        """Serve one request end to end (blocking)."""
        serving = self._serve(request, _blocking_result)
        try:
            serving.send(None)
        except StopIteration as done:
            return done.value
        serving.close()
        raise RuntimeError("blocking allocate suspended")  # pragma: no cover

    async def allocate_async(self, request: AllocationRequest,
                             ) -> AllocationResponse:
        """Serve one request from an event loop (the HTTP front end).

        The fingerprint and the cache probe run inline (they are
        sub-millisecond); only the batcher future is awaited, so the
        event loop keeps accepting connections while the dispatcher
        computes.
        """
        return await self._serve(request, asyncio.wrap_future)

    def _count_error(self) -> None:
        with self._lock:
            self._errors += 1

    def _respond(self, key: str, decision: AllocationDecision, start: float,
                 *, cache_hit: bool, coalesced: bool, batch_size: int,
                 ) -> AllocationResponse:
        latency_s = perf_counter() - start
        self.latency.observe(latency_s)
        with self._lock:
            self._decisions += 1
            self._latency_total_s += latency_s
        return AllocationResponse(
            request_id=key,
            decision=decision,
            cache_hit=cache_hit,
            coalesced=coalesced,
            batch_size=batch_size,
            latency_ms=latency_s * 1000.0,
        )

    # -- introspection -----------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat counter mapping across all serving layers.

        Keys are stable and dot-namespaced (``decisions.total``,
        ``decision_cache.hits``, ``batcher.batches`` ...); the HTTP
        layer renders them in Prometheus text form.
        """
        with self._lock:
            out: dict[str, float] = {
                "decisions.total": self._decisions,
                "decisions.errors": self._errors,
                "decisions.latency_seconds_total": self._latency_total_s,
            }
        out["decisions.inflight"] = self.inflight.value
        for name, value in self.latency.as_dict().items():
            out[f"latency.{name}"] = value
        for name, value in self.cache.stats().as_dict().items():
            out[f"decision_cache.{name}"] = value
        for name, value in self.batcher.stats().as_dict().items():
            out[f"batcher.{name}"] = value
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut down the batcher thread."""
        self.batcher.close()

    def __enter__(self) -> "DecisionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
