"""Request batcher: turn concurrent requests into dispatch batches.

Under load, many connections hit the service at once.  The batcher is
the funnel between them and the dispatcher: each caller enqueues
``(request, key)`` and waits on the returned future (the event loop
awaits it, an in-process caller blocks); a single collector thread
takes whatever is queued the moment it is free — up to
``max_batch_size`` requests, with no timer — and evaluates that batch
through the dispatcher on the same thread, fanning the per-request
results back out to the futures.  It is the service's one evaluating
thread, so batches form on their own: requests that arrive while one
batch computes queue up and become the next, and a lone request on an
idle service is dispatched at once.

A request whose fingerprint is already queued or being evaluated is
*coalesced*: it rides on that computation instead of queueing again,
and its response is flagged ``coalesced``.  A rider adds no queue
depth and is never shed.

Queueing is bounded: with ``max_queue_depth`` set, a submit that finds
that many distinct requests already waiting raises
:class:`QueueFullError` (carrying a retry hint) instead of growing the
queue without limit — the HTTP front end translates it into ``503`` +
``Retry-After`` so overload sheds load at the edge instead of
collecting latency debt.

The collector thread is a daemon and additionally wakes on shutdown;
``close()`` stops new submissions and serves every request already
accepted before the thread exits.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from ..types import ModelError
from .protocol import AllocationDecision, AllocationRequest

__all__ = ["RequestBatcher", "BatchItem", "BatcherStats", "QueueFullError"]

#: Backoff hint (seconds) carried by :class:`QueueFullError`.
RETRY_AFTER_S = 0.05


class QueueFullError(ModelError):
    """The batcher queue is at ``max_queue_depth`` — shed this request.

    ``retry_after_s`` is the server's backoff hint.
    """

    def __init__(self, depth: int, max_depth: int, retry_after_s: float):
        super().__init__(
            f"batcher queue full ({depth} waiting, limit {max_depth}); "
            f"retry in {retry_after_s:.3g}s")
        self.depth = depth
        self.max_depth = max_depth
        self.retry_after_s = retry_after_s

#: Sentinel enqueued by close() to wake the collector immediately.
_SHUTDOWN = object()


@dataclass
class BatchItem:
    """One distinct enqueued request and where its answer goes.

    Each waiter future resolves to ``(decision, batch_size,
    coalesced)`` so the service layer can stamp serving metadata onto
    the response; the first waiter is the submitter, the rest are
    riders.
    """

    request: AllocationRequest
    key: str
    waiters: "list[Future[tuple[AllocationDecision, int, bool]]]" = field(
        default_factory=lambda: [Future()])


class BatcherStats:
    """Lifetime batching counters (snapshot, no lock needed to read).

    ``requests`` counts callers and ``coalesced`` the riders among
    them.  ``queue_depth`` is the one instantaneous gauge in the set:
    distinct requests accepted but not yet evaluated at snapshot time.
    """

    __slots__ = ("batches", "requests", "coalesced", "max_batch_seen",
                 "queue_depth", "rejected")

    def __init__(self, batches: int, requests: int, coalesced: int,
                 max_batch_seen: int, queue_depth: int = 0, rejected: int = 0):
        self.batches = batches
        self.requests = requests
        self.coalesced = coalesced
        self.max_batch_seen = max_batch_seen
        self.queue_depth = queue_depth
        self.rejected = rejected

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "max_batch_seen": self.max_batch_seen,
            "mean_batch_size": self.mean_batch_size,
            "queue_depth": self.queue_depth,
            "rejected": self.rejected,
        }


class RequestBatcher:
    """Queue + collector thread turning request streams into batches.

    Parameters
    ----------
    evaluate : callable
        Batch evaluator — ``evaluate(requests, keys=keys)`` returning
        one decision (or exception) per request, positionally; *keys*
        are the requests' fingerprints.  Normally the service's
        ``DecisionService._evaluate``, which calls
        :func:`repro.service.dispatcher.evaluate` and caches what it
        returns.
    max_batch_size : int
        Hard cap on distinct requests per dispatched batch.
    max_queue_depth : int, optional
        Backpressure limit: a submit of a new fingerprint that finds
        this many distinct requests already accepted-but-unevaluated
        raises :class:`QueueFullError`.  None (the default) keeps the
        queue unbounded.
    """

    def __init__(
        self,
        evaluate: Callable[..., "list[AllocationDecision | Exception]"],
        *,
        max_batch_size: int = 16,
        max_queue_depth: int | None = None,
    ):
        if max_batch_size < 1:
            raise ModelError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ModelError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.evaluate = evaluate
        self.max_batch_size = int(max_batch_size)
        self.max_queue_depth = (
            None if max_queue_depth is None else int(max_queue_depth))
        self._queue: "queue.Queue[BatchItem | object]" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        # Queued or being-evaluated requests by fingerprint.
        self._pending: dict[str, BatchItem] = {}
        self._batches = 0
        self._requests = 0
        self._coalesced = 0
        self._max_batch_seen = 0
        self._rejected = 0
        self._collector = threading.Thread(
            target=self._run, name="repro-batcher", daemon=True)
        self._collector.start()

    # -- caller side -------------------------------------------------------
    def submit(self, request: AllocationRequest, key: str,
               ) -> "Future[tuple[AllocationDecision, int, bool]]":
        """Enqueue *request*; returns the future carrying its decision.

        A *key* already queued or being evaluated rides on that
        computation.  Raises :class:`QueueFullError` when the
        backpressure limit is reached and
        :class:`~repro.types.ModelError` after close().
        """
        # The closed-check and the put must be atomic against close():
        # otherwise an item can slip in behind the shutdown sentinel
        # and its caller blocks on the future forever.
        with self._lock:
            if self._closed:
                raise ModelError("batcher is closed")
            item = self._pending.get(key)
            if item is not None:
                future: Future = Future()
                item.waiters.append(future)
                return future
            depth = len(self._pending)
            if self.max_queue_depth is not None and depth >= self.max_queue_depth:
                self._rejected += 1
                raise QueueFullError(depth, self.max_queue_depth,
                                     retry_after_s=RETRY_AFTER_S)
            item = self._pending[key] = BatchItem(request=request, key=key)
            self._queue.put(item)
        return item.waiters[0]

    # -- collector side ----------------------------------------------------
    def _collect_batch(self) -> list[BatchItem] | None:
        """Block for the first item, take what else is queued; None on shutdown."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Serve what we have; the next _collect_batch call sees
                # a re-posted sentinel and stops.
                self._queue.put(_SHUTDOWN)
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        # close() posts the sentinel after the last request it accepts,
        # so every accepted request, riders included, is served first.
        while (batch := self._collect_batch()) is not None:
            self._serve(batch)

    def _serve(self, batch: list[BatchItem]) -> None:
        """Evaluate one batch and resolve every waiter of every item."""
        try:
            results = self.evaluate([item.request for item in batch],
                                    keys=[item.key for item in batch])
            if len(results) != len(batch):  # defensive: broken evaluator
                raise ModelError(
                    f"evaluator returned {len(results)} results for "
                    f"{len(batch)} requests")
        except Exception as exc:  # total failure: everyone hears about it
            results = [exc] * len(batch)
        with self._lock:
            # From here on a repeat of these keys queues afresh.
            for item in batch:
                del self._pending[item.key]
            callers = sum(len(item.waiters) for item in batch)
            self._batches += 1
            self._requests += callers
            self._coalesced += callers - len(batch)
            self._max_batch_seen = max(self._max_batch_seen, callers)
        for item, result in zip(batch, results):
            for i, future in enumerate(item.waiters):
                if not future.set_running_or_notify_cancel():
                    continue  # its caller gave up; the others still hear
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result((result, len(batch), i > 0))

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> BatcherStats:
        with self._lock:
            return BatcherStats(self._batches, self._requests,
                                self._coalesced, self._max_batch_seen,
                                queue_depth=len(self._pending),
                                rejected=self._rejected)

    def close(self) -> None:
        """Stop accepting work, wake the collector, join it (5 s at most)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._collector.join(timeout=5.0)

    def __enter__(self) -> "RequestBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
