"""Request batcher: coalesce concurrent requests into dispatch batches.

Under load, many connections hit the service at once.  The batcher is
the funnel between them and the dispatcher: each caller enqueues
``(request, future)`` and waits on the future (the event loop awaits
it, an in-process caller blocks); a single collector thread drains
the queue into batches — up to ``max_batch_size`` requests, waiting
at most ``max_wait_s`` after the first arrival for stragglers — and
evaluates each batch through the dispatcher on that same thread,
fanning the per-request results back out to the futures.  It is the
service's one evaluating thread.

Two requests with the same fingerprint inside one batching window are
*coalesced*: the decision is computed once and resolves both futures
(the second caller's response is flagged ``coalesced``).  A lone
request on an idle service pays at most ``max_wait_s`` of extra
latency — the knob trades single-request latency for batch
throughput, exactly like the paper's co-scheduling trades a single
application's finish time for machine-level efficiency.

Queueing is bounded: with ``max_queue_depth`` set, a submit that finds
that many requests already waiting raises :class:`QueueFullError`
(carrying a retry hint) instead of growing the queue without limit —
the HTTP front end translates it into ``503`` + ``Retry-After`` so
overload sheds load at the edge instead of collecting latency debt.

The collector thread is a daemon and additionally wakes on shutdown;
``close()`` drains cleanly and cancels what it cannot serve.
"""

from __future__ import annotations

import inspect
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, Sequence

from ..types import ModelError
from .protocol import AllocationDecision, AllocationRequest

__all__ = ["RequestBatcher", "BatchItem", "BatcherStats", "QueueFullError"]


class QueueFullError(ModelError):
    """The batcher queue is at ``max_queue_depth`` — shed this request.

    ``retry_after_s`` is the server's backoff hint: roughly the time
    the batcher needs to drain one dispatch window.
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
    """One enqueued request and where its answer goes.

    ``future`` resolves to ``(decision, batch_size, coalesced)`` so the
    service layer can stamp serving metadata onto the response.
    """

    request: AllocationRequest
    key: str
    future: "Future[tuple[AllocationDecision, int, bool]]" = field(
        default_factory=Future)


class BatcherStats:
    """Lifetime batching counters (snapshot, no lock needed to read).

    ``queue_depth`` is the one instantaneous gauge in the set: requests
    accepted but not yet handed to the dispatcher at snapshot time.
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
        Batch evaluator — ``evaluate(requests)`` returning one
        decision (or exception) per request, positionally.  Normally
        :meth:`repro.service.dispatcher.Dispatcher.evaluate`.
    max_batch_size : int
        Hard cap on requests per dispatched batch.
    max_wait_s : float
        How long the collector lingers after the first request of a
        window, hoping to fill the batch.  0 disables lingering
        (every request dispatches immediately with whatever else is
        already queued).
    max_queue_depth : int, optional
        Backpressure limit: a submit that finds this many requests
        already accepted-but-undispatched raises
        :class:`QueueFullError`.  None (the default) keeps the
        historical unbounded queue.
    """

    def __init__(
        self,
        evaluate: Callable[[Sequence[AllocationRequest]],
                           "list[AllocationDecision | Exception]"],
        *,
        max_batch_size: int = 16,
        max_wait_s: float = 0.002,
        max_queue_depth: int | None = None,
    ):
        if max_batch_size < 1:
            raise ModelError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_s < 0:
            raise ModelError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ModelError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.evaluate = evaluate
        # Evaluators that accept a ``keys`` argument get the request
        # fingerprints too, so per-request failures can carry them.
        try:
            self._evaluate_wants_keys = (
                "keys" in inspect.signature(evaluate).parameters)
        except (TypeError, ValueError):  # builtins, odd callables
            self._evaluate_wants_keys = False
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.max_queue_depth = (
            None if max_queue_depth is None else int(max_queue_depth))
        self._queue: "queue.Queue[BatchItem | object]" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._batches = 0
        self._requests = 0
        self._coalesced = 0
        self._max_batch_seen = 0
        self._depth = 0
        self._rejected = 0
        self._collector = threading.Thread(
            target=self._run, name="repro-batcher", daemon=True)
        self._collector.start()

    # -- caller side -------------------------------------------------------
    def submit(self, request: AllocationRequest, key: str,
               ) -> "Future[tuple[AllocationDecision, int, bool]]":
        """Enqueue *request*; returns the future carrying its decision.

        Raises :class:`QueueFullError` when the backpressure limit is
        reached and :class:`~repro.types.ModelError` after close().
        """
        item = BatchItem(request=request, key=key)
        # The closed-check and the put must be atomic against close():
        # otherwise an item can slip in after the collector's final
        # drain and its caller blocks on the future forever.
        with self._lock:
            if self._closed:
                raise ModelError("batcher is closed")
            if (self.max_queue_depth is not None
                    and self._depth >= self.max_queue_depth):
                self._rejected += 1
                # Hint: one linger window plus a dispatch round.
                raise QueueFullError(self._depth, self.max_queue_depth,
                                     retry_after_s=max(0.05, 2 * self.max_wait_s))
            self._depth += 1
            self._queue.put(item)
        return item.future

    # -- collector side ----------------------------------------------------
    def _collect_batch(self) -> list[BatchItem] | None:
        """Block for the first item, linger for stragglers; None on shutdown."""
        first = self._queue.get()
        if first is _SHUTDOWN:
            return None
        batch = [first]
        deadline = monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
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
        while True:
            batch = self._collect_batch()
            if batch is None:
                break
            self._serve(batch)
        # Shutdown: fail whatever is still queued with a clean error
        # (cancel() would surface as CancelledError, which callers
        # would report as an internal failure rather than a shutdown).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, BatchItem):
                item.future.set_exception(ModelError("batcher is closed"))

    def _serve(self, batch: list[BatchItem]) -> None:
        """Dispatch one batch: dedup by key, evaluate, fan back out."""
        firsts: dict[str, int] = {}
        unique: list[AllocationRequest] = []
        unique_keys: list[str] = []
        for item in batch:
            if item.key not in firsts:
                firsts[item.key] = len(unique)
                unique.append(item.request)
                unique_keys.append(item.key)
        try:
            if self._evaluate_wants_keys:
                results = self.evaluate(unique, keys=unique_keys)
            else:
                results = self.evaluate(unique)
            if len(results) != len(unique):  # defensive: broken evaluator
                raise ModelError(
                    f"evaluator returned {len(results)} results for "
                    f"{len(unique)} requests")
        except Exception as exc:  # total failure: everyone hears about it
            results = [exc] * len(unique)
        with self._lock:
            self._batches += 1
            self._requests += len(batch)
            self._coalesced += len(batch) - len(unique)
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
            self._depth -= len(batch)
        seen: set[str] = set()
        for item in batch:
            result = results[firsts[item.key]]
            coalesced = item.key in seen
            seen.add(item.key)
            if isinstance(result, Exception):
                item.future.set_exception(result)
            else:
                item.future.set_result((result, len(unique), coalesced))

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> BatcherStats:
        with self._lock:
            return BatcherStats(self._batches, self._requests,
                                self._coalesced, self._max_batch_seen,
                                queue_depth=self._depth,
                                rejected=self._rejected)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, wake the collector, join it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_SHUTDOWN)
        self._collector.join(timeout=timeout)

    def __enter__(self) -> "RequestBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
