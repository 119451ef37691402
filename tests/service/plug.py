"""Form batches deterministically: hold the batcher's one thread busy.

The batcher dispatches whatever is queued the moment its thread is
free, so a test that wants several requests in one batch must keep the
thread busy while it submits them.  :class:`Plug` does that: entering
it submits a throwaway request whose evaluation blocks on a
:class:`threading.Event` until the ``with`` block exits; everything
submitted inside the block queues up behind it and is dispatched
together (up to ``max_batch_size``) once the plug is released.
"""

from __future__ import annotations

import threading

from repro.service.batcher import BatcherStats

#: Fingerprint of the plug's own request.
PLUG_KEY = "plug"


class Plug:
    """Context manager blocking *batcher*'s thread for one evaluation.

    The plug's own batch is exactly one request with no riders;
    :meth:`stats` reports the batcher's counters without it.
    """

    def __init__(self, batcher, timeout: float = 30.0):
        self.batcher = batcher
        self.timeout = timeout
        self._entered = threading.Event()
        self._release = threading.Event()
        self._submitted = 0
        self._submitted_cv = threading.Condition()
        self._future = None

    def _plug_evaluate(self, requests, keys):
        # One-shot: the batches after this one go to the real evaluator.
        self.batcher.evaluate = self._evaluate
        self._entered.set()
        assert self._release.wait(self.timeout), "plug never released"
        return [None] * len(requests)

    def _counting_submit(self, request, key):
        future = self._submit(request, key)
        with self._submitted_cv:
            self._submitted += 1
            self._submitted_cv.notify_all()
        return future

    def __enter__(self) -> "Plug":
        self._evaluate = self.batcher.evaluate
        self.batcher.evaluate = self._plug_evaluate
        self._future = self.batcher.submit(PLUG_KEY, PLUG_KEY)
        assert self._entered.wait(self.timeout), "plug never evaluated"
        # Count submissions from here on (callers on other threads).
        self._submit = self.batcher.submit
        self.batcher.submit = self._counting_submit
        return self

    def wait_submitted(self, n: int) -> None:
        """Block until *n* requests were submitted inside the block."""
        with self._submitted_cv:
            assert self._submitted_cv.wait_for(
                lambda: self._submitted >= n, self.timeout), (
                f"only {self._submitted} of {n} requests submitted")

    def __exit__(self, *exc) -> None:
        del self.batcher.submit  # back to the class's method
        self._release.set()
        self._future.result(timeout=self.timeout)

    def stats(self) -> BatcherStats:
        """The batcher's counters minus the plug's one-request batch."""
        s = self.batcher.stats()
        return BatcherStats(s.batches - 1, s.requests - 1, s.coalesced,
                            s.max_batch_seen, queue_depth=s.queue_depth,
                            rejected=s.rejected)
