"""In-memory span tracer that wraps public callables at run time.

The benchmark's traced pass swaps a layer's public function (or method)
for a wrapper that records one span per call: name, start, end and the
span that was open when it was called.  Nothing under ``src/`` changes;
:meth:`Tracer.restore` puts every original back.

The open-span stack lives in a :class:`contextvars.ContextVar`, so
spans nest correctly per thread *and* per asyncio task: a request
coroutine suspended at an ``await`` does not adopt spans opened by
another request meanwhile.  Spans stay in a list until :meth:`summary`
folds them into per-name totals and self times (a span's duration
minus the durations of its direct children).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer"]


class Tracer:
    """Span recorder plus named counters; see the module docstring."""

    def __init__(self) -> None:
        # Each record: [name, start, end, parent_id, request_id].
        self.spans: dict[int, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._stack: contextvars.ContextVar[tuple[int, ...]] = (
            contextvars.ContextVar("perfbench_span_stack", default=()))
        self._request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=-1)
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> tuple[int, contextvars.Token]:
        stack = self._stack.get()
        span_id = next(self._ids)
        self.spans[span_id] = [name, perf_counter(), 0.0,
                               stack[-1] if stack else -1,
                               self._request.get()]
        return span_id, self._stack.set(stack + (span_id,))

    def end(self, handle: tuple[int, contextvars.Token]) -> None:
        span_id, token = handle
        self.spans[span_id][2] = perf_counter()
        self._stack.reset(token)

    def set_request(self, request_id: int) -> None:
        """Tag spans opened from now on, in this context, with *request_id*."""
        self._request.set(request_id)

    def count(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn, on_call=None):
        """*fn* with a span named *name* around every call.

        *on_call(args, kwargs, result)*, when given, runs after a
        successful call and typically feeds :meth:`count`.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(handle)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (module function or class method) by a traced wrapper."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), on_call))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def trace_schedulers(self) -> None:
        """Span ``core.schedule`` around every scheduler call, scalar or batch.

        Counts ``core.scalar_calls`` and ``core.batch_rows`` (instances
        passed to a vectorized ``batch_fn``).  Batch functions are
        swapped through the registry's public ``register``.
        """
        from repro.core import registry

        originals = registry.entries()
        self._undo.append(lambda: [registry.register(e.name, e, overwrite=True)
                                   for e in originals])
        self.patch(registry.SchedulerEntry, "__call__", "core.schedule",
                   lambda *_: self.count("core.scalar_calls"))
        for entry in originals:
            if entry.batch_fn is not None:
                registry.register(entry.name, entry, overwrite=True, batch_fn=self.wrap(
                    "core.schedule", entry.batch_fn,
                    lambda args, kwargs, result: self.count("core.batch_rows", len(args[0]))))

    def scheduler_counts(self) -> dict[str, float]:
        rows, scalar = self.counts["core.batch_rows"], self.counts["core.scalar_calls"]
        return {"core.batch_rows": rows, "core.scalar_calls": scalar,
                "core.batch_share": rows / (rows + scalar) if rows + scalar else 0.0}

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans.values():
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, (name, start, end, _, _) in self.spans.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return out
