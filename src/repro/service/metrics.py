"""Serving observability primitives: latency histograms and gauges.

The service needs more than lifetime counters to describe itself under
load: tail latency (p50/p95/p99) and instantaneous pressure (queue
depth, requests in flight).  This module holds the two primitives every
serving layer shares:

:class:`LatencyHistogram`
    Fixed log-spaced buckets (each bound double the last, from 100 µs
    to ~6.6 s) counting observations.  Quantiles are read back by
    linear interpolation inside the owning bucket — the classic
    Prometheus histogram estimate — and the text exposition renders
    the cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` series
    scrapers expect.  Every histogram uses the same
    :data:`LATENCY_BUCKETS`, so histograms from different processes
    (or different scrape intervals) stay mergeable by addition.

:class:`Gauge`
    A thread-safe up/down counter for in-flight work.

Both are cheap enough for the per-request hot path: one lock acquire
and a couple of integer updates per observation.

:func:`render_metrics_text` renders the service's flat counter mapping
(plus its latency histogram) in Prometheus text exposition format —
the body of ``GET /metrics``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .core import DecisionService

__all__ = ["LatencyHistogram", "Gauge", "LATENCY_BUCKETS",
           "render_metrics_text"]

#: Latency bucket bounds in seconds: log-spaced, x2 per step,
#: 100 µs .. ~6.6 s (17 bounds; the implicit +Inf bucket catches the rest).
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-4 * 2.0 ** k for k in range(17))


class Gauge:
    """A thread-safe instantaneous value (in-flight counter)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self) -> None:
        with self._lock:
            self._value += 1

    def dec(self) -> None:
        with self._lock:
            self._value -= 1

    @property
    def value(self) -> int:
        return self._value


class LatencyHistogram:
    """Thread-safe latency histogram over :data:`LATENCY_BUCKETS`.

    Observations above the last bound land in the implicit ``+Inf``
    bucket.
    """

    __slots__ = ("_counts", "_count", "_sum", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * (len(LATENCY_BUCKETS) + 1)  # + the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    # -- write side --------------------------------------------------------
    def observe(self, seconds: float) -> None:
        idx = bisect_left(LATENCY_BUCKETS, seconds)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds

    # -- read side ---------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum_seconds(self) -> float:
        return self._sum

    def snapshot(self) -> tuple[list[int], int, float]:
        """``(per-bucket counts, total count, total seconds)``, consistent."""
        with self._lock:
            return list(self._counts), self._count, self._sum

    def quantile(self, q: float) -> float:
        """Estimated q-quantile in seconds (0.0 before any traffic).

        Linear interpolation inside the bucket holding the rank; the
        open ``+Inf`` bucket reports its lower bound (the histogram
        cannot see beyond its last edge).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, total, _ = self.snapshot()
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = LATENCY_BUCKETS[i - 1] if i > 0 else 0.0
                if i >= len(LATENCY_BUCKETS):  # +Inf bucket
                    return LATENCY_BUCKETS[-1]
                hi = LATENCY_BUCKETS[i]
                frac = (rank - cumulative) / n
                return lo + (hi - lo) * frac
            cumulative += n
        return LATENCY_BUCKETS[-1]

    def as_dict(self) -> dict[str, float]:
        """Flat quantile summary for the JSON metrics mapping."""
        counts, total, total_s = self.snapshot()
        del counts
        return {
            "count": float(total),
            "sum_seconds": total_s,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
        }

    def prometheus_lines(self, name: str) -> Iterator[str]:
        """Cumulative Prometheus histogram exposition for *name*."""
        counts, total, total_s = self.snapshot()
        yield f"# TYPE {name} histogram"
        cumulative = 0
        for bound, n in zip(LATENCY_BUCKETS, counts):
            cumulative += n
            yield f'{name}_bucket{{le="{bound:.10g}"}} {cumulative}'
        yield f'{name}_bucket{{le="+Inf"}} {total}'
        yield f"{name}_sum {total_s:.10g}"
        yield f"{name}_count {total}"


def _prometheus_name(key: str) -> str:
    """``decision_cache.hit_rate`` -> ``repro_decision_cache_hit_rate``."""
    return "repro_" + key.replace(".", "_").replace("-", "_")


def render_metrics_text(metrics: dict[str, float],
                        service: "DecisionService | None" = None) -> str:
    """Prometheus text exposition of the service counter mapping.

    With *service*, the request-latency histogram is appended as a
    native Prometheus histogram (``_bucket{le=...}``/``_sum``/
    ``_count`` series) alongside the gauge-rendered counters.
    """
    lines = []
    for key in sorted(metrics):
        name = _prometheus_name(key)
        lines.append(f"# TYPE {name} gauge")
        value = float(metrics[key])
        lines.append(f"{name} {value:.10g}")
    if service is not None:
        lines.extend(
            service.latency.prometheus_lines("repro_request_latency_seconds"))
    return "\n".join(lines) + "\n"
