"""Tests for the serving observability primitives."""

from __future__ import annotations

import threading

import pytest

from repro.service.metrics import LATENCY_BUCKETS, Gauge, LatencyHistogram


class TestGauge:
    def test_inc_dec(self):
        gauge = Gauge()
        for _ in range(4):
            gauge.inc()
        gauge.dec()
        assert gauge.value == 3

    def test_thread_safety(self):
        gauge = Gauge()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(10_000):
                gauge.inc()
                gauge.dec()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gauge.value == 0


class TestLatencyHistogram:
    def test_default_buckets_are_log_spaced(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        ratios = [b / a for a, b in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(0.99) == 0.0
        d = hist.as_dict()
        assert d["count"] == 0 and d["p99_ms"] == 0.0

    def test_observe_and_count(self):
        hist = LatencyHistogram()
        for value in (0.0002, 0.0002, 0.01, 1.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum_seconds == pytest.approx(1.0104)

    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(0.001)
        hist.observe(0.1)
        # p50 lands in the bucket containing 1 ms; p99+ approaches the
        # bucket containing 100 ms
        assert 0.0004 <= hist.quantile(0.50) <= 0.0016
        assert hist.quantile(0.995) >= 0.05

    def test_above_last_bound_goes_to_inf_bucket(self):
        hist = LatencyHistogram()
        hist.observe(100.0)  # beyond ~6.6 s
        counts, total, _ = hist.snapshot()
        assert counts[-1] == 1 and total == 1
        # the open bucket reports the last finite bound
        assert hist.quantile(0.99) == pytest.approx(LATENCY_BUCKETS[-1])

    def test_quantile_validation(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_prometheus_exposition(self):
        hist = LatencyHistogram()
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(10.0)  # beyond the last bound, ~6.6 s
        lines = list(hist.prometheus_lines("repro_latency_seconds"))
        assert lines[0] == "# TYPE repro_latency_seconds histogram"
        # cumulative bucket counts, then +Inf == _count
        assert 'repro_latency_seconds_bucket{le="0.0004"} 0' in lines
        assert 'repro_latency_seconds_bucket{le="0.0008"} 1' in lines
        assert 'repro_latency_seconds_bucket{le="0.0512"} 2' in lines
        assert 'repro_latency_seconds_bucket{le="6.5536"} 2' in lines
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in lines
        assert lines[-1] == "repro_latency_seconds_count 3"
        assert any(line.startswith("repro_latency_seconds_sum ")
                   for line in lines)

    def test_cumulative_counts_are_monotone(self):
        hist = LatencyHistogram()
        for k in range(40):
            hist.observe(1e-4 * 1.7 ** (k % 17))
        values = []
        for line in hist.prometheus_lines("h"):
            if line.startswith('h_bucket{le="') and "+Inf" not in line:
                values.append(int(line.rsplit(" ", 1)[1]))
        assert values == sorted(values)
