"""Tests for the in-memory LRU decision cache."""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.cache import LRUCache
from repro.types import ModelError


def fingerprints(n: int) -> list[str]:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = LRUCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42

    def test_capacity_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh 'a' -> 'b' is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)    # re-insert refreshes
        cache.put("c", 3)
        assert cache.peek("a") == 10 and cache.peek("c") == 3
        assert cache.peek("b") is None
        assert cache.get("a") == 10

    def test_peek_does_not_touch(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1     # no recency refresh, no counter
        cache.put("c", 3)
        assert cache.peek("a") is None  # 'a' was still the LRU entry
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_capacity_validation(self):
        with pytest.raises(ModelError):
            LRUCache(capacity=0)

    def test_miss_returns_none_and_counts(self):
        cache = LRUCache(capacity=4)
        assert cache.get("nope") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 1
        assert stats.hit_rate == 0.0

    def test_put_refresh_overwrites_in_place(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert cache.stats().size == 1
        assert cache.stats().evictions == 0


class TestCounters:
    def test_hits_misses_evictions(self):
        cache = LRUCache(capacity=2)
        cache.get("x")                  # miss
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)               # evicts 'a'
        cache.get("b")                  # hit
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 2
        assert stats.capacity == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_without_traffic(self):
        assert LRUCache(4).stats().hit_rate == 0.0

    def test_count_hit_feeds_aggregate(self):
        cache = LRUCache(capacity=4)
        cache.count_hit()
        cache.count_hit()
        cache.get("absent")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.size == 0

    def test_capacity_is_respected(self):
        cache = LRUCache(capacity=128)
        keys = fingerprints(500)
        for i, key in enumerate(keys):
            cache.put(key, i)
        stats = cache.stats()
        assert stats.size == 128
        # every insert beyond capacity evicted exactly one entry
        assert stats.evictions == 500 - 128
        # and the survivors are the 128 most recent inserts
        assert all(cache.peek(k) is not None for k in keys[-128:])
        assert all(cache.peek(k) is None for k in keys[:-128])

    def test_eviction_terminates_when_everything_is_hot(self):
        cache = LRUCache(capacity=4)
        for key in "abcd":
            cache.put(key, key)
        for key in "abcd":
            cache.get(key)
        cache.put("e", "e")   # still evicts the least recent: 'a'
        assert cache.stats().size == 4
        assert cache.peek("a") is None and cache.peek("e") == "e"

    def test_stats_is_a_snapshot(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        before = cache.stats()
        cache.get("k")
        cache.get("absent")
        cache.put("j", 2)
        assert (before.hits, before.misses, before.size) == (0, 0, 1)
        after = cache.stats()
        assert (after.hits, after.misses, after.size) == (1, 1, 2)

    def test_as_dict_keys(self):
        d = LRUCache(4).stats().as_dict()
        assert set(d) == {"hits", "misses", "evictions", "size", "capacity",
                          "hit_rate"}


class TestThreadSafety:
    def test_concurrent_put_get(self):
        cache = LRUCache(capacity=64)
        errors: list[Exception] = []

        def worker(base: int):
            try:
                for i in range(500):
                    key = str((base * 31 + i) % 100)
                    cache.put(key, i)
                    cache.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.size <= 64
        assert stats.lookups == 8 * 500

    def test_counters_exact_under_thread_hammer(self):
        """N threads on one lock: hits + misses == exact lookup count."""
        keys = fingerprints(256)
        nthreads, per_thread = 8, 8 * len(keys)
        cache = LRUCache(capacity=512)
        for i, key in enumerate(keys[:128]):
            cache.put(key, i)
        barrier = threading.Barrier(nthreads)
        errors: list[object] = []

        def worker(tid: int):
            local = keys[tid:] + keys[:tid]
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = local[i % len(local)]
                    value = cache.get(key)
                    if value is not None and keys[value] != key:
                        errors.append((key, value))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == nthreads * per_thread
        # nothing was inserted during the run: half the keyspace is
        # present, and each thread cycles over all of it whole times
        assert stats.hits == stats.misses

    def test_concurrent_put_get_no_lost_entries(self):
        nthreads = 8
        keys = fingerprints(512)
        cache = LRUCache(capacity=1024)
        barrier = threading.Barrier(nthreads)

        def worker(tid: int):
            barrier.wait()
            for _ in range(3):
                for i, key in enumerate(keys):
                    if i % nthreads == tid:
                        cache.put(key, i)
                    else:
                        cache.get(key)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # capacity was never exceeded, so every key must be present
        assert all(cache.peek(k) == i for i, k in enumerate(keys))
        assert cache.stats().evictions == 0

    def test_concurrent_count_hit_is_exact(self):
        nthreads, per_thread = 8, 1_000
        cache = LRUCache(capacity=4)
        barrier = threading.Barrier(nthreads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                cache.count_hit()

        threads = [threading.Thread(target=worker) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats().hits == nthreads * per_thread
