"""Tests for the in-memory LRU decision cache."""

from __future__ import annotations

import threading

import pytest

from repro.cache import LRUCache
from repro.types import ModelError


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
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get("a") == 10

    def test_len_and_clear(self):
        cache = LRUCache(capacity=8)
        for i in range(5):
            cache.put(str(i), i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0
        # lifetime counters survive the clear
        assert cache.stats().misses == 0 and cache.stats().evictions == 0

    def test_peek_does_not_touch(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1     # no recency refresh, no counter
        cache.put("c", 3)
        assert "a" not in cache         # 'a' was still the LRU entry
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_capacity_validation(self):
        with pytest.raises(ModelError):
            LRUCache(capacity=0)


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
