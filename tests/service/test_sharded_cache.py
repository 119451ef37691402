"""Tests for the fingerprint-sharded decision cache."""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.cache import (
    CacheStats,
    LRUCache,
    ShardedCacheStats,
    ShardedClockCache,
)
from repro.types import ModelError


def fingerprints(n: int) -> list[str]:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


class TestSemantics:
    def test_get_put_roundtrip(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        keys = fingerprints(10)
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert [cache.get(k) for k in keys] == list(range(10))
        assert len(cache) == 10
        assert all(k in cache for k in keys)
        assert "missing" not in cache

    def test_miss_returns_none_and_counts(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        assert cache.get("nope") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 1
        assert stats.hit_rate == 0.0

    def test_peek_does_not_count(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        cache.put("k", 1)
        assert cache.peek("k") == 1
        assert cache.peek("absent") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_put_refresh_overwrites(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert len(cache) == 1

    def test_get_many_values_and_counters(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        keys = fingerprints(8)
        for i, key in enumerate(keys[:5]):
            cache.put(key, i)
        out = cache.get_many(keys)
        assert out == [0, 1, 2, 3, 4, None, None, None]
        stats = cache.stats()
        assert stats.hits == 5 and stats.misses == 3

    def test_clear_keeps_counters(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_count_hit_feeds_aggregate(self):
        cache = ShardedClockCache(capacity=256, shards=8)
        cache.count_hit()
        cache.count_hit()
        assert cache.stats().hits == 2

    def test_stats_shape_matches_single_lock_plus_shards(self):
        sharded = ShardedClockCache(capacity=256, shards=8).stats()
        single = LRUCache(capacity=256).stats()
        assert isinstance(sharded, ShardedCacheStats)
        assert isinstance(sharded, CacheStats)
        assert set(sharded.as_dict()) == set(single.as_dict()) | {"shards"}

    def test_validation(self):
        with pytest.raises(ModelError):
            ShardedClockCache(capacity=0)
        with pytest.raises(ModelError):
            ShardedClockCache(capacity=16, shards=0)


class TestShardGeometry:
    def test_shard_count_rounds_to_power_of_two(self):
        assert ShardedClockCache(capacity=1024, shards=5).shards == 8
        assert ShardedClockCache(capacity=1024, shards=8).shards == 8

    def test_tiny_cache_degrades_to_one_shard(self):
        # Exact eviction counts must stay deterministic for tiny
        # caches, so sharding backs off below a useful shard size.
        assert ShardedClockCache(capacity=2, shards=8).shards == 1
        assert ShardedClockCache(capacity=16, shards=8).shards == 1

    def test_per_shard_capacities_sum_to_total(self):
        cache = ShardedClockCache(capacity=1001, shards=8)
        assert sum(cache._caps) == 1001


class TestEviction:
    def test_capacity_is_respected(self):
        cache = ShardedClockCache(capacity=128, shards=8)
        keys = fingerprints(500)
        for i, key in enumerate(keys):
            cache.put(key, i)
        stats = cache.stats()
        assert stats.size <= 128
        # every insert beyond a shard's capacity evicted something
        assert stats.evictions == 500 - stats.size

    def test_single_shard_evicts_fifo_like_lru(self):
        cache = ShardedClockCache(capacity=2, shards=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None  # oldest unreferenced entry went
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_second_chance_spares_referenced_entries(self):
        cache = ShardedClockCache(capacity=2, shards=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # reference "a": it survives the next eviction
        cache.put("c", 3)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None

    def test_eviction_terminates_when_everything_is_hot(self):
        cache = ShardedClockCache(capacity=4, shards=1)
        for key in "abcd":
            cache.put(key, key)
        for key in "abcd":
            cache.get(key)  # all referenced
        cache.put("e", "e")  # must still evict, not loop
        assert len(cache) == 4


class TestConcurrency:
    def test_counters_exact_under_thread_hammer(self):
        """N threads x K shards: hits + misses == exact lookup count."""
        nthreads, per_thread = 8, 5_000
        keys = fingerprints(256)
        cache = ShardedClockCache(capacity=512, shards=8)
        for i, key in enumerate(keys):
            cache.put(key, i)
        barrier = threading.Barrier(nthreads)
        errors = []

        def worker(tid: int):
            local = keys[tid:] + keys[:tid]
            try:
                barrier.wait()
                for i in range(per_thread):
                    key = local[i % len(local)]
                    value = cache.get(key)
                    if value is not None and keys[value] != key:
                        errors.append((key, value))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        # no lost counter updates: every lookup is a hit or a miss
        assert stats.hits + stats.misses == nthreads * per_thread
        assert stats.size <= 512

    def test_get_many_counters_exact_under_threads(self):
        nthreads, bursts_per_thread, burst = 8, 200, 64
        keys = fingerprints(256)
        cache = ShardedClockCache(capacity=512, shards=8)
        for i, key in enumerate(keys[:128]):
            cache.put(key, i)
        chunks = [keys[i:i + burst] for i in range(0, len(keys), burst)]
        barrier = threading.Barrier(nthreads)

        def worker(tid: int):
            barrier.wait()
            for i in range(bursts_per_thread):
                cache.get_many(chunks[(tid + i) % len(chunks)])

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.hits + stats.misses == nthreads * bursts_per_thread * burst
        # half the keyspace was present throughout: exactly half hit
        assert stats.hits == stats.misses

    def test_concurrent_put_get_no_lost_entries(self):
        nthreads = 8
        keys = fingerprints(512)
        cache = ShardedClockCache(capacity=1024, shards=8)
        barrier = threading.Barrier(nthreads)

        def worker(tid: int):
            barrier.wait()
            for rounds in range(3):
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
        assert all(cache.peek(k) is not None for k in keys)
        assert cache.stats().evictions == 0
