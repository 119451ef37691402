"""TieredCache semantics: transparency, promotion, exact counters."""

from __future__ import annotations

import threading

import pytest

from repro.cache import (
    DecisionDiskTier,
    LRUCache,
    TieredCache,
    TieredCacheStats,
)


def _hexkey(i: int) -> str:
    return f"{i:064x}"


def _tiered(tmp_path, *, capacity=8):
    return TieredCache(LRUCache(capacity), disk=DecisionDiskTier(tmp_path))


class TestMemoryOnlyTransparency:
    """Without a disk tier the wrapper must be invisible."""

    def test_stats_are_the_memory_tier_snapshot(self):
        memory = LRUCache(4)
        tiered = TieredCache(memory)
        tiered.put(_hexkey(1), "v")
        assert tiered.get(_hexkey(1)) == "v"
        assert tiered.get(_hexkey(2)) is None
        # Bit-identical counters and keys: same as_dict the memory tier
        # would produce on its own — no disk_* keys appear.
        assert tiered.stats().as_dict() == memory.stats().as_dict()
        assert "disk_hits" not in tiered.stats().as_dict()

    def test_counter_exactness(self):
        tiered = TieredCache(LRUCache(4))
        lookups = 0
        for i in range(20):
            tiered.get(_hexkey(i % 6))
            lookups += 1
            if i % 3 == 0:
                tiered.put(_hexkey(i % 6), i)
        st = tiered.stats()
        assert st.hits + st.misses == lookups


class TestDiskPromotion:
    def test_cross_instance_warm_start(self, tmp_path):
        first = _tiered(tmp_path)
        first.put(_hexkey(1), {"answer": 42})

        # A brand-new memory tier over the same directory: the very
        # first lookup is a hit, served and promoted from disk.
        fresh = _tiered(tmp_path)
        assert fresh.stats().size == 0
        assert fresh.get(_hexkey(1)) == {"answer": 42}
        st = fresh.stats()
        assert isinstance(st, TieredCacheStats)
        assert (st.hits, st.misses, st.disk_hits) == (1, 0, 1)
        # Promoted: the second lookup is a pure memory hit.
        assert fresh.get(_hexkey(1)) == {"answer": 42}
        st = fresh.stats()
        assert (st.hits, st.misses, st.disk_hits) == (2, 0, 1)

    def test_miss_everywhere_counts_one_miss(self, tmp_path):
        tiered = _tiered(tmp_path)
        assert tiered.get(_hexkey(9)) is None
        st = tiered.stats()
        assert (st.hits, st.misses) == (0, 1)

    def test_get_promotes_disk_hits(self, tmp_path):
        warm = _tiered(tmp_path)
        for i in range(4):
            warm.put(_hexkey(i), {"i": i})
        fresh = _tiered(tmp_path)
        keys = [_hexkey(i) for i in range(6)]
        assert [fresh.get(k) for k in keys] == [{"i": 0}, {"i": 1}, {"i": 2},
                                                {"i": 3}, None, None]
        st = fresh.stats()
        assert st.hits + st.misses == len(keys)
        assert (st.hits, st.misses, st.disk_hits) == (4, 2, 4)

    def test_exactness_under_mixed_traffic(self, tmp_path):
        tiered = _tiered(tmp_path, capacity=4)
        lookups = 0
        for i in range(40):
            tiered.get(_hexkey(i % 10))
            lookups += 1
            tiered.put(_hexkey(i % 7), i)
        # Evicted-from-memory entries come back from disk as hits.
        st = tiered.stats()
        assert st.hits + st.misses == lookups

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        tiered = _tiered(tmp_path, capacity=1)
        tiered.put(_hexkey(1), {"v": 1})
        tiered.put(_hexkey(2), {"v": 2})  # evicts key 1 from memory
        assert tiered.memory.peek(_hexkey(1)) is None
        assert tiered.disk.get(_hexkey(1)) is not None  # still on disk
        assert tiered.get(_hexkey(1)) == {"v": 1}
        assert tiered.stats().disk_hits == 1

    def test_decode_failure_is_a_miss(self, tmp_path):
        def boom(payload):
            raise ValueError("stale format")

        warm = TieredCache(LRUCache(4), disk=DecisionDiskTier(tmp_path))
        warm.put(_hexkey(1), {"v": 1})
        fresh = TieredCache(LRUCache(4), disk=DecisionDiskTier(tmp_path),
                            decode=boom)
        assert fresh.get(_hexkey(1)) is None
        st = fresh.stats()
        assert (st.hits, st.misses) == (0, 1)

    def test_put_writes_through_to_disk(self, tmp_path):
        tiered = _tiered(tmp_path)
        tiered.put(_hexkey(3), {"v": 3})
        assert tiered.memory.peek(_hexkey(3)) == {"v": 3}
        assert tiered.disk.get(_hexkey(3)) == {"v": 3}
        st = tiered.stats()
        assert st.disk_entries == 1 and st.disk_bytes > 0
        assert tiered.store_errors == 0

    def test_encode_failure_is_counted_and_still_served(self, tmp_path):
        def boom(value):
            raise ValueError("unencodable")

        tiered = TieredCache(LRUCache(4), disk=DecisionDiskTier(tmp_path),
                             encode=boom)
        tiered.put(_hexkey(1), {"v": 1})
        assert tiered.store_errors == 1
        assert tiered.get(_hexkey(1)) == {"v": 1}
        assert tiered.disk.get(_hexkey(1)) is None

    def test_failed_disk_write_is_counted_and_still_served(self, tmp_path):
        (tmp_path / "decisions").write_text("not a directory")
        tiered = _tiered(tmp_path)
        with pytest.warns(RuntimeWarning, match="could not store"):
            tiered.put(_hexkey(1), {"v": 1})
        assert tiered.store_errors == 1
        assert tiered.stats().store_errors == 1
        assert tiered.get(_hexkey(1)) == {"v": 1}

    def test_count_hit_reaches_memory_tier(self, tmp_path):
        tiered = _tiered(tmp_path)
        tiered.count_hit()
        tiered.get(_hexkey(5))
        st = tiered.stats()
        assert (st.hits, st.misses, st.disk_hits) == (1, 1, 0)
        assert tiered.memory.stats().hits == 1

    def test_metrics_keys_are_additive_only(self, tmp_path):
        plain = TieredCache(LRUCache(8)).stats().as_dict()
        tiered = _tiered(tmp_path).stats().as_dict()
        assert set(plain) <= set(tiered)
        assert set(tiered) - set(plain) == {
            "disk_hits", "store_errors", "disk_entries", "disk_bytes"}


class TestEvictionDeterminism:
    """The same operation sequence always leaves the same cache."""

    @pytest.mark.parametrize("disk", [False, True])
    def test_replay_is_identical(self, tmp_path, disk):
        def replay(cache):
            for i in range(200):
                cache.put(_hexkey(i * 7 % 60), {"i": i})
                cache.get(_hexkey(i * 3 % 60))
            return sorted(
                (k, cache.memory.peek(k))
                for k in (_hexkey(j) for j in range(60))
                if cache.memory.peek(k) is not None
            )

        def fresh(name):
            return TieredCache(
                LRUCache(32),
                disk=DecisionDiskTier(tmp_path / name) if disk else None)

        assert replay(fresh("a")) == replay(fresh("b"))


class TestThreadedExactness:
    def test_hammer(self, tmp_path):
        tiered = _tiered(tmp_path, capacity=16)
        lookups_per_thread = 300
        nthreads = 8

        def worker(seed: int) -> None:
            for i in range(lookups_per_thread):
                k = _hexkey((seed * 31 + i) % 40)
                if tiered.get(k) is None and i % 2 == 0:
                    tiered.put(k, i)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        st = tiered.stats()
        assert st.hits + st.misses == nthreads * lookups_per_thread
