"""Tests for the LRU simulator and the Mattson stack algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    LRUCache,
    miss_counts_by_ways,
    miss_rate_curve,
    set_stack_distances,
    stack_distances,
    working_set_stream,
    zipf_stream,
)
from repro.types import ModelError

_small_trace = st.lists(st.integers(min_value=0, max_value=31),
                        min_size=1, max_size=200).map(np.asarray)


class TestLRUCache:
    def test_hit_after_access(self):
        c = LRUCache(1, 4)
        assert not c.access(1)  # cold miss
        assert c.access(1)      # hit

    def test_eviction_order_is_lru(self):
        c = LRUCache(1, 2)
        c.access(1)
        c.access(2)
        c.access(1)  # 1 is now MRU
        c.access(3)  # evicts 2
        assert c.access(1)
        assert not c.access(2)

    def test_capacity_invariant(self):
        c = LRUCache(4, 2)
        rng = np.random.default_rng(0)
        c.run(rng.integers(0, 100, size=500))
        assert len(c.contents()) <= c.capacity_lines
        # per-set occupancy bound
        for line_set in range(4):
            in_set = [l for l in c.contents() if l % 4 == line_set]
            assert len(in_set) <= 2

    def test_counters(self):
        c = LRUCache(1, 2)
        c.run(np.array([1, 1, 2, 3, 1]))
        # 1 miss, 1 hit, 2 miss, 3 miss (evicts 1), 1 miss
        assert c.hits == 1
        assert c.misses == 4
        assert c.accesses == 5
        assert c.miss_rate == pytest.approx(0.8)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ModelError):
            LRUCache(0, 4)
        with pytest.raises(ModelError):
            LRUCache(4, 0)


class TestStackDistances:
    def test_hand_example(self):
        # trace: a b a c b a
        d = stack_distances(np.array([0, 1, 0, 2, 1, 0]))
        assert np.isinf(d[0]) and np.isinf(d[1]) and np.isinf(d[3])
        assert d[2] == 2  # a..b..a: 1 distinct other + itself
        assert d[4] == 3  # b a c b
        assert d[5] == 3  # a c b a

    def test_immediate_reuse_distance_one(self):
        d = stack_distances(np.array([7, 7]))
        assert d[1] == 1

    def test_empty_trace(self):
        assert stack_distances(np.array([], dtype=np.int64)).size == 0

    @given(trace=_small_trace)
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_lru_fully_associative(self, trace):
        """Stack algorithm == direct LRU for every capacity."""
        d = stack_distances(trace)
        for ways in (1, 2, 4, 8, 32):
            c = LRUCache(1, ways)
            c.run(trace)
            assert c.misses == miss_counts_by_ways(d, ways)[0]

    @given(trace=_small_trace, num_sets=st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_lru_set_associative(self, trace, num_sets):
        d = set_stack_distances(trace, num_sets)
        for ways in (1, 2, 4):
            c = LRUCache(num_sets, ways)
            c.run(trace)
            assert c.misses == miss_counts_by_ways(d, ways)[0]

    @given(trace=_small_trace)
    @settings(max_examples=40, deadline=None)
    def test_inclusion_property(self, trace):
        """LRU inclusion: a bigger cache never misses more on any trace."""
        d = stack_distances(trace)
        ways = np.array([1, 2, 4, 8, 16, 32])
        misses = miss_counts_by_ways(d, ways)
        assert np.all(np.diff(misses) <= 0)

    def test_cold_misses_equal_distinct_lines(self):
        rng = np.random.default_rng(1)
        trace = working_set_stream(64, 1000, rng)
        d = stack_distances(trace)
        assert int(np.isinf(d).sum()) == np.unique(trace).size


class TestMissRateCurve:
    def test_working_set_knee(self):
        """Miss rate collapses once the working set fits."""
        rng = np.random.default_rng(2)
        trace = zipf_stream(512, 30_000, rng, skew=1.2)
        rates = miss_rate_curve(trace, np.array([16, 64, 256, 1024]))
        assert np.all(np.diff(rates) <= 0)
        assert rates[-1] < 0.1  # everything fits at 1024 lines

    def test_divisibility_check(self):
        with pytest.raises(ModelError):
            miss_rate_curve(np.array([1, 2, 3]), np.array([6]), num_sets=4)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ModelError):
            miss_rate_curve(np.array([1, 2]), np.array([0]))

    def test_rejects_bad_ways(self):
        with pytest.raises(ModelError):
            miss_counts_by_ways(np.array([1.0]), np.array([0]))
