"""Unit and property tests for the power law of cache misses (Eq. 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.powerlaw import (
    cache_for_target_miss_rate,
    miss_rate,
    pow_rowwise,
    useful_fraction_bounds,
)
from repro.types import ModelError

_m0 = st.floats(min_value=1e-6, max_value=1.0)
_size = st.floats(min_value=1e3, max_value=1e12)
_alpha = st.floats(min_value=0.05, max_value=1.0)


class TestMissRate:
    def test_baseline_identity(self):
        """At the baseline cache size, the miss rate is m0."""
        assert miss_rate(0.02, 40e6, 40e6, 0.5) == pytest.approx(0.02)

    def test_half_cache_sqrt2(self):
        """The classic sqrt(2) rule: halving the cache scales misses by sqrt 2."""
        assert miss_rate(0.01, 40e6, 20e6, 0.5) == pytest.approx(0.01 * math.sqrt(2))

    def test_saturates_at_one(self):
        assert miss_rate(0.9, 40e6, 1.0, 0.5) == 1.0

    def test_zero_cache_all_misses(self):
        assert miss_rate(0.5, 40e6, 0.0, 0.5) == 1.0

    def test_zero_cache_zero_m0_no_misses(self):
        """An application that never misses keeps missing never."""
        assert miss_rate(0.0, 40e6, 0.0, 0.5) == 0.0

    def test_vectorized(self):
        out = miss_rate(np.array([0.01, 0.02]), 40e6, np.array([40e6, 40e6]), 0.5)
        assert np.allclose(out, [0.01, 0.02])

    def test_rejects_bad_m0(self):
        with pytest.raises(ModelError):
            miss_rate(1.5, 40e6, 40e6, 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ModelError):
            miss_rate(0.1, 40e6, 40e6, 0.0)

    def test_rejects_negative_cache(self):
        with pytest.raises(ModelError):
            miss_rate(0.1, 40e6, -1.0, 0.5)

    @given(m0=_m0, c0=_size, alpha=_alpha, factor=st.floats(min_value=1.0, max_value=1e6))
    def test_monotone_decreasing_in_cache(self, m0, c0, alpha, factor):
        """More cache never increases the miss rate."""
        small = miss_rate(m0, c0, c0, alpha)
        large = miss_rate(m0, c0, c0 * factor, alpha)
        assert large <= small + 1e-15

    @given(m0=_m0, c0=_size, c=_size, alpha=_alpha)
    def test_range(self, m0, c0, c, alpha):
        m = miss_rate(m0, c0, c, alpha)
        assert 0.0 <= m <= 1.0


class TestUsefulFractionBounds:
    def test_eq3_bounds(self):
        lo, hi = useful_fraction_bounds(0.04, math.inf, 1e9, 0.5)
        assert lo == pytest.approx(0.04**2)
        assert hi == 1.0

    def test_footprint_bound(self):
        lo, hi = useful_fraction_bounds(0.0001, 2.5e8, 1e9, 0.5)
        assert hi == pytest.approx(0.25)

    def test_useless_application(self):
        """d^(1/alpha) >= a/Cs means no fraction is useful."""
        lo, hi = useful_fraction_bounds(0.9, 1e6, 1e9, 0.5)
        assert lo >= hi


class TestCacheForTarget:
    def test_inverts_miss_rate(self):
        c = cache_for_target_miss_rate(0.02, 40e6, 0.01, 0.5)
        assert miss_rate(0.02, 40e6, c, 0.5) == pytest.approx(0.01)

    def test_target_one_needs_nothing(self):
        assert cache_for_target_miss_rate(0.5, 40e6, 1.0, 0.5) == 0.0

    def test_rejects_zero_target(self):
        with pytest.raises(ModelError):
            cache_for_target_miss_rate(0.5, 40e6, 0.0, 0.5)

    @given(m0=_m0, c0=_size, target=st.floats(min_value=1e-6, max_value=0.999),
           alpha=_alpha)
    def test_roundtrip(self, m0, c0, target, alpha):
        c = cache_for_target_miss_rate(m0, c0, target, alpha)
        if target < m0 and c > 0:
            assert miss_rate(m0, c0, c, alpha) == pytest.approx(target, rel=1e-9)


_bases = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                    elements=st.floats(0.0, 1e12))


def _rowwise_reference(base, exponents):
    """One ``row ** float(e)`` per row — the expression scalar code runs."""
    return np.stack([row ** float(e) for row, e in zip(base, exponents)])


class TestPowRowwise:
    # 2.0, 0.5 and 1/3 are exponents NumPy may route through its
    # square/sqrt/cbrt fast paths for a Python-float exponent.
    @pytest.mark.parametrize("e", [2.0, 0.5, 1.0 / 3.0, 1.0 / 1.5])
    @given(base=_bases)
    def test_uniform_exponent_is_bytewise_scalar(self, e, base):
        exponents = np.full(base.shape[0], e)
        out = pow_rowwise(base, exponents)
        assert out.dtype == np.float64
        assert out.tobytes() == _rowwise_reference(base, exponents).tobytes()

    @given(base=_bases, data=st.data())
    def test_mixed_exponents_are_bytewise_scalar(self, base, data):
        exponents = np.array(data.draw(st.lists(
            st.sampled_from([2.0, 0.5, 1.0 / 3.0, 1.0, 0.25]),
            min_size=base.shape[0], max_size=base.shape[0])))
        out = pow_rowwise(base, exponents)
        assert out.tobytes() == _rowwise_reference(base, exponents).tobytes()

    def test_result_is_a_fresh_array(self):
        base = np.array([[4.0, 9.0]])
        base.flags.writeable = False
        out = pow_rowwise(base, np.array([0.5]))
        assert out.flags.writeable and not np.shares_memory(out, base)
