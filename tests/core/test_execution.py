"""Tests for the Eq. 2 execution-time model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Application, Platform, Workload
from repro.core.execution import (
    access_cost_factor,
    amdahl_flops,
    amdahl_speedup,
    execution_time_single,
    execution_times,
    miss_rates,
    sequential_times,
)
from repro.core.powerlaw import miss_rate
from repro.types import ModelError


@pytest.fixture
def pf():
    return Platform(p=8.0, cache_size=1e9, latency_cache=0.17,
                    latency_memory=1.0, alpha=0.5)


def _wl(**kw):
    base = dict(name="T", work=1e9, seq_fraction=0.0, access_freq=0.5, miss_rate=0.01)
    base.update(kw)
    return Workload([Application(**base)])


class TestAmdahl:
    def test_flops_one_proc(self):
        assert amdahl_flops(100.0, 0.2, 1.0) == pytest.approx(100.0)

    def test_flops_perfectly_parallel(self):
        assert amdahl_flops(100.0, 0.0, 4.0) == pytest.approx(25.0)

    def test_flops_amdahl(self):
        # 0.2*100 + 0.8*100/4 = 20 + 20
        assert amdahl_flops(100.0, 0.2, 4.0) == pytest.approx(40.0)

    def test_speedup_limit(self):
        """Speedup approaches 1/s as p grows."""
        assert amdahl_speedup(0.1, 1e9) == pytest.approx(10.0, rel=1e-6)

    def test_rejects_nonpositive_procs(self):
        with pytest.raises(ModelError):
            amdahl_flops(1.0, 0.0, 0.0)

    @given(s=st.floats(min_value=0, max_value=1),
           p1=st.floats(min_value=0.1, max_value=100),
           p2=st.floats(min_value=0.1, max_value=100))
    def test_flops_monotone_in_procs(self, s, p1, p2):
        if p1 > p2:
            p1, p2 = p2, p1
        assert amdahl_flops(1e6, s, p2) <= amdahl_flops(1e6, s, p1) + 1e-6


class TestExecutionTimes:
    def test_eq2_by_hand(self, pf):
        """Exe = Fl(p) * (1 + f*(ls + ll*min(1, d/x^alpha))) by hand."""
        wl = _wl(work=1e6, access_freq=0.5, miss_rate=0.01, baseline_cache=1e9)
        x, p = 0.25, 2.0
        d = 0.01  # C0 == Cs
        m = min(1.0, d / x**0.5)
        expected = (1e6 / p) * (1 + 0.5 * (0.17 + 1.0 * m))
        got = execution_times(wl, pf, np.array([p]), np.array([x]))[0]
        assert got == pytest.approx(expected)

    def test_no_cache_branch(self, pf):
        """x = 0 costs a full miss per access."""
        wl = _wl(work=1e6, access_freq=1.0)
        got = execution_times(wl, pf, np.array([1.0]), np.array([0.0]))[0]
        assert got == pytest.approx(1e6 * (1 + 1.0 * (0.17 + 1.0)))

    def test_footprint_clamp(self, pf):
        """Beyond the footprint, more cache does not help."""
        wl_small = _wl(footprint=1e8, baseline_cache=1e9)
        t_quarter = execution_times(wl_small, pf, np.array([1.0]), np.array([0.1]))[0]
        t_full = execution_times(wl_small, pf, np.array([1.0]), np.array([1.0]))[0]
        assert t_quarter == pytest.approx(t_full)

    def test_sequential_times_is_exe_at_one_proc(self, pf):
        wl = _wl(seq_fraction=0.3)
        x = np.array([0.2])
        assert sequential_times(wl, pf, x)[0] == pytest.approx(
            execution_times(wl, pf, np.array([1.0]), x)[0]
        )

    def test_perfectly_parallel_scaling(self, pf):
        """Exe(p, x) = Exe(1, x)/p for s = 0."""
        wl = _wl(seq_fraction=0.0)
        x = np.array([0.3])
        t1 = execution_times(wl, pf, np.array([1.0]), x)[0]
        t4 = execution_times(wl, pf, np.array([4.0]), x)[0]
        assert t4 == pytest.approx(t1 / 4.0)

    def test_shape_validation(self, pf):
        wl = _wl()
        with pytest.raises(ModelError):
            execution_times(wl, pf, np.array([1.0, 2.0]), np.array([0.1]))
        with pytest.raises(ModelError):
            execution_times(wl, pf, np.array([1.0]), np.array([0.1, 0.2]))

    def test_single_matches_vector(self, pf):
        app = Application(name="T", work=1e9, seq_fraction=0.1,
                          access_freq=0.5, miss_rate=0.01)
        wl = Workload([app])
        vec = execution_times(wl, pf, np.array([2.0]), np.array([0.3]))[0]
        assert execution_time_single(app, pf, 2.0, 0.3) == pytest.approx(vec)

    @given(x1=st.floats(min_value=0.0, max_value=1.0),
           x2=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_cache(self, x1, x2):
        """More cache never slows an application down."""
        pf = Platform(p=8.0, cache_size=1e9)
        wl = _wl()
        if x1 > x2:
            x1, x2 = x2, x1
        t_small = execution_times(wl, pf, np.array([1.0]), np.array([x1]))[0]
        t_large = execution_times(wl, pf, np.array([1.0]), np.array([x2]))[0]
        assert t_large <= t_small * (1 + 1e-12)

    @given(p1=st.floats(min_value=0.1, max_value=256),
           p2=st.floats(min_value=0.1, max_value=256),
           s=st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_procs(self, p1, p2, s):
        """More processors never slow an application down."""
        pf = Platform(p=8.0, cache_size=1e9)
        wl = _wl(seq_fraction=s)
        if p1 > p2:
            p1, p2 = p2, p1
        t_few = execution_times(wl, pf, np.array([p1]), np.array([0.1]))[0]
        t_many = execution_times(wl, pf, np.array([p2]), np.array([0.1]))[0]
        assert t_many <= t_few * (1 + 1e-12)


class TestMissRates:
    def test_zero_fraction_full_miss(self, pf):
        wl = _wl(miss_rate=0.5)
        assert miss_rates(wl, pf, np.array([0.0]))[0] == 1.0

    def test_never_missing_application_never_misses(self, pf):
        """d = 0 (m0 = 0) gives 0 at every fraction, x = 0 included."""
        x = np.array([0.0, 0.3, 1.0])
        wl = Workload([Application(name=f"T{i}", work=1e9, miss_rate=0.0)
                       for i in range(3)])
        assert miss_rates(wl, pf, x).tolist() == [0.0, 0.0, 0.0]

    def test_clamp_stops_at_footprint(self, pf):
        """Past a / Cs more cache changes nothing; an infinite footprint
        never clamps."""
        wl = _wl(footprint=2.5e8, baseline_cache=1e9, miss_rate=0.2)
        at = miss_rates(wl, pf, np.array([0.25]))[0]
        past = miss_rates(wl, pf, np.array([0.8]))[0]
        assert past == at == pytest.approx(0.2 * (1e9 / 2.5e8) ** 0.5)
        unclamped = _wl(baseline_cache=1e9, miss_rate=0.2)
        assert miss_rates(unclamped, pf, np.array([0.8]))[0] < at

    def test_threshold_clamps_at_one(self, pf):
        """At x = d^(1/alpha), d = m0 (C0/Cs)^alpha, Eq. 1 reaches 1
        exactly; below it the rate stays clamped at 1."""
        wl = _wl(baseline_cache=1e9, miss_rate=0.2)
        x_t = 0.2 ** (1 / pf.alpha) * 1e9 / pf.cache_size
        m = miss_rates(wl, pf, np.array([x_t]))[0]
        assert m == pytest.approx(1.0)
        assert miss_rates(wl, pf, np.array([x_t / 2]))[0] == 1.0
        assert miss_rates(wl, pf, np.array([2 * x_t]))[0] == pytest.approx(
            2 ** -pf.alpha)

    def test_matches_eq1_bytes_form(self, pf):
        """A fraction x prices like Eq. 1 on x * Cs bytes."""
        m0, c0, x = 0.02, 40e6, 0.25
        wl = _wl(miss_rate=m0, baseline_cache=c0)
        assert miss_rates(wl, pf, np.array([x]))[0] == pytest.approx(
            miss_rate(m0, c0, x * pf.cache_size, pf.alpha))

    def test_vectorized_matches_one_by_one(self, pf):
        apps = [Application(name="a", work=1e9, miss_rate=0.3),
                Application(name="b", work=1e9, miss_rate=0.05, footprint=5e7),
                Application(name="c", work=1e9, miss_rate=0.0)]
        x = np.array([0.1, 0.5, 0.2])
        together = miss_rates(Workload(apps), pf, x)
        alone = [miss_rates(Workload([a]), pf, x[i:i + 1])[0]
                 for i, a in enumerate(apps)]
        assert together.tolist() == alone

    @given(m0=st.floats(min_value=0.0, max_value=1.0),
           x=st.floats(min_value=0.0, max_value=1.0),
           alpha=st.floats(min_value=0.05, max_value=1.0),
           footprint=st.floats(min_value=1e3, max_value=1e12))
    def test_range(self, m0, x, alpha, footprint):
        pf = Platform(p=8.0, cache_size=1e9, alpha=alpha)
        m = miss_rates(_wl(miss_rate=m0, footprint=footprint), pf, np.array([x]))[0]
        assert 0.0 <= m <= 1.0

    def test_access_cost_factor_formula(self, pf):
        wl = _wl(access_freq=0.5)
        m = miss_rates(wl, pf, np.array([0.2]))[0]
        expected = 1 + 0.5 * (0.17 + 1.0 * m)
        assert access_cost_factor(wl, pf, np.array([0.2]))[0] == pytest.approx(expected)

    def test_rejects_negative_fraction(self, pf):
        with pytest.raises(ModelError):
            miss_rates(_wl(), pf, np.array([-0.1]))
