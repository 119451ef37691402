"""Tests for dominance theory: Definition 4, Lemma 4 / Theorem 3."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, Workload
from repro.core.dominance import (
    bounded_optimal_cache_fractions,
    cache_weights,
    dominance_ratios,
    is_dominant,
    optimal_cache_fractions,
    violating_applications,
)
from repro.machine import taihulight
from repro.types import ModelError


@pytest.fixture
def pf():
    return taihulight()


class TestWeightsAndRatios:
    def test_weights_formula(self, npb6_pp, pf):
        d = npb6_pp.miss_coefficients(pf)
        expected = (npb6_pp.work * npb6_pp.freq * d) ** (1 / (pf.alpha + 1))
        assert np.allclose(cache_weights(npb6_pp, pf), expected)

    def test_ratio_formula(self, npb6_pp, pf):
        d = npb6_pp.miss_coefficients(pf)
        w = cache_weights(npb6_pp, pf)
        expected = w / d ** (1 / pf.alpha)
        assert np.allclose(dominance_ratios(npb6_pp, pf), expected)

    def test_zero_freq_zero_weight(self, pf):
        wl = Workload([Application(name="x", work=1e9, access_freq=0.0, miss_rate=0.5)])
        assert cache_weights(wl, pf)[0] == 0.0

    def test_zero_miss_infinite_ratio(self, pf):
        wl = Workload([Application(name="x", work=1e9, access_freq=0.5, miss_rate=0.0)])
        assert dominance_ratios(wl, pf)[0] == np.inf
        assert cache_weights(wl, pf)[0] == 0.0


class TestIsDominant:
    def test_empty_subset_dominant(self, npb6_pp, pf):
        assert is_dominant(npb6_pp, pf, np.zeros(6, dtype=bool))

    def test_definition_consistency(self, npb6_pp, pf):
        """is_dominant agrees with the raw Definition 4 arithmetic."""
        weights = cache_weights(npb6_pp, pf)
        ratios = dominance_ratios(npb6_pp, pf)
        for bits in range(1, 1 << 6):
            mask = np.array([(bits >> i) & 1 for i in range(6)], dtype=bool)
            expected = bool(np.all(ratios[mask] > weights[mask].sum()))
            assert is_dominant(npb6_pp, pf, mask) == expected

    def test_index_subset_form(self, npb6_pp, pf):
        full = np.ones(6, dtype=bool)
        assert is_dominant(npb6_pp, pf, np.arange(6)) == is_dominant(npb6_pp, pf, full)

    def test_violators_listed(self, pf):
        """An application with d close to 1 violates any subset it joins."""
        apps = [
            Application(name="good", work=1e11, access_freq=0.5, miss_rate=1e-4),
            Application(name="bad", work=1e11, access_freq=0.5, miss_rate=1.0,
                        baseline_cache=32000e6 * 4),  # d = 2 > 1
        ]
        wl = Workload(apps)
        mask = np.ones(2, dtype=bool)
        bad = violating_applications(wl, pf, mask)
        assert 1 in bad.tolist()

    def test_wrong_mask_shape(self, npb6_pp, pf):
        with pytest.raises(ModelError):
            is_dominant(npb6_pp, pf, np.ones(3, dtype=bool))


class TestOptimalFractions:
    def test_theorem3_formula(self, npb6_pp, pf):
        mask = np.ones(6, dtype=bool)
        x = optimal_cache_fractions(npb6_pp, pf, mask)
        w = cache_weights(npb6_pp, pf)
        assert np.allclose(x, w / w.sum())
        assert x.sum() == pytest.approx(1.0)

    def test_zeros_outside_subset(self, npb6_pp, pf):
        mask = np.array([True, False, True, False, False, False])
        x = optimal_cache_fractions(npb6_pp, pf, mask)
        assert np.all(x[~mask] == 0.0)
        assert x[mask].sum() == pytest.approx(1.0)

    def test_empty_subset_all_zero(self, npb6_pp, pf):
        x = optimal_cache_fractions(npb6_pp, pf, np.zeros(6, dtype=bool))
        assert np.all(x == 0.0)

    def test_zero_weight_subset_rejected(self, pf):
        wl = Workload([Application(name="x", work=1e9, access_freq=0.0, miss_rate=0.5)])
        with pytest.raises(ModelError):
            optimal_cache_fractions(wl, pf, np.array([True]))

    def test_optimality_against_random_allocations(self, npb6_pp, pf, rng):
        """Theorem 3 beats any random allocation on the same subset."""
        from repro.core.processor_allocation import perfectly_parallel_makespan

        mask = np.ones(6, dtype=bool)
        x_star = optimal_cache_fractions(npb6_pp, pf, mask)
        best = perfectly_parallel_makespan(npb6_pp, pf, x_star)
        for _ in range(50):
            raw = rng.random(6)
            x = raw / raw.sum()
            span = perfectly_parallel_makespan(npb6_pp, pf, x)
            assert span >= best * (1 - 1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_optimality_property(self, seed):
        """Theorem-3 fractions minimize sum(k_i / x_i^alpha) over the simplex."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = rng.uniform(0.1, 10.0, size=n)
        alpha = 0.5
        x_star = k ** (1 / (alpha + 1))
        x_star /= x_star.sum()
        obj_star = float((k / x_star**alpha).sum())
        raw = rng.random(n) + 1e-3
        x = raw / raw.sum()
        assert float((k / x**alpha).sum()) >= obj_star * (1 - 1e-12)


class TestBoundedWaterfilling:
    def test_reduces_to_theorem3_without_bounds(self):
        k = np.array([1.0, 4.0, 9.0])
        x = bounded_optimal_cache_fractions(k, np.ones(3), 0.5)
        expected = k ** (1 / 1.5)
        expected /= expected.sum()
        assert np.allclose(x, expected)

    def test_budget_respected(self):
        k = np.array([1.0, 2.0, 3.0])
        x = bounded_optimal_cache_fractions(k, np.ones(3), 0.5, budget=0.5)
        assert x.sum() == pytest.approx(0.5)

    def test_bounds_saturate(self):
        k = np.array([100.0, 1.0])
        b = np.array([0.2, 1.0])
        x = bounded_optimal_cache_fractions(k, b, 0.5)
        assert x[0] == pytest.approx(0.2)
        assert x.sum() == pytest.approx(1.0)

    def test_all_fit_within_budget(self):
        """When the bounds sum below the budget, take every bound."""
        k = np.array([1.0, 1.0])
        b = np.array([0.2, 0.3])
        x = bounded_optimal_cache_fractions(k, b, 0.5)
        assert np.allclose(x, b)

    def test_zero_coefficients_get_nothing(self):
        k = np.array([0.0, 5.0])
        x = bounded_optimal_cache_fractions(k, np.ones(2), 0.5)
        assert x[0] == 0.0
        assert x[1] == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelError):
            bounded_optimal_cache_fractions([-1.0], [1.0], 0.5)
        with pytest.raises(ModelError):
            bounded_optimal_cache_fractions([1.0], [0.0], 0.5)
        with pytest.raises(ModelError):
            bounded_optimal_cache_fractions([1.0], [1.0], 0.5, budget=0.0)
        with pytest.raises(ModelError):
            bounded_optimal_cache_fractions([1.0], [1.0], 1.5)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_kkt_optimality_vs_random_feasible(self, seed):
        """Waterfilling beats random feasible points of the same program."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        k = rng.uniform(0.1, 5.0, size=n)
        b = rng.uniform(0.1, 0.8, size=n)
        alpha = 0.5
        x_star = bounded_optimal_cache_fractions(k, b, alpha)
        assert np.all(x_star <= b + 1e-12)
        assert x_star.sum() <= 1 + 1e-9

        def obj(x):
            with np.errstate(divide="ignore"):
                return float(np.where(x > 0, k / np.maximum(x, 1e-300) ** alpha,
                                      np.inf).sum())

        best = obj(x_star)
        for _ in range(30):
            raw = rng.random(n) * b
            total = raw.sum()
            if total > 1:
                raw = raw / total
            raw = np.minimum(raw, b)
            if np.any(raw <= 0):
                continue
            assert obj(raw) >= best * (1 - 1e-9)
