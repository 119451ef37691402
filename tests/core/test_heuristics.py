"""Tests for the six dominant-partition heuristics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DOMINANT_HEURISTICS,
    dominant_partition,
    dominant_rev_partition,
    dominant_schedule,
    is_dominant,
)
from repro.core.dominance import cache_weights
from repro.core.heuristics import make_choice
from repro.machine import taihulight
from repro.types import ModelError
from repro.workloads import npb_synth


@pytest.fixture
def pf():
    return taihulight()


class TestChoiceFunctions:
    def test_make_choice_known(self):
        for name in ("random", "minratio", "maxratio", "MinRatio"):
            assert callable(make_choice(name))

    def test_make_choice_unknown(self):
        with pytest.raises(ModelError):
            make_choice("bogus")

    def test_minratio_picks_smallest(self):
        fn = make_choice("minratio")
        candidates = np.array([2, 5, 7])
        ratios = np.array([0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 2.0])
        # among candidates (ratios 3, 1, 2) the smallest is index 1 -> app 5
        assert candidates[fn(candidates, ratios, np.random.default_rng(0))] == 5

    def test_maxratio_picks_largest(self):
        fn = make_choice("maxratio")
        candidates = np.array([2, 5, 7])
        ratios = np.array([0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 2.0])
        assert candidates[fn(candidates, ratios, np.random.default_rng(0))] == 2

    def test_random_uses_rng(self):
        fn = make_choice("random")
        candidates = np.arange(10)
        ratios = np.zeros(10)
        picks = {fn(candidates, ratios, np.random.default_rng(s)) for s in range(30)}
        assert len(picks) > 1  # not constant


class TestDominantPartition:
    def test_result_is_dominant(self, npb6_pp, pf):
        for choice in ("minratio", "maxratio", "random"):
            mask = dominant_partition(npb6_pp, pf, choice, np.random.default_rng(0))
            assert is_dominant(npb6_pp, pf, mask)

    def test_rev_result_is_dominant(self, npb6_pp, pf):
        for choice in ("minratio", "maxratio", "random"):
            mask = dominant_rev_partition(npb6_pp, pf, choice, np.random.default_rng(0))
            assert is_dominant(npb6_pp, pf, mask)

    def test_deterministic_choices_reproducible(self, synth16_pp, pf):
        m1 = dominant_partition(synth16_pp, pf, "minratio")
        m2 = dominant_partition(synth16_pp, pf, "minratio")
        assert np.array_equal(m1, m2)

    def test_zero_weight_apps_excluded(self, pf):
        from repro.core import Application, Workload

        wl = Workload([
            Application(name="nocache", work=1e10, access_freq=0.0, miss_rate=0.5),
            Application(name="normal", work=1e10, access_freq=0.5, miss_rate=1e-3),
        ])
        mask = dominant_partition(wl, pf, "minratio")
        assert not mask[0]

    def test_npb6_keeps_everyone(self, npb6_pp, pf):
        """The NPB workload on TaihuLight is already dominant in full."""
        mask = dominant_partition(npb6_pp, pf, "minratio")
        assert mask.all()

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_property_always_dominant(self, seed, n):
        pf = taihulight()
        rng = np.random.default_rng(seed)
        wl = npb_synth(n, rng)
        for strategy in (dominant_partition, dominant_rev_partition):
            for choice in ("minratio", "maxratio", "random"):
                mask = strategy(wl, pf, choice, np.random.default_rng(seed + 1))
                assert is_dominant(wl, pf, mask)

    def test_rev_grows_greedily(self, synth16_pp, pf):
        """DominantRev-MaxRatio first admits the largest-ratio app."""
        from repro.core.dominance import dominance_ratios

        ratios = dominance_ratios(synth16_pp, pf)
        weights = cache_weights(synth16_pp, pf)
        eligible = weights > 0
        best = int(np.argmax(np.where(eligible, ratios, -np.inf)))
        mask = dominant_rev_partition(synth16_pp, pf, "maxratio")
        if mask.any():
            assert mask[best]


class TestDominantSchedule:
    def test_schedule_feasible(self, synth16, pf):
        for name, (strategy, choice) in DOMINANT_HEURISTICS.items():
            sched = dominant_schedule(
                synth16, pf, strategy=strategy, choice=choice,
                rng=np.random.default_rng(1),
            )
            assert sched.is_feasible(), name
            assert sched.finish_time_spread() < 1e-6, name

    def test_cache_goes_to_dominant_subset(self, synth16, pf):
        sched = dominant_schedule(synth16, pf, strategy="dominant", choice="minratio")
        assert is_dominant(synth16, pf, sched.cache_subset)
        if sched.cache_subset.any():
            assert sched.cache.sum() == pytest.approx(1.0)

    def test_unknown_strategy(self, synth16, pf):
        with pytest.raises(ModelError):
            dominant_schedule(synth16, pf, strategy="bogus")

    def test_single_app_gets_all(self, pf, rng):
        wl = npb_synth(1, rng)
        sched = dominant_schedule(wl, pf)
        assert sched.procs[0] == pytest.approx(pf.p)

    def test_eq3_thresholds_respected(self, synth16, pf):
        """Every allocated fraction exceeds its Eq. 3 lower threshold."""
        sched = dominant_schedule(synth16, pf, strategy="dominant", choice="minratio")
        d = synth16.miss_coefficients(pf)
        thresholds = d ** (1 / pf.alpha)
        allocated = sched.cache > 0
        assert np.all(sched.cache[allocated] > thresholds[allocated])


class TestSharedEvictionCore:
    """`evict_until_dominant` is the one Algorithm-1 eviction loop,
    shared by the offline heuristics and the online remaining-work
    repartitioning."""

    def test_dominant_partition_delegates(self, pf, rng):
        from repro.core.dominance import dominance_ratios
        from repro.core.heuristics import evict_until_dominant

        wl = npb_synth(12, rng)
        weights = cache_weights(wl, pf)
        ratios = dominance_ratios(wl, pf)
        direct = evict_until_dominant(weights, ratios, weights > 0.0,
                                      "minratio")
        assert np.array_equal(direct, dominant_partition(wl, pf, "minratio"))

    @staticmethod
    def _assert_online_agrees(wl, pf):
        from repro.core.dominance import DominanceModel, optimal_cache_fractions
        from repro.online.engine import _dominant_fractions

        active = np.ones(wl.n, dtype=bool)
        x_online = _dominant_fractions(DominanceModel(wl, pf), active, wl.work)
        mask_offline = dominant_partition(wl, pf, "minratio")
        assert np.array_equal(x_online > 0, mask_offline)
        if mask_offline.any():
            x_offline = optimal_cache_fractions(wl, pf, mask_offline)
            assert np.allclose(x_online, x_offline, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_online_agrees_on_full_remaining_work(self, pf, seed):
        """With every application's remaining work equal to its total
        work, the online eviction reduces to Algorithm 1 with MinRatio:
        the supports coincide and the fractions are Theorem 3's."""
        rng = np.random.default_rng(seed)
        self._assert_online_agrees(npb_synth(10, rng), pf)

    @pytest.mark.parametrize("seed", [4, 5, 7, 8, 9])
    def test_online_agrees_where_algorithm1_evicts(self, pf, seed):
        """The same agreement on a 250 kB cache, where Algorithm 1
        evicts applications that have weight (on the full cache it
        keeps every one)."""
        pf = dataclasses.replace(pf, cache_size=2.5e5)
        wl = npb_synth(10, np.random.default_rng(seed))
        assert not np.array_equal(dominant_partition(wl, pf, "minratio"),
                                  cache_weights(wl, pf) > 0)
        self._assert_online_agrees(wl, pf)

    def test_input_mask_not_mutated(self, pf, rng):
        from repro.core.dominance import dominance_ratios
        from repro.core.heuristics import evict_until_dominant

        wl = npb_synth(8, rng)
        weights = cache_weights(wl, pf)
        ratios = dominance_ratios(wl, pf)
        mask = weights > 0.0
        before = mask.copy()
        evict_until_dominant(weights, ratios, mask, "minratio")
        assert np.array_equal(mask, before)

    def test_remaining_work_override_shrinks_weights(self, pf, rng):
        """DominanceModel.weights of a smaller work vector is the
        remaining-work weight the online engine uses: scaling work down
        scales weights down."""
        from repro.core.dominance import DominanceModel

        wl = npb_synth(6, rng)
        full = cache_weights(wl, pf)
        half = DominanceModel(wl, pf).weights(wl.work * 0.5)
        nz = full > 0
        assert np.all(half[nz] < full[nz])
        assert np.allclose(half[nz] / full[nz],
                           0.5 ** (1.0 / (pf.alpha + 1.0)))
