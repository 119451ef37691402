"""Golden formula equivalence: each model formula computes the same bits.

Marked ``kernel_equivalence``.  Every formula of the model -- the miss
coefficient ``d``, Eq. 1 with the footprint clamp, Eq. 2's factor,
``c_i`` and ``Exe_i``, Lemma 4's weights, Definition 4's ratios,
Theorem 3's fractions and subset totals, and the phase-clock step of
both event kernels -- is checked with ``==`` against the frozen copies
of :mod:`golden.legacy_formulas`, for one instance and for a padded
batch, over seeded ragged batches: n = 1 rows, mixed platforms with
mixed ``alpha`` (so :func:`~repro.core.powerlaw.pow_rowwise` takes its
per-exponent branch), footprint-clamped applications, ``f == 0``,
``m0 == 0`` and ``x == 0``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.runner import estimate_horizon
from repro.core.application import Workload
from repro.core.batch import (
    BatchProblem,
    equal_finish_allocation_batch,
    execution_times_batch,
)
from repro.core.dominance import (
    DominanceModel,
    cache_weights,
    dominance_ratios,
    masked_total,
    masked_totals,
    optimal_cache_fractions,
)
from repro.core.execution import (
    access_cost_factor,
    amdahl_flops,
    clamped_miss_rates,
    cost_factors,
    execution_times,
    miss_rates,
    sequential_times,
    unit_times,
)
from repro.core.platform import Platform
from repro.machine import small_llc, taihulight, xeon_e5_2690
from repro.online.engine import make_policy_allocator
from repro.simulate.kernel import run_phase_kernel, run_phase_kernel_batch
from repro.types import ModelError
from repro.workloads import npb_synth, random_workload

from . import legacy_formulas as legacy

pytestmark = pytest.mark.kernel_equivalence

SEEDS = range(6)

#: Platforms of every shape the model accepts: the presets (alpha 0.5)
#: and custom ones with other alphas and latencies.
PLATFORMS = (
    taihulight(),
    xeon_e5_2690(),
    small_llc(),
    Platform(p=64.0, cache_size=20e6, alpha=0.3),
    Platform(p=32.0, cache_size=8e6, latency_cache=0.1, latency_memory=2.0,
             alpha=0.7),
    Platform(p=128.0, cache_size=30e6, alpha=1.0),
)


# -- the live code under test ---------------------------------------------

def live_d(wl, pf):
    return wl.miss_coefficients(pf)


def live_d_batch(problem):
    return DominanceModel(problem, problem.platforms).d


def live_weights_batch(problem):
    return DominanceModel(problem, problem.platforms).cache_weights


def live_ratios_batch(problem):
    model = DominanceModel(problem, problem.platforms)
    return model.ratios(model.cache_weights)


def live_fractions_batch(problem, masks):
    return DominanceModel(problem, problem.platforms).fractions(masks)


def live_miss_rates_batch(problem, x):
    return clamped_miss_rates(problem, problem.platforms, x)


def live_factors_batch(problem, x):
    return cost_factors(problem, problem.platforms, x)


def live_sequential_times_batch(problem, x):
    return unit_times(problem, problem.platforms, x)


# -- seeded ragged instances ----------------------------------------------

def _workload(rng, n, i):
    """A drawn workload, with footprint clamps, f == 0 and m0 == 0 mixed in."""
    wl = (npb_synth if i % 2 else random_workload)(n, rng)
    freq = wl.freq.copy()
    miss0 = wl.miss0.copy()
    footprint = wl.footprint.copy()
    kind = rng.integers(0, 4, n)
    freq[kind == 1] = 0.0
    miss0[kind == 2] = 0.0
    # A footprint of a few MB: clamped once the allocation exceeds it.
    clamp = kind == 3
    footprint[clamp] = rng.uniform(1e5, 8e6, int(clamp.sum()))
    return Workload.from_columns(wl.names, wl.work, wl.seq, freq, miss0,
                                 footprint, wl.baseline_cache)


def _instances(seed, n_rows=12, platforms=PLATFORMS):
    rng = np.random.default_rng(4000 + seed)
    out = []
    for i in range(n_rows):
        n = 1 if i % 5 == 0 else int(rng.integers(2, 15))
        out.append((_workload(rng, n, seed + i),
                    platforms[int(rng.integers(len(platforms)))]))
    return out


def _fractions(rng, n):
    """Cache fractions summing to at most 1, about a quarter exactly 0."""
    x = rng.random(n) * (rng.random(n) > 0.25)
    total = x.sum()
    return x / total * rng.uniform(0.5, 1.0) if total > 0 else x


def _padded(rows, shape, fill=0.0):
    out = np.full(shape, fill)
    for i, row in enumerate(rows):
        out[i, :row.size] = row
    return out


@pytest.fixture(params=SEEDS, ids=lambda s: f"seed{s}")
def case(request):
    """(instances, problem, per-row fractions x, per-row procs, masks)."""
    seed = request.param
    instances = _instances(seed, platforms=PLATFORMS if seed % 3 else PLATFORMS[:1])
    rng = np.random.default_rng(seed)
    xs = [_fractions(rng, wl.n) for wl, _ in instances]
    procs = [rng.uniform(0.5, pf.p / 2, wl.n) for wl, pf in instances]
    masks = [rng.random(wl.n) < 0.6 for wl, _ in instances]
    return instances, BatchProblem(instances), xs, procs, masks


def same(a, b):
    """Bit-identical float arrays (or floats): shape, dtype and bytes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- d, Eq. 1, Eq. 2 ------------------------------------------------------

class TestCostModel:
    def test_miss_coefficients(self, case):
        instances, problem, *_ = case
        for wl, pf in instances:
            d = live_d(wl, pf)
            assert same(d, legacy.workload_miss_coefficients(wl, pf))
            for i, app in enumerate(wl):
                assert same(d[i], legacy.application_miss_coefficient(app, pf))
        assert same(live_d_batch(problem), legacy.batch_miss_coefficients(problem))

    def test_miss_rates(self, case):
        instances, problem, xs, *_ = case
        for (wl, pf), x in zip(instances, xs):
            assert same(miss_rates(wl, pf, x), legacy.miss_rates(wl, pf, x))
        x = _padded(xs, problem.valid.shape)
        assert same(live_miss_rates_batch(problem, x),
                    legacy.miss_rates_batch(problem, x))

    def test_footprint_clamp_is_exercised(self, case):
        """Some allocation is larger than its application's footprint."""
        instances, _, xs, *_ = case
        assert any((x * pf.cache_size > wl.footprint).any()
                   for (wl, pf), x in zip(instances, xs))

    def test_factors_and_times(self, case):
        instances, problem, xs, procs, _ = case
        for (wl, pf), x, p in zip(instances, xs, procs):
            assert same(access_cost_factor(wl, pf, x),
                        legacy.access_cost_factor(wl, pf, x))
            assert same(sequential_times(wl, pf, x),
                        legacy.sequential_times(wl, pf, x))
            assert same(amdahl_flops(wl.work, wl.seq, p),
                        legacy.amdahl_flops(wl.work, wl.seq, p))
            assert same(execution_times(wl, pf, p, x),
                        legacy.execution_times(wl, pf, p, x))
        x = _padded(xs, problem.valid.shape)
        p = _padded(procs, problem.valid.shape)  # procs == 0 in the padding
        assert same(live_factors_batch(problem, x),
                    legacy.access_cost_factor_batch(problem, x))
        assert same(live_sequential_times_batch(problem, x),
                    legacy.sequential_times_batch(problem, x))
        assert same(execution_times_batch(problem, p, x),
                    legacy.execution_times_batch(problem, p, x))
        for got, want in zip(equal_finish_allocation_batch(problem, x),
                             legacy.equal_finish_allocation_batch(problem, x)):
            assert same(got, want)

    def test_whole_machine_whole_cache(self, case):
        """AllProcCache's call shape: (B, 1) procs and a scalar fraction."""
        _, problem, *_ = case
        p = problem.p[:, None]
        assert same(execution_times_batch(problem, p, 1.0),
                    legacy.execution_times_batch(problem, p, 1.0))

    def test_chaos_horizon(self, case):
        instances, *_ = case
        rng = np.random.default_rng(3)
        for wl, pf in instances:
            arrivals = rng.uniform(0.0, 1e10, wl.n)
            assert same(estimate_horizon(wl, pf, arrivals),
                        legacy.estimate_horizon(wl, pf, arrivals))

    def test_batch_checks(self, case):
        _, problem, *_ = case
        x = np.zeros(problem.valid.shape)
        bad = np.where(problem.valid, -1.0, 1.0)
        with pytest.raises(ModelError, match="processor allocation must be positive"):
            execution_times_batch(problem, bad, x)


# -- Lemma 4, Definition 4, Theorem 3 -------------------------------------

class TestDominance:
    def test_weights_and_ratios(self, case):
        instances, problem, *_ = case
        for wl, pf in instances:
            assert same(cache_weights(wl, pf), legacy.cache_weights(wl, pf))
            assert same(dominance_ratios(wl, pf), legacy.dominance_ratios(wl, pf))
        assert same(live_weights_batch(problem), legacy.cache_weights_batch(problem))
        assert same(live_ratios_batch(problem),
                    legacy.dominance_ratios_batch(problem))

    def test_fractions_and_totals(self, case):
        instances, problem, _, _, masks = case
        for (wl, pf), mask in zip(instances, masks):
            # Zero-weight applications leave the subset, as in every caller.
            mask = mask & (legacy.cache_weights(wl, pf) > 0)
            assert same(optimal_cache_fractions(wl, pf, mask),
                        legacy.optimal_cache_fractions(wl, pf, mask))
            weights = legacy.cache_weights(wl, pf)
            assert same(masked_total(weights, mask),
                        legacy.masked_total(weights, mask))
        weights = legacy.cache_weights_batch(problem)
        m = _padded(masks, problem.valid.shape, fill=False).astype(bool)
        m &= weights > 0
        assert same(masked_totals(weights, m), legacy.masked_totals(weights, m))
        assert same(live_fractions_batch(problem, m),
                    legacy.optimal_cache_fractions_batch(problem, m))

    def test_zero_weight_subsets_raise_the_same_text(self, case):
        instances, problem, *_ = case
        for wl, pf in instances:
            zero = legacy.cache_weights(wl, pf) == 0
            if not zero.any():
                continue
            with pytest.raises(ModelError) as want:
                legacy.optimal_cache_fractions(wl, pf, zero)
            with pytest.raises(ModelError) as got:
                optimal_cache_fractions(wl, pf, zero)
            assert str(got.value) == str(want.value)
        zero = problem.valid & (legacy.cache_weights_batch(problem) == 0)
        if zero.any():
            with pytest.raises(ModelError) as want:
                legacy.optimal_cache_fractions_batch(problem, zero)
            with pytest.raises(ModelError) as got:
                live_fractions_batch(problem, zero)
            assert str(got.value) == str(want.value)

    def test_empty_subsets(self, case):
        instances, problem, *_ = case
        wl, pf = instances[0]
        empty = np.zeros(wl.n, dtype=bool)
        assert same(optimal_cache_fractions(wl, pf, empty),
                    legacy.optimal_cache_fractions(wl, pf, empty))
        empty = np.zeros(problem.valid.shape, dtype=bool)
        assert same(live_fractions_batch(problem, empty),
                    legacy.optimal_cache_fractions_batch(problem, empty))


# -- the phase clock ------------------------------------------------------

def _kernel_columns(wl):
    return wl.work, wl.seq * wl.work, (1.0 - wl.seq) * wl.work


def _same_runs(got, want):
    assert same(got.finish_times, want.finish_times)
    assert got.events == want.events
    assert got.now == want.now
    assert got.log.as_tuples() == want.log.as_tuples()
    assert got.usage == want.usage


class TestPhaseClock:
    @pytest.mark.parametrize("policy", ["dominant", "fair", "fcfs", "dominant-minratio"])
    def test_online_runs(self, case, policy):
        """Reallocating policies with staggered arrivals and probe ticks."""
        instances, *_ = case
        rng = np.random.default_rng(11)
        for wl, pf in instances[:6]:
            arrivals = np.sort(rng.uniform(0.0, 1e10, wl.n))
            ticks = np.linspace(0.0, 2e10, 41)[1:]

            def timeline(now):
                k = int(np.searchsorted(ticks, now, side="right"))
                return float(ticks[k]) if k < ticks.size else np.inf

            runs = [kernel(*_kernel_columns(wl),
                           allocate=make_policy_allocator(wl, pf, policy),
                           arrivals=arrivals, timeline=timeline,
                           max_events=100_000)
                    for kernel in (run_phase_kernel, legacy.run_phase_kernel)]
            _same_runs(*runs)

    def test_static_runs_with_stalls(self, case):
        """A fixed allocation where some applications hold no processors."""
        instances, _, xs, procs, _ = case
        for (wl, pf), x, p in zip(instances, xs, procs):
            p = np.where(np.arange(wl.n) % 3 == 1, 0.0, p)
            factors = legacy.access_cost_factor(wl, pf, x)
            done = set()

            def allocate(now, active, seq_left, par_left, p=p, factors=factors):
                out = p.copy()
                if done:  # a completion hands its processors to the stalled
                    out[out == 0.0] = 1.0
                return out, factors

            def on_complete(i, now, alive):
                done.add(i)

            runs = []
            for kernel in (run_phase_kernel, legacy.run_phase_kernel):
                done.clear()
                if (p > 0).any():
                    runs.append(kernel(*_kernel_columns(wl), allocate=allocate,
                                       on_complete=on_complete))
            if runs:
                _same_runs(*runs)

    def test_batch_kernel(self, case):
        _, problem, xs, procs, _ = case
        x = _padded(xs, problem.valid.shape)
        p = _padded(procs, problem.valid.shape)
        factors = legacy.access_cost_factor_batch(problem, x)
        args = (problem.work, problem.seq * problem.work,
                (1.0 - problem.seq) * problem.work)
        kw = dict(procs=p, factors=factors, valid=problem.valid)
        got = run_phase_kernel_batch(*args, **kw)
        want = legacy.run_phase_kernel_batch(*args, **kw)
        assert same(got.finish_times, want.finish_times)
        assert same(got.events, want.events)
        assert same(got.now, want.now)
