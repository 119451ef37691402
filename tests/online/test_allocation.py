"""Tests for the remaining-work equal-finish allocator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.online import remaining_equal_finish
from repro.types import ModelError
from golden.legacy_engines import legacy_remaining_equal_finish

#: One active application: (seq_left, par_left, factor).  Either phase
#: may be empty, but not both; the 1e6 spread keeps every sequential
#: share ``seq_time / c`` below 1 in floating point.
_ops = st.one_of(st.just(0.0), st.floats(1.0, 1e6))
_apps = st.tuples(_ops, _ops, st.floats(1.0, 4.0)).filter(
    lambda app: app[0] > 0 or app[1] > 0)


class TestRemainingEqualFinish:
    def test_fresh_apps_match_offline(self):
        """With nothing executed, the solver matches the offline one."""
        from repro.core.execution import access_cost_factor
        from repro.core.processor_allocation import equal_finish_allocation
        from repro.machine import taihulight
        from repro.workloads import npb_synth

        pf = taihulight()
        wl = npb_synth(8, np.random.default_rng(0))
        x = np.zeros(8)
        off_procs, off_k = equal_finish_allocation(wl, pf, x)
        factors = access_cost_factor(wl, pf, x)
        on_procs, on_k = remaining_equal_finish(
            wl.seq * wl.work, (1 - wl.seq) * wl.work, factors, pf.p
        )
        assert on_k == pytest.approx(off_k, rel=1e-6)
        assert np.allclose(on_procs, off_procs, rtol=1e-5)

    def test_equal_finish_property(self):
        seq = np.array([100.0, 0.0, 50.0])
        par = np.array([1000.0, 2000.0, 500.0])
        fac = np.array([1.2, 1.5, 1.1])
        procs, K = remaining_equal_finish(seq, par, fac, 16.0)
        times = fac * (seq + par / procs)
        assert np.allclose(times, K, rtol=1e-6)
        assert procs.sum() <= 16.0 * (1 + 1e-9)

    def test_budget_tight_when_binding(self):
        par = np.array([1000.0, 2000.0])
        procs, _ = remaining_equal_finish(np.zeros(2), par, np.ones(2), 8.0)
        assert procs.sum() == pytest.approx(8.0)

    def test_only_sequential_tails(self):
        procs, K = remaining_equal_finish(
            np.array([10.0, 20.0]), np.zeros(2), np.ones(2), 4.0
        )
        assert K == pytest.approx(20.0)
        assert np.all(procs > 0)

    def test_progress_shifts_processors(self):
        """An app with less work left needs (and gets) fewer processors."""
        par_even = np.array([1000.0, 1000.0])
        p_even, _ = remaining_equal_finish(np.zeros(2), par_even, np.ones(2), 8.0)
        par_skew = np.array([200.0, 1000.0])
        p_skew, _ = remaining_equal_finish(np.zeros(2), par_skew, np.ones(2), 8.0)
        assert p_skew[0] < p_even[0]
        assert p_skew[1] > p_even[1]

    def test_validation(self):
        with pytest.raises(ModelError):
            remaining_equal_finish([1.0], [1.0, 2.0], [1.0], 4.0)
        with pytest.raises(ModelError):
            remaining_equal_finish([0.0], [0.0], [1.0], 4.0)  # finished app
        with pytest.raises(ModelError):
            remaining_equal_finish([1.0], [1.0], [0.0], 4.0)  # zero factor
        with pytest.raises(ModelError):
            remaining_equal_finish([1.0], [1.0], [1.0], 0.0)


class TestMatchesBisectionOracle:
    """The offline-kernel solve agrees with the former bisection."""

    @settings(max_examples=200, deadline=None)
    @given(apps=st.lists(_apps, min_size=1, max_size=10),
           p=st.floats(0.5, 64.0))
    @example(apps=[(10.0, 1000.0, 1.5)], p=8.0)                    # n = 1
    @example(apps=[(0.0, 500.0, 1.0)] * 6, p=2.0)                  # n > p
    @example(apps=[(300.0, 0.0, 2.0), (0.0, 100.0, 1.0),
                   (5.0, 50.0, 3.0)], p=4.0)                       # mixed tails
    def test_property(self, apps, p):
        seq, par, fac = (np.array(col) for col in zip(*apps))
        procs, K = remaining_equal_finish(seq, par, fac, p)
        _, K_ref = legacy_remaining_equal_finish(seq, par, fac, p)
        assert K == pytest.approx(K_ref, rel=1e-10)
        assert np.all(procs > 0)
        assert procs.sum() <= p * (1 + 1e-12)
        # Beyond 1e-9, two effects let a finish drift from K through the
        # proportional rescale to p: the 1e-9-processor floor of apps
        # without parallel work (at most n * 1e-9 of the budget), and
        # K's xtol error, which the share of an app finishing just past
        # its sequential tail amplifies by K / (K - seq_time).  The
        # former bisection drifts the same way.
        runs = par > 0
        if not runs.any():
            return
        finish = fac[runs] * (seq[runs] + par[runs] / procs[runs])
        amplification = float(np.max(K / (K - fac[runs] * seq[runs])))
        rtol = 1e-9 + seq.size * 1e-9 / p + 1e-11 * amplification
        np.testing.assert_allclose(finish, K, rtol=rtol)
