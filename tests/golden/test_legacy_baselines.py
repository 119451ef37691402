"""Property tests: the four baselines equal their frozen scalar bodies.

The live scalar entry points of AllProcCache, Fair, 0cache and
RandomPart are batches of one through the batch core;
:mod:`golden.legacy_baselines` keeps the scalar bodies they replaced.
Over hypothesis-generated ragged batches (1 to 6 instances of 1 to 24
applications, zero-weight applications and all-zero access
frequencies included, several platforms) every registered baseline —
its scalar entry and its ``batch_fn`` alike, seeded per row where it
is randomized — must reproduce the oracle bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAPER_BASELINES, Application, Workload, get_scheduler
from repro.machine import small_llc, taihulight, xeon_e5_2690
from repro.workloads import npb_synth

from . import legacy_baselines as legacy

pytestmark = pytest.mark.kernel_equivalence

_PLATFORMS = (taihulight(), xeon_e5_2690(), small_llc(),
              taihulight(alpha=1.0 / 3.0), xeon_e5_2690(alpha=1.0))


def _applications(access_freq):
    return st.builds(
        Application,
        name=st.just("app"),
        work=st.floats(1e6, 1e12),
        seq_fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        access_freq=access_freq,
        miss_rate=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        footprint=st.one_of(st.just(math.inf), st.floats(1e5, 1e11)),
    )


# Zero frequency or zero miss rate gives a zero cache weight; a
# workload whose frequencies are all zero takes Fair's equal split.
_workloads = st.one_of(
    st.lists(_applications(st.one_of(st.just(0.0), st.floats(1e-4, 2.0))),
             min_size=1, max_size=24),
    st.lists(_applications(st.just(0.0)), min_size=1, max_size=6),
).map(Workload)
_batches = st.lists(st.tuples(_workloads, st.sampled_from(_PLATFORMS)),
                    min_size=1, max_size=6)


def _assert_identical(live, ref):
    assert type(live) is type(ref)
    assert live.procs.tobytes() == ref.procs.tobytes()
    assert live.cache.tobytes() == ref.cache.tobytes()
    assert live.times().tobytes() == ref.times().tobytes()
    assert live.makespan() == ref.makespan()


def _check_batch(name, batch, seeds):
    entry = get_scheduler(name)
    oracle = [legacy.legacy_baseline(name, wl, pf, np.random.default_rng(s))
              for (wl, pf), s in zip(batch, seeds)]
    rows = entry.batch_fn(batch, [np.random.default_rng(s) for s in seeds])
    assert len(rows) == len(batch)
    for (wl, pf), s, row, ref in zip(batch, seeds, rows, oracle):
        _assert_identical(entry(wl, pf, np.random.default_rng(s)), ref)
        _assert_identical(row, ref)


@pytest.mark.parametrize("name", PAPER_BASELINES)
@given(batch=_batches, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_registry_entry_and_batch_fn_match_oracle(name, batch, seed):
    _check_batch(name, batch, [seed + i for i in range(len(batch))])


@pytest.mark.parametrize("name", PAPER_BASELINES)
def test_wide_ragged_batches_match_oracle(name):
    """Rows of 16 to 40 applications padded to the widest: Fair's
    frequency totals must not be taken over the padded row."""
    rng = np.random.default_rng(2024)
    for _ in range(8):
        batch = [(npb_synth(int(rng.integers(16, 41)), rng), taihulight())
                 for _ in range(5)]
        _check_batch(name, batch, [int(s) for s in rng.integers(0, 2**32, 5)])


def test_randompart_empty_draw_is_zero_cache():
    """A draw that selects nobody degenerates to 0cache, like the oracle."""
    wl = npb_synth(3, np.random.default_rng(5))
    pf = taihulight()
    seed = next(s for s in range(1000)
                if (np.random.default_rng(s).random(wl.n) >= 0.5).all())
    live = get_scheduler("randompart")(wl, pf, np.random.default_rng(seed))
    assert not live.cache.any()
    _assert_identical(live, legacy.random_partition(
        wl, pf, np.random.default_rng(seed)))
    _assert_identical(live, legacy.zero_cache(wl, pf))
