"""Golden: column-built workloads equal the per-application oracle.

The generators and the ``with_*`` copies build workloads from columns
(:meth:`repro.core.Workload.from_columns`);
:mod:`golden.legacy_workloads` keeps the per-application bodies they
replaced.  Over seeded sweeps (n from 1 to 256, both ``seq_range``
settings, uniform and log-uniform work) every live workload must match
the oracle bit for bit: the bytes of all six columns, the names, and
every lazily built :class:`~repro.core.Application`, field types
included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.workloads import npb6, npb_synth, random_workload

from . import legacy_workloads as legacy

pytestmark = pytest.mark.kernel_equivalence

_COLUMNS = ("work", "seq", "freq", "miss0", "footprint", "baseline_cache")
_SIZES = (1, 2, 3, 5, 6, 8, 13, 16, 31, 64, 100, 128, 192, 255, 256)


def _assert_identical(live, ref):
    for col in _COLUMNS:
        assert getattr(live, col).tobytes() == getattr(ref, col).tobytes(), col
        assert not getattr(live, col).flags.writeable, col
    assert live.names == ref.names
    assert len(live) == len(ref) == live.n
    for a, b in zip(live, ref):
        assert a == b
        assert ([type(v) for v in dataclasses.astuple(a)]
                == [type(v) for v in dataclasses.astuple(b)])


@pytest.mark.parametrize("log_work", [False, True])
@pytest.mark.parametrize("seq_range", [(0.01, 0.15), None])
@pytest.mark.parametrize("live_fn,legacy_fn", [
    (npb_synth, legacy.npb_synth),
    (random_workload, legacy.random_workload),
], ids=["npb_synth", "random_workload"])
def test_generators_match_oracle(live_fn, legacy_fn, seq_range, log_work):
    for seed, n in enumerate(_SIZES):
        kw = dict(seq_range=seq_range, log_work=log_work)
        live_rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        _assert_identical(live_fn(n, live_rng, **kw),
                          legacy_fn(n, ref_rng, **kw))
        # Both consumed the same draws from their generators.
        assert live_rng.random() == ref_rng.random()


@pytest.mark.parametrize("seed", range(4))
def test_npb6_matches_oracle(seed):
    _assert_identical(npb6(seq_range=None), legacy.npb6(seq_range=None))
    live = npb6(rng=np.random.default_rng(seed))
    ref = legacy.npb6(rng=np.random.default_rng(seed))
    _assert_identical(live, ref)


@pytest.mark.parametrize("n", [1, 6, 16, 64, 256])
@pytest.mark.parametrize("live_fn,legacy_fn", [
    (npb_synth, legacy.npb_synth),
    (random_workload, legacy.random_workload),
], ids=["npb_synth", "random_workload"])
def test_with_copies_match_oracle(live_fn, legacy_fn, n):
    live = live_fn(n, np.random.default_rng(n))
    ref = legacy_fn(n, np.random.default_rng(n))
    values = np.random.default_rng(1000 + n)
    for s in (0.0, 0.04, 0.15, values.uniform(0.0, 1.0, n)):
        _assert_identical(live.with_sequential_fraction(s),
                          legacy.with_sequential_fraction(ref, s))
    for m0 in (0.05, 1.0, values.uniform(0.0, 1.0, n)):
        _assert_identical(live.with_miss_rate(m0),
                          legacy.with_miss_rate(ref, m0))
