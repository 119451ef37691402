"""Property tests: the six heuristics equal their frozen scalar loops.

The live scalar entry points are batches of one through the batch
core; :mod:`golden.legacy_heuristics` keeps the scalar Algorithm 1 / 2
loops they replaced.  Over hypothesis-generated workloads (1 to 16
applications, zero-weight applications included, several platforms)
every registered dominant heuristic — seeded where it is randomized —
and the raw eviction core with an arbitrary start mask and any choice
function must reproduce the oracle bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DOMINANT_HEURISTICS, Application, Workload, get_scheduler
from repro.core.dominance import cache_weights, dominance_ratios
from repro.core.heuristics import (
    dominant_partition,
    dominant_rev_partition,
    evict_until_dominant,
)
from repro.machine import small_llc, taihulight, xeon_e5_2690

from . import legacy_heuristics as legacy

pytestmark = pytest.mark.kernel_equivalence

_PLATFORMS = (taihulight(), xeon_e5_2690(), small_llc(),
              taihulight(alpha=1.0 / 3.0), xeon_e5_2690(alpha=1.0))

_applications = st.builds(
    Application,
    name=st.just("app"),
    work=st.floats(1e6, 1e12),
    seq_fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    # Zero frequency or zero miss rate gives a zero cache weight.
    access_freq=st.one_of(st.just(0.0), st.floats(1e-4, 2.0)),
    miss_rate=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    footprint=st.one_of(st.just(math.inf), st.floats(1e5, 1e11)),
)
_workloads = st.lists(_applications, min_size=1, max_size=16).map(Workload)
_platforms = st.sampled_from(_PLATFORMS)


def _last_candidate(candidates, ratios, rng):
    """A custom choice: always the highest-indexed candidate."""
    return len(candidates) - 1


def _weighted_draw(candidates, ratios, rng):
    """A custom choice that consumes the generator and reads the ratios."""
    scores = np.where(np.isfinite(ratios[candidates]), ratios[candidates], 0.0)
    return int(np.argmax(scores * rng.random(len(candidates))))


@pytest.mark.parametrize("name", sorted(DOMINANT_HEURISTICS))
@given(workload=_workloads, platform=_platforms,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_registry_entry_matches_oracle(name, workload, platform, seed):
    live = get_scheduler(name)(workload, platform, np.random.default_rng(seed))
    ref = legacy.legacy_schedule(name, workload, platform,
                                 np.random.default_rng(seed))
    assert live.procs.tobytes() == ref.procs.tobytes()
    assert live.cache.tobytes() == ref.cache.tobytes()
    assert live.makespan() == ref.makespan()


@pytest.mark.parametrize("choice", ["minratio", "maxratio", "random",
                                    _last_candidate, _weighted_draw])
@given(workload=_workloads, platform=_platforms, data=st.data(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_eviction_matches_oracle(choice, workload, platform, data, seed):
    weights = cache_weights(workload, platform)
    ratios = dominance_ratios(workload, platform)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=workload.n,
                                       max_size=workload.n)), dtype=bool)
    live = evict_until_dominant(weights, ratios, mask, choice,
                                np.random.default_rng(seed))
    ref = legacy.evict_until_dominant(weights, ratios, mask, choice,
                                      np.random.default_rng(seed))
    assert np.array_equal(live, ref)


@pytest.mark.parametrize("live_fn,ref_fn", [
    (dominant_partition, legacy.dominant_partition),
    (dominant_rev_partition, legacy.dominant_rev_partition),
])
@pytest.mark.parametrize("choice", [_last_candidate, _weighted_draw])
@given(workload=_workloads, platform=_platforms,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_custom_choice_partitions_match_oracle(live_fn, ref_fn, choice,
                                               workload, platform, seed):
    live = live_fn(workload, platform, choice, np.random.default_rng(seed))
    ref = ref_fn(workload, platform, choice, np.random.default_rng(seed))
    assert np.array_equal(live, ref)
