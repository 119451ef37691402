"""Properties of the compiled online allocator (``make_policy_allocator``).

The allocator binds the workload's constants once per run and memoizes
the ``fair`` and ``fcfs`` decisions on the active set.  Over random
active sets and partially executed applications it must decide exactly
what the frozen per-event policies of
:mod:`golden.legacy_engines` decide, hand out arrays a caller may
mutate, and keep rejecting finished applications where the policies
always did.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden.legacy_engines import _legacy_allocate
from repro.core.execution import access_cost_factor
from repro.machine import taihulight
from repro.online import make_policy_allocator
from repro.types import ModelError
from repro.workloads import npb_synth, random_workload

#: A registry policy whose snapshot re-solves the dominant heuristic.
REGISTRY_POLICY = "dominant-minratio"
POLICIES = ("dominant", "fair", "fcfs", REGISTRY_POLICY)

PF = taihulight()


@st.composite
def runs(draw):
    """A workload plus a few events: (active mask, seq_left, par_left)."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    wl = (npb_synth if seed % 2 else random_workload)(n, rng)
    seq_ops = wl.seq * wl.work
    par_ops = (1.0 - wl.seq) * wl.work
    events = []
    for _ in range(draw(st.integers(1, 6))):
        active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        # Every application has made some progress (a registry snapshot
        # then rebuilds each one from its remainder, as the frozen
        # policy does) but none has finished.
        left = np.array(draw(st.lists(
            st.floats(0.01, 0.99), min_size=2 * n, max_size=2 * n)))
        events.append((active, seq_ops * left[:n], par_ops * left[n:]))
    return wl, events


def _arrival_ranks(n):
    return np.arange(n, dtype=np.float64)[::-1].copy()


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_matches_frozen_policy(policy, run):
    wl, events = run
    order = _arrival_ranks(wl.n)
    allocate = make_policy_allocator(wl, PF, policy, fcfs_order=order)
    for active, seq_left, par_left in events:
        procs, factors = allocate(0.0, active, seq_left, par_left)
        ref_procs, ref_cache = _legacy_allocate(
            wl, PF, active, seq_left, par_left, policy, order, None)
        ref_factors = access_cost_factor(wl, PF, ref_cache)
        assert procs.tobytes() == ref_procs.tobytes()
        assert factors.tobytes() == ref_factors.tobytes()


@pytest.mark.parametrize("policy", ["fair", "fcfs"])
@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_memoized_answer_survives_caller_mutation(policy, run):
    wl, events = run
    allocate = make_policy_allocator(wl, PF, policy)
    for active, seq_left, par_left in events:
        procs, factors = allocate(0.0, active, seq_left, par_left)
        expected = procs.copy(), factors.copy()
        procs[:] = -1.0
        factors[:] = -1.0
        again = allocate(0.0, active.copy(), seq_left, par_left)
        assert again[0].tobytes() == expected[0].tobytes()
        assert again[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("policy", ["dominant", REGISTRY_POLICY])
@settings(max_examples=30, deadline=None)
@given(run=runs(), pick=st.integers(0, 11))
def test_finished_app_in_active_set_raises(policy, run, pick):
    """Both re-solves need remaining work; ``fair`` and ``fcfs`` never
    read it, and never checked it."""
    wl, events = run
    active, seq_left, par_left = events[0]
    i = pick % wl.n
    active = active.copy()
    active[i] = True
    seq_left, par_left = seq_left.copy(), par_left.copy()
    seq_left[i] = par_left[i] = 0.0
    allocate = make_policy_allocator(wl, PF, policy)
    with pytest.raises(ModelError):
        allocate(0.0, active, seq_left, par_left)
