"""Unit tests for the structure-of-arrays batch core.

The golden sweep (``tests/golden/test_batch_equivalence.py``) proves
end-to-end bit-identity for every registered scheduler; the tests here
cover the batch container itself and each ``*_batch`` building block
against its scalar twin — construction, padding, ragged batches, mixed
platforms, RNG discipline, and error paths.  The eviction and growth
loops have no live scalar twin (their scalar entry points are batches
of one), so they are checked against the frozen scalar loops of
``tests/golden/legacy_heuristics.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchProblem,
    BatchSchedule,
    Schedule,
    cache_weights,
    cache_weights_batch,
    dominance_ratios,
    dominance_ratios_batch,
    dominant_partition_batch,
    dominant_rev_partition_batch,
    dominant_schedule_batch,
    equal_finish_allocation,
    equal_finish_allocation_batch,
    execution_times,
    execution_times_batch,
    fair,
    get_scheduler,
    miss_rates,
    miss_rates_batch,
    optimal_cache_fractions,
    optimal_cache_fractions_batch,
    schedule_batch,
    sequential_times,
    sequential_times_batch,
)
from repro.core import registry
from repro.core.heuristics import evict_until_dominant_batch
from repro.core.registry import SchedulerEntry
from repro.machine import small_llc, taihulight, xeon_e5_2690
from repro.types import FEASIBILITY_SLACK, InfeasibleScheduleError, ModelError
from repro.workloads import npb_synth, random_workload

from golden import legacy_heuristics as legacy


def _ragged_instances(n_rows=12, seed=0, platforms=None):
    platforms = platforms or [taihulight()]
    out = []
    for i in range(n_rows):
        rng = np.random.default_rng(seed + i)
        n = int(rng.integers(1, 11))
        wl = (npb_synth if i % 2 else random_workload)(n, rng)
        out.append((wl, platforms[i % len(platforms)]))
    return out


@pytest.fixture(scope="module")
def ragged():
    return _ragged_instances()


@pytest.fixture(scope="module")
def problem(ragged):
    return BatchProblem(ragged)


class TestBatchProblem:
    def test_shapes_and_counts(self, ragged, problem):
        B = len(ragged)
        N = max(wl.n for wl, _ in ragged)
        assert len(problem) == problem.n_instances == B
        assert problem.max_apps == N
        assert problem.work.shape == (B, N)
        assert problem.valid.shape == (B, N)
        assert problem.p.shape == (B,)
        assert np.array_equal(problem.counts,
                              [wl.n for wl, _ in ragged])

    def test_valid_is_prefix_mask(self, ragged, problem):
        for i, (wl, _) in enumerate(ragged):
            assert problem.valid[i, :wl.n].all()
            assert not problem.valid[i, wl.n:].any()

    def test_columns_round_trip(self, ragged, problem):
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            assert np.array_equal(problem.work[i, :n], wl.work)
            assert np.array_equal(problem.seq[i, :n], wl.seq)
            assert np.array_equal(problem.freq[i, :n], wl.freq)
            assert problem.p[i] == pf.p
            assert problem.cache_size[i] == pf.cache_size
            assert problem.row(i) == (wl, pf)

    def test_padding_values_are_nan_free(self, problem):
        pad = ~problem.valid
        assert (problem.work[pad] == 1.0).all()
        assert (problem.seq[pad] == 0.0).all()
        assert (problem.freq[pad] == 0.0).all()
        assert (problem.miss0[pad] == 0.0).all()
        assert np.isinf(problem.footprint[pad]).all()
        # padded cells flow through the whole model without NaN
        x = np.where(problem.valid, 1.0 / np.maximum(problem.counts, 1)[:, None], 0.0)
        assert (sequential_times_batch(problem, x)[pad] == 1.0).all()
        assert (cache_weights_batch(problem)[pad] == 0.0).all()

    def test_miss_coefficients_match_scalar(self, ragged, problem):
        d = problem.miss_coefficients()
        for i, (wl, pf) in enumerate(ragged):
            assert np.array_equal(d[i, :wl.n], wl.miss_coefficients(pf))

    def test_miss_coefficients_computed_once_read_only(self, problem):
        d = problem.miss_coefficients()
        assert problem.miss_coefficients() is d
        assert not d.flags.writeable

    def test_single_instance_matches_padded_row(self, ragged):
        """A batch of one packs the same columns a padded batch holds."""
        wide = BatchProblem(ragged)
        for i, pair in enumerate(ragged):
            one = BatchProblem([pair])
            n = pair[0].n
            assert one.max_apps == n and one.counts.tolist() == [n]
            assert one.valid.dtype == bool and one.valid.all()
            for name in ("work", "seq", "freq", "miss0", "footprint",
                         "baseline_cache"):
                col = getattr(one, name)
                assert col.shape == (1, n) and col.dtype == np.float64
                assert np.array_equal(col[0], getattr(wide, name)[i, :n])
            for name in ("p", "cache_size", "latency_cache",
                         "latency_memory", "alpha"):
                assert getattr(one, name)[0] == getattr(wide, name)[i]
            assert np.array_equal(one.miss_coefficients()[0],
                                  wide.miss_coefficients()[i, :n])

    def test_single_non_pair_rejected(self):
        with pytest.raises(ModelError, match="pair"):
            BatchProblem([(npb_synth(3, np.random.default_rng(0)),)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelError, match="at least one instance"):
            BatchProblem([])

    def test_non_pair_rejected(self):
        wl = npb_synth(4, np.random.default_rng(0))
        with pytest.raises(ModelError, match="pair"):
            BatchProblem([(wl,)])
        with pytest.raises(ModelError, match="pair"):
            BatchProblem([(wl, wl)])


class TestModelBatchTwins:
    """Each ``*_batch`` evaluator is bit-identical to its scalar twin."""

    def test_miss_rates(self, ragged, problem):
        x = np.where(problem.valid,
                     1.0 / np.maximum(problem.counts, 1)[:, None], 0.0)
        m = miss_rates_batch(problem, x)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            assert np.array_equal(m[i, :n], miss_rates(wl, pf, x[i, :n]))

    def test_sequential_and_execution_times(self, ragged, problem):
        x = np.where(problem.valid,
                     1.0 / np.maximum(problem.counts, 1)[:, None], 0.0)
        procs = np.where(problem.valid,
                         problem.p[:, None] / np.maximum(problem.counts, 1)[:, None],
                         0.0)
        c = sequential_times_batch(problem, x)
        t = execution_times_batch(problem, procs, x)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            assert np.array_equal(c[i, :n], sequential_times(wl, pf, x[i, :n]))
            assert np.array_equal(
                t[i, :n], execution_times(wl, pf, procs[i, :n], x[i, :n]))
        assert (t[~problem.valid] == 0.0).all()

    def test_execution_times_reject_nonpositive_procs(self, problem):
        procs = np.where(problem.valid, 0.0, 0.0)
        with pytest.raises(ModelError, match="positive"):
            execution_times_batch(problem, procs, np.zeros_like(procs))

    def test_weights_and_ratios(self, ragged, problem):
        w = cache_weights_batch(problem)
        r = dominance_ratios_batch(problem)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            assert np.array_equal(w[i, :n], cache_weights(wl, pf))
            assert np.array_equal(r[i, :n], dominance_ratios(wl, pf))

    def test_optimal_cache_fractions(self, ragged, problem):
        masks = dominant_partition_batch(problem)
        x = optimal_cache_fractions_batch(problem, masks)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            assert np.array_equal(
                x[i, :n], optimal_cache_fractions(wl, pf, masks[i, :n]))
        assert (x[~problem.valid] == 0.0).all()

    def test_equal_finish_allocation(self, ragged, problem):
        masks = dominant_partition_batch(problem)
        x = optimal_cache_fractions_batch(problem, masks)
        procs, K = equal_finish_allocation_batch(problem, x)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            ref_procs, ref_K = equal_finish_allocation(wl, pf, x[i, :n])
            assert np.array_equal(procs[i, :n], ref_procs)
            assert K[i] == ref_K


class TestEvictionBatch:
    @pytest.mark.parametrize("choice", ["minratio", "maxratio"])
    def test_deterministic_choices(self, ragged, problem, choice):
        weights = cache_weights_batch(problem)
        ratios = dominance_ratios_batch(problem)
        start = (weights > 0.0) & problem.valid
        masks = evict_until_dominant_batch(weights, ratios, start.copy(),
                                           choice=choice)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            ref = legacy.evict_until_dominant(
                weights[i, :n], ratios[i, :n], start[i, :n], choice=choice)
            assert np.array_equal(masks[i, :n], ref)

    def test_random_choice_matches_with_same_streams(self, ragged, problem):
        weights = cache_weights_batch(problem)
        ratios = dominance_ratios_batch(problem)
        start = (weights > 0.0) & problem.valid
        rngs = [np.random.default_rng(40 + i) for i in range(len(ragged))]
        masks = evict_until_dominant_batch(weights, ratios, start.copy(),
                                           choice="random", rngs=rngs)
        for i, (wl, pf) in enumerate(ragged):
            n = wl.n
            ref = legacy.evict_until_dominant(
                weights[i, :n], ratios[i, :n], start[i, :n], choice="random",
                rng=np.random.default_rng(40 + i))
            assert np.array_equal(masks[i, :n], ref)

    @pytest.mark.parametrize("strategy,batch_fn,scalar_fn", [
        ("dominant", dominant_partition_batch, legacy.dominant_partition),
        ("dominantrev", dominant_rev_partition_batch,
         legacy.dominant_rev_partition),
    ])
    def test_partition_strategies(self, ragged, problem, strategy,
                                  batch_fn, scalar_fn):
        choice = "minratio" if strategy == "dominant" else "maxratio"
        masks = batch_fn(problem, choice=choice)
        for i, (wl, pf) in enumerate(ragged):
            ref = scalar_fn(wl, pf, choice=choice)
            assert np.array_equal(masks[i, :wl.n], ref)


    @pytest.mark.parametrize("batch_fn", [dominant_partition_batch,
                                          dominant_rev_partition_batch])
    @pytest.mark.parametrize("choice", ["minratio", "maxratio", "random"])
    def test_rng_count_must_match_rows(self, problem, batch_fn, choice):
        with pytest.raises(ModelError, match="per-row rngs"):
            batch_fn(problem, choice=choice, rngs=[None])


class TestBatchSchedule:
    def test_arrays_match_materialized_schedules(self, ragged, problem):
        bs = dominant_schedule_batch(problem)
        times = bs.times()
        makespans = bs.makespans()
        for i, s in enumerate(bs.schedules()):
            n = ragged[i][0].n
            assert np.array_equal(times[i, :n], s.times())
            assert makespans[i] == s.makespan()
            assert s.workload is ragged[i][0]
        assert (times[~problem.valid] == 0.0).all()

    def test_single_row_materialization(self, ragged, problem):
        bs = dominant_schedule_batch(problem)
        s3 = bs.schedule(3)
        assert np.array_equal(s3.procs, bs.procs[3, :ragged[3][0].n])

    def test_matches_scalar_dominant_schedule(self, ragged, problem):
        for strategy, choice in (("dominant", "minratio"),
                                 ("dominantrev", "maxratio")):
            bs = dominant_schedule_batch(problem, strategy=strategy,
                                         choice=choice)
            for i, (wl, pf) in enumerate(ragged):
                ref = legacy.dominant_schedule(wl, pf, strategy=strategy,
                                               choice=choice)
                s = bs.schedule(i)
                assert np.array_equal(ref.procs, s.procs)
                assert np.array_equal(ref.cache, s.cache)
                assert ref.makespan() == s.makespan()


def _nudge(values: list[float], ulps: int) -> list[float]:
    """*values* with the last entry moved by *ulps* units in the last place."""
    last = values[-1]
    for _ in range(abs(ulps)):
        last = np.nextafter(last, np.inf if ulps > 0 else -np.inf)
    return values[:-1] + [float(last)]


@st.composite
def _allocation_rows(draw):
    """One row of a hand-made allocation: (n, p, procs, cache).

    Besides free values, a row may sit exactly at, or one ulp either
    side of, a capacity bound (``k`` equal shares of the bound sum to
    it exactly when ``k`` is a power of two), or hold a zero proc.
    """
    p = draw(st.sampled_from([1.0, 3.0, 16.0, 256.0]))
    slack = FEASIBILITY_SLACK
    kind = draw(st.sampled_from(["free", "procs-bound", "cache-bound", "zero-proc"]))
    n = draw(st.sampled_from([1, 2, 4]) if kind.endswith("bound")
             else st.integers(1, 6))
    procs = draw(st.lists(st.floats(1e-3, p / n), min_size=n, max_size=n))
    cache = draw(st.lists(st.floats(0.0, 1.0 / n), min_size=n, max_size=n))
    ulps = draw(st.integers(-1, 1))
    if kind == "free":
        procs = draw(st.lists(st.one_of(st.floats(-1.0, 0.0), st.floats(1e-3, 2.0 * p)),
                              min_size=n, max_size=n))
        cache = draw(st.lists(st.floats(-0.1, 1.1), min_size=n, max_size=n))
    elif kind == "procs-bound":
        procs = _nudge([(p * (1 + slack) + slack) / n] * n, ulps)
    elif kind == "cache-bound":
        cache = _nudge([(1 + slack) / n] * n, ulps)
    else:
        procs[draw(st.integers(0, n - 1))] = 0.0
    return n, p, procs, cache


def _hand_made_batch(rows, seed=0):
    """A BatchSchedule holding *rows*, with junk in its padding."""
    rng = np.random.default_rng(seed)
    problem = BatchProblem([(npb_synth(n, rng), taihulight(p=p))
                            for n, p, _, _ in rows])
    procs = np.full(problem.valid.shape, -1.0)
    cache = np.full(problem.valid.shape, 7.0)
    for i, (n, _, row_procs, row_cache) in enumerate(rows):
        procs[i, :n], cache[i, :n] = row_procs, row_cache
    return BatchSchedule(problem, procs, cache)


def _row_issues(bs, i):
    wl, pf = bs.problem.row(i)
    return Schedule(wl, pf, bs.procs[i, :wl.n], bs.cache[i, :wl.n],
                    validate=False).feasibility_violations()


class TestBulkFeasibility:
    """The bulk pass of BatchSchedule.schedules() agrees with the
    per-row feasibility check."""

    @given(rows=st.lists(_allocation_rows(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_cleared_rows_are_feasible(self, rows):
        bs = _hand_made_batch(rows)
        suspect = bs._suspect_rows()
        assert suspect.shape == (len(rows),)
        if len(rows) == 1:
            assert suspect.all()
        for i in range(len(rows)):
            if not suspect[i]:
                assert _row_issues(bs, i) == [], i

    @given(rows=st.lists(_allocation_rows().filter(
        lambda row: min(row[2]) > 0), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_schedules_raise_the_first_per_row_error(self, rows):
        bs = _hand_made_batch(rows)
        issues = [_row_issues(bs, i) for i in range(len(rows))]
        first = next((msg for msg in issues if msg), None)
        if first is None:
            schedules = bs.schedules()
            times = bs.times()
            for i, s in enumerate(schedules):
                n = rows[i][0]
                assert s.times().tobytes() == times[i, :n].tobytes()
                assert s.procs.tobytes() == bs.procs[i, :n].tobytes()
        else:
            with pytest.raises(InfeasibleScheduleError) as err:
                bs.schedules()
            assert str(err.value) == "; ".join(first)

    def test_bound_rows_are_suspect(self):
        slack = FEASIBILITY_SLACK
        rows = [(2, 16.0, [(16 * (1 + slack) + slack) / 2] * 2, [0.1, 0.1]),
                (4, 16.0, [1.0] * 4, [(1 + slack) / 4] * 4),
                (3, 16.0, [1.0, 0.0, 1.0], [0.1] * 3),
                (3, 16.0, [1.0] * 3, [0.1] * 3)]
        assert _hand_made_batch(rows)._suspect_rows().tolist() == [
            True, True, True, False]


class TestScheduleBatchRegistry:
    def test_deterministic_batch_fn_gets_no_generators(self, monkeypatch):
        """Only randomized entries get a generator per seed."""
        seen = []
        real = get_scheduler("fair")

        def recording(instances, rngs):
            seen.extend(rngs)
            return real.batch_fn(instances, rngs)

        monkeypatch.setitem(registry._REGISTRY, "fair",
                            dataclasses.replace(real, batch_fn=recording))
        schedule_batch("fair", _ragged_instances(3, seed=8), seeds=[1, 2, 3])
        assert seen == [None, None, None]

    def test_mixed_platforms(self):
        instances = _ragged_instances(
            9, seed=100,
            platforms=[taihulight(), xeon_e5_2690(), small_llc()])
        entry = get_scheduler("dominant-minratio")
        for s, (wl, pf) in zip(schedule_batch("dominant-minratio", instances),
                               instances):
            ref = entry(wl, pf, None)
            assert np.array_equal(ref.procs, s.procs)
            assert np.array_equal(ref.cache, s.cache)

    def test_fallback_without_batch_fn(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "scalar-fair", SchedulerEntry(
            "scalar-fair", lambda wl, pf, rng=None: fair(wl, pf)))
        instances = _ragged_instances(5, seed=7)
        assert get_scheduler("scalar-fair").batch_fn is None
        for s, (wl, pf) in zip(schedule_batch("scalar-fair", instances),
                               instances):
            ref = get_scheduler("scalar-fair")(wl, pf, None)
            assert np.array_equal(ref.procs, s.procs)
            assert np.array_equal(ref.cache, s.cache)

    def test_failed_batch_reruns_scalar_on_fresh_generators(self, monkeypatch):
        """A randomized batch_fn that draws from every generator and then
        raises: the result is the scalar path's on fresh generators
        built from the same seeds, not on the drained ones."""
        real = get_scheduler("randompart")

        def draining(instances, rngs):
            for rng in rngs:
                rng.random(64)
            raise RuntimeError("batch kernel failed")

        monkeypatch.setitem(registry._REGISTRY, "randompart",
                            dataclasses.replace(real, batch_fn=draining))
        instances = _ragged_instances(4, seed=3)
        seeds = [11, 12, np.random.SeedSequence(13), 14]
        got = schedule_batch("randompart", instances, seeds=seeds)
        for s, (wl, pf), seed in zip(got, instances, seeds):
            ref = real(wl, pf, np.random.default_rng(seed))
            assert np.array_equal(ref.procs, s.procs)
            assert np.array_equal(ref.cache, s.cache)

    def test_failed_batch_raises_the_scalar_error(self, monkeypatch):
        """When both paths fail, the caller sees the scalar path's error,
        not the batch kernel's."""
        def batch(instances, rngs):
            raise RuntimeError("batch-only message")

        def scalar(workload, platform, rng=None):
            raise ModelError("scalar-path message")

        monkeypatch.setitem(registry._REGISTRY, "failing", SchedulerEntry(
            "failing", scalar, batch_fn=batch))
        with pytest.raises(ModelError, match="scalar-path message"):
            schedule_batch("failing", _ragged_instances(2, seed=5))

    def test_batch_fn_gets_one_generator_per_seed(self, monkeypatch):
        """None seeds stay None; every other seed becomes its own
        ``default_rng(seed)`` stream."""
        seen = []
        real = get_scheduler("randompart")

        def recording(instances, rngs):
            seen.extend(None if rng is None else rng.bit_generator.state
                        for rng in rngs)
            return [real(wl, pf, rng) for (wl, pf), rng in zip(instances, rngs)]

        monkeypatch.setitem(registry._REGISTRY, "randompart",
                            dataclasses.replace(real, batch_fn=recording))
        seeds = [None, 3, np.random.SeedSequence(4)]
        schedule_batch("randompart", _ragged_instances(3, seed=8), seeds=seeds)
        assert seen[0] is None
        for state, seed in zip(seen[1:], seeds[1:]):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_unknown_name_raises_even_without_instances(self):
        with pytest.raises(ModelError, match="unknown scheduler 'no-such'"):
            schedule_batch("no-such", [])

    def test_instances_may_be_any_iterable(self):
        instances = _ragged_instances(4, seed=9)
        want = schedule_batch("fair", instances)
        got = schedule_batch("fair", iter(instances))
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert np.array_equal(a.procs, b.procs)
            assert np.array_equal(a.cache, b.cache)

    def test_empty_instances(self):
        assert schedule_batch("dominant-minratio", []) == []

    def test_seed_length_mismatch(self):
        instances = _ragged_instances(3, seed=1)
        with pytest.raises(ModelError, match="seeds has 1 entries for 3"):
            schedule_batch("dominant-random", instances, seeds=[0])

    def test_paper_heuristics_expose_batch_fn(self):
        from repro.core import PAPER_HEURISTICS
        for name in PAPER_HEURISTICS:
            assert get_scheduler(name).batch_fn is not None, name
