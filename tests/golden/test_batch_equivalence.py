"""Golden batch-vs-scalar equivalence: the SoA batch path changes nothing.

Marked ``kernel_equivalence`` like the engine-refactor goldens: every
assertion is **bit-identical** (``==`` on floats, never ``approx``)
over seeded ragged sweeps — mixed instance sizes (including n = 1),
mixed platforms, every registered scheduler (extensions included), the
randomized heuristics under replayed per-row generator streams, the
batched equal-finish solver, the batched simulation kernel, and the
experiment engine's batch grouping.

The six dominant heuristics' and the four baselines' scalar entries
are batches of one, so comparing them with the batch path would
compare the core with itself: their reference is the frozen scalar
code of :mod:`golden.legacy_heuristics` and
:mod:`golden.legacy_baselines`, which both the batch path and the
scalar registry entry must reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DOMINANT_HEURISTICS,
    PAPER_BASELINES,
    BatchProblem,
    dominant_schedule_batch,
    equal_finish_allocation,
    equal_finish_allocation_batch,
    get_scheduler,
    optimal_cache_fractions_batch,
    dominant_partition_batch,
    schedule_batch,
    scheduler_names,
)
from repro.machine import small_llc, taihulight, xeon_e5_2690
from repro.simulate import simulate_schedule, simulate_schedule_batch
from repro.workloads import npb_synth, random_workload

from .legacy_baselines import legacy_baseline
from .legacy_heuristics import legacy_schedule

pytestmark = pytest.mark.kernel_equivalence

SEEDS = range(5)


def _instances(seed: int, n_rows: int = 20, mixed_platforms: bool = False):
    """A seeded ragged batch: n in [1, 14], alternating datasets."""
    platforms = ([taihulight(), xeon_e5_2690(), small_llc()]
                 if mixed_platforms else [taihulight()])
    rng = np.random.default_rng(1000 * seed)
    out = []
    for i in range(n_rows):
        n = int(rng.integers(1, 15))
        wl = (npb_synth if (seed + i) % 2 else random_workload)(n, rng)
        out.append((wl, platforms[i % len(platforms)]))
    return out


def _assert_schedules_identical(batch, scalar):
    for i, (b, s) in enumerate(zip(batch, scalar)):
        assert type(b) is type(s), i
        assert np.array_equal(s.procs, b.procs), i
        assert np.array_equal(s.cache, b.cache), i
        assert np.array_equal(s.times(), b.times()), i
        assert s.makespan() == b.makespan(), i


class TestSchedulerBatchPath:
    """schedule_batch == one scalar call per instance.

    For the six dominant heuristics and the four baselines the scalar
    reference is the frozen legacy code, and the live scalar registry
    entry must match it too.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(scheduler_names()))
    def test_bit_identical(self, seed, name):
        entry = get_scheduler(name)
        instances = _instances(seed)

        seeds = [seed * 100 + i if entry.randomized else None
                 for i in range(len(instances))]

        def rng(i):
            return None if seeds[i] is None else np.random.default_rng(seeds[i])

        batch = schedule_batch(name, instances, seeds=seeds)
        live = [entry(wl, pf, rng(i)) for i, (wl, pf) in enumerate(instances)]
        legacy = (legacy_schedule if name in DOMINANT_HEURISTICS
                  else legacy_baseline if name in PAPER_BASELINES else None)
        if legacy is not None:
            oracle = [legacy(name, wl, pf, rng(i))
                      for i, (wl, pf) in enumerate(instances)]
            _assert_schedules_identical(live, oracle)
        else:
            oracle = live
        _assert_schedules_identical(batch, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_platforms(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        batch = schedule_batch("dominant-minratio", instances)
        oracle = [legacy_schedule("dominant-minratio", wl, pf)
                  for wl, pf in instances]
        _assert_schedules_identical(batch, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_padding_invariance(self, seed):
        """A row's result does not depend on how wide its batch is."""
        instances = _instances(seed)
        narrow = schedule_batch("dominant-minratio", instances[:1])
        wide = schedule_batch("dominant-minratio", instances)
        assert np.array_equal(narrow[0].procs, wide[0].procs)
        assert np.array_equal(narrow[0].cache, wide[0].cache)


class TestEqualFinishBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_bit_identical(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        problem = BatchProblem(instances)
        masks = dominant_partition_batch(problem)
        x = optimal_cache_fractions_batch(problem, masks)
        procs, K = equal_finish_allocation_batch(problem, x)
        for i, (wl, pf) in enumerate(instances):
            n = wl.n
            ref_procs, ref_K = equal_finish_allocation(wl, pf, x[i, :n])
            assert np.array_equal(procs[i, :n], ref_procs), i
            assert K[i] == ref_K, i
            assert not procs[i, n:].any(), i


class TestSimulationBatchPath:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_bit_identical(self, seed):
        instances = _instances(seed, mixed_platforms=True)
        problem = BatchProblem(instances)
        bs = dominant_schedule_batch(problem)
        res = simulate_schedule_batch(bs)
        for i, s in enumerate(bs.schedules()):
            ref = simulate_schedule(s)
            n = instances[i][0].n
            assert np.array_equal(ref.finish_times,
                                  res.finish_times[i, :n]), i
            assert ref.makespan == res.makespans[i], i
            assert not res.finish_times[i, n:].any(), i


#: One figure per instance-factory family (fig3 adds AllProcCache next
#: to a heuristic, fig7 the repartition metrics), at 2-3 cheap points.
_FAMILY_FIGURES = {
    "fig3": [2.0, 5.0, 9.0],  # _synth_napps
    "fig7": [2.0, 5.0, 9.0],  # _synth_napps, repartition metrics
    "fig8": [2.0, 5.0, 9.0],  # _random_napps
    "fig10": [16.0, 64.0],  # _npb6_nprocs
    "fig6": [0.0, 0.04, 0.15],  # _synth_seq
    "fig14": [0.0, 0.04, 0.15],  # _random_seq
    "fig2": [0.1, 0.5, 1.0],  # _synth_missrate
    "fig15": [0.1, 0.5],  # _synth_latency
    "fig4": [32.0, 128.0],  # _ratio_factory
}


class TestEngineBatchGrouping:
    # Each case runs the experiment grid twice (batched + scalar); the
    # scheduler-level sweep above already covers the per-instance
    # equivalence exhaustively, so fig1 gets two seeds and the other
    # factory families one rep each.
    @pytest.mark.parametrize("figure_id,points,reps,seed", [
        *(pytest.param("fig1", [2.0, 5.0, 9.0], 2, 2017 + seed,
                       id=f"fig1-seed{seed}") for seed in range(2)),
        *(pytest.param(fid, points, 1, 2017, id=fid)
          for fid, points in _FAMILY_FIGURES.items()),
    ])
    def test_run_experiment_unchanged(self, figure_id, points, reps, seed,
                                      monkeypatch):
        """The engine's batch grouping changes no experiment floats."""
        from repro.experiments import build_figure, run_experiment
        from repro.core import registry as registry_mod

        exp = build_figure(figure_id, reps=reps, seed=seed,
                           points=np.array(points))
        batched = run_experiment(exp, use_cache=False)

        # Disable every batch_fn: same tasks, pure scalar evaluation.
        real_get_entry = registry_mod.get_entry

        class _ScalarOnly:
            def __init__(self, entry):
                self._entry = entry
                self.batch_fn = None

            def __getattr__(self, name):
                return getattr(self._entry, name)

            def __call__(self, *args, **kwargs):
                return self._entry(*args, **kwargs)

        monkeypatch.setattr(registry_mod, "get_entry",
                            lambda name: _ScalarOnly(real_get_entry(name)))
        scalar = run_experiment(exp, use_cache=False)

        assert batched.schedulers == scalar.schedulers
        for name in batched.schedulers:
            for metric in batched.data[name]:
                assert np.array_equal(batched.samples(name, metric),
                                      scalar.samples(name, metric)), (name, metric)
