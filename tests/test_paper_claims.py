"""The paper's claims, one checked row each.

A row names a claim of the evaluation (Figs. 1-7 of research report
RR-8965, Figs. 8-18 of its Appendix A, Table 2) or of an ablation: its
id, the paper figure or section, what it runs -- a :class:`Figure` at
reduced repetitions, or the name of a builder fixture below -- and the
check with its bound.  Rows that name the same run share it.
``python -m repro figure figNN --plot --csv out.csv`` prints the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np
import pytest

from repro.cachesim import fit_power_law, measure_miss_curve, zipf_stream
from repro.core import dominant_schedule, get_scheduler
from repro.core.execution import sequential_times
from repro.core.processor_allocation import XTOL, equal_finish_makespan
from repro.core.registry import PAPER_HEURISTICS
from repro.experiments import Experiment, build_figure, figure_ids, run_experiment
from repro.extensions import granularity_penalty, rounding_penalty
from repro.machine import small_llc, taihulight
from repro.online import simulate_online
from repro.theory import exact_optimal_schedule
from repro.workloads import npb_synth


@dataclass(frozen=True)
class Figure:
    """A figure's grid at *reps* repetitions, on *points* or the paper's axis."""

    figure_id: str
    reps: int = 2
    points: tuple[float, ...] | None = None

    def run(self):
        return run_experiment(
            build_figure(self.figure_id, reps=self.reps, points=self.points))


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    runs: Figure | str  # a figure run, or the name of a builder fixture
    check: Callable[[Any], None]


CLAIMS: list[Claim] = []


def claim(claim_id: str, section: str, runs: Figure | str):
    """Add the decorated check to :data:`CLAIMS` as one row."""
    def register(check):
        CLAIMS.append(Claim(claim_id, section, runs, check))
        return check
    return register


# -- Figs. 1-7 ------------------------------------------------------------------


@claim("fig1-heuristics-85pct-below-apc", "Fig. 1", Figure("fig1"))
def _(result):
    """All six variants overlap, ~85% below AllProcCache once n >= 50
    applications (NPB-SYNTH, p = 256)."""
    norm = result.normalized(by="allproccache")
    large_n = result.x >= 50
    for name in result.schedulers:
        if name != "allproccache":
            assert norm[name][large_n].max() < 0.3, name


@claim("fig1-gain-at-n64-n128", "Fig. 1",
       Figure("fig1", reps=3, points=(64.0, 128.0)))
def _(res):
    """>= ~85% gain over AllProcCache once n >= 50."""
    norm = res.normalized(by="allproccache")
    for name in res.schedulers:
        if name == "allproccache":
            continue
        assert norm[name][0] < 0.25, name   # n = 64
        assert norm[name][1] < 0.15, name   # n = 128


@claim("fig1-six-heuristics-similar", "Fig. 1",
       Figure("fig1", reps=3, points=(64.0,)))
def _(res):
    """The six variants are within a few percent of each other."""
    spans = [res.mean(n)[0] for n in res.schedulers if n != "allproccache"]
    assert max(spans) / min(spans) < 1.1


@claim("fig2-bad-pairings-not-better", "Fig. 2", Figure("fig2"))
def _(result):
    """The six heuristics separate only above miss rate ~0.1;
    Dominant+MinRatio and DominantRev+MaxRatio overlap as the best pair,
    Dominant+MaxRatio and DominantRev+MinRatio as the worst."""
    norm = result.normalized(by="dominant-minratio")
    high = result.x >= 0.5
    # the "bad pairing" curves sit at or above the good ones
    assert norm["dominant-maxratio"][high].mean() >= 0.999
    assert norm["dominantrev-minratio"][high].mean() >= 0.999


@claim("fig2-choice-ranking-at-m0.6", "Fig. 2",
       Figure("fig2", reps=8, points=(0.6,)))
def _(res):
    """Dominant+MinRatio ~ DominantRev+MaxRatio best;
    Dominant+MaxRatio ~ DominantRev+MinRatio worst (high miss rate,
    1 GB LLC)."""
    norm = res.normalized(by="dominant-minratio")
    good = max(norm["dominant-minratio"][0], norm["dominantrev-maxratio"][0])
    bad = min(norm["dominant-maxratio"][0], norm["dominantrev-minratio"][0])
    assert bad >= good * 0.999


@claim("fig3-dominant-best-at-large-n", "Fig. 3", Figure("fig3"))
def _(result):
    """DominantMinRatio best throughout; Fair competitive only at small
    n; 0cache and RandomPart in between and stable."""
    norm = result.normalized(by="dominant-minratio")
    big = result.x >= 64
    for name in ("randompart", "fair", "0cache"):
        assert norm[name][big].min() >= 0.999, name
    assert norm["fair"][big].mean() > norm["0cache"][big].mean()


@claim("fig3-ranking-at-n128", "Fig. 3",
       Figure("fig3", reps=5, points=(128.0,)))
def _(res):
    """DominantMinRatio < RandomPart/0cache < Fair at n=128."""
    norm = res.normalized(by="dominant-minratio")
    assert norm["randompart"][0] > 1.0
    assert norm["0cache"][0] > 1.0
    assert norm["fair"][0] > norm["0cache"][0]


@claim("fig4-fair-improves-with-ratio", "Fig. 4", Figure("fig4"))
def _(result):
    """With many processors per application Fair improves (everyone
    fits in cache); with few, 0cache beats Fair."""
    norm = result.normalized(by="dominant-minratio")
    # Fair improves as the ratio grows
    assert norm["fair"][-1] < norm["fair"][0]
    # at low ratios (many apps), 0cache beats Fair
    assert norm["0cache"][0] < norm["fair"][0]


@claim("fig5-gain-grows-with-p", "Fig. 5", Figure("fig5"))
def _(result):
    """Co-scheduling gain grows with p; DominantMinRatio beats 0cache by
    > 20% (the pure cache-allocation effect) at p = 256."""
    norm = result.normalized(by="dominant-minratio")
    assert norm["0cache"][-1] > 1.2
    apc = result.normalized(by="allproccache")["dominant-minratio"]
    assert apc[-1] < apc[0]  # gain grows with p


@claim("fig5-cache-gain-over-0cache-at-p256", "Fig. 5",
       Figure("fig5", reps=5, points=(256.0,)))
def _(res):
    """Clever cache allocation buys > 20% vs 0cache."""
    norm = res.normalized(by="dominant-minratio")
    assert norm["0cache"][0] > 1.2


@claim("fig6-gain-at-s0.01-fair-closes", "Fig. 6", Figure("fig6"))
def _(result):
    """All co-scheduling heuristics beat AllProcCache once s > 0, with
    > 50% gain already at s = 0.01; Fair closes on DominantMinRatio as s
    grows."""
    apc = result.normalized(by="allproccache")
    s001 = abs(result.x - 0.01).argmin()
    assert apc["dominant-minratio"][s001] < 0.55
    fair = result.normalized(by="dominant-minratio")["fair"]
    assert fair[-1] < fair[1]


@claim("fig6-fair-approaches-dominant", "Fig. 6",
       Figure("fig6", reps=5, points=(0.01, 0.15)))
def _(res):
    """Fair gets closer to DominantMinRatio at larger s."""
    norm = res.normalized(by="dominant-minratio")
    assert norm["fair"][1] < norm["fair"][0]


@claim("fig6-gain-even-at-tiny-s", "Fig. 6",
       Figure("fig6", reps=5, points=(0.01,)))
def _(res):
    """The surprise: > 50% gain vs AllProcCache at s = 0.01."""
    norm = res.normalized(by="allproccache")
    assert norm["dominant-minratio"][0] < 0.55


@claim("fig7-spread-shrinks-fair-uniform", "Fig. 7", Figure("fig7"))
def _(result):
    """The min-max band shrinks as n grows; Fair's band is a single line
    (identical allocations)."""
    spread = (result.mean("dominant-minratio", "proc_max")
              - result.mean("dominant-minratio", "proc_min"))
    assert spread[-1] < spread[np.argmax(spread)]
    assert np.allclose(result.mean("fair", "proc_min"),
                       result.mean("fair", "proc_max"))


@claim("fig7-spread-shrinks-n8-to-n128", "Fig. 7",
       Figure("fig7", reps=3, points=(8.0, 128.0)))
def _(res):
    """Per-app allocation spread decreases as n grows."""
    spread = (res.mean("dominant-minratio", "proc_max")
              - res.mean("dominant-minratio", "proc_min"))
    assert spread[1] < spread[0]


# -- Figs. 8-18 (Appendix A) ----------------------------------------------------


@claim("fig8-dominant-best-random", "Fig. 8 (App. A.1)", Figure("fig8"))
def _(result):
    """Same story as Fig. 3 with the RANDOM set: dominant partitions win."""
    norm = result.normalized(by="dominant-minratio")
    big = result.x >= 64
    for name in ("randompart", "fair", "0cache"):
        assert norm[name][big].min() >= 0.999, name


@claim("fig9-fair-worst-at-64-apps", "Fig. 9 (App. A.2)", Figure("fig9"))
def _(result):
    """With many applications Fair becomes the worst heuristic, even
    below 0cache."""
    norm = result.normalized(by="dominant-minratio")
    assert norm["fair"].mean() > norm["0cache"].mean()


@claim("fig10-fair-beats-0cache-npb6", "Fig. 10 (App. A.2)", Figure("fig10"))
def _(result):
    """With few applications (NPB-6) Fair beats 0cache once p > ~50."""
    norm = result.normalized(by="dominant-minratio")
    large_p = result.x >= 64
    assert norm["fair"][large_p].mean() < norm["0cache"][large_p].mean()


@claim("fig11-dominant-best-random16", "Fig. 11 (App. A.2)", Figure("fig11"))
def _(result):
    """Number of processors, RANDOM with 16 applications."""
    norm = result.normalized(by="dominant-minratio")
    for name in ("randompart", "fair", "0cache"):
        assert norm[name].min() >= 0.999, name


@claim("fig12-stable-in-p-random64", "Fig. 12 (App. A.2)", Figure("fig12"))
def _(result):
    """Relative performance is stable in p; DominantMinRatio stays best."""
    norm = result.normalized(by="dominant-minratio")
    for name in ("randompart", "0cache"):
        series = norm[name]
        assert series.max() / series.min() < 1.5, name  # stable in p


@claim("fig13-fair-improves-with-s-npb6", "Fig. 13 (App. A.3)", Figure("fig13"))
def _(result):
    """Fair's relative performance improves as s grows (cache allocation
    matters more, processor allocation less)."""
    fair = result.normalized(by="dominant-minratio")["fair"]
    assert fair[-1] < fair[1]


@claim("fig14-gain-at-s0.15-random", "Fig. 14 (App. A.3)", Figure("fig14"))
def _(result):
    """Sequential fraction with RANDOM (16 apps)."""
    apc = result.normalized(by="allproccache")["dominant-minratio"]
    assert apc[-1] < 0.6  # strong co-scheduling gain at s = 0.15


@claim("fig15-flat-in-ls-16-apps", "Fig. 15 (App. A.4)", Figure("fig15"))
@claim("fig16-flat-in-ls-64-apps", "Fig. 16 (App. A.4)", Figure("fig16"))
def _(result):
    """ls has no impact on *relative* performance (16 or 64 apps,
    s = 1e-4)."""
    norm = result.normalized(by="allproccache")
    for name in result.schedulers:
        series = norm[name]
        # flat in ls: residual variation is sampling noise, not trend
        assert series.max() / series.min() < 1.35, name


@claim("fig17-spread-shrinks-fair-cache-varies", "Fig. 17 (App. A.5)",
       Figure("fig17"))
def _(result):
    """Like Fig. 7, but Fair's *cache* allocation is more heterogeneous
    (random access frequencies)."""
    spread = (result.mean("dominant-minratio", "proc_max")
              - result.mean("dominant-minratio", "proc_min"))
    assert spread[-1] < spread.max()
    cache_spread = (result.mean("fair", "cache_max")
                    - result.mean("fair", "cache_min"))
    assert np.any(cache_spread > 0)  # heterogeneous Fair cache shares


@claim("fig18-0cache-closes-gap", "Fig. 18 (App. A.6)", Figure("fig18"))
def _(result):
    """As the miss rate grows, 0cache and RandomPart close in on the
    dominant heuristics (cache stops mattering)."""
    norm = result.normalized(by="dominant-minratio")
    assert norm["0cache"][-1] < norm["0cache"][0]  # closes the gap


# -- Table 2 and the trace-driven profiler ---------------------------------------


@claim("table2-miss-regime-and-fit", "Table 2", "table2")
def _(rows):
    """Absolute values need not match the measurements (the traces are
    synthetic); the regime should: small miss rates at 40 MB, positive
    power-law sensitivity."""
    for b in rows:
        assert 0.0 < b.app.miss_rate < 0.1, b.name
        assert b.fit_alpha > 0.0, b.name


@claim("fit-r2-at-200k-accesses", "Table 2 (profiling)", "fit_r2_by_length")
def _(r2):
    """Longer traces tighten the power-law fit."""
    assert r2[-1] > 0.8


# -- ablations and extensions ----------------------------------------------------


@claim("choice-pairing-under-pressure", "§5 (choice functions)",
       "choice_pairing")
def _(result):
    """The well-paired variants never lose to the ill-paired ones on
    average."""
    norm = result.normalized(by="dominant-minratio")
    good = (norm["dominant-minratio"].mean() + norm["dominantrev-maxratio"].mean()) / 2
    bad = (norm["dominant-maxratio"].mean() + norm["dominantrev-minratio"].mean()) / 2
    assert bad >= good * 0.999


@claim("equal-finish-brentq-matches-bisect", "§5 (equal-finish solver)",
       "equal_finish_by_method")
def _(k):
    """Brent's method, the paper's bisection and the shipped hybrid
    Newton-bisection find the same root."""
    kb = k["brentq"]
    assert kb > 0
    for method in ("bisect", "hybrid"):
        assert abs(kb - k[method]) / kb < 1e-8, method


@claim("exact-gap-of-dominant-minratio", "§4.2 (exact subsets)",
       "optimality_gaps")
def _(rows):
    # on the paper's platform the heuristic is essentially optimal
    assert rows[0][1] < 1e-6
    # under pressure the gap exists but stays small
    assert rows[1][2] < 0.25


@claim("integer-rounding-cost", "§3 (rational processors)",
       "rounding_penalties")
def _(rows):
    """With works spanning 1e8-1e12 whole-processor rounding is brutal;
    with homogeneous works it is nearly free."""
    hetero, homo = rows
    assert homo[3] < 0.05          # homogeneous: rounding nearly free
    assert hetero[3] > homo[3]     # heterogeneity is what hurts
    assert hetero[3] <= hetero[1] + 1e-12  # critical-path no worse than floor


@claim("ucp-way-granularity-cost", "§7 (way granularity)",
       "granularity_penalties")
def _(rows):
    """CAT-scale way counts (11-20) are essentially free; very coarse
    partitions are not."""
    by_name = {r[0]: r for r in rows}
    assert by_name["taihulight W=20"][1] < 0.02   # CAT-scale: free
    assert by_name["taihulight W=4"][1] > by_name["taihulight W=20"][1]


@claim("extensions-never-lose", "§7 (future work)", "extension_makespans")
def _(rows):
    """speedup-aware, local search and continuous-opt never lose to the
    Theorem-3 allocation."""
    for row in rows:
        assert row[2] <= 1.0 + 1e-9   # speedup-aware never worse
        assert row[3] <= 1.0 + 1e-9   # localsearch never worse
        assert row[4] <= 1.0 + 1e-9   # continuous never worse


@claim("online-fcfs-makespan-fair-flow", "§7 (online arrivals)",
       "online_policies")
def _(rows):
    """With staggered arrivals, dominant repartitioning beats FCFS
    exclusive execution on makespan, while plain fair sharing wins on
    mean flow time: Lemma 1's equal-finish principle is an offline
    makespan property."""
    by = {r[0]: r for r in rows}
    assert by["fcfs"][1] > 1.0       # fcfs loses on makespan
    assert by["fair"][2] < 1.0       # fair wins on mean flow (documented)


@claim("runtime-n256-under-10s", "§6 (scheduler runtime)", "instance_n256")
def _(instance):
    """The paper reports "< 10 seconds in the worst setting"; each
    scheduler finishes 256 applications well inside that."""
    wl, pf = instance
    for name in ("dominant-minratio", "dominantrev-maxratio", "0cache", "fair",
                 "randompart"):
        start = perf_counter()
        schedule = get_scheduler(name)(wl, pf, np.random.default_rng(1))
        assert perf_counter() - start < 10.0, name
        assert schedule.makespan() > 0, name


# -- builders named by the rows above ------------------------------------------
# (``table2``, shared with tests/experiments/test_table2.py, is in conftest.py)


def _choice_factory(point, rng):
    return npb_synth(int(point), rng).with_miss_rate(0.7), small_llc()


@pytest.fixture(scope="module")
def choice_pairing():
    """Choice pairing on a small LLC with high miss rates, where the
    greedy order actually matters (on the paper's 32 GB platform all
    six variants tie)."""
    return run_experiment(Experiment(
        experiment_id="ablation-choice",
        title="Choice-function pairing under cache pressure (m0=0.7, 1GB LLC)",
        xlabel="#Applications",
        points=np.array([8.0, 16.0, 32.0, 64.0]),
        factory=_choice_factory,
        schedulers=PAPER_HEURISTICS,
        reps=8,
        seed=11,
    ))


def _paper_bisection(g, lo: float, hi: float) -> float:
    """Plain binary search on a decreasing *g*, as the paper solves it."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= XTOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def equal_finish_by_method():
    """The equal-finish makespan of 64 NPB-SYNTH applications, by solver.

    The shipped solver is ``equal_finish_makespan``; the references
    solve ``g(K) = sum_i (1-s_i) / (K/c_i - s_i) = p`` on the paper's
    bracket (every application on all ``p`` processors, respectively
    on one, doubled until it brackets the root).
    """
    from scipy.optimize import brentq

    pf = taihulight()
    wl = npb_synth(64, np.random.default_rng(0))
    x = np.zeros(64)
    seq, c, p = wl.seq, sequential_times(wl, pf, x), pf.p

    def g(K: float) -> float:
        denom = K / c - seq
        if np.any(denom <= 0):
            return np.inf
        return float(((1.0 - seq) / denom).sum()) - p

    lo = float(((seq + (1.0 - seq) / p) * c).max())
    hi = float(c.max())
    while g(hi) > 0:
        hi *= 2.0
    assert g(lo) > 0
    return {
        "hybrid": equal_finish_makespan(wl, pf, x),
        "bisect": _paper_bisection(g, lo, hi),
        "brentq": float(brentq(g, lo, hi, xtol=XTOL * lo, rtol=1e-14)),
    }


@pytest.fixture(scope="module")
def optimality_gaps():
    """[setting, mean gap, max gap] of DominantMinRatio against the
    exhaustive exact solver (n = 10, perfectly parallel, 10 seeds)."""
    settings = [
        ("taihulight", taihulight(), 0.0),
        ("1GB-LLC m0=0.6", small_llc(p=16.0), 0.6),
    ]
    rows = []
    for label, pf, miss in settings:
        gaps = []
        for seed in range(10):
            wl = npb_synth(10, np.random.default_rng(seed), seq_range=None)
            if miss > 0:
                wl = wl.with_miss_rate(miss)
            exact = exact_optimal_schedule(wl, pf)
            heur = dominant_schedule(wl, pf, strategy="dominant",
                                     choice="minratio")
            gaps.append(heur.makespan() / exact.makespan - 1)
        gaps = np.asarray(gaps)
        rows.append([label, float(gaps.mean()), float(gaps.max())])
    return rows


@pytest.fixture(scope="module")
def rounding_penalties():
    """[workload, floor, largest-remainder, critical-path]: the mean
    makespan penalty of integer processors (16 apps, p = 256, 8 seeds)."""
    pf = taihulight()
    rows = []
    for label, work_range, log_work in [
        ("log-uniform 1e8-1e12", (1e8, 1e12), True),
        ("homogeneous ~1e10", (1e10, 1.05e10), False),
    ]:
        pens = {"floor": [], "largest-remainder": [], "critical-path": []}
        for seed in range(8):
            wl = npb_synth(16, np.random.default_rng(seed),
                           work_range=work_range, log_work=log_work)
            sched = dominant_schedule(wl, pf, strategy="dominant",
                                      choice="minratio")
            for strat in pens:
                pens[strat].append(rounding_penalty(sched, strategy=strat))
        rows.append([label] + [float(np.mean(pens[s])) for s in
                               ("floor", "largest-remainder", "critical-path")])
    return rows


@pytest.fixture(scope="module")
def granularity_penalties():
    """[setting W=ways, mean, max]: the UCP whole-way penalty against the
    continuous Theorem-3 fractions (16 apps, 5 seeds)."""
    rows = []
    for label, pf, miss in [("taihulight", taihulight(), None),
                            ("1GB LLC, m0=0.5", small_llc(), 0.5)]:
        for ways in (4, 8, 20, 64):
            pens = []
            for seed in range(5):
                wl = npb_synth(16, np.random.default_rng(seed))
                if miss is not None:
                    wl = wl.with_miss_rate(miss)
                pens.append(granularity_penalty(wl, pf, total_ways=ways))
            rows.append([f"{label} W={ways}", float(np.mean(pens)),
                         float(np.max(pens))])
    return rows


@pytest.fixture(scope="module")
def extension_makespans():
    """[workload, dominant-minratio, speedup-aware, localsearch,
    continuous-opt]: mean makespan normalized by DominantMinRatio
    (16 apps, 6 seeds), for two spreads of sequential fractions."""
    pf = taihulight()
    names = ("dominant-minratio", "speedup-aware", "localsearch", "continuous-opt")
    rows = []
    for label, seq_range in [("s in [0.01, 0.15]", (0.01, 0.15)),
                             ("s in [0, 0.4]", (0.0, 0.4))]:
        sums = {n: 0.0 for n in names}
        for seed in range(6):
            wl = npb_synth(16, np.random.default_rng(seed),
                           seq_range=seq_range)
            base = None
            for n in names:
                span = get_scheduler(n)(wl, pf, np.random.default_rng(1)).makespan()
                if base is None:
                    base = span
                sums[n] += span / base
        rows.append([label] + [sums[n] / 6 for n in names])
    return rows


@pytest.fixture(scope="module")
def online_policies():
    """[policy, makespan, mean flow] normalized by the online dominant
    policy (16 apps, arrivals uniform over the offline makespan, 5 seeds)."""
    pf = taihulight()
    reps = 5
    sums = {p: np.zeros(2) for p in ("dominant", "fair", "fcfs")}
    for seed in range(reps):
        wl = npb_synth(16, np.random.default_rng(seed))
        horizon = get_scheduler("dominant-minratio")(wl, pf, None).makespan()
        arr = np.sort(np.random.default_rng(seed + 100)
                      .uniform(0, horizon, size=16))
        base = None
        for policy in ("dominant", "fair", "fcfs"):
            res = simulate_online(wl, pf, arr, policy=policy)
            if base is None:
                base = np.array([res.makespan, res.mean_flow])
            sums[policy] += np.array([res.makespan, res.mean_flow]) / base
    return [[policy, *(sums[policy] / reps)]
            for policy in ("dominant", "fair", "fcfs")]


@pytest.fixture(scope="module")
def fit_r2_by_length():
    """Power-law fit r2 at trace lengths 20k, 80k and 200k."""
    rng = np.random.default_rng(3)
    r2 = []
    for length in (20_000, 80_000, 200_000):
        t = zipf_stream(300_000, length, rng, skew=1.05)
        curve = measure_miss_curve(t, np.geomspace(16 * 1024, 8e6, 10),
                                   exclude_cold=True)
        fit = fit_power_law(curve.cache_bytes, curve.miss_rates, c0=40e6)
        r2.append(fit.r2)
    return r2


@pytest.fixture(scope="module")
def instance_n256():
    return npb_synth(256, np.random.default_rng(0)), taihulight()


# -- the table ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure_results():
    """Figure runs already made, by :class:`Figure`."""
    return {}


@pytest.mark.parametrize("row", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(row, figure_results, request):
    if isinstance(row.runs, Figure):
        if row.runs not in figure_results:
            figure_results[row.runs] = row.runs.run()
        out = figure_results[row.runs]
    else:
        out = request.getfixturevalue(row.runs)
    row.check(out)


def test_every_figure_and_table2_has_a_claim_with_unique_id_and_section():
    runs = {c.runs.figure_id if isinstance(c.runs, Figure) else c.runs
            for c in CLAIMS}
    assert set(figure_ids()) | {"table2"} <= runs
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(c.section.strip() for c in CLAIMS)
