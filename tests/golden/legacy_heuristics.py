"""The scalar Algorithm 1 / Algorithm 2 loops, frozen as a test oracle.

Until the six dominant heuristics were folded into the batch core,
``repro.core.heuristics`` carried a second, scalar copy of each loop:
an eviction walk (presorted for MinRatio/MaxRatio, a per-step rescan
for Random and custom choices), a growth loop, and the full
``dominant_schedule`` built on the scalar dominance helpers and
``build_equal_finish_schedule``.  The live entry points are now batches
of one through the ``*_batch`` functions; this module keeps the scalar
code verbatim so the golden suite can assert that every heuristic still
produces the same bits as the loops the paper's figures were first
computed with.

Do not "fix" anything here — the point is to freeze the historical
arithmetic (including its quirks) so any drift in the batch core is
caught exactly.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.application import Workload
from repro.core.dominance import (
    cache_weights,
    dominance_ratios,
    masked_total,
    optimal_cache_fractions,
)
from repro.core.heuristics import (
    DOMINANT_HEURISTICS,
    ChoiceFn,
    ChoiceName,
    _choice_maxratio,
    _choice_minratio,
    make_choice,
)
from repro.core.platform import Platform
from repro.core.processor_allocation import build_equal_finish_schedule
from repro.core.schedule import Schedule
from repro.types import ModelError

__all__ = [
    "evict_until_dominant",
    "dominant_partition",
    "dominant_rev_partition",
    "dominant_schedule",
    "legacy_schedule",
]


def evict_until_dominant(
    weights: np.ndarray,
    ratios: np.ndarray,
    mask: np.ndarray,
    choice: ChoiceName | ChoiceFn = "minratio",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Algorithm 1's eviction core over raw weight / ratio arrays.

    Starting from *mask*, applications are evicted (picked by the
    *choice* function among the current members) until Definition 4
    holds: every member's dominance ratio exceeds the subset's total
    weight.  Shared by :func:`dominant_partition` (full work) and the
    online engine's remaining-work repartitioning — one eviction loop,
    one set of boundary semantics.

    Returns a new mask; the input is not mutated.
    """
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    rng = rng if rng is not None else np.random.default_rng()

    mask = np.asarray(mask, dtype=bool).copy()
    # For the deterministic choices the eviction order is fixed up
    # front: MinRatio walks the members by ascending ratio, MaxRatio by
    # descending.  A stable sort breaks ties toward the lowest index,
    # exactly like the per-step argmin/argmax over the shrinking
    # candidate set — but one O(n log n) sort replaces the O(n^2)
    # rescans.
    walk = _eviction_walk(ratios, mask, choice_fn)
    while mask.any():
        total = masked_total(weights, mask)
        violating = mask & (ratios <= total)
        if not violating.any():
            break
        if walk is not None:
            k = next(walk)
        else:
            candidates = np.flatnonzero(mask)
            k = candidates[choice_fn(candidates, ratios, rng)]
        mask[k] = False
    return mask


def _eviction_walk(ratios, mask, choice_fn):
    """Presorted pick order for the deterministic choice functions.

    Returns an iterator of member indices (ascending ratio for
    MinRatio, descending for MaxRatio, ties toward the lowest index) or
    None for choices whose picks depend on runtime state.
    """
    if choice_fn is _choice_minratio:
        keys = ratios
    elif choice_fn is _choice_maxratio:
        keys = -ratios
    else:
        return None
    members = np.flatnonzero(mask)
    return iter(members[np.argsort(keys[members], kind="stable")])


def dominant_partition(
    workload: Workload,
    platform: Platform,
    choice: ChoiceName | ChoiceFn = "minratio",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Algorithm 1: start with every application, evict until dominant.

    Returns the boolean mask of ``IC``.  Applications with zero weight
    (``w*f*d == 0`` — they cannot profit from cache) are evicted first
    unconditionally; they would otherwise stay in with ratio ``inf``
    while contributing nothing.
    """
    weights = cache_weights(workload, platform)
    ratios = dominance_ratios(workload, platform)
    return evict_until_dominant(weights, ratios, weights > 0.0, choice, rng)


def dominant_rev_partition(
    workload: Workload,
    platform: Platform,
    choice: ChoiceName | ChoiceFn = "maxratio",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Algorithm 2: start empty, add applications while still dominant.

    Candidates are drawn from the applications with positive weight;
    the growth stops at the first candidate whose addition breaks
    Definition 4 (greedy, no backtracking — as in the paper).
    """
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    rng = rng if rng is not None else np.random.default_rng()

    weights = cache_weights(workload, platform)
    ratios = dominance_ratios(workload, platform)

    remaining = weights > 0.0
    mask = np.zeros(workload.n, dtype=bool)
    total = 0.0
    walk = _eviction_walk(ratios, remaining, choice_fn)
    if walk is not None:
        # Deterministic choices admit candidates in presorted order
        # (see _eviction_walk), so the whole growth is one walk.
        for k in walk:
            new_total = total + float(weights[k])
            trial = mask.copy()
            trial[k] = True
            if np.all(ratios[trial] > new_total):
                mask = trial
                total = new_total
            else:
                break
        return mask
    while remaining.any():
        candidates = np.flatnonzero(remaining)
        k = candidates[choice_fn(candidates, ratios, rng)]
        new_total = total + float(weights[k])
        trial = mask.copy()
        trial[k] = True
        if np.all(ratios[trial] > new_total):
            mask = trial
            total = new_total
            remaining[k] = False
        else:
            break
    return mask


def dominant_schedule(
    workload: Workload,
    platform: Platform,
    *,
    strategy: Literal["dominant", "dominantrev"] = "dominant",
    choice: ChoiceName | ChoiceFn = "minratio",
    rng: np.random.Generator | None = None,
) -> Schedule:
    """Full heuristic: partition, Theorem-3 fractions, equal-finish procs."""
    if strategy == "dominant":
        mask = dominant_partition(workload, platform, choice, rng)
    elif strategy == "dominantrev":
        mask = dominant_rev_partition(workload, platform, choice, rng)
    else:
        raise ModelError(f"unknown strategy {strategy!r}")
    x = optimal_cache_fractions(workload, platform, mask) if mask.any() else np.zeros(workload.n)
    return build_equal_finish_schedule(workload, platform, x)


def legacy_schedule(name: str, workload: Workload, platform: Platform,
                    rng: np.random.Generator | None = None) -> Schedule:
    """The registered heuristic *name*, computed by the scalar loops."""
    strategy, choice = DOMINANT_HEURISTICS[name]
    return dominant_schedule(workload, platform, strategy=strategy,
                             choice=choice, rng=rng)
