"""The six dominant-partition heuristics of Section 5.

Two greedy strategies build a dominant subset ``IC``:

* :func:`dominant_partition` (Algorithm 1) starts from ``IC = I`` and
  evicts applications until Definition 4 holds;
* :func:`dominant_rev_partition` (Algorithm 2) starts from ``IC = {}``
  and adds applications while the subset stays dominant.

Each is parameterized by a *choice function* picking the next
application to evict/add: ``Random``, ``MinRatio`` (smallest dominance
ratio first) or ``MaxRatio`` (largest first).  The paper's intuition —
confirmed by its Fig. 2 and our benches — is that ``Dominant`` pairs
well with ``MinRatio`` (evict the worst offenders) and ``DominantRev``
with ``MaxRatio`` (admit the strongest candidates).

Note on the paper's pseudo-code: the loop guards printed in Algorithms
1 and 2 are inconsistent with Definition 4 (they would exit/continue on
the *dominant* condition).  We implement the intent stated in the
text: Algorithm 1 removes applications **while the subset is not
dominant**; Algorithm 2 adds applications **while the grown subset
remains dominant**.

Once ``IC`` is chosen, the schedule is completed with the Theorem-3
cache fractions and the equal-finish processor allocation
(:func:`repro.core.processor_allocation.build_equal_finish_schedule`).
"""

from __future__ import annotations

from typing import Callable, Literal, Sequence

import numpy as np

from ..types import ModelError
from .application import Workload
from .batch import BatchProblem, BatchSchedule, equal_finish_allocation_batch
from .dominance import (
    cache_weights,
    cache_weights_batch,
    dominance_ratios,
    dominance_ratios_batch,
    masked_total,
    masked_totals,
    optimal_cache_fractions,
    optimal_cache_fractions_batch,
)
from .platform import Platform
from .processor_allocation import build_equal_finish_schedule
from .schedule import Schedule

__all__ = [
    "ChoiceName",
    "make_choice",
    "evict_until_dominant",
    "evict_until_dominant_batch",
    "dominant_partition",
    "dominant_partition_batch",
    "dominant_rev_partition",
    "dominant_rev_partition_batch",
    "dominant_schedule",
    "dominant_schedule_batch",
    "DOMINANT_HEURISTICS",
]

ChoiceName = Literal["random", "minratio", "maxratio"]

#: choice(candidates, ratios, rng) -> index into candidates
ChoiceFn = Callable[[np.ndarray, np.ndarray, np.random.Generator], int]


def _choice_random(candidates: np.ndarray, ratios: np.ndarray,
                   rng: np.random.Generator) -> int:
    return int(rng.integers(len(candidates)))


def _choice_minratio(candidates: np.ndarray, ratios: np.ndarray,
                     rng: np.random.Generator) -> int:
    return int(np.argmin(ratios[candidates]))


def _choice_maxratio(candidates: np.ndarray, ratios: np.ndarray,
                     rng: np.random.Generator) -> int:
    return int(np.argmax(ratios[candidates]))


_CHOICES: dict[str, ChoiceFn] = {
    "random": _choice_random,
    "minratio": _choice_minratio,
    "maxratio": _choice_maxratio,
}


def make_choice(name: ChoiceName) -> ChoiceFn:
    """Look up a choice function by its paper name (case-insensitive)."""
    try:
        return _CHOICES[name.lower()]
    except KeyError:
        raise ModelError(
            f"unknown choice function {name!r}; expected one of {sorted(_CHOICES)}"
        ) from None


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


def _row_rngs(rngs, B: int) -> list:
    """Normalize a per-row rng sequence (None entries filled lazily)."""
    if rngs is None:
        return [None] * B
    rngs = list(rngs)
    if len(rngs) != B:
        raise ModelError(f"expected {B} per-row rngs, got {len(rngs)}")
    return rngs


def _pick_rows(masks_rows, ratios_rows, rows, choice_fn, rngs, ratios):
    """Per-needy-row victim/candidate pick, vectorized when possible.

    For MinRatio/MaxRatio one argmin/argmax over masked-filled rows
    reproduces the scalar pick including first-occurrence tie-breaks;
    Random (and custom choices) consume each row's own generator with
    exactly the calls the scalar loop would make.
    """
    if choice_fn is _choice_minratio:
        k = np.argmin(np.where(masks_rows, ratios_rows, np.inf), axis=1)
    elif choice_fn is _choice_maxratio:
        k = np.argmax(np.where(masks_rows, ratios_rows, -np.inf), axis=1)
    else:
        k = np.empty(len(rows), dtype=np.intp)
        for j, r in enumerate(rows):
            candidates = np.flatnonzero(masks_rows[j])
            rng = rngs[r]
            if rng is None:
                rng = rngs[r] = np.random.default_rng()
            k[j] = candidates[choice_fn(candidates, ratios[r], rng)]
        return k
    # Degenerate rows whose members all carry the fill value can land
    # outside the mask; redirect to the first member (the scalar
    # argmin/argmax over candidates would pick exactly that).
    bad = ~masks_rows[np.arange(len(rows)), k]
    if bad.any():
        k = np.where(bad, masks_rows.argmax(axis=1), k)
    return k


def evict_until_dominant_batch(
    weights: np.ndarray,
    ratios: np.ndarray,
    masks: np.ndarray,
    choice: ChoiceName | ChoiceFn = "minratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """Batched Algorithm-1 eviction over masked ``(B, N)`` arrays.

    One iteration of the outer loop advances *every* row that still
    violates Definition 4 by one eviction — subset totals, violation
    tests, and MinRatio/MaxRatio victim picks are single NumPy calls
    over the batch, so the Python loop runs O(max evictions) times
    instead of O(total evictions).  Rows follow exactly the scalar
    :func:`evict_until_dominant` trajectory (same totals, same
    tie-breaks, same per-row rng draws), so the result is bit-identical
    per row.

    Returns a new mask array; the input is not mutated.
    """
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    masks = np.array(masks, dtype=bool, copy=True)
    B, _ = masks.shape
    rngs = _row_rngs(rngs, B)
    while True:
        totals = masked_totals(weights, masks)
        violating = masks & (ratios <= totals[:, None])
        need = violating.any(axis=1)
        if not need.any():
            break
        rows = np.flatnonzero(need)
        k = _pick_rows(masks[rows], ratios[rows], rows, choice_fn, rngs, ratios)
        masks[rows, k] = False
    return masks


def dominant_partition_batch(
    problem: BatchProblem,
    choice: ChoiceName | ChoiceFn = "minratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """Batched Algorithm 1: per-row ``IC`` masks, shape ``(B, N)``."""
    weights = cache_weights_batch(problem)
    ratios = dominance_ratios_batch(problem)
    start = (weights > 0.0) & problem.valid
    return evict_until_dominant_batch(weights, ratios, start, choice, rngs)


def dominant_rev_partition_batch(
    problem: BatchProblem,
    choice: ChoiceName | ChoiceFn = "maxratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """Batched Algorithm 2: grow per-row subsets while dominant.

    Each outer iteration admits (or rejects, stopping that row) one
    candidate per still-growing row; totals grow by the same float
    additions as the scalar loop, so rows match bit for bit.
    """
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    weights = cache_weights_batch(problem)
    ratios = dominance_ratios_batch(problem)

    remaining = (weights > 0.0) & problem.valid
    B, N = remaining.shape
    rngs = _row_rngs(rngs, B)
    masks = np.zeros((B, N), dtype=bool)
    totals = np.zeros(B)
    active = remaining.any(axis=1)
    while active.any():
        rows = np.flatnonzero(active)
        k = _pick_rows(remaining[rows], ratios[rows], rows, choice_fn, rngs,
                       ratios)
        new_totals = totals[rows] + weights[rows, k]
        trial = masks[rows]
        trial[np.arange(len(rows)), k] = True  # masks[rows] is a copy
        ok = ~(trial & (ratios[rows] <= new_totals[:, None])).any(axis=1)
        okrows = rows[ok]
        kok = k[ok]
        masks[okrows, kok] = True
        totals[okrows] = new_totals[ok]
        remaining[okrows, kok] = False
        active[rows[~ok]] = False
        active[okrows] = remaining[okrows].any(axis=1)
    return masks


def dominant_schedule_batch(
    problem: BatchProblem,
    *,
    strategy: Literal["dominant", "dominantrev"] = "dominant",
    choice: ChoiceName | ChoiceFn = "minratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> BatchSchedule:
    """Batched :func:`dominant_schedule`: one solve for ``B`` instances.

    Partition masks, Theorem-3 fractions, and the equal-finish
    processor allocation are each one vectorized pass over the batch;
    the result stays in array form (see
    :class:`~repro.core.batch.BatchSchedule`) and each row is
    bit-identical to running :func:`dominant_schedule` on that instance
    alone with the corresponding rng.
    """
    if strategy == "dominant":
        masks = dominant_partition_batch(problem, choice, rngs)
    elif strategy == "dominantrev":
        masks = dominant_rev_partition_batch(problem, choice, rngs)
    else:
        raise ModelError(f"unknown strategy {strategy!r}")
    x = optimal_cache_fractions_batch(problem, masks)
    procs, _ = equal_finish_allocation_batch(problem, x)
    return BatchSchedule(problem, procs, x)


#: The six heuristic names of the paper, mapping to (strategy, choice).
DOMINANT_HEURISTICS: dict[str, tuple[str, str]] = {
    "dominant-random": ("dominant", "random"),
    "dominant-minratio": ("dominant", "minratio"),
    "dominant-maxratio": ("dominant", "maxratio"),
    "dominantrev-random": ("dominantrev", "random"),
    "dominantrev-minratio": ("dominantrev", "minratio"),
    "dominantrev-maxratio": ("dominantrev", "maxratio"),
}
