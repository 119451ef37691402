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
cache fractions and the equal-finish processor allocation.

There is one eviction loop (:func:`evict_until_dominant_batch`) and
one growth loop (:func:`dominant_rev_partition_batch`), each advancing
a whole :class:`~repro.core.batch.BatchProblem` per NumPy call.  The
scalar entry points — :func:`evict_until_dominant`,
:func:`dominant_partition`, :func:`dominant_rev_partition` and
:func:`dominant_schedule` — run them on a batch of one, with ``[rng]``
as its generators.  The golden suite checks every heuristic bit for
bit against the former scalar loops, kept in
``tests/golden/legacy_heuristics.py``.
"""

from __future__ import annotations

from typing import Callable, Literal, Sequence

import numpy as np

from ..types import ModelError
from .application import Workload
from .batch import BatchProblem, BatchSchedule, equal_finish_allocation_batch
from .dominance import DominanceModel, masked_totals
from .platform import Platform
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
    online engine's remaining-work repartitioning.  A batch of one
    through :func:`evict_until_dominant_batch` — one eviction loop, one
    set of boundary semantics.

    Returns a new mask; the input is not mutated.
    """
    return evict_until_dominant_batch(
        np.asarray(weights)[None], np.asarray(ratios)[None],
        np.asarray(mask, dtype=bool)[None], choice, [rng])[0]


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
    while contributing nothing.  A batch of one through
    :func:`dominant_partition_batch`.
    """
    problem = BatchProblem([(workload, platform)])
    return dominant_partition_batch(problem, choice, [rng])[0]


def dominant_rev_partition(
    workload: Workload,
    platform: Platform,
    choice: ChoiceName | ChoiceFn = "maxratio",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Algorithm 2: start empty, add applications while still dominant.

    Candidates are drawn from the applications with positive weight;
    the growth stops at the first candidate whose addition breaks
    Definition 4 (greedy, no backtracking — as in the paper).  A batch
    of one through :func:`dominant_rev_partition_batch`.
    """
    problem = BatchProblem([(workload, platform)])
    return dominant_rev_partition_batch(problem, choice, [rng])[0]


def dominant_schedule(
    workload: Workload,
    platform: Platform,
    *,
    strategy: Literal["dominant", "dominantrev"] = "dominant",
    choice: ChoiceName | ChoiceFn = "minratio",
    rng: np.random.Generator | None = None,
) -> Schedule:
    """Full heuristic: partition, Theorem-3 fractions, equal-finish procs.

    A batch of one through :func:`dominant_schedule_batch`; execution
    times stay lazy until the schedule is asked for them.
    """
    problem = BatchProblem([(workload, platform)])
    return dominant_schedule_batch(problem, strategy=strategy, choice=choice,
                                   rngs=[rng]).schedule(0)


def _row_rngs(rngs, B: int) -> list:
    """Normalize a per-row rng sequence (None entries filled lazily)."""
    if rngs is None:
        return [None] * B
    rngs = list(rngs)
    if len(rngs) != B:
        raise ModelError(f"expected {B} per-row rngs, got {len(rngs)}")
    return rngs


def _presorted(ratios, members, choice_fn):
    """Per-row pick order of MinRatio / MaxRatio, or None for other choices.

    Each row lists its *members* first, by ascending ratio (MinRatio)
    or descending (MaxRatio) with ties toward the lowest index, then
    the rest.  Repeated picks over a shrinking member set take the
    members in exactly this order, so a deterministic choice needs one
    sort per solve instead of one scan per pick.
    """
    if choice_fn is _choice_minratio:
        keys = ratios
    elif choice_fn is _choice_maxratio:
        keys = -ratios
    else:
        return None
    return np.lexsort((keys, ~members), axis=-1)


def _draw_picks(members, rows, choice_fn, rngs, ratios):
    """One pick per row in *rows* by a choice function with runtime state.

    Random (and custom) choices are called per row with that row's own
    generator, so a row draws exactly what it would draw alone.
    """
    k = np.empty(len(rows), dtype=np.intp)
    for j, r in enumerate(rows):
        candidates = np.flatnonzero(members[r])
        rng = rngs[r]
        if rng is None:
            rng = rngs[r] = np.random.default_rng()
        k[j] = candidates[choice_fn(candidates, ratios[r], rng)]
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
    tests, and MinRatio/MaxRatio victim picks (from one presorted
    order) are single NumPy calls over the batch, so the Python loop
    runs O(max evictions) times instead of O(total evictions).  Each
    row follows the trajectory it would follow alone (same totals, same
    tie-breaks, same per-row rng draws), so a row's result is
    bit-identical whatever batch it rides in;
    :func:`evict_until_dominant` is this loop at ``B = 1``.

    Returns a new mask array; the input is not mutated.
    """
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    masks = np.array(masks, dtype=bool, copy=True)
    B, _ = masks.shape
    rngs = _row_rngs(rngs, B)
    evicted = None
    while True:
        totals = masked_totals(weights, masks)
        need = (masks & (ratios <= totals[:, None])).any(axis=1)
        if not need.any():
            break
        rows = np.flatnonzero(need)
        if evicted is None:  # the first eviction: sort only when one is due
            order = _presorted(ratios, masks, choice_fn)
            evicted = np.zeros(B, dtype=np.intp)
        if order is None:
            k = _draw_picks(masks, rows, choice_fn, rngs, ratios)
        else:
            k = order[rows, evicted[rows]]
            evicted[rows] += 1
        masks[rows, k] = False
    return masks


def dominant_partition_batch(
    problem: BatchProblem,
    choice: ChoiceName | ChoiceFn = "minratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """Batched Algorithm 1: per-row ``IC`` masks, shape ``(B, N)``."""
    return _evict_partition(problem, DominanceModel(problem, problem.platforms),
                            choice, rngs)


def _evict_partition(problem, model, choice, rngs):
    """:func:`dominant_partition_batch` with the problem's dominance *model*."""
    weights = model.cache_weights
    ratios = model.ratios(weights)
    start = (weights > 0.0) & problem.valid
    return evict_until_dominant_batch(weights, ratios, start, choice, rngs)


def dominant_rev_partition_batch(
    problem: BatchProblem,
    choice: ChoiceName | ChoiceFn = "maxratio",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> np.ndarray:
    """Batched Algorithm 2: grow per-row subsets while dominant.

    Each row admits its candidates (the positive-weight applications)
    in the order its choice function picks them and stops at the first
    whose admission breaks Definition 4, i.e. once the subset's
    smallest ratio no longer exceeds its total weight.  The total grows
    by one float addition per admission, in admission order, so a row
    matches its one-row solve (:func:`dominant_rev_partition`) bit for
    bit whatever batch it rides in.

    MinRatio and MaxRatio fix the whole pick order up front, so every
    row's running totals and running minimum ratios are one
    accumulation along it.  Random and custom choices draw one pick per
    row per step, so no row draws past its first rejection.
    """
    return _grow_partition(problem, DominanceModel(problem, problem.platforms),
                           choice, rngs)


def _grow_partition(problem, model, choice, rngs):
    """:func:`dominant_rev_partition_batch` with the problem's dominance *model*."""
    choice_fn = make_choice(choice) if isinstance(choice, str) else choice
    weights = model.cache_weights
    ratios = model.ratios(weights)
    remaining = (weights > 0.0) & problem.valid
    B, N = remaining.shape
    rngs = _row_rngs(rngs, B)
    order = _presorted(ratios, remaining, choice_fn)
    if order is not None:
        masks = np.zeros((B, N), dtype=bool)
        totals = np.add.accumulate(
            np.take_along_axis(weights, order, axis=1), axis=1)
        floors = np.minimum.accumulate(
            np.take_along_axis(ratios, order, axis=1), axis=1)
        ok = (floors > totals) & (
            np.arange(N) < remaining.sum(axis=1)[:, None])
        np.put_along_axis(masks, order, np.logical_and.accumulate(ok, axis=1),
                          axis=1)
        return masks
    candidates = remaining.copy()
    # The growing rows, each with its subset total, smallest ratio and
    # count of candidates not yet admitted.
    left = remaining.sum(axis=1)
    rows = np.flatnonzero(left)
    left = left[rows]
    totals = np.zeros(len(rows))
    floors = np.full(len(rows), np.inf)
    while rows.size:
        k = _draw_picks(remaining, rows, choice_fn, rngs, ratios)
        totals = totals + weights[rows, k]
        floors = np.minimum(floors, ratios[rows, k])
        ok = floors > totals
        remaining[rows[ok], k[ok]] = False
        left -= 1
        ok &= left > 0
        rows, totals, floors, left = rows[ok], totals[ok], floors[ok], left[ok]
    return candidates & ~remaining


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
        partition = _evict_partition
    elif strategy == "dominantrev":
        partition = _grow_partition
    else:
        raise ModelError(f"unknown strategy {strategy!r}")
    # One dominance model serves the partition and the fractions.
    model = DominanceModel(problem, problem.platforms)
    x = model.fractions(partition(problem, model, choice, rngs))
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
