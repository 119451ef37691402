"""Set-associative LRU cache simulation.

Two engines with complementary strengths:

* :class:`LRUCache` — a direct simulator (per-access bookkeeping).
  Simple, obviously correct, used as the reference implementation and
  for partitioned co-run simulation.
* :func:`stack_distances` — Mattson's stack algorithm: the LRU *stack
  distance* of each access (number of distinct lines touched since the
  previous access to the same line).  A fully associative LRU cache of
  capacity ``W`` misses exactly the accesses with distance ``>= W``
  (cold accesses have infinite distance), so one pass prices **every**
  cache size at once — this is what makes miss-rate-vs-size sweeps
  cheap enough to fit a power law.

For a set-indexed cache, apply the stack algorithm within each set
(:func:`set_stack_distances`) — LRU is managed per set, so per-set
distances against the way count give exact set-associative miss counts
(:func:`miss_counts_by_ways`).

The stack algorithm uses a Fenwick (binary indexed) tree over access
positions: distance = number of *distinct* lines seen since the last
access to this line = count of currently-"live" positions after it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..types import ModelError

__all__ = [
    "LRUCache",
    "stack_distances",
    "set_stack_distances",
    "miss_counts_by_ways",
    "miss_rate_curve",
]


class LRUCache:
    """A set-associative LRU cache of ``num_sets * ways`` lines.

    Parameters
    ----------
    num_sets : int
        Number of sets (power of two recommended; line ids index sets
        by modulo).
    ways : int
        Associativity.  ``num_sets=1`` gives a fully associative cache.

    Notes
    -----
    Addresses are *line ids* (already divided by the line size).  The
    capacity in bytes is ``num_sets * ways * line_bytes`` for whatever
    line size the trace generator assumed.
    """

    __slots__ = ("num_sets", "ways", "_sets", "hits", "misses")

    def __init__(self, num_sets: int, ways: int):
        if num_sets <= 0 or ways <= 0:
            raise ModelError(f"num_sets and ways must be positive, got {num_sets}, {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.ways

    @property
    def accesses(self) -> int:
        """Total accesses simulated so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when nothing accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit.

        On a miss the LRU line of the set is evicted if the set is full.
        """
        s = self._sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = None
        return False

    def run(self, trace: np.ndarray) -> int:
        """Access every line of *trace*; returns the miss count added."""
        trace = np.asarray(trace, dtype=np.int64)
        before = self.misses
        access = self.access  # bind once; the loop is the hot path
        for line in trace.tolist():
            access(line)
        return self.misses - before

    def contents(self) -> set[int]:
        """The set of resident line ids (for invariant checks)."""
        out: set[int] = set()
        for s in self._sets:
            out.update(s.keys())
        return out


class _Fenwick:
    """Binary indexed tree over positions 0..n-1 supporting point
    updates and suffix sums (used for live-position counting)."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)  # a list: scalar numpy indexing is slower

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of positions 0..i-1."""
        total = 0
        tree = self.tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


def stack_distances(trace: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access (``inf`` for cold accesses).

    ``distances[k] = D`` means that between access ``k`` and the
    previous access to the same line, ``D`` *distinct* lines (counting
    this line) were touched; a fully associative LRU cache with
    capacity ``>= D`` hits this access, anything smaller misses it.
    Counting convention: an immediate re-access has distance 1.
    """
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    out = np.full(n, np.inf)
    if n == 0:
        return out
    fen = _Fenwick(n)
    last_pos: dict[int, int] = {}
    for k, line in enumerate(trace.tolist()):
        prev = last_pos.get(line)
        if prev is not None:
            # distinct lines touched in (prev, k) = live markers after prev
            live_after_prev = fen.prefix(k) - fen.prefix(prev + 1)
            out[k] = live_after_prev + 1
            fen.add(prev, -1)
        fen.add(k, 1)
        last_pos[line] = k
    return out


def set_stack_distances(trace: np.ndarray, num_sets: int) -> np.ndarray:
    """Per-set stack distances for a set-indexed cache.

    Splits the trace by ``line % num_sets`` and computes stack
    distances within each set; the result is re-assembled in trace
    order so ``miss_counts_by_ways`` can threshold it directly.
    """
    trace = np.asarray(trace, dtype=np.int64)
    if num_sets <= 0:
        raise ModelError(f"num_sets must be positive, got {num_sets}")
    if num_sets == 1:
        return stack_distances(trace)
    out = np.full(trace.size, np.inf)
    sets = trace % num_sets
    for s in np.unique(sets):
        mask = sets == s
        out[mask] = stack_distances(trace[mask])
    return out


def miss_counts_by_ways(distances: np.ndarray, ways) -> np.ndarray:
    """Miss counts for each associativity in *ways* from one distance pass.

    An access misses a ``W``-way set (or a capacity-``W`` fully
    associative cache) iff its stack distance exceeds ``W``.
    """
    distances = np.asarray(distances, dtype=np.float64)
    ways = np.atleast_1d(np.asarray(ways, dtype=np.int64))
    if np.any(ways <= 0):
        raise ModelError("way counts must be positive")
    # distances > W  <=>  miss; vectorized over both axes.
    return (distances[None, :] > ways[:, None]).sum(axis=1)


def miss_rate_curve(
    trace: np.ndarray,
    capacities_lines,
    *,
    num_sets: int = 1,
    exclude_cold: bool = False,
) -> np.ndarray:
    """Miss rate at each capacity (in lines) via the stack algorithm.

    ``capacities_lines`` are total line counts; with ``num_sets > 1``
    each capacity must be divisible by ``num_sets`` and associativity
    ``capacity / num_sets`` is priced.

    ``exclude_cold=True`` reports the steady-state *capacity* miss
    rate: compulsory (first-touch) accesses are dropped from both the
    numerator and the denominator, i.e. the rate is measured over warm
    accesses only.  A synthetic trace of ~1e5 accesses has a cold-miss
    transient that a real application amortizes over billions of
    accesses; in steady state every access is warm, so the warm-only
    rate is the right estimator (a strided sweep larger than the cache
    then measures exactly 1.0, and the power law of capacity misses is
    exposed without the cold floor).
    """
    trace = np.asarray(trace, dtype=np.int64)
    caps = np.atleast_1d(np.asarray(capacities_lines, dtype=np.int64))
    if np.any(caps <= 0):
        raise ModelError("capacities must be positive")
    if np.any(caps % num_sets != 0):
        raise ModelError("capacities must be divisible by num_sets")
    if trace.size == 0:
        return np.zeros(caps.size)
    distances = set_stack_distances(trace, num_sets)
    if exclude_cold:
        warm = distances[np.isfinite(distances)]
        if warm.size == 0:
            return np.zeros(caps.size)
        misses = miss_counts_by_ways(warm, caps // num_sets)
        return misses / warm.size
    misses = miss_counts_by_ways(distances, caps // num_sets)
    return misses / trace.size
