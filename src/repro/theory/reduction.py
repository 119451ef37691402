"""The NP-completeness reduction of Theorem 1 (Knapsack -> CoSchedCache).

Given a Knapsack instance ``I1 = (u, v, U, V)`` the proof constructs a
CoSchedCache-Dec instance ``I2`` of perfectly parallel applications
with *finite footprints*:

* ``N = max(n, 2U + 1)``, ``eps = 1/(N(N+1))``, ``eta = 1 - 1/N``;
* ``d_i = (u_i * eta / U)^alpha`` — the miss coefficient;
* ``e_i = (d_i^(1/alpha) + eps)^alpha`` — the footprint ceiling, i.e.
  ``a_i = e_i^(1/alpha) * Cs``;
* ``w_i * f_i * ll = z_i = v_i / (1 - d_i/e_i)`` (one factor free);
* makespan bound ``p*K = sum w_i (1 + f_i ls) + sum z_i - V``.

Then ``I1`` is a YES instance iff some cache partition of ``I2``
achieves makespan <= K:

* YES -> give every chosen item its footprint ceiling
  ``x_i = e_i^(1/alpha)`` (they fit: ``sum <= eta + n*eps <= 1``);
* any ``I2`` solution's nonzero subset is a knapsack certificate.

This module materializes the construction as real
:class:`~repro.core.application.Application` objects so the mapping can
be executed and checked numerically, and provides both directions of
the certificate translation plus an exact decision procedure for small
instances (exhaustive over subsets, with the bounded waterfilling of
:func:`repro.core.dominance.bounded_optimal_cache_fractions` giving
the optimal fractions within a subset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.application import Application, Workload
from ..core.dominance import bounded_optimal_cache_fractions
from ..core.execution import sequential_times
from ..core.platform import Platform
from ..types import ModelError
from .knapsack import KnapsackInstance

__all__ = ["ReducedInstance", "reduce_knapsack", "decide_reduced", "certificate_to_fractions",
           "fractions_to_certificate"]


@dataclass(frozen=True)
class ReducedInstance:
    """The CoSchedCache-Dec instance produced by the reduction.

    Attributes
    ----------
    workload, platform
        The constructed applications and machine.
    bound : float
        The makespan bound ``K``.
    eps, eta : float
        The construction constants (kept for tests).
    source : KnapsackInstance
        The originating knapsack instance.
    """

    workload: Workload
    platform: Platform
    bound: float
    eps: float
    eta: float
    source: KnapsackInstance

    def makespan_of_fractions(self, x) -> float:
        """Makespan of the optimal-processor schedule for fractions *x*.

        By Lemma 3 this is ``(1/p) * sum_i Exe_i(1, x_i)`` — the
        applications are perfectly parallel.
        """
        c = sequential_times(self.workload, self.platform, np.asarray(x, dtype=np.float64))
        return float(c.sum() / self.platform.p)

    def accepts(self, x) -> bool:
        """Whether fractions *x* witness makespan <= K (with fp slack)."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0) or float(x.sum()) > 1 + 1e-12:
            return False
        return self.makespan_of_fractions(x) <= self.bound * (1 + 1e-12)


def reduce_knapsack(
    instance: KnapsackInstance,
    *,
    alpha: float = 0.5,
    p: float = 1.0,
    cache_size: float = 1.0,
    latency_cache: float = 0.0,
    latency_memory: float = 1.0,
) -> ReducedInstance:
    """Construct ``I2`` from a knapsack instance ``I1`` (Theorem 1).

    The free parameters keep the proof's degrees of freedom: any
    ``alpha`` in (0, 1], any positive ``p`` and ``Cs``, and any
    latencies work — the defaults make the algebra transparent
    (``ls = 0``, ``ll = 1`` so ``z_i = w_i f_i``).  We set ``f_i = 1``
    and carry the whole product on ``w_i``.

    The applications' miss coefficients are encoded by measuring the
    baseline miss rate at ``C0 = Cs`` so that ``d_i = m0_i`` exactly.
    """
    n = instance.n
    N = max(n, 2 * instance.capacity + 1)
    eps = 1.0 / (N * (N + 1))
    eta = 1.0 - 1.0 / N

    u = np.asarray(instance.sizes, dtype=np.float64)
    v = np.asarray(instance.values, dtype=np.float64)

    d_root = u * eta / instance.capacity          # d_i^(1/alpha)
    d = d_root**alpha
    e_root = d_root + eps                          # e_i^(1/alpha)
    e = e_root**alpha
    if np.any(d >= 1.0):
        raise ModelError(
            "construction requires u_i * eta < U for every item; "
            "item sizes must not exceed the capacity"
        )

    z = v / (1.0 - d / e)                          # w_i f_i ll
    w = z / latency_memory                         # with f_i = 1

    apps = [
        Application(
            name=f"knap{i}",
            work=float(w[i]),
            seq_fraction=0.0,
            access_freq=1.0,
            miss_rate=float(d[i]),
            footprint=float(e_root[i] * cache_size),
            baseline_cache=cache_size,
        )
        for i in range(n)
    ]
    platform = Platform(
        p=p,
        cache_size=cache_size,
        latency_cache=latency_cache,
        latency_memory=latency_memory,
        alpha=alpha,
        name="reduction",
    )
    # p*K = sum w_i (1 + f_i ls) + sum z_i - V
    pK = float((w * (1.0 + latency_cache)).sum() + z.sum() - instance.target)
    return ReducedInstance(
        workload=Workload(apps),
        platform=platform,
        bound=pK / p,
        eps=eps,
        eta=eta,
        source=instance,
    )


def certificate_to_fractions(reduced: ReducedInstance, subset) -> np.ndarray:
    """Forward direction: knapsack certificate -> cache fractions.

    Every chosen item gets its footprint ceiling
    ``x_i = e_i^(1/alpha) = a_i / Cs``; everything else gets 0.
    """
    n = reduced.workload.n
    x = np.zeros(n)
    caps = reduced.workload.footprint / reduced.platform.cache_size
    for i in subset:
        if not 0 <= i < n:
            raise ModelError(f"item index {i} out of range")
        x[i] = caps[i]
    return x


def fractions_to_certificate(reduced: ReducedInstance, x) -> frozenset[int]:
    """Backward direction: the nonzero subset of an I2 solution."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (reduced.workload.n,):
        raise ModelError(f"fractions must have shape ({reduced.workload.n},)")
    return frozenset(np.flatnonzero(x > 0.0).tolist())


def decide_reduced(reduced: ReducedInstance) -> tuple[bool, np.ndarray | None]:
    """Exact decision of the constructed I2 by subset enumeration.

    For every subset of applications, the best achievable makespan uses
    the bounded-waterfilling optimal fractions (upper bound = footprint
    fraction, budget = 1).  Exponential in ``n`` — intended for the
    equivalence tests (``n <= 12``).

    Returns ``(answer, witness fractions or None)``.
    """
    wl = reduced.workload
    pf = reduced.platform
    n = wl.n
    if n > 16:
        raise ModelError(f"exhaustive decision limited to 16 applications, got {n}")
    d = wl.miss_coefficients(pf)
    k = wl.work * wl.freq * d * pf.latency_memory
    caps = np.minimum(1.0, wl.footprint / pf.cache_size)
    for bits in range(1 << n):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        x = np.zeros(n)
        if mask.any():
            x[mask] = bounded_optimal_cache_fractions(
                k[mask], caps[mask], pf.alpha, budget=1.0
            )
        if reduced.accepts(x):
            return True, x
    return False, None
