"""Application model and vectorized workload container.

An :class:`Application` carries the five scalars the paper's model
needs (Section 3):

``w``
    number of computing operations,
``s``
    Amdahl sequential fraction (``s = 0`` means perfectly parallel),
``f``
    data accesses per computing operation,
``a``
    memory footprint in bytes (``inf`` when larger than any cache,
    which is the assumption of Sections 4.2-6),
``m0``
    miss rate measured on a baseline cache of size ``C0`` (40 MB for
    the NPB measurements of Table 2).

A :class:`Workload` packs ``n`` applications into contiguous numpy
arrays so the cost model, dominance ratios, and heuristics can operate
vectorized — the experiments sweep up to 256 applications times many
seeds, and per-application Python loops would dominate the runtime.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..types import ModelError, as_float_array
from .platform import Platform

__all__ = ["Application", "Workload", "BASELINE_CACHE_BYTES"]

#: Baseline cache size ``C0`` used for the NPB miss rates of Table 2.
BASELINE_CACHE_BYTES: float = 40e6


@dataclass(frozen=True, slots=True)
class Application:
    """A single parallel application with an Amdahl speedup profile.

    Parameters
    ----------
    name : str
        Label for reports (e.g. ``"CG"``).
    work : float
        ``w``: total number of computing operations (> 0).
    seq_fraction : float
        ``s`` in [0, 1]: sequential fraction of the work.
    access_freq : float
        ``f`` >= 0: data accesses per computing operation.
    miss_rate : float
        ``m0`` in [0, 1]: miss rate on a cache of ``baseline_cache`` bytes.
    footprint : float
        ``a`` > 0 bytes, or ``inf`` (default) when the footprint exceeds
        any cache of interest.
    baseline_cache : float
        ``C0``: cache size at which ``miss_rate`` was measured.
    """

    name: str
    work: float
    seq_fraction: float = 0.0
    access_freq: float = 0.0
    miss_rate: float = 0.0
    footprint: float = math.inf
    baseline_cache: float = BASELINE_CACHE_BYTES

    def __post_init__(self) -> None:
        if not (self.work > 0 and math.isfinite(self.work)):
            raise ModelError(f"{self.name}: work must be positive and finite, got {self.work}")
        if not (0.0 <= self.seq_fraction <= 1.0):
            raise ModelError(
                f"{self.name}: seq_fraction must be in [0, 1], got {self.seq_fraction}"
            )
        if self.access_freq < 0 or not math.isfinite(self.access_freq):
            raise ModelError(
                f"{self.name}: access_freq must be >= 0 and finite, got {self.access_freq}"
            )
        if not (0.0 <= self.miss_rate <= 1.0):
            raise ModelError(f"{self.name}: miss_rate must be in [0, 1], got {self.miss_rate}")
        if not self.footprint > 0:  # also rejects NaN
            raise ModelError(f"{self.name}: footprint must be positive, got {self.footprint}")
        if not (self.baseline_cache > 0 and math.isfinite(self.baseline_cache)):
            raise ModelError(
                f"{self.name}: baseline_cache must be positive and finite, "
                f"got {self.baseline_cache}"
            )

    @property
    def is_perfectly_parallel(self) -> bool:
        """True when ``s == 0`` so ``Exe(p, x) = Exe(1, x) / p``."""
        return self.seq_fraction == 0.0

    def miss_coefficient(self, platform: Platform) -> float:
        """Return ``d = m0 * (C0 / Cs)^alpha`` for *platform*.

        ``d`` is the miss rate the application would see if it owned the
        *entire* LLC of the platform; with a fraction ``x`` of the LLC
        its miss rate is ``min(1, d / x^alpha)`` (Eq. 1 rewritten).
        """
        return self.miss_rate * (self.baseline_cache / platform.cache_size) ** platform.alpha

    def scaled(self, *, work: float | None = None,
               seq_fraction: float | None = None) -> "Application":
        """Return a copy with ``work`` and/or ``seq_fraction`` replaced."""
        kwargs = {}
        if work is not None:
            kwargs["work"] = work
        if seq_fraction is not None:
            kwargs["seq_fraction"] = seq_fraction
        return replace(self, **kwargs)


class Workload(Sequence[Application]):
    """An immutable collection of applications with vectorized columns.

    The columns (``work``, ``seq``, ``freq``, ``miss0``, ``footprint``,
    ``baseline_cache``) are read-only ``float64`` arrays of length
    ``n``; downstream code indexes them with boolean masks to express
    partitions ``(IC, not IC)``.
    """

    __slots__ = ("_apps", "work", "seq", "freq", "miss0", "footprint", "baseline_cache")

    def __init__(self, applications: Iterable[Application]):
        apps = tuple(applications)
        if not apps:
            raise ModelError("a workload needs at least one application")
        self._apps = apps
        self.work = _readonly([a.work for a in apps], "work")
        self.seq = _readonly([a.seq_fraction for a in apps], "seq_fraction")
        self.freq = _readonly([a.access_freq for a in apps], "access_freq")
        self.miss0 = _readonly([a.miss_rate for a in apps], "miss_rate")
        self.footprint = np.asarray([a.footprint for a in apps], dtype=np.float64)
        self.footprint.flags.writeable = False
        self.baseline_cache = _readonly([a.baseline_cache for a in apps], "baseline_cache")

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._apps)

    def __iter__(self) -> Iterator[Application]:
        return iter(self._apps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Workload(self._apps[index])
        return self._apps[index]

    def __repr__(self) -> str:
        names = ", ".join(a.name for a in self._apps[:6])
        more = "" if len(self) <= 6 else f", ... ({len(self)} total)"
        return f"Workload([{names}{more}])"

    # -- derived vectorized quantities -------------------------------------
    @property
    def n(self) -> int:
        """Number of applications."""
        return len(self._apps)

    @property
    def names(self) -> tuple[str, ...]:
        """Application labels, in order."""
        return tuple(a.name for a in self._apps)

    @property
    def is_perfectly_parallel(self) -> bool:
        """True when every application has ``s == 0``."""
        return bool(np.all(self.seq == 0.0))

    def miss_coefficients(self, platform: Platform) -> np.ndarray:
        """Vector of ``d_i = m0_i * (C0_i / Cs)^alpha`` (read-write copy)."""
        return self.miss0 * (self.baseline_cache / platform.cache_size) ** platform.alpha

    def subset(self, mask) -> "Workload":
        """Return a new workload of the applications selected by *mask*.

        Parameters
        ----------
        mask : array_like of bool or of int
            Boolean mask of length ``n`` or integer index array.
        """
        idx = np.asarray(mask)
        if idx.dtype == bool:
            if idx.shape != (self.n,):
                raise ModelError(f"boolean mask must have length {self.n}, got {idx.shape}")
            chosen = [a for a, keep in zip(self._apps, idx) if keep]
        else:
            chosen = [self._apps[int(i)] for i in idx]
        return Workload(chosen)

    def with_sequential_fraction(self, s) -> "Workload":
        """Return a copy whose applications all have sequential fraction *s*.

        *s* may be a scalar or a length-``n`` sequence.
        """
        svals = np.broadcast_to(np.asarray(s, dtype=np.float64), (self.n,))
        return Workload(
            app.scaled(seq_fraction=float(si)) for app, si in zip(self._apps, svals)
        )

    def with_miss_rate(self, m0) -> "Workload":
        """Return a copy whose applications all have baseline miss rate *m0*."""
        mvals = np.broadcast_to(np.asarray(m0, dtype=np.float64), (self.n,))
        return Workload(
            replace(app, miss_rate=float(mi)) for app, mi in zip(self._apps, mvals)
        )


def _readonly(values, name: str) -> np.ndarray:
    arr = as_float_array(values, name=name)
    arr.flags.writeable = False
    return arr
