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

A :class:`Workload` *is* its six float columns, which the cost model
and the heuristics use vectorized.  The experiments sweep up to 256
applications times many seeds, so generators build workloads from drawn
columns (:meth:`Workload.from_columns`, one vector validation), every
reshaping stays on arrays, and :class:`Application` objects are built
only when a caller iterates or indexes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..types import ModelError
from .platform import Platform

__all__ = ["Application", "Workload", "BASELINE_CACHE_BYTES"]

#: Baseline cache size ``C0`` used for the NPB miss rates of Table 2.
BASELINE_CACHE_BYTES: float = 40e6

#: :class:`Workload` column names, in :class:`Application` field order.
_COLUMNS = ("work", "seq", "freq", "miss0", "footprint", "baseline_cache")


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
    """An immutable collection of applications, stored as its columns.

    The columns (``work``, ``seq``, ``freq``, ``miss0``, ``footprint``,
    ``baseline_cache``) are read-only ``float64`` arrays of length
    ``n`` and are the workload's whole state; downstream code indexes
    them with boolean masks to express partitions ``(IC, not IC)``.
    ``Workload(applications)`` keeps the given :class:`Application`
    objects; a workload built by :meth:`from_columns` (or reshaped from
    another one) builds them on the first iteration or indexing.
    """

    __slots__ = ("_apps", "_names", "_cols", *_COLUMNS)

    def __init__(self, applications: Iterable[Application]):
        apps = tuple(applications)
        if not apps:
            raise ModelError("a workload needs at least one application")
        self._init(tuple(a.name for a in apps), np.array(
            [(a.work, a.seq_fraction, a.access_freq, a.miss_rate, a.footprint,
              a.baseline_cache) for a in apps], dtype=np.float64).T.copy(), apps)

    def _init(self, names: tuple[str, ...], cols: np.ndarray, apps) -> None:
        """Adopt *cols*, the ``(6, n)`` stack of valid columns, read-only."""
        cols.flags.writeable = False
        self._names, self._cols, self._apps = names, cols, apps
        (self.work, self.seq, self.freq, self.miss0, self.footprint,
         self.baseline_cache) = cols

    @classmethod
    def from_columns(cls, names: Iterable[str], work, seq, freq, miss0,
                     footprint=math.inf,
                     baseline_cache=BASELINE_CACHE_BYTES) -> "Workload":
        """Build a workload from its columns, validated in one vector pass.

        Each column is a scalar (shared by every application) or has one
        entry per name; the values are copied.  The checks are the ones
        :class:`Application` makes; when a column fails them, the
        per-application constructors run instead, so the
        :class:`~repro.types.ModelError` names the first bad application
        exactly as ``Workload(applications)`` would.
        """
        names = tuple(names)
        if not names:
            raise ModelError("a workload needs at least one application")
        cols = np.empty((len(_COLUMNS), len(names)))
        for row, values, name in zip(
                cols, (work, seq, freq, miss0, footprint, baseline_cache), _COLUMNS):
            values = np.asarray(values, dtype=np.float64)
            if values.shape not in ((), row.shape):
                raise ModelError(
                    f"{name} must be a scalar or have shape {row.shape}, got {values.shape}")
            row[:] = values
        w, s, f, m, a, c = cols
        if not ((w > 0) & (w < math.inf) & (s >= 0) & (s <= 1) & (f >= 0)
                & (f < math.inf) & (m >= 0) & (m <= 1) & (a > 0) & (c > 0)
                & (c < math.inf)).all():
            return cls(_build_applications(names, cols))
        return cls._of(names, cols)

    @classmethod
    def _of(cls, names: tuple[str, ...], cols: np.ndarray, apps=None) -> "Workload":
        wl = cls.__new__(cls)
        wl._init(names, cols, apps)
        return wl

    def _applications(self) -> tuple[Application, ...]:
        if self._apps is None:
            self._apps = tuple(_build_applications(self._names, self._cols))
        return self._apps

    def _take(self, idx: np.ndarray) -> "Workload":
        """The workload of the applications at integer positions *idx*."""
        if not idx.size:
            raise ModelError("a workload needs at least one application")
        picks = idx.tolist()
        apps = None if self._apps is None else tuple(self._apps[i] for i in picks)
        return Workload._of(tuple(self._names[i] for i in picks),
                            self._cols[:, idx], apps)

    # -- Sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[Application]:
        return iter(self._applications())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(np.arange(self.n)[index])
        return self._applications()[index]

    def __repr__(self) -> str:
        names = ", ".join(self._names[:6])
        more = "" if len(self) <= 6 else f", ... ({len(self)} total)"
        return f"Workload([{names}{more}])"

    # -- derived vectorized quantities -------------------------------------
    @property
    def n(self) -> int:
        """Number of applications."""
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        """Application labels, in order."""
        return self._names

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
            idx = np.flatnonzero(idx)
        return self._take(idx.astype(np.intp, copy=False))

    def with_sequential_fraction(self, s) -> "Workload":
        """Return a copy whose applications all have sequential fraction *s*.

        *s* may be a scalar or a length-``n`` sequence.
        """
        return Workload.from_columns(self._names, self.work, s, self.freq,
                                     self.miss0, self.footprint,
                                     self.baseline_cache)

    def with_miss_rate(self, m0) -> "Workload":
        """Return a copy whose applications all have baseline miss rate *m0*."""
        return Workload.from_columns(self._names, self.work, self.seq, self.freq,
                                     m0, self.footprint, self.baseline_cache)


def _build_applications(names, cols: np.ndarray) -> list[Application]:
    """One :class:`Application` per name from the ``(6, n)`` column stack."""
    return [Application(name, *values) for name, *values in zip(names, *cols.tolist())]
