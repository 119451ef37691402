"""Platform model: processors sharing a partitionable last-level cache.

The paper's architecture (Section 3) is a multi-core node with ``p``
homogeneous processors, a small fast storage ``Ss`` of size ``Cs``
(the shared LLC, LRU-managed, partitionable a la Intel CAT) with access
latency ``ls``, and an infinite slow storage with latency ``ll``.  The
power-law sensitivity ``alpha`` is a property of the miss-rate model
and is carried on the platform because every application shares it in
the paper's experiments (``alpha = 0.5``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..types import ModelError

__all__ = ["Platform"]


@dataclass(frozen=True, slots=True)
class Platform:
    """A cache-partitioned execution platform.

    Parameters
    ----------
    p : float
        Number of identical processors.  Rational (fractional) processor
        counts are allowed throughout the model, so this is a float; the
        paper uses ``p = 256``.
    cache_size : float
        Size ``Cs`` of the shared last-level cache, in bytes.
    latency_cache : float
        ``ls``: time per access served by the LLC (paper: 0.17).
    latency_memory : float
        ``ll``: *additional* time per access on an LLC miss (paper: 1).
    alpha : float
        Power-law sensitivity factor (paper: 0.5, literature range
        0.3-0.7).
    name : str
        Optional human-readable label (e.g. ``"taihulight"``).

    Notes
    -----
    Every access costs ``ls``; a miss costs ``ls + ll``.  This matches
    Eq. (2) of the paper where the per-operation access cost is
    ``fi * (ls + ll * miss_rate)``.
    """

    p: float
    cache_size: float
    latency_cache: float = 0.17
    latency_memory: float = 1.0
    alpha: float = 0.5
    name: str = field(default="custom", compare=False)

    def __post_init__(self) -> None:
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ModelError(f"processor count p must be positive and finite, got {self.p}")
        if not (self.cache_size > 0 and math.isfinite(self.cache_size)):
            raise ModelError(f"cache_size must be positive and finite, got {self.cache_size}")
        if self.latency_cache < 0 or not math.isfinite(self.latency_cache):
            raise ModelError(f"latency_cache must be >= 0, got {self.latency_cache}")
        if self.latency_memory < 0 or not math.isfinite(self.latency_memory):
            raise ModelError(f"latency_memory must be >= 0, got {self.latency_memory}")
        if not (0 < self.alpha <= 1):
            raise ModelError(f"alpha must lie in (0, 1], got {self.alpha}")

    def with_cache_size(self, cache_size: float) -> "Platform":
        """Return a copy of this platform with a different LLC size."""
        return replace(self, cache_size=cache_size)

    def with_latencies(self, *, latency_cache: float | None = None,
                       latency_memory: float | None = None) -> "Platform":
        """Return a copy with one or both latencies replaced."""
        return replace(
            self,
            latency_cache=self.latency_cache if latency_cache is None else latency_cache,
            latency_memory=self.latency_memory if latency_memory is None else latency_memory,
        )
