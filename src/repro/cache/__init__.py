"""repro.cache — the one tiered cache subsystem.

The paper's co-schedulers are deterministic functions of a canonical
spec, which makes caching the biggest lever at every layer — and every
layer caches through this package:

* the decision service's in-memory serving tier (:class:`LRUCache`),
* the experiment engine's content-addressed on-disk result store
  (:class:`repro.experiments.cache.ResultCache` rides
  :class:`ContentAddressedStore`),
* and the tiered composition (:class:`TieredCache`) that gives the
  decision service cross-restart warm starts from the disk tier.

Layout::

    TieredCache                          (tiered.py)
      ├── memory tier: LRUCache          (memory.py)
      └── disk tier:   DecisionDiskTier  (disk.py)
                         └── ContentAddressedStore

Counters are uniform everywhere (:mod:`repro.cache.stats`): hits +
misses equals the exact number of lookups on every tier, and
``/metrics`` and ``repro cache info`` render any of them identically.

Content addressing is **bit-stable across processes** — keys are
SHA-256 digests, never Python's per-process randomized ``hash()``.
"""

from .disk import (
    ALL_TIER_PATTERNS,
    CACHE_DIR_ENV,
    ContentAddressedStore,
    DecisionDiskTier,
    PruneReport,
    resolve_cache_dir,
)
from .memory import LRUCache
from .stats import CacheStats, TieredCacheStats
from .tiered import TieredCache

__all__ = [
    "ALL_TIER_PATTERNS",
    "CACHE_DIR_ENV",
    "CacheStats",
    "ContentAddressedStore",
    "DecisionDiskTier",
    "LRUCache",
    "PruneReport",
    "TieredCache",
    "TieredCacheStats",
    "resolve_cache_dir",
]
