"""repro.cache — the one tiered cache subsystem.

The paper's co-schedulers are deterministic functions of a canonical
spec, which makes caching the biggest lever at every layer — and every
layer caches through this package:

* the decision service's in-memory serving tier
  (:class:`LRUCache` or :class:`ShardedClockCache`),
* the experiment engine's content-addressed on-disk result store
  (:class:`repro.experiments.cache.ResultCache` rides
  :class:`ContentAddressedStore`),
* and the tiered composition (:class:`TieredCache`) that gives the
  decision service cross-restart warm starts from the disk tier.

Layout::

    TieredCache                          (tiered.py)
      ├── memory tier: LRUCache | ShardedClockCache   (memory.py)
      └── disk tier:   DecisionDiskTier               (disk.py)
                         └── ContentAddressedStore

Backends are a construction choice (:func:`make_memory_backend`), not
a class hierarchy callers must know about; the seam deliberately
leaves room for a shared-memory or external-KV backend with the same
get/put/stats contract.  Counters are uniform everywhere
(:mod:`repro.cache.stats`): hits + misses equals the exact number of
lookups on every backend and every tier, and ``/metrics`` and
``repro cache info`` render any of them identically.

Shard assignment and content addressing are **bit-stable across
processes** — derived from SHA-256 fingerprint bits
(:func:`stable_shard_index`), never from Python's per-process
randomized ``hash()``.
"""

from .disk import (
    ALL_TIER_PATTERNS,
    CACHE_DIR_ENV,
    ContentAddressedStore,
    DecisionDiskTier,
    PruneReport,
    resolve_cache_dir,
)
from .memory import (
    LRUCache,
    ShardedClockCache,
    make_memory_backend,
    stable_shard_index,
)
from .stats import CacheStats, ShardedCacheStats, TieredCacheStats
from .tiered import TieredCache

__all__ = [
    "ALL_TIER_PATTERNS",
    "CACHE_DIR_ENV",
    "CacheStats",
    "ContentAddressedStore",
    "DecisionDiskTier",
    "LRUCache",
    "PruneReport",
    "ShardedCacheStats",
    "ShardedClockCache",
    "TieredCache",
    "TieredCacheStats",
    "make_memory_backend",
    "resolve_cache_dir",
    "stable_shard_index",
]
