"""Uniform cache counter snapshots shared by every tier.

Every cache in the system — the in-memory serving tier and the tiered
memory-over-disk composition — reports itself through the same
counter vocabulary: ``hits``, ``misses``, ``evictions``, ``size``,
``capacity``, and the derived ``hit_rate``.
That uniformity is what lets ``/metrics`` and ``repro cache info``
render any cache identically, and what keeps the counter-exactness
tests (hits + misses == lookups, always) meaningful across tiers.

:class:`CacheStats` is the base snapshot; :class:`TieredCacheStats`
adds the disk-tier counters (``disk_hits``, ``store_errors``,
``disk_entries``, ``disk_bytes``) without renaming or displacing any
base key — metric names are an interface.
"""

from __future__ import annotations

__all__ = ["CacheStats", "TieredCacheStats"]


class CacheStats:
    """A snapshot of the cache counters (plain attributes, no lock)."""

    __slots__ = ("hits", "misses", "evictions", "size", "capacity")

    def __init__(self, hits: int, misses: int, evictions: int,
                 size: int, capacity: int):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.size = size
        self.capacity = capacity

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before any traffic."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions}, "
                f"size={self.size}/{self.capacity})")


class TieredCacheStats(CacheStats):
    """Memory-tier counters folded with the disk tier's.

    ``hits`` includes decisions promoted from the disk tier (a lookup
    answered from *any* tier is a hit), so ``hits + misses`` still
    equals the exact number of lookups; ``disk_hits`` says how many of
    those hits came off disk.  ``store_errors`` counts disk writes that
    failed (the value was still served from memory).
    """

    __slots__ = ("disk_hits", "store_errors", "disk_entries", "disk_bytes")

    def __init__(self, hits: int, misses: int, evictions: int,
                 size: int, capacity: int, *, disk_hits: int = 0,
                 store_errors: int = 0, disk_entries: int = 0,
                 disk_bytes: int = 0):
        super().__init__(hits, misses, evictions, size, capacity)
        self.disk_hits = disk_hits
        self.store_errors = store_errors
        self.disk_entries = disk_entries
        self.disk_bytes = disk_bytes

    def as_dict(self) -> dict[str, float]:
        out = super().as_dict()
        out["disk_hits"] = self.disk_hits
        out["store_errors"] = self.store_errors
        out["disk_entries"] = self.disk_entries
        out["disk_bytes"] = self.disk_bytes
        return out
