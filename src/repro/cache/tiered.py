"""TieredCache: one cache, two tiers, one set of counters.

The composition the rest of the system talks to: a bounded in-memory
tier (:mod:`repro.cache.memory` — single-lock LRU or fingerprint-
sharded CLOCK, a backend choice) over an optional content-addressed
disk tier (:mod:`repro.cache.disk`).  Lookups probe memory first; a
memory miss falls through to disk, and a disk hit is decoded, promoted
into the memory tier, and *re-counted as a hit* — a lookup answered
from any tier is a hit, so ``hits + misses`` remains exactly the
number of lookups whatever the tier that answered.  Writes go through
to both tiers, which is what makes a fresh process warm: the memory
tier dies with the process, the disk tier does not.

Values cross the disk boundary through a pluggable ``encode``/
``decode`` pair: ``encode`` turns a value into the bytes (or a
JSON-safe payload) to store, ``decode`` rebuilds it from the loaded
payload; with the identity default the tier stores plain payload
dicts.  A decode failure (stale format) is a miss, never an error.

Without a disk tier the composition is transparent: every operation
forwards to the memory backend and :meth:`TieredCache.stats` returns
the backend's own snapshot — bit-identical counters, same metric keys.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar

from .disk import DecisionDiskTier
from .stats import CacheStats, TieredCacheStats

__all__ = ["TieredCache"]

V = TypeVar("V")


class TieredCache(Generic[V]):
    """Memory tier over an optional disk tier, uniform counters.

    Parameters
    ----------
    memory
        A memory backend (:class:`~repro.cache.memory.LRUCache` or
        :class:`~repro.cache.memory.ShardedClockCache`; anything with
        the same get/put/stats contract works).
    disk : DecisionDiskTier, optional
        The persistent tier; None (default) disables persistence and
        makes this a transparent wrapper.
    encode, decode : callable, optional
        ``encode(value) -> bytes | payload`` serializes a value for
        disk; ``decode(payload) -> value`` rebuilds it.  Identity by
        default.
    """

    def __init__(self, memory, *, disk: DecisionDiskTier | None = None,
                 encode: Callable[[V], bytes | dict[str, Any]] | None = None,
                 decode: Callable[[dict[str, Any]], V] | None = None):
        self.memory = memory
        self.disk = disk
        self._encode = encode
        self._decode = decode
        self._lock = threading.Lock()
        self._disk_hits = 0
        self._store_errors = 0

    # -- pass-through geometry ---------------------------------------------
    @property
    def capacity(self) -> int:
        return self.memory.capacity

    @property
    def shards(self) -> int | None:
        return getattr(self.memory, "shards", None)

    # -- lookups ------------------------------------------------------------
    def _from_disk(self, key: str) -> Optional[V]:
        """Disk probe on a memory miss: decode, promote, re-count."""
        payload = self.disk.get(key)
        if payload is None:
            return None
        try:
            value = self._decode(payload) if self._decode else payload
        except Exception:
            return None  # stale or foreign entry: a miss, not an error
        self.memory.put(key, value)
        # The memory tier already counted this lookup as a miss; the
        # tier aggregate reclassifies it (see stats()).
        with self._lock:
            self._disk_hits += 1
        return value

    def get(self, key: str) -> Optional[V]:
        """Probe memory, then disk; counts exactly one hit or miss."""
        value = self.memory.get(key)
        if value is not None or self.disk is None:
            return value
        return self._from_disk(key)

    def get_many(self, keys: Sequence[str]) -> list[Optional[V]]:
        """Bulk probe: the memory tier's batch path, disk on the misses.

        The memory probe keeps its backend's amortized counting (one
        tally per burst on the sharded backend); only the misses pay a
        disk lookup, which is cheap next to recomputing a decision.
        """
        out = self.memory.get_many(keys)
        if self.disk is not None:
            for i, value in enumerate(out):
                if value is None:
                    out[i] = self._from_disk(keys[i])
        return out

    def peek(self, key: str) -> Optional[V]:
        """Value without touching recency or counters, either tier."""
        value = self.memory.peek(key)
        if value is not None or self.disk is None:
            return value
        payload = self.disk.peek(key)
        if payload is None:
            return None
        try:
            return self._decode(payload) if self._decode else payload
        except Exception:
            return None

    # -- writes --------------------------------------------------------------
    def put(self, key: str, value: V) -> None:
        """Write-through: memory now, disk (when attached) durably.

        Persistence is best-effort — a failed encode/store only costs
        the durable copy, never the served value — but the failure is
        *counted* (:attr:`store_errors`), not swallowed: a disk tier
        that silently stopped persisting would look healthy until the
        next restart arrived cold.
        """
        self.memory.put(key, value)
        if self.disk is not None:
            try:
                payload = self._encode(value) if self._encode else value
                self.disk.put(key, payload)
            except Exception:
                with self._lock:
                    self._store_errors += 1

    @property
    def store_errors(self) -> int:
        """Disk-tier writes that failed (value still served from memory)."""
        with self._lock:
            return self._store_errors

    def count_hit(self) -> None:
        """Record a hit served on this cache's behalf by a front cache."""
        self.memory.count_hit()

    def clear(self) -> None:
        """Drop the *memory* tier (the disk tier persists by design)."""
        self.memory.clear()

    def __len__(self) -> int:
        return len(self.memory)

    def __contains__(self, key: str) -> bool:
        if key in self.memory:
            return True
        return self.disk is not None and key in self.disk

    # -- introspection -------------------------------------------------------
    def stats(self) -> CacheStats:
        """Counter snapshot; tier-aware but key-compatible.

        Without a disk tier this is exactly the memory backend's
        snapshot.  With one, lookups the memory tier counted as misses
        but the disk tier answered are reclassified as hits
        (``hits + misses`` still equals the exact lookup count) and
        the disk tier's footprint is appended as additional keys —
        existing counter names never change meaning or disappear.
        """
        mem = self.memory.stats()
        if self.disk is None:
            return mem
        with self._lock:
            disk_hits = self._disk_hits
        disk_entries, disk_bytes = self.disk.footprint()
        return TieredCacheStats(
            hits=mem.hits + disk_hits,
            misses=mem.misses - disk_hits,
            evictions=mem.evictions,
            size=mem.size,
            capacity=mem.capacity,
            shards=getattr(mem, "shards", None),
            disk_hits=disk_hits,
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
        )
