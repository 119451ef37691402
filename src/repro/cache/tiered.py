"""TieredCache: one cache, two tiers, one set of counters.

The composition the rest of the system talks to: a bounded in-memory
LRU tier (:mod:`repro.cache.memory`) over an optional content-addressed
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
forwards to the memory tier and :meth:`TieredCache.stats` returns its
own snapshot — bit-identical counters, same metric keys.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, Optional, TypeVar

from .disk import DecisionDiskTier
from .memory import LRUCache
from .stats import CacheStats, TieredCacheStats

__all__ = ["TieredCache"]

V = TypeVar("V")


class TieredCache(Generic[V]):
    """Memory tier over an optional disk tier, uniform counters.

    Parameters
    ----------
    memory : LRUCache
        The memory tier (:class:`~repro.cache.memory.LRUCache`;
        anything with its get/put/stats contract works).
    disk : DecisionDiskTier, optional
        The persistent tier; None (default) disables persistence and
        makes this a transparent wrapper.
    encode, decode : callable, optional
        ``encode(value) -> bytes | payload`` serializes a value for
        disk; ``decode(payload) -> value`` rebuilds it.  Identity by
        default.
    """

    def __init__(self, memory: LRUCache, *,
                 disk: DecisionDiskTier | None = None,
                 encode: Callable[[V], bytes | dict[str, Any]] | None = None,
                 decode: Callable[[dict[str, Any]], V] | None = None):
        self.memory = memory
        self.disk = disk
        self._encode = encode
        self._decode = decode
        self._lock = threading.Lock()
        self._disk_hits = 0
        self._store_errors = 0

    # -- lookups ------------------------------------------------------------
    def get(self, key: str) -> Optional[V]:
        """Probe memory, then disk; counts exactly one hit or miss.

        A disk hit is decoded, promoted into memory and re-counted as
        a hit (the memory tier already counted the lookup as a miss;
        :meth:`stats` reclassifies it).
        """
        value = self.memory.get(key)
        if value is not None or self.disk is None:
            return value
        payload = self.disk.get(key)
        if payload is None:
            return None
        try:
            value = self._decode(payload) if self._decode else payload
        except Exception:
            return None  # stale or foreign entry: a miss, not an error
        self.memory.put(key, value)
        with self._lock:
            self._disk_hits += 1
        return value

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
                stored = self.disk.put(key, payload)
            except Exception:
                stored = False
            if not stored:
                with self._lock:
                    self._store_errors += 1

    @property
    def store_errors(self) -> int:
        """Disk-tier writes that failed (value still served from memory)."""
        with self._lock:
            return self._store_errors

    # -- introspection -------------------------------------------------------
    def stats(self) -> CacheStats:
        """Counter snapshot; tier-aware but key-compatible.

        Without a disk tier this is exactly the memory tier's
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
            store_errors = self._store_errors
        disk_entries, disk_bytes = self.disk.footprint()
        return TieredCacheStats(
            hits=mem.hits + disk_hits,
            misses=mem.misses - disk_hits,
            evictions=mem.evictions,
            size=mem.size,
            capacity=mem.capacity,
            disk_hits=disk_hits,
            store_errors=store_errors,
            disk_entries=disk_entries,
            disk_bytes=disk_bytes,
        )
