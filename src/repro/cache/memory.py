"""The in-memory tier of :mod:`repro.cache`: a single-lock LRU map.

:class:`LRUCache` holds a bounded number of entries and evicts the
least-recently-used one when full.  Every operation takes one lock, so
the counters (see :mod:`repro.cache.stats`) are exact — hits + misses
equals the number of lookups — and the eviction order is exactly
reproducible.  The decision service touches it from each process's
event-loop thread; the lock keeps an instance safe wherever else it
is shared between threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Optional, TypeVar

from ..types import ModelError
from .stats import CacheStats

__all__ = ["LRUCache"]

V = TypeVar("V")


class LRUCache(Generic[V]):
    """Thread-safe LRU map with exact serving counters.

    Parameters
    ----------
    capacity : int
        Maximum number of retained entries (>= 1).  Inserting into a
        full cache evicts the least-recently-*used* entry — a lookup
        hit refreshes recency, an insert counts as a use.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ModelError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, V] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[V]:
        """Return the cached value or None; counts a hit or a miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: str) -> Optional[V]:
        """Like :meth:`get` but without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: V) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def count_hit(self) -> None:
        """Record a hit served on the cache's behalf by a front cache.

        The async front end keeps an L0 byte-level response cache; a
        repeat absorbed there is still a decision served from memory,
        so it counts here to keep the aggregate hit/miss accounting
        meaningful across front ends.
        """
        with self._lock:
            self._hits += 1

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
