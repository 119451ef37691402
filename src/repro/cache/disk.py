"""Content-addressed disk tier: atomic file store, byte-budget prune.

The persistent half of :mod:`repro.cache`.  Everything durable the
system caches — experiment result grids (npz, written by
:class:`repro.experiments.cache.ResultCache`) and service decisions
(json, written by :class:`DecisionDiskTier`) — lives in one cache
directory and shares one mechanical substrate:

:class:`ContentAddressedStore`
    The substrate: a directory plus the glob patterns naming its
    entries.  Provides atomic publication (write to a pid-tagged temp
    file, ``os.replace`` into place — readers never observe a torn
    entry), LRU enumeration by file mtime (loads touch the mtime, so
    mtime order *is* recency order), byte accounting, and the
    byte-budget :meth:`~ContentAddressedStore.prune` behind
    ``repro cache prune``.  Concurrently-vanished files are skipped,
    never errors — multiple processes may share the directory.

:class:`DecisionDiskTier`
    Decisions keyed by their SHA-256 request fingerprint, one small
    canonical-JSON file per decision under ``decisions/``, written as
    the bytes the caller encoded (:func:`canonical_bytes`).  This is
    what gives the decision service cross-restart warm starts: a
    decision computed by yesterday's process answers today's first
    request.  Anything that fails to parse is a miss, not an error.

The cache directory comes from an explicit argument or the
``REPRO_CACHE_DIR`` environment variable (:func:`resolve_cache_dir`);
when neither is set, disk caching is off.
"""

from __future__ import annotations

import json
import os
import re
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

__all__ = ["CACHE_DIR_ENV", "ContentAddressedStore", "DecisionDiskTier",
           "PruneReport", "canonical_bytes", "resolve_cache_dir"]

#: Env var naming the cache directory (disk caching disabled when unset).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Entry patterns of every known tier, for the unified CLI view.
ALL_TIER_PATTERNS: tuple[str, ...] = ("*.npz", "decisions/*.json")


#: Keys the decision tier accepts: ASCII word characters, ``-`` and
#: ``.``, at most 255 of them — a SHA-256 hex fingerprint always is one.
_SAFE_KEY = re.compile(r"[A-Za-z0-9_.-]{1,255}")


def canonical_bytes(payload: Any) -> bytes:
    """Sorted-key, whitespace-free JSON: the decision tier's file format."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def resolve_cache_dir(cache_dir: str | Path | None) -> Path | None:
    """Pick the cache directory: argument > REPRO_CACHE_DIR > disabled."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return Path(cache_dir) if cache_dir is not None else None


@dataclass(frozen=True)
class PruneReport:
    """Outcome of a :meth:`ContentAddressedStore.prune` pass.

    Attributes
    ----------
    deleted : tuple[Path, ...]
        Entries removed, oldest first.
    freed_bytes, kept_bytes : int
        Bytes reclaimed / still on disk after the pass.
    """

    deleted: tuple[Path, ...]
    freed_bytes: int
    kept_bytes: int


class ContentAddressedStore:
    """A directory of content-addressed entries with LRU byte pruning.

    Parameters
    ----------
    cache_dir : str | Path
        The cache directory (created lazily on first store).
    patterns : iterable of str
        Glob patterns (relative to *cache_dir*) naming this store's
        entries.  Files not matching any pattern are invisible — a
        README or another tier's entries are never touched.
    """

    def __init__(self, cache_dir: str | Path,
                 patterns: Iterable[str] = ("*.npz",),
                 label: str = "cache"):
        self.cache_dir = Path(cache_dir)
        self.patterns = tuple(patterns)
        self.label = label

    @staticmethod
    def _stat_or_none(path: Path):
        """stat() tolerating a concurrently-deleted entry."""
        try:
            return path.stat()
        except OSError:
            return None

    def entries(self) -> list[Path]:
        """All entry files, least recently used first (by mtime).

        Enumeration is fully deterministic: ``glob`` yields in
        filesystem (inode-history) order, so it is sorted before use,
        and mtime ties break on the relative path — listings and prune
        victim order are identical on every machine holding the same
        entries, never an artifact of directory layout.
        """
        if not self.cache_dir.is_dir():
            return []
        stamped = []
        for pattern in self.patterns:
            for path in sorted(self.cache_dir.glob(pattern)):
                st = self._stat_or_none(path)
                if st is not None:
                    stamped.append(
                        (st.st_mtime, path.relative_to(self.cache_dir).as_posix(),
                         path))
        return [path for _, _, path in sorted(stamped)]

    def size_bytes(self) -> int:
        """Total bytes currently held by entries."""
        return sum(
            st.st_size
            for st in map(self._stat_or_none, self.entries())
            if st is not None
        )

    def prune(self, max_bytes: int, *, dry_run: bool = False) -> PruneReport:
        """Delete least-recently-used entries until under *max_bytes*.

        Recency is file mtime: loads touch an entry on every hit, so a
        result regenerated yesterday outlives one last read months ago
        regardless of creation order.  Concurrently-vanished files are
        skipped, not errors.  ``max_bytes=0`` empties the store.  With
        ``dry_run=True`` nothing is unlinked; the report lists what a
        real pass would delete.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        sizes = {}
        for path in entries:
            st = self._stat_or_none(path)
            sizes[path] = st.st_size if st is not None else 0
        total = sum(sizes.values())
        deleted: list[Path] = []
        freed = 0
        for path in entries:  # oldest first
            if total <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            total -= sizes[path]
            freed += sizes[path]
            deleted.append(path)
        return PruneReport(deleted=tuple(deleted), freed_bytes=freed,
                           kept_bytes=total)

    # -- write/read plumbing shared by the tiers ---------------------------
    def write_atomic(self, path: Path, data: bytes) -> bool:
        """Publish *data* at *path* atomically; False (and a warning) on failure.

        The temp name is tagged with pid *and* thread id so concurrent
        writers of the same entry — other processes or threads in this
        one — never collide, and ``os.replace`` makes publication
        atomic: a concurrent reader sees the old entry or the new one,
        never a torn file.  Storage failures only cost the cache
        entry, never the computed value.
        """
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            try:
                tmp.write_bytes(data)
            except FileNotFoundError:
                # The directory is made when missing, not probed per write.
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            warnings.warn(f"{self.label}: could not store {path}: {exc}",
                          RuntimeWarning, stacklevel=3)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    @staticmethod
    def touch(path: Path) -> None:
        """Refresh *path*'s mtime (a hit), tolerating a vanished file."""
        try:
            os.utime(path)
        except OSError:
            pass


class DecisionDiskTier:
    """Persistent decision store keyed by request fingerprint.

    One canonical-JSON file per decision under ``<cache_dir>/decisions``.
    Fingerprints are SHA-256 hex, so the key *is* a safe filename; any
    other key (tests, ad-hoc use) is rejected to keep the directory
    content-addressed.  The tier is payload-in/payload-out — the owning
    :class:`~repro.cache.tiered.TieredCache` carries the encode/decode
    step and all counters.
    """

    SUBDIR = "decisions"
    PATTERN = "decisions/*.json"

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.store = ContentAddressedStore(cache_dir,
                                           patterns=(self.PATTERN,),
                                           label="decision cache")

    @staticmethod
    def _is_safe_key(key: str) -> bool:
        return isinstance(key, str) and _SAFE_KEY.fullmatch(key) is not None

    def path_for(self, key: str) -> Path:
        return self.cache_dir / self.SUBDIR / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Load the payload for *key*, or None; a hit refreshes recency."""
        if not self._is_safe_key(key):
            return None
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_bytes())
        except (OSError, ValueError):
            # Absent, torn, or stale entries are all just misses.
            return None
        if not isinstance(payload, dict):
            return None
        self.store.touch(path)
        return payload

    def put(self, key: str, payload: bytes | dict[str, Any]) -> bool:
        """Persist *payload* under *key* (atomic); False on failure.

        Bytes are written as given (the caller's memoized encoding);
        a mapping is encoded with :func:`canonical_bytes` first.
        """
        if not self._is_safe_key(key):
            return False
        data = payload if isinstance(payload, bytes) else canonical_bytes(payload)
        return self.store.write_atomic(self.path_for(key), data)

    def entries(self) -> list[Path]:
        return self.store.entries()

    def size_bytes(self) -> int:
        return self.store.size_bytes()

    def footprint(self) -> tuple[int, int]:
        """``(entries, bytes)`` in one directory pass, for ``/metrics``.

        Unlike :meth:`entries` this neither sorts nor globs: one
        ``os.scandir`` and at most one stat per entry, so a scrape
        stays cheap with thousands of decisions on disk.  Vanished
        files are skipped.
        """
        count = size = 0
        try:
            with os.scandir(self.cache_dir / self.SUBDIR) as it:
                for entry in it:
                    if not entry.name.endswith(".json"):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue
                    count += 1
                    size += st.st_size
        except OSError:
            pass
        return count, size
