"""Content-addressed on-disk cache for experiment results (stage 3).

A cache key is a SHA-256 fingerprint of the experiment *spec* — sweep
points, reps, root seed, and the identities of the instance factory,
the registered scheduler entries (scalar and batch callables), and
the metric functions (module, qualname, bytecode, defaults, and
closure values, so ``_synth_nprocs(16)`` and ``_synth_nprocs(64)``
hash differently and editing a scheduler's or metric's own code
invalidates its entries).
Functions nested inside a hashed function (a ``def`` or ``lambda`` in
its body) are hashed by their *bytecode*, recursively — never by the
``repr`` of the code object, which embeds a memory address and would
silently give every process a fresh fingerprint (a permanent cache
miss).  The hash records the global names a function calls but does
not chase their code, so after changing a deep callee of a scheduler,
clear the cache directory (or run once with ``use_cache=False``).
Because every backend produces bit-identical arrays from the same spec (see
:mod:`repro.experiments.engine`), a result computed once — serially,
or on a process pool — satisfies every later run of the same figure:
regenerating a figure or re-running a benchmark with a warm cache does
no scheduling work at all.

The file mechanics — atomic publication, LRU-by-mtime enumeration,
the byte-budget prune behind ``repro cache prune`` — are the unified
disk tier's (:class:`repro.cache.ContentAddressedStore`); this module
owns only what is experiment-specific: the spec fingerprint and the
npz codec.  Entries are ``<experiment_id>-<digest>.npz`` files holding
the raw sample arrays plus a JSON metadata blob; anything that fails
to load (truncated file, stale format) is treated as a miss.

The cache directory comes from the ``cache_dir=`` argument or the
``REPRO_CACHE_DIR`` environment variable; when neither is set, caching
is off.
"""

from __future__ import annotations

import hashlib
import io
import json
import types
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..cache.disk import (
    CACHE_DIR_ENV,
    ContentAddressedStore,
    PruneReport,
    resolve_cache_dir,
)
from ..core.registry import SchedulerEntry, get_entry
from ..types import ModelError
from .results import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runner import Experiment

__all__ = ["ResultCache", "PruneReport", "spec_fingerprint",
           "resolve_cache_dir", "CACHE_DIR_ENV"]

#: Bump when the on-disk layout changes; part of every fingerprint.
_FORMAT_VERSION = 2


#: Closure values hashed by content; anything else hashes by type only
#: (a mutable object's repr is not a stable identity).
_ATOMIC_TYPES = (str, bytes, int, float, complex, bool, type(None), tuple, frozenset)


def _consts_fingerprint(consts: tuple) -> str:
    """Stable description of a code object's constant pool.

    ``repr(co_consts)`` is *not* stable: a nested function or lambda
    appears in the pool as a code object whose repr embeds its memory
    address, different in every process — so any factory or metric
    with a nested ``def`` would fingerprint fresh on every run, a
    permanent silent cache miss.  Code objects are therefore described
    by name plus a digest of their bytecode and (recursively) their
    own constant pool; everything else keeps its literal repr.
    """
    parts = []
    for const in consts:
        if isinstance(const, types.CodeType):
            parts.append(
                f"<code:{const.co_name}:"
                f"{hashlib.sha256(const.co_code).hexdigest()}:"
                f"{_consts_fingerprint(const.co_consts)}>")
        else:
            # Non-code co_consts members are compile-time literals
            # (str/int/float/tuple-of-literals/...): their reprs are
            # value-based by construction, never memory addresses.
            parts.append(repr(const))  # repro-lint: disable=REP106 -- compile-time literals repr by value
    return "(" + ",".join(parts) + ")"


def _deeply_atomic(value) -> bool:
    """True when *value*'s repr is value-based all the way down.

    Containers in :data:`_ATOMIC_TYPES` (tuple, frozenset) are only
    atomic if every member is — a tuple holding a function would repr
    by memory address, the exact instability fingerprints must never
    absorb.
    """
    if isinstance(value, (tuple, frozenset)):
        return all(_deeply_atomic(v) for v in value)
    return isinstance(value, _ATOMIC_TYPES) and not isinstance(
        value, (tuple, frozenset))


def _callable_fingerprint(fn: Callable, parts: list[str], *, depth: int = 0) -> None:
    """Append a stable description of *fn* (qualname, bytecode, closure)."""
    if isinstance(fn, SchedulerEntry):
        parts.append(f"entry={fn.name},randomized={fn.randomized}")
        if depth < 3:  # the batch evaluator computes the grid cells
            for part in filter(None, (fn.fn, fn.batch_fn)):
                _callable_fingerprint(part, parts, depth=depth + 1)
        return
    parts.append(f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', type(fn).__qualname__)}")
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append(hashlib.sha256(code.co_code).hexdigest())
        parts.append(_consts_fingerprint(code.co_consts))
        parts.append(",".join(code.co_names))
    defaults = getattr(fn, "__defaults__", None)
    if defaults and depth < 3:
        # Each default through the per-value logic: repr of the whole
        # tuple would embed memory addresses for callable or object
        # defaults — the spec_fingerprint bug class all over again.
        for value in defaults:
            _value_fingerprint(value, parts, depth=depth + 1)
    closure = getattr(fn, "__closure__", None)
    if closure and depth < 3:
        for cell in closure:
            try:
                value = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                parts.append("<empty-cell>")
                continue
            _value_fingerprint(value, parts, depth=depth + 1)


def _value_fingerprint(value, parts: list[str], *, depth: int) -> None:
    """Append a stable description of one captured/default value."""
    if callable(value):
        _callable_fingerprint(value, parts, depth=depth)
    elif isinstance(value, np.ndarray):
        parts.append(value.tobytes().hex())
    elif _deeply_atomic(value):
        parts.append(repr(value))  # repro-lint: disable=REP106 -- deeply-atomic values repr by value (checked above)
    else:
        parts.append(f"<{type(value).__module__}.{type(value).__qualname__}>")


def spec_fingerprint(exp: "Experiment") -> str:
    """Hex digest identifying the experiment spec (not its backend)."""
    parts: list[str] = [
        f"format={_FORMAT_VERSION}",
        exp.experiment_id,
        exp.title,
        exp.xlabel,
        exp.points.tobytes().hex(),
        f"reps={exp.reps}",
        f"seed={exp.seed}",
    ]
    for name in exp.schedulers:
        parts.append(f"scheduler={name}")
        if exp.evaluate is None:
            _callable_fingerprint(get_entry(name), parts)
        else:
            # With a direct evaluator the names are policy labels the
            # evaluator interprets; those that do resolve to registry
            # entries are still fingerprinted (the evaluator may run
            # them — editing such a scheduler must invalidate the
            # entry), while evaluator-private labels hash by name.
            try:
                entry = get_entry(name)
            except ModelError:
                continue
            _callable_fingerprint(entry, parts)
    for metric in sorted(exp.metrics):
        parts.append(f"metric={metric}")
        fn = exp.metrics[metric]
        if fn is not None:
            _callable_fingerprint(fn, parts)
    _callable_fingerprint(exp.factory, parts)
    if exp.evaluate is not None:
        parts.append("evaluate")
        _callable_fingerprint(exp.evaluate, parts)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class ResultCache:
    """npz-file result store keyed by :func:`spec_fingerprint`.

    The experiment-result tier of the unified cache subsystem: this
    class is the npz codec over a
    :class:`repro.cache.ContentAddressedStore` scoped to ``*.npz``
    entries (the service's decision tier shares the same directory
    under ``decisions/`` without collision).
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self._store = ContentAddressedStore(self.cache_dir,
                                            patterns=("*.npz",),
                                            label="result cache")

    def entries(self) -> list[Path]:
        """All cache entry files, least recently used first (by mtime)."""
        return self._store.entries()

    def size_bytes(self) -> int:
        """Total bytes currently held by cache entries."""
        return self._store.size_bytes()

    def prune(self, max_bytes: int, *, dry_run: bool = False) -> PruneReport:
        """Delete least-recently-used entries until under *max_bytes*.

        Recency is file mtime: :meth:`load` touches an entry on every
        hit, so a figure regenerated yesterday outlives one last read
        months ago regardless of creation order.  Concurrently-vanished
        files are skipped, not errors.  ``max_bytes=0`` empties the
        cache.  With ``dry_run=True`` nothing is unlinked; the report
        lists what a real pass would delete.
        """
        return self._store.prune(max_bytes, dry_run=dry_run)

    def path_for(self, exp: "Experiment") -> Path:
        return self.cache_dir / f"{exp.experiment_id}-{spec_fingerprint(exp)[:24]}.npz"

    def load(self, exp: "Experiment") -> ExperimentResult | None:
        """Return the cached result for *exp*'s spec, or None on a miss."""
        path = self.path_for(exp)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta_json"]))
                data = {
                    name: {
                        metric: archive[f"data|{name}|{metric}"]
                        for metric in meta["metrics"]
                    }
                    for name in meta["schedulers"]
                }
                result = ExperimentResult(
                    experiment_id=meta["experiment_id"],
                    title=meta["title"],
                    xlabel=meta["xlabel"],
                    x=archive["x"],
                    data=data,
                    meta=meta["result_meta"],
                )
        except Exception:
            # A corrupt or stale entry is just a miss; it will be rewritten.
            return None
        # A hit refreshes the entry's mtime so prune() evicts in
        # true least-recently-used order, not creation order.
        self._store.touch(path)
        return result

    def store(self, exp: "Experiment",
              result: ExperimentResult) -> Path | None:
        """Persist *result* under *exp*'s fingerprint (atomic rename).

        Storage failures (unwritable directory, path collisions) only
        cost the cache entry, never the computed result: they warn and
        return None.
        """
        # A result with no schedulers still round-trips: its metric
        # list is empty rather than StopIteration on the first value.
        first = next(iter(result.data.values()), {})
        meta = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "xlabel": result.xlabel,
            "schedulers": list(result.data),
            "metrics": sorted(first),
            "result_meta": result.meta,
        }
        arrays: dict[str, np.ndarray] = {"x": result.x}
        for name, metrics in result.data.items():
            for metric, samples in metrics.items():
                arrays[f"data|{name}|{metric}"] = samples
        buffer = io.BytesIO()
        np.savez(buffer, meta_json=np.str_(json.dumps(meta)), **arrays)
        path = self.path_for(exp)
        if not self._store.write_atomic(path, buffer.getvalue()):
            return None
        return path
