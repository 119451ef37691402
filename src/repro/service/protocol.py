"""Wire protocol of the decision service: requests, responses, codec.

An :class:`AllocationRequest` is the service's unit of work — the
applications to co-schedule, the platform they share, the registry
name of the strategy to run, and (for randomized strategies only) a
seed.  Requests are *canonicalized* before anything else happens:

* the platform is fully resolved (a ``{"preset": "taihulight"}``
  payload and the equivalent explicit parameter set produce the same
  canonical form),
* the seed is dropped for deterministic schedulers (it cannot affect
  the decision, so it must not affect the cache key) and defaulted to
  0 for randomized ones,
* every number is read as a float64, so ``256`` and ``256.0`` are the
  same value while ``-0.0`` and ``0.0`` stay distinct.

The request *fingerprint* is the SHA-256 of a binary canonical form
(see :meth:`AllocationRequest.fingerprint`): the decision-cache key,
the in-flight coalescing key, and the ``request_id`` echoed in every
response.  Two clients asking the same question — however they
phrased the platform — hit the same cache line.

A decision is encoded once: :meth:`AllocationDecision.canonical_bytes`
is the sorted, compact JSON the disk tier stores, and
:func:`response_bytes` builds every HTTP answer around those bytes by
concatenation.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..cache.disk import canonical_bytes
from ..core.application import Application, Workload
from ..core.platform import Platform
from ..core.registry import get_entry
from ..machine.presets import PRESETS, get_preset
from ..types import ModelError

__all__ = [
    "AllocationRequest",
    "AllocationDecision",
    "AllocationResponse",
    "canonical_json",
    "request_from_payload",
    "response_bytes",
    "parse_platform",
    "PROTOCOL_VERSION",
    "MAX_BODY_BYTES",
]

#: Version of the wire form (the ``version`` key of a canonical payload).
PROTOCOL_VERSION = 1

#: Refuse request bodies beyond this size (1 MiB ~ thousands of apps).
MAX_BODY_BYTES = 1 << 20

#: Leads every fingerprinted byte string; change it whenever the binary
#: layout below changes, so old and new keys can never collide.
_FP_SCHEME = b"repro-fingerprint/2\x00"
_FP_COUNT = struct.Struct("<Q")
_FP_PLATFORM = struct.Struct("<5d")
_FP_APP = struct.Struct("<6d")

#: Application fields accepted on the wire, in canonical order.
_APP_FIELDS = ("name", "work", "seq_fraction", "access_freq", "miss_rate",
               "footprint", "baseline_cache")

#: Platform fields accepted on the wire (beyond ``preset``).
_PLATFORM_FIELDS = ("p", "cache_size", "latency_cache", "latency_memory",
                    "alpha", "name")
_APP_FIELD_SET = frozenset(_APP_FIELDS)
_REQUEST_FIELD_SET = frozenset(
    ("applications", "platform", "scheduler", "seed", "version"))


def canonical_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, no whitespace, strict floats.

    ``allow_nan=False`` guarantees the encoding stays inside the JSON
    standard — non-finite values must be mapped out (see
    :meth:`AllocationRequest.canonical_payload`) before encoding.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _fp_label(value: Any) -> bytes:
    """A length-prefixed label: UTF-8 for strings, tagged JSON otherwise.

    ``surrogatepass`` keeps the encoding injective on every ``str``
    (JSON bodies can carry lone surrogates); a non-string name — the
    wire does not forbid one — keeps its JSON spelling, as in
    :meth:`AllocationRequest.canonical_payload`.
    """
    if isinstance(value, str):
        raw = b"s" + value.encode("utf-8", "surrogatepass")
    else:
        raw = b"j" + canonical_json(value).encode()
    return _FP_COUNT.pack(len(raw)) + raw


def _app_payload(app: Application) -> dict[str, Any]:
    """One application as a canonical JSON-safe mapping.

    Every numeric field goes through ``float()``: JSON distinguishes
    ``256`` from ``256.0``, and a client sending ints must land on the
    same fingerprint as one sending floats.
    """
    return {
        "name": app.name,
        "work": float(app.work),
        "seq_fraction": float(app.seq_fraction),
        "access_freq": float(app.access_freq),
        "miss_rate": float(app.miss_rate),
        # JSON has no Infinity; null means "larger than any cache".
        "footprint": None if math.isinf(app.footprint) else float(app.footprint),
        "baseline_cache": float(app.baseline_cache),
    }


def _platform_payload(platform: Platform) -> dict[str, Any]:
    """The fully-resolved platform as a canonical mapping.

    The ``name`` label is excluded on purpose: it does not participate
    in :class:`Platform` equality and must not split the cache between
    identically-parameterized platforms.  Values go through ``float()``
    so an int-spelled ``p=256`` and a float ``p=256.0`` collide.
    """
    return {
        "p": float(platform.p),
        "cache_size": float(platform.cache_size),
        "latency_cache": float(platform.latency_cache),
        "latency_memory": float(platform.latency_memory),
        "alpha": float(platform.alpha),
    }


@dataclass(frozen=True)
class AllocationRequest:
    """One co-scheduling question: workload + platform + strategy.

    Attributes
    ----------
    applications : tuple[Application, ...]
        The applications to co-schedule (each validated on
        construction by :class:`~repro.core.application.Application`).
    platform : Platform
        The machine they share.
    scheduler : str
        Scheduler-registry name (validated lazily, at dispatch).
    seed : int | None
        Stream seed for randomized strategies; ignored (and excluded
        from the fingerprint) for deterministic ones.
    """

    applications: tuple[Application, ...]
    platform: Platform
    scheduler: str = "dominant-minratio"
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.applications:
            raise ModelError("an allocation request needs at least one application")

    def workload(self) -> Workload:
        """The request's applications as a vectorized workload (memoized)."""
        workload = getattr(self, "_workload", None)
        if workload is None:
            workload = Workload(self.applications)
            object.__setattr__(self, "_workload", workload)
        return workload

    def effective_seed(self) -> int | None:
        """The seed that actually reaches the scheduler.

        Deterministic strategies get None (their entry ignores the
        rng); randomized ones get the requested seed, defaulting to 0
        so an unseeded randomized request is still reproducible — and
        cacheable.
        """
        if not get_entry(self.scheduler).randomized:
            return None
        return 0 if self.seed is None else int(self.seed)

    def canonical_payload(self) -> dict[str, Any]:
        """The canonical (fingerprinted) form of this request."""
        payload: dict[str, Any] = {
            "version": PROTOCOL_VERSION,
            "scheduler": self.scheduler.lower(),
            "platform": _platform_payload(self.platform),
            "applications": [_app_payload(a) for a in self.applications],
        }
        seed = self.effective_seed()
        if seed is not None:
            payload["seed"] = seed
        return payload

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the binary canonical form (memoized).

        The form is the scheme tag, the length-prefixed lower-cased
        scheduler, the five resolved platform floats (``name``
        excluded), the application count, then per application its
        length-prefixed name and its six fields as float64 (``inf``
        packed as is), and last the effective seed in decimal when
        there is one.  Packing float64 gives the equivalence classes of
        the canonical JSON: int and float spellings collide, ``-0.0``
        and ``0.0`` do not.

        The request is frozen, so the digest is computed once; the
        serving path asks for it repeatedly (cache key, coalescing
        key, response id, error payloads).
        """
        fp = getattr(self, "_fp", None)
        if fp is None:
            pf = self.platform
            parts = [
                _FP_SCHEME,
                _fp_label(self.scheduler.lower()),
                _FP_PLATFORM.pack(pf.p, pf.cache_size, pf.latency_cache,
                                  pf.latency_memory, pf.alpha),
                _FP_COUNT.pack(len(self.applications)),
            ]
            for a in self.applications:
                parts.append(_fp_label(a.name))
                parts.append(_FP_APP.pack(
                    a.work, a.seq_fraction, a.access_freq, a.miss_rate,
                    a.footprint, a.baseline_cache))
            seed = self.effective_seed()
            if seed is not None:
                parts.append(b"seed=%d" % seed)
            fp = hashlib.sha256(b"".join(parts)).hexdigest()
            object.__setattr__(self, "_fp", fp)
        return fp


@dataclass(frozen=True)
class AllocationDecision:
    """The answer: one ``(procs, cache, predicted time)`` per application."""

    names: tuple[str, ...]
    procs: tuple[float, ...]
    cache: tuple[float, ...]
    times: tuple[float, ...]
    makespan: float
    scheduler: str

    def to_payload(self) -> dict[str, Any]:
        return {
            "names": list(self.names),
            "procs": list(self.procs),
            "cache": list(self.cache),
            "times": list(self.times),
            "makespan": self.makespan,
            "scheduler": self.scheduler,
        }

    def canonical_bytes(self) -> bytes:
        """Sorted, compact JSON of :meth:`to_payload` (memoized).

        The decision's one encoding: the disk tier stores these bytes
        as given and :func:`response_bytes` embeds them in every HTTP
        answer, so a served miss encodes its decision once.
        """
        raw = getattr(self, "_bytes", None)
        if raw is None:
            raw = canonical_bytes(self.to_payload())
            object.__setattr__(self, "_bytes", raw)
        return raw

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "AllocationDecision":
        """Rebuild a decision from :meth:`to_payload` output.

        The inverse used when a decision crosses the disk tier of the
        cache: JSON round-trips lists and numbers, so tuples and float
        widths are restored here.  Raises on a malformed payload (the
        cache treats that as a miss).
        """
        return cls(
            names=tuple(str(n) for n in payload["names"]),
            procs=tuple(float(p) for p in payload["procs"]),
            cache=tuple(float(c) for c in payload["cache"]),
            times=tuple(float(t) for t in payload["times"]),
            makespan=float(payload["makespan"]),
            scheduler=str(payload["scheduler"]),
        )


@dataclass(frozen=True)
class AllocationResponse:
    """A decision plus the serving metadata the caller may care about.

    Attributes
    ----------
    request_id : str
        The request fingerprint (stable across retries and clients).
    decision : AllocationDecision
        The allocation.
    cache_hit : bool
        Whether the decision came straight from the decision cache.
    coalesced : bool
        Whether this request rode on an identical in-flight one
        instead of being computed separately.
    batch_size : int
        Size of the batch the decision was computed in (0 on a cache
        hit).
    latency_ms : float
        End-to-end service time observed for *this* request.
    """

    request_id: str
    decision: AllocationDecision
    cache_hit: bool
    coalesced: bool
    batch_size: int
    latency_ms: float

    def to_payload(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "decision": self.decision.to_payload(),
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_ms,
        }

    def to_bytes(self) -> bytes:
        """The JSON body of this response (see :func:`response_bytes`)."""
        return response_bytes(self.request_id, self.decision,
                              cache_hit=self.cache_hit,
                              coalesced=self.coalesced,
                              batch_size=self.batch_size,
                              latency_ms=self.latency_ms)


def response_bytes(request_id: str, decision: AllocationDecision, *,
                   cache_hit: bool, coalesced: bool, batch_size: int,
                   latency_ms: float) -> bytes:
    """The JSON body of a 200 answer, built around the decision's bytes.

    The HTTP front end answers with these bytes; ``json.loads`` of them
    equals :meth:`AllocationResponse.to_payload`.
    """
    return b'{"request_id":%s,"decision":%s,"cache_hit":%s,' \
           b'"coalesced":%s,"batch_size":%d,"latency_ms":%s}' % (
               json.dumps(request_id).encode(), decision.canonical_bytes(),
               b"true" if cache_hit else b"false",
               b"true" if coalesced else b"false", batch_size,
               json.dumps(latency_ms).encode())


def parse_platform(spec: Mapping[str, Any] | str) -> Platform:
    """Build a platform from a wire spec.

    Accepts a bare preset name (``"taihulight"``), a mapping with a
    ``preset`` key plus keyword overrides for the preset factory, or a
    mapping of explicit :class:`Platform` parameters.
    """
    if isinstance(spec, str):
        spec = {"preset": spec}
    if type(spec) is not dict and not isinstance(spec, Mapping):
        raise ModelError(f"platform spec must be a name or a mapping, got {type(spec).__name__}")
    spec = dict(spec)
    preset = spec.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ModelError(
                f"unknown platform preset {preset!r}; known: {', '.join(PRESETS)}")
        try:
            return get_preset(preset, **spec)
        except TypeError as exc:
            raise ModelError(f"bad override for preset {preset!r}: {exc}") from None
    unknown = set(spec) - set(_PLATFORM_FIELDS)
    if unknown:
        raise ModelError(
            f"unknown platform fields {sorted(unknown)}; "
            f"known: {', '.join(_PLATFORM_FIELDS)} (or 'preset')")
    if "p" not in spec or "cache_size" not in spec:
        raise ModelError("a custom platform needs at least 'p' and 'cache_size'")
    return Platform(**spec)


def _parse_application(raw: Mapping[str, Any], index: int) -> Application:
    # Decoded JSON holds plain dicts and lists: test their exact type
    # first and leave the ABC check to other mappings.
    if type(raw) is not dict and not isinstance(raw, Mapping):
        raise ModelError(f"application #{index} must be a mapping, got {type(raw).__name__}")
    if not _APP_FIELD_SET.issuperset(raw):
        raise ModelError(
            f"application #{index}: unknown fields {sorted(set(raw) - _APP_FIELD_SET)}; "
            f"known: {', '.join(_APP_FIELDS)}")
    if "work" not in raw:
        raise ModelError(f"application #{index} is missing required field 'work'")
    kwargs = dict(raw)
    kwargs.setdefault("name", f"app{index}")
    if kwargs.get("footprint") is None:
        kwargs.pop("footprint", None)  # null/absent -> inf default
    try:
        return Application(**kwargs)
    except TypeError as exc:
        raise ModelError(f"application #{index}: {exc}") from None


def request_from_payload(payload: Mapping[str, Any]) -> AllocationRequest:
    """Decode a wire payload into a validated :class:`AllocationRequest`.

    Raises :class:`~repro.types.ModelError` with a caller-actionable
    message on any malformed input — the HTTP front end maps these to
    400 responses.
    """
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise ModelError(f"request body must be a JSON object, got {type(payload).__name__}")
    if not _REQUEST_FIELD_SET.issuperset(payload):
        raise ModelError(
            f"unknown request fields {sorted(set(payload) - _REQUEST_FIELD_SET)}")
    apps_raw = payload.get("applications")
    is_list = type(apps_raw) is list or (
        isinstance(apps_raw, Sequence) and not isinstance(apps_raw, (str, bytes)))
    if not is_list or not apps_raw:
        raise ModelError("'applications' must be a non-empty list of application objects")
    applications = tuple(
        _parse_application(raw, i) for i, raw in enumerate(apps_raw)
    )
    platform = parse_platform(payload.get("platform", "taihulight"))
    scheduler = payload.get("scheduler", "dominant-minratio")
    if not isinstance(scheduler, str):
        raise ModelError("'scheduler' must be a registry name string")
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ModelError("'seed' must be an integer or null")
    return AllocationRequest(
        applications=applications,
        platform=platform,
        scheduler=scheduler,
        seed=seed,
    )
