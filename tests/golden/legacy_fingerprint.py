"""The canonical-JSON request fingerprint, frozen as a test oracle.

Until the binary canonical form replaced it, a request's fingerprint
was the SHA-256 of its canonical JSON payload: sorted keys, compact
separators, ``float()``-normalized numbers, ``inf`` footprints as
``null``, the platform ``name`` left out, and the seed present only for
randomized schedulers.  This module keeps that function verbatim so the
live binary fingerprint can be checked against it: two requests must
collide under one exactly when they collide under the other.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

from repro.core.registry import get_entry

__all__ = ["legacy_fingerprint"]

_LEGACY_PROTOCOL_VERSION = 1


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _app_payload(app) -> dict[str, Any]:
    return {
        "name": app.name,
        "work": float(app.work),
        "seq_fraction": float(app.seq_fraction),
        "access_freq": float(app.access_freq),
        "miss_rate": float(app.miss_rate),
        "footprint": None if math.isinf(app.footprint) else float(app.footprint),
        "baseline_cache": float(app.baseline_cache),
    }


def _platform_payload(platform) -> dict[str, Any]:
    return {
        "p": float(platform.p),
        "cache_size": float(platform.cache_size),
        "latency_cache": float(platform.latency_cache),
        "latency_memory": float(platform.latency_memory),
        "alpha": float(platform.alpha),
    }


def legacy_fingerprint(request) -> str:
    """SHA-256 hex of the request's canonical JSON (the pre-binary key)."""
    payload: dict[str, Any] = {
        "version": _LEGACY_PROTOCOL_VERSION,
        "scheduler": request.scheduler.lower(),
        "platform": _platform_payload(request.platform),
        "applications": [_app_payload(a) for a in request.applications],
    }
    if get_entry(request.scheduler).randomized:
        payload["seed"] = 0 if request.seed is None else int(request.seed)
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
