"""Tests for the service wire protocol: canonicalization, fingerprints."""

from __future__ import annotations

import json
import math
import re

import pytest
from golden.legacy_fingerprint import legacy_fingerprint
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, Platform
from repro.machine import taihulight
from repro.service.protocol import (
    AllocationRequest,
    canonical_json,
    parse_platform,
    request_from_payload,
)
from repro.types import ModelError


def _apps(n: int = 2) -> tuple[Application, ...]:
    return tuple(
        Application(name=f"a{i}", work=1e9 * (i + 1), access_freq=0.5,
                    miss_rate=0.01)
        for i in range(n)
    )


def _request(**kw) -> AllocationRequest:
    kw.setdefault("applications", _apps())
    kw.setdefault("platform", taihulight())
    return AllocationRequest(**kw)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestFingerprint:
    def test_deterministic(self):
        assert _request().fingerprint() == _request().fingerprint()

    def test_differs_on_workload(self):
        assert _request().fingerprint() != _request(applications=_apps(3)).fingerprint()

    def test_differs_on_scheduler(self):
        a = _request(scheduler="dominant-minratio")
        b = _request(scheduler="dominant-maxratio")
        assert a.fingerprint() != b.fingerprint()

    def test_preset_and_explicit_platform_collide(self):
        """The same machine, phrased two ways, is the same cache line."""
        preset = _request(platform=parse_platform("taihulight"))
        explicit = _request(platform=Platform(
            p=256.0, cache_size=32000e6, latency_cache=0.17,
            latency_memory=1.0, alpha=0.5, name="whatever"))
        assert preset.fingerprint() == explicit.fingerprint()

    def test_platform_label_is_ignored(self):
        a = _request(platform=taihulight())
        b = _request(platform=Platform(
            p=256.0, cache_size=32000e6, alpha=0.5, name="renamed"))
        assert a.fingerprint() == b.fingerprint()

    def test_int_and_float_spellings_collide(self):
        """JSON distinguishes 256 from 256.0; the fingerprint must not."""
        int_spelled = request_from_payload({
            "applications": [{"work": 1000000000, "access_freq": 1,
                              "miss_rate": 0}],
            "platform": {"p": 256, "cache_size": 32000000000, "alpha": 0.5},
        })
        float_spelled = request_from_payload({
            "applications": [{"work": 1e9, "access_freq": 1.0,
                              "miss_rate": 0.0}],
            "platform": {"p": 256.0, "cache_size": 32000e6, "alpha": 0.5},
        })
        assert int_spelled.fingerprint() == float_spelled.fingerprint()

    def test_int_platform_matches_preset(self):
        explicit = _request(platform=Platform(p=256, cache_size=32000000000,
                                              alpha=0.5))
        assert explicit.fingerprint() == _request().fingerprint()

    def test_seed_ignored_for_deterministic_scheduler(self):
        assert (_request(seed=None).fingerprint()
                == _request(seed=7).fingerprint())

    def test_seed_matters_for_randomized_scheduler(self):
        a = _request(scheduler="randompart", seed=1)
        b = _request(scheduler="randompart", seed=2)
        assert a.fingerprint() != b.fingerprint()

    def test_unseeded_randomized_defaults_to_zero(self):
        assert (_request(scheduler="randompart", seed=None).fingerprint()
                == _request(scheduler="randompart", seed=0).fingerprint())

    def test_infinite_footprint_is_encodable(self):
        req = _request()
        assert math.isinf(req.applications[0].footprint)
        payload = req.canonical_payload()
        assert payload["applications"][0]["footprint"] is None
        json.dumps(payload, allow_nan=False)  # stays standard JSON


#: Marks a slot left out of the payload (the parser's default applies).
_ABSENT = object()

#: Small value pools, several spellings per value, so that independently
#: drawn requests collide often enough to test both directions.
_APP_POOLS = {
    "name": [_ABSENT, "a", "app0", "\u00e9", "\ud800", 7, "7"],
    "work": [1, 1.0, 2.5, 2.5000000000000004],
    "seq_fraction": [0, 0.0, -0.0, 0.5],
    "access_freq": [0, 0.0, 1, 1.0],
    "miss_rate": [0.0, -0.0, 0.25],
    "footprint": [_ABSENT, None, 1e9, 1000000000],
    "baseline_cache": [_ABSENT, 40e6, 40000000, 1e6],
}
_POOLS = {
    "n": [1, 2],
    "platform": [
        "taihulight",
        {"preset": "taihulight"},
        {"p": 256, "cache_size": 32000000000, "alpha": 0.5},
        {"p": 256.0, "cache_size": 32e9, "latency_cache": 0.17,
         "latency_memory": 1, "alpha": 0.5, "name": "renamed"},
        {"preset": "taihulight", "p": 64},
    ],
    "scheduler": ["dominant-minratio", "Dominant-MinRatio", "fair",
                  "randompart"],
    "seed": [_ABSENT, None, 0, 3],
    **{(i, field): pool for i in range(2) for field, pool in _APP_POOLS.items()},
}


def _payload(slots: dict) -> dict:
    apps = [{field: slots[(i, field)] for field in _APP_POOLS
             if slots[(i, field)] is not _ABSENT}
            for i in range(slots["n"])]
    payload = {"applications": apps, "platform": slots["platform"],
               "scheduler": slots["scheduler"]}
    if slots["seed"] is not _ABSENT:
        payload["seed"] = slots["seed"]
    return payload


_slots = st.fixed_dictionaries(
    {key: st.sampled_from(pool) for key, pool in _POOLS.items()})


class TestFingerprintMatchesJsonOracle:
    """The binary fingerprint keeps the canonical-JSON equivalence classes."""

    @settings(max_examples=300, deadline=None)
    @given(a=_slots, changed=st.lists(st.sampled_from(list(_POOLS)),
                                      min_size=1, max_size=3),
           data=st.data())
    def test_collides_exactly_when_the_oracle_does(self, a, changed, data):
        b = dict(a)
        for key in changed:
            b[key] = data.draw(st.sampled_from(_POOLS[key]), label=str(key))
        ra = request_from_payload(_payload(a))
        rb = request_from_payload(_payload(b))
        assert re.fullmatch(r"[0-9a-f]{64}", ra.fingerprint())
        assert ((ra.fingerprint() == rb.fingerprint())
                == (legacy_fingerprint(ra) == legacy_fingerprint(rb)))

    @pytest.mark.parametrize("a, b, same", [
        ({"applications": [{"work": 256}]},
         {"applications": [{"work": 256.0}]}, True),
        ({"platform": "taihulight"},
         {"platform": {"p": 256, "cache_size": 32e9, "alpha": 0.5}}, True),
        ({"platform": {"p": 8, "cache_size": 1e6, "name": "one"}},
         {"platform": {"p": 8, "cache_size": 1e6, "name": "two"}}, True),
        ({"seed": 1}, {"seed": 2}, True),
        ({"scheduler": "randompart", "seed": 1},
         {"scheduler": "randompart", "seed": 2}, False),
        ({"applications": [{"work": 1.0, "seq_fraction": 0.0}]},
         {"applications": [{"work": 1.0, "seq_fraction": -0.0}]}, False),
        ({"applications": [{"work": 1.0, "footprint": None}]},
         {"applications": [{"work": 1.0}]}, True),
        ({"applications": [{"work": 1.0, "footprint": None}]},
         {"applications": [{"work": 1.0, "footprint": 1e300}]}, False),
    ], ids=["int-float", "preset-explicit", "platform-name",
            "seed-deterministic", "seed-randomized", "negative-zero",
            "null-footprint", "finite-footprint"])
    def test_explicit_cases(self, a, b, same):
        base = {"applications": [{"work": 1.0}], "platform": "taihulight"}
        ra = request_from_payload({**base, **a})
        rb = request_from_payload({**base, **b})
        assert (ra.fingerprint() == rb.fingerprint()) is same
        assert (legacy_fingerprint(ra) == legacy_fingerprint(rb)) is same

    def test_inf_footprint_equals_null(self):
        by_value = _request(applications=(
            Application(name="x", work=1.0, footprint=math.inf),))
        by_wire = request_from_payload({
            "applications": [{"name": "x", "work": 1.0, "footprint": None}],
            "platform": "taihulight"})
        assert by_value.fingerprint() == by_wire.fingerprint()

    def test_nan_footprint_is_rejected(self):
        """JSON could not encode it; the model now refuses it outright."""
        with pytest.raises(ModelError, match="footprint"):
            request_from_payload({"applications": [
                {"work": 1.0, "footprint": float("nan")}]})


class TestRequestFromPayload:
    def _payload(self, **overrides):
        payload = {
            "applications": [
                {"name": "a0", "work": 1e9, "access_freq": 0.5, "miss_rate": 0.01},
                {"work": 2e9},
            ],
            "platform": "taihulight",
            "scheduler": "dominant-minratio",
        }
        payload.update(overrides)
        return payload

    def test_roundtrip(self):
        req = request_from_payload(self._payload())
        assert req.scheduler == "dominant-minratio"
        assert req.platform == taihulight()
        assert req.applications[0].name == "a0"
        # unnamed applications get positional names
        assert req.applications[1].name == "app1"
        # wire -> request -> wire is stable
        again = request_from_payload(req.canonical_payload())
        assert again.fingerprint() == req.fingerprint()

    def test_platform_preset_with_overrides(self):
        req = request_from_payload(
            self._payload(platform={"preset": "taihulight", "p": 64.0}))
        assert req.platform.p == 64.0

    def test_platform_explicit(self):
        req = request_from_payload(
            self._payload(platform={"p": 8.0, "cache_size": 2e7}))
        assert req.platform.cache_size == 2e7

    def test_application_defaults_are_the_models(self):
        req = request_from_payload(self._payload())
        assert req.applications[1] == Application(name="app1", work=2e9)

    def test_misspelled_application_field_rejected(self):
        """A typo is an error, not a silently defaulted field."""
        with pytest.raises(ModelError, match="acces_freq"):
            request_from_payload(self._payload(applications=[
                {"name": "T", "work": 1e9, "acces_freq": 0.5}]))

    def test_explicit_platform_roundtrip(self):
        platform = Platform(p=12.0, cache_size=3e7, latency_cache=0.2,
                            latency_memory=1.5, alpha=0.4)
        req = _request(platform=platform)
        again = request_from_payload(req.canonical_payload())
        assert again.platform == platform
        assert again.applications == req.applications

    def test_null_footprint_means_infinite(self):
        payload = self._payload()
        payload["applications"][0]["footprint"] = None
        req = request_from_payload(payload)
        assert math.isinf(req.applications[0].footprint)

    @pytest.mark.parametrize("mutation, match", [
        ({"applications": []}, "non-empty"),
        ({"applications": "nope"}, "non-empty"),
        ({"platform": {"preset": "warehouse"}}, "unknown platform preset"),
        ({"platform": {"p": 8.0}}, "cache_size"),
        ({"platform": {"p": 8.0, "cache_size": 1e6, "cores": 4}},
         "unknown platform fields"),
        ({"scheduler": 7}, "registry name"),
        ({"seed": "tuesday"}, "integer"),
        ({"surprise": 1}, "unknown request fields"),
    ])
    def test_malformed_payloads(self, mutation, match):
        with pytest.raises(ModelError, match=match):
            request_from_payload(self._payload(**mutation))

    def test_malformed_application(self):
        with pytest.raises(ModelError, match="application #1"):
            request_from_payload(self._payload(
                applications=[{"work": 1e9}, {"work": 1e9, "color": "red"}]))
        with pytest.raises(ModelError, match="missing required field 'work'"):
            request_from_payload(self._payload(applications=[{"name": "x"}]))

    def test_model_validation_propagates(self):
        with pytest.raises(ModelError, match="seq_fraction"):
            request_from_payload(self._payload(
                applications=[{"work": 1e9, "seq_fraction": 3.0}]))

    def test_workload_is_built_once(self):
        req = request_from_payload(self._payload())
        assert req.workload() is req.workload()
        assert req.workload().names == ("a0", "app1")

    def test_non_dict_mappings_and_sequences_still_parse(self):
        from types import MappingProxyType
        payload = self._payload()
        wrapped = MappingProxyType({
            **payload,
            "applications": tuple(MappingProxyType(a)
                                  for a in payload["applications"])})
        assert (request_from_payload(wrapped).fingerprint()
                == request_from_payload(payload).fingerprint())

    def test_empty_request_rejected(self):
        with pytest.raises(ModelError):
            AllocationRequest(applications=(), platform=taihulight())
