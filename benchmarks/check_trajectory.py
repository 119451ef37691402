#!/usr/bin/env python
"""Validate and gate the committed perf trajectory (BENCH_pr6.json).

Two modes, both stdlib-only::

    # schema-validate one record (the committed one, typically)
    python benchmarks/check_trajectory.py validate BENCH_pr6.json

    # gate a fresh record against the committed baseline
    python benchmarks/check_trajectory.py gate BENCH_pr6.json fresh.json \
        [--tolerance 0.25]

The gate compares only the machine-independent ``speedup_vs_scalar``
ratios (absolute wall times are provenance tied to the record's
machine fingerprint): a bench whose fresh ratio falls more than
``tolerance`` below the committed ratio fails the build.  Ratios
*above* the baseline never fail — improvements land by committing a
regenerated record.  Committed ratios below ``--min-speedup``
(default 1.5) are tracked but not gated: a ratio near parity (the
batch-size-1 bench, where both sides run the batch core on one
instance) measures interpreter noise, and a relative gate on it is a
coin flip.

The schema checker implements the subset of JSON Schema the committed
``trajectory_schema.json`` uses (type, required, properties,
additionalProperties-as-schema, const, minimum, exclusiveMinimum), so
CI needs no third-party validator.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent / "trajectory_schema.json"

#: Bench names every record of a given PR must carry.  The schema file
#: stays PR-agnostic; this table is the per-PR contract (a record with
#: an unknown ``pr`` tag only has to satisfy the schema).
REQUIRED_BENCHES = {
    "pr6": (
        "scheduler_scalar_b256",
        "scheduler_batch_b1",
        "scheduler_batch_b16",
        "scheduler_batch_b256",
        "eviction_scan_n256",
        "phase_kernel_batch_b256",
    ),
    "pr7": (
        "serve_warm_knee",
        "cache_single_8t",
        "cache_sharded_8t",
    ),
    "pr9": (
        "chaos_dominant_clean",
        "chaos_fair_clean",
    ),
}

#: pr7 records must chart the saturation curve: at least this many
#: offered-load points, each reporting a numeric p99.
MIN_LOADGEN_POINTS = 3

#: pr9 records must chart goodput retained vs. fault rate: at least
#: this many nonzero fault-rate points per policy, >= 2 policies.
MIN_CHAOS_POINTS = 2
MIN_CHAOS_POLICIES = 2

_TYPES = {
    "object": dict,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "array": list,
}


def _check(value, schema: dict, path: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        pytype = _TYPES[expected]
        ok = isinstance(value, pytype)
        if expected in ("number", "integer") and isinstance(value, bool):
            ok = False
        if not ok:
            errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
            return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected constant {schema['const']!r}, got {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        errors.append(f"{path}: {value} not above {schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                _check(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                _check(sub, extra, f"{path}.{key}", errors)


def validate_record(record: dict) -> list[str]:
    """Schema errors in *record* (empty list = valid)."""
    schema = json.loads(SCHEMA_PATH.read_text())
    errors: list[str] = []
    _check(record, schema, "$", errors)
    benches = record.get("benches")
    if not isinstance(benches, dict):
        return errors
    for name in REQUIRED_BENCHES.get(record.get("pr"), ()):
        if name not in benches:
            errors.append(f"$.benches: missing required bench {name!r} "
                          f"for {record.get('pr')}")
    if record.get("pr") == "pr7":
        loadgen = [n for n in benches if n.startswith("loadgen_")]
        if len(loadgen) < MIN_LOADGEN_POINTS:
            errors.append(
                f"$.benches: pr7 needs >= {MIN_LOADGEN_POINTS} loadgen_* "
                f"offered-load points, found {len(loadgen)}")
        for name in loadgen:
            p99 = benches[name].get("p99_ms") if isinstance(benches[name], dict) else None
            if not isinstance(p99, (int, float)) or isinstance(p99, bool):
                errors.append(f"$.benches.{name}: missing numeric p99_ms")
    if record.get("pr") == "pr9":
        _check_chaos_curve(benches, errors)
    return errors


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_chaos_curve(benches: dict, errors: list[str]) -> None:
    """pr9 contract: a goodput-retained-vs-fault-rate curve for >= 2
    policies, each with >= MIN_CHAOS_POINTS nonzero fault rates."""
    per_policy: dict[str, set] = {}
    for name, bench in benches.items():
        if not (name.startswith("chaos_") and isinstance(bench, dict)):
            continue
        rate = bench.get("fault_rate")
        retained = bench.get("goodput_retained")
        if not _is_number(rate) or not _is_number(retained):
            errors.append(f"$.benches.{name}: chaos benches need numeric "
                          "fault_rate and goodput_retained")
            continue
        policy = name[len("chaos_"):].rsplit("_", 1)[0]
        if rate > 0:
            per_policy.setdefault(policy, set()).add(rate)
    curves = {p: rates for p, rates in per_policy.items()
              if len(rates) >= MIN_CHAOS_POINTS}
    if len(curves) < MIN_CHAOS_POLICIES:
        errors.append(
            f"$.benches: pr9 needs >= {MIN_CHAOS_POLICIES} policies with "
            f">= {MIN_CHAOS_POINTS} nonzero fault-rate points each, found "
            f"{ {p: len(r) for p, r in sorted(per_policy.items())} }")


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def cmd_validate(args) -> int:
    record = _load(args.record)
    errors = validate_record(record)
    if errors:
        for err in errors:
            print(f"SCHEMA  {err}", file=sys.stderr)
        return 1
    print(f"{args.record}: schema OK "
          f"({len(record['benches'])} benches, git {record['git_sha'][:12]})")
    return 0


def cmd_gate(args) -> int:
    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    failures = []
    for name, base in sorted(baseline["benches"].items()):
        ratio = base.get("speedup_vs_scalar")
        if ratio is None:
            continue  # absolute-only bench: provenance, not gated
        bench = fresh["benches"].get(name)
        if bench is None or "speedup_vs_scalar" not in bench:
            failures.append(f"{name}: missing from the fresh record")
            continue
        got = bench["speedup_vs_scalar"]
        if ratio < args.min_speedup:
            print(f"  {name:28s} baseline {ratio:6.2f}x  fresh {got:6.2f}x  "
                  f"(below {args.min_speedup:.1f}x: tracked, not gated)")
            continue
        floor = ratio * (1.0 - args.tolerance)
        status = "ok" if got >= floor else "REGRESSION"
        print(f"  {name:28s} baseline {ratio:6.2f}x  fresh {got:6.2f}x  "
              f"floor {floor:6.2f}x  {status}")
        if got < floor:
            failures.append(
                f"{name}: speedup {got:.2f}x fell more than "
                f"{args.tolerance:.0%} below the committed {ratio:.2f}x")
    for name, base in sorted(baseline["benches"].items()):
        retained = base.get("goodput_retained")
        if retained is None:
            continue
        bench = fresh["benches"].get(name)
        if bench is None or "goodput_retained" not in bench:
            failures.append(f"{name}: missing from the fresh record")
            continue
        got = bench["goodput_retained"]
        # Chaos runs are seeded and deterministic, so goodput_retained
        # must *reproduce*, not merely stay above a floor.
        drift = abs(got - retained) / max(abs(retained), 1e-12)
        status = "ok" if drift <= args.chaos_tolerance else "DRIFT"
        print(f"  {name:28s} baseline {retained:8.4f}  fresh {got:8.4f}  "
              f"{status}")
        if drift > args.chaos_tolerance:
            failures.append(
                f"{name}: goodput_retained {got:.6f} drifted "
                f"{drift:.2%} from the committed {retained:.6f} "
                "(seeded chaos runs must reproduce)")
    if failures:
        for failure in failures:
            print(f"GATE  {failure}", file=sys.stderr)
        return 1
    print("perf trajectory gate: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_validate = sub.add_parser("validate", help="schema-check one record")
    p_validate.add_argument("record", type=Path)
    p_validate.set_defaults(fn=cmd_validate)
    p_gate = sub.add_parser("gate", help="compare fresh ratios to a baseline")
    p_gate.add_argument("baseline", type=Path)
    p_gate.add_argument("fresh", type=Path)
    p_gate.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop in speedup_vs_scalar "
                             "(default 0.25)")
    p_gate.add_argument("--min-speedup", type=float, default=1.5,
                        help="committed ratios below this are tracked but "
                             "not gated (default 1.5)")
    p_gate.add_argument("--chaos-tolerance", type=float, default=1e-6,
                        help="allowed relative drift in goodput_retained "
                             "(seeded chaos runs are deterministic; "
                             "default 1e-6)")
    p_gate.set_defaults(fn=cmd_gate)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
