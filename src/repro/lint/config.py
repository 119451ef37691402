"""Per-path rule profiles: strictness follows the determinism contract.

Not every subtree owes the same guarantees.  The kernel subtrees —
``core/``, ``simulate/``, ``chaos/``, ``cache/``, ``online/`` — must
be byte-replayable across processes and runs, so they get every
rule.  The rest of ``src/`` (service, experiments, CLI, ...) keeps the
cross-process stability and concurrency rules but may legitimately
read wall clocks (request latency) and compare floats it owns.
``viz/``, ``benchmarks/``, and ``tests/`` time things and draw ad-hoc
randomness by design; they answer only for language hygiene.

Profiles are matched on *path parts*, not string prefixes, so the
mapping works identically for ``src/repro/core/x.py``,
``repro/core/x.py``, and an absolute path into a checkout.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterable

from .base import Rule, all_rules

__all__ = ["PROFILES", "profile_for_path", "rules_for_path", "rules_for_profile"]

#: repro subpackages under the full determinism contract.
STRICT_SUBTREES = frozenset({"core", "simulate", "chaos", "cache", "online"})

#: Directory names whose whole subtree is hygiene-only.
RELAXED_DIRS = frozenset({"viz", "benchmarks", "tests", "examples"})

#: profile name -> rule IDs ("*" = every registered rule).
PROFILES: dict[str, frozenset[str] | str] = {
    "strict": "*",
    "default": frozenset({
        "REP101",  # global RNG is wrong everywhere in src/
        "REP103",  # hash() stability is a cross-process contract
        "REP104",  # enumeration order feeds CLI output and accounting
        "REP106",  # fingerprint functions live in service/experiments too
        "REP107",  # event-kind typos can originate at any call site
        "REP201",  # the service pipeline owns locks
        "REP301", "REP302", "REP303",
    }),
    "relaxed": frozenset({"REP301", "REP302", "REP303"}),
}


def profile_for_path(path: str | PurePath) -> str:
    """Profile name for one file, decided from its path parts."""
    parts = PurePath(path).parts
    if any(part in RELAXED_DIRS for part in parts):
        return "relaxed"
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in STRICT_SUBTREES:
            return "strict"
    return "default"


def rules_for_profile(profile: str) -> tuple[Rule, ...]:
    ids = PROFILES[profile]
    rules = all_rules()
    if ids == "*":
        return rules
    return tuple(r for r in rules if r.id in ids)


def rules_for_path(path: str | PurePath) -> tuple[Rule, ...]:
    """The rule set a file answers to under the default config."""
    return rules_for_profile(profile_for_path(path))


def profile_table() -> list[tuple[str, Iterable[str]]]:
    """(profile, rule IDs) rows for --list-rules, deterministic order."""
    rows = []
    for name in ("strict", "default", "relaxed"):
        ids = PROFILES[name]
        rows.append((name, [r.id for r in all_rules()] if ids == "*"
                     else sorted(ids)))
    return rows
