"""repro.lint — AST-based determinism & concurrency contract checker.

The reproduction stakes its claims on contracts no single test can
patrol exhaustively: bit-identical results across serial and fork-pool
backends, per-cell RNG discipline (every policy at a grid cell faces
the identical arrival/fault stream), fingerprints stable across
processes and restarts, and lock discipline in the caches and the
service pipeline.
Each contract has already produced a real bug fixed by hand —
per-process ``hash()`` shard scatter, memory-address ``repr`` inside
``spec_fingerprint``, a silently swallowed plot exception — and each
of those bugs is *mechanically detectable*.  This package turns the
one-off fixes into a standing gate.

Architecture (stdlib :mod:`ast` only, no third-party linter):

:class:`~repro.lint.base.Rule` / :class:`~repro.lint.base.Finding`
    The plugin seam: a rule is a registered class with a stable ID, a
    docstring explaining the bug class it polices, and a ``check``
    generator over a :class:`~repro.lint.context.FileContext`.
:class:`~repro.lint.context.FileContext`
    One parsed file: source, AST with parent links, import-alias
    resolution, and the inline-suppression table
    (``# repro-lint: disable=<ID> -- <reason>`` — the reason is
    mandatory; a directive without one is itself a finding).
:mod:`~repro.lint.config`
    Per-path rule profiles: the strict determinism set on the kernel
    subtrees (``core/``, ``simulate/``, ``chaos/``, ``cache/``,
    ``online/``), a default set elsewhere in ``src/``, and a relaxed
    hygiene-only set on ``viz/``, ``benchmarks/``, and ``tests/``.
:mod:`~repro.lint.runner` / :mod:`~repro.lint.reporters`
    File collection, per-file linting, and the text / JSON reports
    behind ``repro lint`` (exit 1 on any active finding — the repo
    itself ships with an empty baseline).
"""

from __future__ import annotations

from .base import Finding, Rule, all_rules, get_rule, rule_ids
from .config import PROFILES, profile_for_path, rules_for_path
from .context import FileContext
from .reporters import render_json, render_text
from .runner import LintReport, iter_python_files, lint_file, lint_paths

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "PROFILES",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "profile_for_path",
    "render_json",
    "render_text",
    "rule_ids",
    "rules_for_path",
]
