"""Hygiene rules: language traps that bite regardless of subsystem.

These run everywhere — the relaxed profile for ``viz/``,
``benchmarks/``, and ``tests/`` is exactly this module plus the
suppression-directive check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Finding, Rule, register
from ..context import FileContext

__all__ = ["MutableDefaultRule", "SilentExceptRule", "SuppressionFormRule"]

_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray",
                            "OrderedDict", "defaultdict", "Counter", "deque"})
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@register
class MutableDefaultRule(Rule):
    """Mutable default argument shared across every call.

    ``def f(xs=[])`` evaluates the default once at definition time;
    every call then shares (and mutates) the same list.  In a system
    whose service re-enters the same functions for request after
    request, and whose runs must replay byte for byte, a mutated
    default is cross-request state leakage.
    Default to ``None`` and construct inside the body.
    """

    id = "REP301"
    name = "mutable-default"
    category = "hygiene"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = [*node.args.defaults,
                        *[d for d in node.args.kw_defaults if d is not None]]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in '{label}' is evaluated "
                        f"once and shared across calls; default to None and "
                        f"build it in the body")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_CTORS
        return False


@register
class SilentExceptRule(Rule):
    """Broad exception handler that swallows without acting.

    ``except Exception: pass`` (or a bare ``except:``) was the old
    ``benchmarks/_harness.py`` bug: plot failures vanished and figures
    silently stopped rendering.  A handler this broad must do
    *something* — re-raise, log, count, return a sentinel.  Narrow
    handlers (``except OSError: pass`` around a best-effort unlink)
    state which failure is tolerable and stay allowed.
    """

    id = "REP302"
    name = "silent-except"
    category = "hygiene"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(self._is_noop(stmt) for stmt in node.body):
                label = ("bare except" if node.type is None
                         else "except Exception")
                yield self.finding(
                    ctx, node,
                    f"{label} swallows every error without acting; narrow "
                    f"the exception or handle it (log, count, re-raise)")

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        candidates = (type_node.elts if isinstance(type_node, ast.Tuple)
                      else [type_node])
        return any(isinstance(c, ast.Name) and c.id in _BROAD_EXCEPTIONS
                   for c in candidates)

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))


@register
class SuppressionFormRule(Rule):
    """Malformed inline suppression directive.

    A ``# repro-lint: disable=...`` directive is a *contract*: it must
    name real rule IDs and carry a reason after ``--`` (the reason is
    what the JSON report surfaces so the suppression budget stays
    reviewable).  Directives missing either silence nothing and are
    flagged here instead.
    """

    id = "REP303"
    name = "suppression-form"
    category = "hygiene"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from ..base import rule_ids

        known = set(rule_ids()) | {"all"}
        for sup in ctx.suppressions:
            anchor = ast.Module(body=[], type_ignores=[])
            anchor.lineno = sup.line  # type: ignore[attr-defined]
            anchor.col_offset = 0  # type: ignore[attr-defined]
            if sup.malformed:
                yield self.finding(ctx, anchor, sup.malformed)
                continue
            unknown = sorted(sup.ids - known)
            if unknown:
                yield self.finding(
                    ctx, anchor,
                    f"suppression names unknown rule ID(s): "
                    f"{', '.join(unknown)}")
