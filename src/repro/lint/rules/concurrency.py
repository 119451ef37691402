"""Concurrency rules: lock discipline in lock-owning classes.

The caches and the service pipeline are the only parts of the system
where two threads share mutable state; their contract (exact
``hits + misses == lookups``, no torn entries) survives only as long
as every mutation of guarded state happens under the owning lock.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Finding, Rule, register
from ..context import FileContext

__all__ = ["LockDisciplineRule"]

#: Methods allowed to touch state before the object is shared.
_SETUP_METHODS = frozenset({"__init__", "__new__", "__del__",
                            "__getstate__", "__setstate__"})


def _is_lock_ctor(node: ast.expr) -> bool:
    """True for ``threading.Lock()`` / ``Lock()`` / ``RLock()`` calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    return name in ("Lock", "RLock", "Condition", "Semaphore")


def _self_attr(node: ast.expr) -> str | None:
    """Attribute name for a ``self.<attr>`` expression, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


@register
class LockDisciplineRule(Rule):
    """Guarded ``self._*`` state mutated outside ``with self._lock``.

    Heuristic race detector for ``cache/memory.py``-style backends: a
    class whose ``__init__`` creates ``self.*lock*`` attributes is
    declaring that its private state is shared between threads; any
    method then assigning to ``self._x`` (or ``self._x[...]``) outside
    a ``with`` on one of the class's locks is a candidate race —
    exactly the benign-looking counter drop that breaks the exact
    hits+misses accounting.  ``__init__`` and deliberate lock-free
    fast paths are out of scope; the latter carry an inline
    suppression naming why the race is safe, which keeps every waived
    site enumerable in the JSON report.
    """

    id = "REP201"
    name = "lock-discipline"
    category = "concurrency"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _lock_names(self, cls: ast.ClassDef) -> frozenset[str]:
        names = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        names.add(attr)
            # Lock lists: self._locks = [threading.Lock() for ...]
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, (ast.ListComp, ast.List)):
                elts = (node.value.elts if isinstance(node.value, ast.List)
                        else [node.value.elt])
                if any(_is_lock_ctor(e) for e in elts):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            names.add(attr)
        return frozenset(names)

    def _check_class(self, ctx: FileContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        locks = self._lock_names(cls)
        if not locks:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _SETUP_METHODS:
                continue
            yield from self._check_method(ctx, cls, item, locks)

    def _check_method(self, ctx: FileContext, cls: ast.ClassDef,
                      method: ast.FunctionDef,
                      locks: frozenset[str]) -> Iterator[Finding]:
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                attr = self._guarded_attr(target, locks)
                if attr is None:
                    continue
                if self._under_lock(ctx, node, locks, method):
                    continue
                yield self.finding(
                    ctx, node,
                    f"{cls.name}.{method.name} mutates guarded state "
                    f"'self.{attr}' outside 'with self.<lock>' "
                    f"(class owns locks: {', '.join(sorted(locks))})")

    @staticmethod
    def _guarded_attr(target: ast.expr,
                      locks: frozenset[str]) -> str | None:
        """Private self attribute this target mutates, locks exempt."""
        if isinstance(target, (ast.Subscript,)):
            target = target.value
        attr = _self_attr(target)
        if attr is None or not attr.startswith("_") or attr in locks:
            return None
        return attr

    @staticmethod
    def _under_lock(ctx: FileContext, node: ast.AST,
                    locks: frozenset[str],
                    method: ast.FunctionDef) -> bool:
        for anc in ctx.ancestors(node):
            if anc is method:
                return False
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Subscript):
                        expr = expr.value
                    attr = _self_attr(expr)
                    if attr in locks:
                        return True
        return False
