"""Determinism rules: the bug classes that break bit-identical replay.

Every rule here encodes a failure this repo has actually shipped or
explicitly defends against: results must be byte-identical across
processes with different ``PYTHONHASHSEED``, across restarts, and
across replays of the same seeded run — so anything drawing from
global mutable state (module-level RNGs, wall clocks, randomized
``hash()``, filesystem enumeration order) is a latent replay bug even
when today's tests pass.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..base import Finding, Rule, register
from ..context import FileContext

__all__ = [
    "EventKindRule",
    "FloatEqualityRule",
    "GlobalRngRule",
    "ReprInFingerprintRule",
    "UnsortedIterationRule",
    "UnstableHashRule",
    "WallClockRule",
]

#: numpy.random attributes that are seeded-generator plumbing, not
#: draws from the hidden global state.
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Wall-clock / entropy call chains banned from kernel paths.  Module
#: paths after alias resolution; `from time import time` resolves to
#: the same chains.
_CLOCK_CHAINS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "os.urandom", "os.getrandom",
})
_CLOCK_PREFIXES = ("uuid.", "secrets.")

#: Filesystem enumerators whose order is whatever the OS feels like.
#: Matched by attribute name — ``Path.glob``, ``os.listdir``, and
#: ``glob.glob`` all end in one of these.
_FS_METHOD_NAMES = frozenset({"glob", "iglob", "rglob", "iterdir",
                              "scandir", "listdir"})

#: Wrappers that preserve (or define) iteration order — peel and keep
#: looking at what they wrap.
_ORDER_NEUTRAL_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed"})
#: Wrappers that impose a deterministic order — iteration is safe.
_ORDERING_WRAPPERS = frozenset({"sorted"})


def _call_name(node: ast.expr) -> str | None:
    """Bare callee name of a Call's func, if it is a simple Name."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


@register
class GlobalRngRule(Rule):
    """Draws from a global RNG instead of a passed-in ``Generator``.

    ``random.random()`` / ``np.random.rand()`` pull from hidden
    process-wide state: the same grid cell then sees different draws
    depending on execution order, worker process, or whatever imported
    the module first — exactly what the per-cell RNG discipline
    (every policy faces the identical arrival/fault stream) forbids.
    Thread a ``numpy.random.Generator`` (``np.random.default_rng(seed)``)
    through the call chain instead.
    """

    id = "REP101"
    name = "global-rng"
    category = "determinism"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_chain(node.func)
            if chain is None:
                continue
            if chain == "random" or chain.startswith("random."):
                yield self.finding(
                    ctx, node,
                    f"call to stdlib global RNG '{chain}'; pass a seeded "
                    f"numpy.random.Generator through the call chain instead")
            elif chain.startswith("numpy.random."):
                leaf = chain.split(".")[2]
                if leaf not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to numpy global RNG '{chain}'; use a "
                        f"Generator from np.random.default_rng(seed) "
                        f"threaded in by the caller")


@register
class WallClockRule(Rule):
    """Wall-clock or entropy source in a deterministic kernel path.

    ``time.time()``, ``datetime.now()``, ``uuid.*``, ``os.urandom()``
    make a result a function of *when and where* it ran, so two
    processes (or two CI runs) can never be byte-compared.  Model time
    comes from the simulation clock; identifiers come from content
    fingerprints.  Timing for benchmarks belongs in ``benchmarks/``,
    which this rule does not police.
    """

    id = "REP102"
    name = "wall-clock"
    category = "determinism"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            chain = ctx.resolve_chain(node.func)
            if chain is None:
                continue
            if chain in _CLOCK_CHAINS or chain.startswith(_CLOCK_PREFIXES):
                yield self.finding(
                    ctx, node,
                    f"wall-clock/entropy call '{chain}' in a kernel path; "
                    f"results must be a pure function of inputs and seeds")


@register
class UnstableHashRule(Rule):
    """Builtin ``hash()`` — randomized per process for str/bytes.

    The PR 8 shard-scatter bug: ``hash(fingerprint) % nshards`` gave
    every pre-forked worker a *different* shard assignment for the same
    key (PYTHONHASHSEED randomizes str hashing per process), silently
    collapsing the cross-process hit rate.  Derive placement from a
    real digest (``hashlib``) or that digest's own bits, never from
    ``hash()``.  ``__hash__``
    implementations delegating to ``hash(...)`` are exempt — they
    define in-process hashing, not cross-process placement.
    """

    id = "REP103"
    name = "unstable-hash"
    category = "determinism"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) != "hash" or not ctx.is_builtin_name("hash"):
                continue
            fn = ctx.enclosing_function(node)
            if fn is not None and fn.name == "__hash__":
                continue
            yield self.finding(
                ctx, node,
                "builtin hash() is randomized per process for str/bytes; "
                "use a hashlib digest (or its own bits) for anything that "
                "must agree across processes or restarts")


@register
class UnsortedIterationRule(Rule):
    """Iterating filesystem enumerations or sets in OS/insertion order.

    ``Path.glob``/``os.listdir`` yield in directory order — an artifact
    of inode history that differs between machines and checkouts — and
    set iteration order depends on hash seeds and insertion history.
    Any loop feeding output, accounting, or tie-breaking from one of
    these is a run-to-run diff waiting to happen; wrap the iterable in
    ``sorted(...)`` with an explicit key.
    """

    id = "REP104"
    name = "unsorted-iteration"
    category = "determinism"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                verdict = self._judge(it)
                if verdict is not None:
                    yield self.finding(ctx, it, verdict)

    def _judge(self, expr: ast.expr) -> str | None:
        """Reason the iterable is order-unstable, or None when fine."""
        while True:
            if isinstance(expr, ast.Call):
                name = _call_name(expr)
                if name in _ORDERING_WRAPPERS:
                    return None
                if name in _ORDER_NEUTRAL_WRAPPERS and expr.args:
                    expr = expr.args[0]
                    continue
                if name == "set":
                    return ("iterating a set() in hash order; "
                            "sort it before anything order-sensitive")
                if isinstance(expr.func, ast.Attribute) \
                        and expr.func.attr in _FS_METHOD_NAMES:
                    return (f"iterating .{expr.func.attr}(...) in "
                            f"filesystem order; wrap it in sorted(...)")
                return None
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return ("iterating a set literal in hash order; "
                        "sort it before anything order-sensitive")
            return None


@register
class FloatEqualityRule(Rule):
    """Exact ``==``/``!=`` against a float constant in kernel code.

    Simulated instants accumulate rounding; the kernel's admission and
    boundary logic therefore compares through the ``ABS_TOL`` /
    ``REL_TOL`` helpers (``boundary_tol``, ``at_or_before``) — the
    relative-only epsilon bug fixed in PR 3 came from exactly this
    class.  A raw equality against a nonzero float constant in
    simulate/kernel code bypasses that tolerance discipline.
    Comparisons against 0.0 (exact sentinels set, not computed) and
    code inside the tolerance helpers themselves are exempt.
    """

    id = "REP105"
    name = "float-equality"
    category = "determinism"

    _EXEMPT_NAME_PARTS = ("tol", "close", "approx", "exact")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if not any(self._nonzero_float(o) for o in operands):
                continue
            fn = ctx.enclosing_function(node)
            if fn is not None and any(part in fn.name.lower()
                                      for part in self._EXEMPT_NAME_PARTS):
                continue
            yield self.finding(
                ctx, node,
                "exact ==/!= against a float constant; compare through the "
                "kernel's ABS_TOL/REL_TOL helpers (boundary_tol/at_or_before)")

    @staticmethod
    def _nonzero_float(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and node.value != 0.0)


@register
class ReprInFingerprintRule(Rule):
    """``repr``/``!r`` of arbitrary objects inside fingerprint functions.

    ``repr`` of anything without a value-based ``__repr__`` embeds a
    memory address (``<function f at 0x7f...>``) — the PR 8
    ``spec_fingerprint`` bug, where nested code objects repr'd by
    address made every cross-process cache lookup a silent permanent
    miss.  Fingerprint and cache-key functions must digest canonical
    value encodings (sorted JSON, bytecode digests), never ``repr``.
    """

    id = "REP106"
    name = "repr-in-fingerprint"
    category = "determinism"

    _NAME_MARKERS = ("fingerprint", "cache_key", "digest_key")

    def _is_key_function(self, fn) -> bool:
        name = fn.name.lower()
        return (any(marker in name for marker in self._NAME_MARKERS)
                or name.endswith("_key") or name == "key_for")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Call) and _call_name(node) == "repr" \
                    and ctx.is_builtin_name("repr"):
                kind = "repr()"
            elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                kind = "f-string !r conversion"
            else:
                continue
            fn = ctx.enclosing_function(node)
            if fn is None or not self._is_key_function(fn):
                continue
            yield self.finding(
                ctx, node,
                f"{kind} inside fingerprint/key function '{fn.name}': reprs "
                f"can embed per-process memory addresses; digest a canonical "
                f"value encoding instead")


def _registered_event_kinds() -> frozenset[str]:
    """The kernel's EVENT_KINDS, read statically from its source.

    Parsed with ``ast`` (not imported — the linter stays runnable on a
    tree whose imports are broken) from the sibling
    ``simulate/kernel.py``.  Falls back to the committed set if the
    file moved, so the rule degrades to a stale-but-useful check
    rather than crashing.
    """
    fallback = frozenset({
        "seq-done", "done", "arrival",
        "proc_join", "proc_leave", "crash", "restart", "preempt",
    })
    kernel = Path(__file__).resolve().parents[2] / "simulate" / "kernel.py"
    try:
        tree = ast.parse(kernel.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return fallback
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "EVENT_KINDS":
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return fallback
                if isinstance(value, (tuple, list)) and value:
                    return frozenset(str(v) for v in value)
    return fallback


@register
class EventKindRule(Rule):
    """String event kind outside the kernel's registered ``EVENT_KINDS``.

    The event log validates kinds at runtime (``record``/``select``
    raise on unknown kinds), but only on paths a test actually drives;
    a typo'd kind in a rarely-exercised branch silently matches
    nothing until production.  This rule checks every literal kind at
    lint time against the set parsed from ``simulate/kernel.py``, so
    adding a kind to the kernel automatically teaches the linter.
    """

    id = "REP107"
    name = "unregistered-event-kind"
    category = "determinism"

    _KIND_METHODS = frozenset({"record", "select", "as_tuples"})

    def __init__(self) -> None:
        self._kinds = _registered_event_kinds()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)

    def _bad(self, value: object) -> bool:
        # Length-1/2 strings are dtype codes and format chars, never
        # event kinds (the shortest registered kind is 4 characters).
        return (isinstance(value, str) and len(value) >= 3
                and value not in self._kinds)

    @staticmethod
    def _is_dtype_owner(owner: ast.expr) -> bool:
        name = (owner.attr if isinstance(owner, ast.Attribute)
                else owner.id if isinstance(owner, ast.Name) else "")
        return name == "dtype"

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        literal_args: list[ast.Constant] = []
        func = node.func
        callee = (func.attr if isinstance(func, ast.Attribute)
                  else func.id if isinstance(func, ast.Name) else "")
        if callee in self._KIND_METHODS:
            # record(time, kind, index) / select(*kinds) / as_tuples(*kinds)
            args = node.args[1:2] if callee == "record" else node.args
            literal_args.extend(
                a for a in args
                if isinstance(a, ast.Constant) and isinstance(a.value, str))
        if callee in self._KIND_METHODS or callee == "Event":
            # kind= kwarg only on event-shaped callees: np.sort(kind="stable")
            # and friends use the same keyword for something else entirely.
            for kw in node.keywords:
                if kw.arg == "kind" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    literal_args.append(kw.value)
        for arg in literal_args:
            if self._bad(arg.value):
                yield self.finding(
                    ctx, arg,
                    f"event kind {arg.value!r} is not in the kernel's "
                    f"EVENT_KINDS registry ({sorted(self._kinds)})")

    def _check_compare(self, ctx: FileContext,
                       node: ast.Compare) -> Iterator[Finding]:
        # e.kind == "typo" / e.kind in ("typo", ...).  numpy spells dtype
        # classes ".kind" too ("f", "i"): dtype owners and short codes
        # are not event kinds, so they stay out of scope.
        operands = [node.left, *node.comparators]
        if not any(isinstance(o, ast.Attribute) and o.attr == "kind"
                   and not self._is_dtype_owner(o.value)
                   for o in operands):
            return
        for operand in operands:
            literals: list[ast.Constant] = []
            if isinstance(operand, ast.Constant):
                literals.append(operand)
            elif isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                literals.extend(e for e in operand.elts
                                if isinstance(e, ast.Constant))
            for lit in literals:
                if self._bad(lit.value):
                    yield self.finding(
                        ctx, lit,
                        f"comparison against event kind {lit.value!r} not in "
                        f"the kernel's EVENT_KINDS registry")
