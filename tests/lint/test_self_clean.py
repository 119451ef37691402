"""The shipped tree passes its own gate with an empty baseline.

This is the in-suite twin of the ``lint-gate`` CI job: ``src/`` and
``benchmarks/`` must produce zero active findings under the default
per-path profiles, and the chaos scenario corpus' generator code must
hold the strict determinism contract (scenario replay is the whole
point of the corpus).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_benchmarks_lint_clean():
    roots = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
    report = lint_paths(roots)
    assert report.ok, "lint gate broken:\n" + render_text(report)
    # the scan actually covered the tree: every Python file under both roots
    assert report.files_scanned == sum(
        1 for root in roots for _ in root.rglob("*.py"))


def test_suppression_budget_is_tracked_and_small():
    """Waivers are allowed but enumerable; growth is a deliberate act."""
    report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    assert all(f.suppress_reason for f in report.suppressed)
    assert len(report.suppressed) <= 8, (
        "suppression budget creeping up:\n"
        + "\n".join(f"{f.path}:{f.line} {f.rule_id} -- {f.suppress_reason}"
                    for f in report.suppressed))


def test_chaos_scenario_generator_code_is_strict_clean():
    """The corpus' generator/loader code replays byte-identically, so it
    answers to the full determinism profile, not the relaxed test one.

    One exception: REP105 (float equality) is *inverted* in this
    corpus — asserting exact float event times is how the tests prove
    byte-identical replay, so exact ``==`` is the contract, not a bug.
    """
    from repro.lint import all_rules

    chaos_tests = REPO_ROOT / "tests" / "chaos"
    rules = [r for r in all_rules() if r.id != "REP105"]
    report = lint_paths([chaos_tests], rules=rules)
    assert report.ok, "chaos corpus code violates the determinism contract:\n" \
        + render_text(report)
