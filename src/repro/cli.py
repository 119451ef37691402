"""Command-line interface: regenerate any paper figure or table.

Examples::

    python -m repro figure fig1 --reps 10 --plot
    python -m repro figure fig3 --csv out/fig3.csv
    python -m repro table2
    python -m repro schedule --dataset npb-synth --napps 32 --scheduler dominant-minratio
    python -m repro online --napps 16 --policy fair --arrivals poisson:rate=5e-9
    python -m repro validate --napps 32
    python -m repro list
    python -m repro serve --port 8765
    python -m repro request --url http://127.0.0.1:8765 --napps 8
    python -m repro cache info
    python -m repro cache prune --max-bytes 500M
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core.registry import entries, get_scheduler, scheduler_names
from .experiments.figures import FIGURE_NORMALIZATIONS, build_figure, figure_ids
from .experiments.runner import run_experiment
from .experiments.table2 import regenerate_table2
from .experiments.tables import format_table, render_result
from .machine.presets import PRESETS, get_preset
from .viz.ascii_plot import plot_result
from .workloads.synthetic import DATASETS, generate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-cosched",
        description="Reproduce 'Co-scheduling algorithms for cache-partitioned systems'",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("figure_id", choices=list(figure_ids()))
    fig.add_argument("--reps", type=int, default=10, help="repetitions (paper: 50)")
    fig.add_argument("--seed", type=int, default=2017)
    fig.add_argument("--plot", action="store_true", help="also render an ASCII plot")
    fig.add_argument("--csv", type=Path, default=None, help="write series to CSV")
    fig.add_argument(
        "--normalize",
        default=None,
        help="normalize by this scheduler (default: the paper's choice)",
    )
    fig.add_argument("--cache-dir", type=Path, default=None,
                     help="result-cache directory (default: $REPRO_CACHE_DIR; unset = off)")
    fig.add_argument("--no-cache", action="store_true",
                     help="bypass the result cache for this run")

    sub.add_parser("table2", help="regenerate Table 2 via the trace-driven profiler")

    sched = sub.add_parser("schedule", help="schedule one workload and print it")
    sched.add_argument("--dataset", choices=list(DATASETS), default="npb-synth")
    sched.add_argument("--napps", type=int, default=16)
    sched.add_argument("--scheduler", choices=list(scheduler_names()),
                       default="dominant-minratio")
    sched.add_argument("--platform", choices=list(PRESETS), default="taihulight")
    sched.add_argument("--seed", type=int, default=2017)

    onl = sub.add_parser(
        "online",
        help="simulate dynamic arrivals under a reallocation policy")
    onl.add_argument("--dataset", choices=list(DATASETS), default="npb-synth")
    onl.add_argument("--napps", type=int, default=16)
    onl.add_argument("--platform", choices=list(PRESETS), default="taihulight")
    onl.add_argument(
        "--policy", default="dominant",
        help="builtin policy (dominant, fair, fcfs) or any registered "
             "concurrent scheduler name")
    onl.add_argument(
        "--arrivals", default="batch",
        help="arrival source spec: batch[:at=T], constant:period=P[,start=S], "
             "poisson:rate=R[,burst=B,period=P], trace:PATH "
             "(rates are arrivals per model time unit; NPB-scale workloads "
             "run ~1e8-1e9 time units, so e.g. poisson:rate=5e-9)")
    onl.add_argument(
        "--faults", default="none",
        help="fault spec: none, churn:period=P[,drop=D,min=F,max=G], "
             "crash:hazard=H,delay=R[,lost=L], "
             "preempt:period=P,duration=D[,victims=K], "
             "classes:count=K[,share=S] — combined with '+'. Times share "
             "the model's units (NPB-scale runs span ~1e10-1e12), so e.g. "
             "churn:period=2e10+crash:hazard=2e-11,delay=1e9")
    onl.add_argument(
        "--probe-interval", type=float, default=None,
        help="metric-probe cadence in model time units "
             "(default: fault horizon / 128; only used with --faults); "
             "every tick is a reallocation point, so it moves dominant "
             "and registry-policy results")
    onl.add_argument("--seed", type=int, default=2017)

    val = sub.add_parser("validate",
                         help="check model vs discrete-event simulation")
    val.add_argument("--dataset", choices=list(DATASETS), default="npb-synth")
    val.add_argument("--napps", type=int, default=32)
    val.add_argument("--platform", choices=list(PRESETS), default="taihulight")
    val.add_argument("--seed", type=int, default=2017)

    sub.add_parser("list", help="list schedulers, figures, datasets, platforms")

    srv = sub.add_parser("serve", help="run the co-scheduling decision service")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765)
    srv.add_argument("--cache-capacity", type=int, default=1024,
                     help="decision-cache entries (LRU beyond this)")
    srv.add_argument("--max-batch", type=int, default=16,
                     help="largest request batch dispatched at once")
    srv.add_argument("--workers", type=int, default=1,
                     help="pre-forked server processes, each with its own "
                          "event loop and service (default: 1)")
    srv.add_argument("--async", dest="use_async", action="store_true",
                     help="accepted for compatibility: the asyncio front "
                          "end is the default and only one")
    srv.add_argument("--cache-dir", type=Path, default=None,
                     help="persistent decision-cache directory for "
                          "cross-restart warm starts "
                          "(default: $REPRO_CACHE_DIR; unset = memory-only)")
    srv.add_argument("--max-queue-depth", type=int, default=None,
                     help="batcher backpressure limit; beyond this many "
                          "queued requests the service answers 503 + "
                          "Retry-After (default: unbounded)")

    req = sub.add_parser("request",
                         help="send one allocation request to a running service")
    req.add_argument("--url", default="http://127.0.0.1:8765",
                     help="service base URL")
    req.add_argument("--dataset", choices=list(DATASETS), default="npb-synth")
    req.add_argument("--napps", type=int, default=8)
    req.add_argument("--scheduler", choices=list(scheduler_names()),
                     default="dominant-minratio")
    req.add_argument("--platform", choices=list(PRESETS), default="taihulight")
    req.add_argument("--seed", type=int, default=2017)
    req.add_argument("--repeat", type=int, default=1,
                     help="send the identical request N times (shows cache hits)")
    req.add_argument("--json", action="store_true",
                     help="print the raw JSON response instead of a table")

    lint = sub.add_parser(
        "lint",
        help="run the determinism & concurrency contract checker")
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files or directories (default: src benchmarks)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (json is the CI contract)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules and per-path profiles")
    lint.add_argument("--profile", choices=("strict", "default", "relaxed"),
                      default=None,
                      help="force one rule profile instead of per-path mapping")

    cache = sub.add_parser("cache", help="inspect or prune the on-disk result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    info = cache_sub.add_parser("info", help="show entry count and total bytes")
    info.add_argument("--cache-dir", type=Path, default=None,
                      help="cache directory (default: $REPRO_CACHE_DIR)")
    prune = cache_sub.add_parser(
        "prune", help="delete least-recently-used entries over a byte budget")
    prune.add_argument("--max-bytes", type=parse_bytes, required=True,
                       help="byte budget to prune down to (suffixes K/M/G ok)")
    prune.add_argument("--cache-dir", type=Path, default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be deleted without deleting")
    return parser


def parse_bytes(text: str) -> int:
    """Parse a byte size: plain int or K/M/G-suffixed (decimal, e.g. 500M)."""
    raw = text.strip().upper().removesuffix("B")
    factor = 1
    for suffix, mult in (("K", 10**3), ("M", 10**6), ("G", 10**9)):
        if raw.endswith(suffix):
            raw = raw[:-1]
            factor = mult
            break
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse byte size {text!r} (use e.g. 1048576, 500M, 2G)"
        ) from None
    if value < 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"byte size must be finite and >= 0, got {text!r}")
    return int(value * factor)


def _cmd_figure(args) -> int:
    exp = build_figure(args.figure_id, reps=args.reps, seed=args.seed)
    result = run_experiment(
        exp,
        progress=lambda msg: print(msg, file=sys.stderr),
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    norms = (
        (args.normalize,)
        if args.normalize is not None
        else FIGURE_NORMALIZATIONS[args.figure_id]
    )
    for norm in norms:
        print(render_result(result, normalize_by=norm))
        print()
        if args.plot:
            logx = "Applications" in result.xlabel
            print(plot_result(result, normalize_by=norm, logx=logx))
            print()
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        result.to_csv(args.csv, normalize_by=norms[0])
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_table2(_args) -> int:
    rows = []
    for bench in regenerate_table2():
        rows.append([
            bench.name,
            bench.paper_work,
            bench.paper_freq,
            bench.paper_miss,
            bench.app.miss_rate,
            bench.fit_alpha,
            bench.fit_r2,
        ])
    header = ["app", "paper w", "paper f", "paper m40MB", "sim m40MB",
              "fit alpha", "fit r2"]
    print("Table 2: NPB parameters, paper vs trace-driven simulation")
    print(format_table(header, rows))
    return 0


def _cmd_schedule(args) -> int:
    rng = np.random.default_rng(args.seed)
    workload = generate(args.dataset, args.napps, rng)
    platform = get_preset(args.platform)
    schedule = get_scheduler(args.scheduler)(workload, platform, rng)
    print(schedule.describe())
    return 0


def _cmd_online(args) -> int:
    from .online import parse_arrival_spec, simulate_online

    source = parse_arrival_spec(args.arrivals)
    rng = np.random.default_rng(args.seed)
    workload = generate(args.dataset, args.napps, rng)
    platform = get_preset(args.platform)
    # One seeded stream drives workload, arrivals, faults, and any
    # randomized policy in sequence — the whole scenario replays from
    # --seed.
    arrivals = source.times(args.napps, rng)
    faulty = args.faults.strip().lower() not in ("", "none")
    if faulty:
        from .chaos import check_invariants, run_chaos

        result = run_chaos(workload, platform, arrivals,
                           faults=args.faults, policy=args.policy,
                           fault_rng=rng, rng=rng,
                           probe_interval=args.probe_interval)
    else:
        result = simulate_online(workload, platform, arrivals,
                                 policy=args.policy, rng=rng)
    print(f"{args.policy} on {platform.name}: {args.napps} apps, "
          f"arrivals {args.arrivals}"
          + (f", faults {args.faults}" if faulty else ""))
    rows = [
        [name, arr, fin, flow]
        for name, arr, fin, flow in zip(
            workload.names, result.arrival_times, result.finish_times,
            result.flow_times)
    ]
    print(format_table(["app", "arrival", "finish", "flow"], rows))
    print()
    print(f"makespan:  {result.makespan:.6g}")
    print(f"mean flow: {result.mean_flow:.6g}")
    print(f"max flow:  {result.max_flow:.6g}")
    print(f"events:    {result.events}")
    if faulty:
        report = check_invariants(result)
        print(f"goodput:   {result.goodput:.6g}")
        print(f"faults:    {result.crashes} crashes, "
              f"{result.preemptions} preemptions, "
              f"{result.dropped_faults} dropped, "
              f"lost work {result.lost_work:.6g}")
        print(f"pool:      {len(result.pool_timeline) - 1} churn events, "
              f"probe samples {len(result.probe)}")
        print("invariants: " + ("ok" if report.ok else "VIOLATED"))
        for line in report.failures:
            print(f"  {line}")
        return 0 if report.ok else 1
    return 0


def _cmd_validate(args) -> int:
    from .simulate import validate_schedule

    rng = np.random.default_rng(args.seed)
    workload = generate(args.dataset, args.napps, rng)
    platform = get_preset(args.platform)
    rows = []
    agree = True
    for name in sorted(scheduler_names()):
        schedule = get_scheduler(name)(workload, platform,
                                       np.random.default_rng(1))
        if not hasattr(schedule, "times") or not schedule.concurrent:
            continue
        report = validate_schedule(schedule)
        agree = agree and report.agrees
        rows.append([name, report.max_relative_error,
                     "ok" if report.agrees else "MISMATCH"])
    print("model vs discrete-event simulation (max relative error)")
    print(format_table(["strategy", "max rel err", "status"], rows, precision=2))
    return 0 if agree else 1


def _cmd_list(_args) -> int:
    print("schedulers:")
    # entries() is name-sorted already; sort again so the output stays
    # deterministic even if the registry's iteration contract changes.
    rows = [
        [e.name, "yes" if e.randomized else "no", e.provenance, e.description]
        for e in sorted(entries(), key=lambda e: e.name)
    ]
    print(format_table(["name", "randomized", "provenance", "description"], rows))
    print()
    print("figures:    " + ", ".join(figure_ids()))
    print("datasets:   " + ", ".join(DATASETS))
    print("platforms:  " + ", ".join(sorted(PRESETS)))
    return 0


def _cmd_serve(args) -> int:
    from .service import DecisionService
    from .service.aserver import serve_async

    def factory() -> DecisionService:
        # Each pre-forked worker builds its own service after the fork.
        return DecisionService(
            cache_capacity=args.cache_capacity,
            max_batch_size=args.max_batch,
            max_queue_depth=args.max_queue_depth,
            cache_dir=args.cache_dir,
        )

    serve_async(args.host, args.port, factory, workers=args.workers,
                announce=lambda msg: print(msg, file=sys.stderr, flush=True))
    return 0


def _cmd_request(args) -> int:
    import json as _json

    from .service.client import ServiceClient

    rng = np.random.default_rng(args.seed)
    workload = generate(args.dataset, args.napps, rng)
    client = ServiceClient(args.url)
    replies = [
        client.allocate(workload, args.platform,
                        scheduler=args.scheduler, seed=args.seed)
        for _ in range(max(1, args.repeat))
    ]
    reply = replies[0]
    if args.json:
        print(_json.dumps(reply, indent=2))
        return 0
    decision = reply["decision"]
    rows = [
        [name, p, x, t]
        for name, p, x, t in zip(decision["names"], decision["procs"],
                                 decision["cache"], decision["times"])
    ]
    print(f"{decision['scheduler']} on {args.platform}: "
          f"makespan={decision['makespan']:.6g}")
    print(format_table(["app", "procs", "cache x", "time"], rows))
    for i, r in enumerate(replies):
        source = "decision-cache hit" if r["cache_hit"] else (
            f"computed (batch of {r['batch_size']}"
            + (", coalesced)" if r["coalesced"] else ")"))
        print(f"request {i + 1}: {source}, {r['latency_ms']:.3f} ms "
              f"[{r['request_id'][:16]}]", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    from .lint import all_rules, lint_paths, render_json, render_text
    from .lint.config import profile_table

    if args.list_rules:
        rows = [[r.id, r.name, r.category, r.summary()] for r in all_rules()]
        print(format_table(["id", "name", "category", "checks for"], rows))
        print()
        for profile, ids in profile_table():
            print(f"profile {profile}: {', '.join(ids)}")
        return 0
    paths = args.paths or [Path("src"), Path("benchmarks")]
    try:
        report = lint_paths(paths, profile=args.profile)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(report))
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    from .cache import ALL_TIER_PATTERNS, ContentAddressedStore, resolve_cache_dir

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
              file=sys.stderr)
        return 2
    # One view over every tier sharing the directory: experiment
    # results (*.npz) and persisted service decisions (decisions/*.json).
    cache = ContentAddressedStore(cache_dir, patterns=ALL_TIER_PATTERNS)
    if args.cache_command == "info":
        entries_lru = cache.entries()
        print(f"{cache_dir}: {len(entries_lru)} entries, "
              f"{cache.size_bytes()} bytes")
        for pattern in ALL_TIER_PATTERNS:
            tier = ContentAddressedStore(cache_dir, patterns=(pattern,))
            tier_entries = tier.entries()
            print(f"  tier {pattern}: {len(tier_entries)} entries, "
                  f"{tier.size_bytes()} bytes")
        for path in entries_lru:
            try:
                size = path.stat().st_size
            except OSError:
                continue  # vanished under a concurrent prune
            name = path.relative_to(cache_dir)
            print(f"  {name}  {size} bytes")
        return 0
    report = cache.prune(args.max_bytes, dry_run=args.dry_run)
    if args.dry_run:
        print(f"would delete {len(report.deleted)} entries "
              f"(keeping {report.kept_bytes} bytes <= {args.max_bytes})")
        for path in report.deleted:
            print(f"  {path.name}")
        return 0
    print(f"deleted {len(report.deleted)} entries, freed {report.freed_bytes} "
          f"bytes; {report.kept_bytes} bytes kept (budget {args.max_bytes})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "figure": _cmd_figure,
        "table2": _cmd_table2,
        "schedule": _cmd_schedule,
        "online": _cmd_online,
        "validate": _cmd_validate,
        "list": _cmd_list,
        "serve": _cmd_serve,
        "request": _cmd_request,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
