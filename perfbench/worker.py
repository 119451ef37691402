"""Benchmark worker: one fresh interpreter running one workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports the
program, builds the workload's inputs from the seed, notes the moment
it is ready for the first timed operation (``ready_mono``, on the
system-wide monotonic clock the parent also reads), then measures,
checks outputs and prints one JSON object as its last stdout line.

Right after set-up, before anything else runs, every start probes the
machine's speed (``setup_probe_s``) so that ``run.py`` can scale that
start's own set-up time.  ``--setup-only`` stops there: ``run.py``
starts a few of those to take the median set-up time.  ``--trace 1`` splits the time
budget into an untraced pass and a traced pass and reports per-layer
spans plus the tracing overhead between the two.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

WORKLOADS = ("figure-sweep", "chaos-replay", "serve-mixed", "serve-burst")
#: Speed probes per CPU taken right after set-up (about 20 ms per CPU).
SETUP_PROBES_PER_CPU = 20


def _workload_class(name: str):
    """Import the workload's module (and with it the layers it drives)."""
    if name == "figure-sweep":
        from sweep import SweepWorkload
        return SweepWorkload
    if name == "chaos-replay":
        from chaos_replay import ChaosWorkload
        return ChaosWorkload
    from serve import ServeWorkload
    return ServeWorkload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import repro  # noqa: F401  (timed: the program's own import cost)
    workload_class = _workload_class(args.workload)
    import_s = perf_counter() - t0
    import tracer as tracing
    from stats import probe_every_cpu

    out: dict = {
        "import_s": import_s,
        "versions": {name: metadata.version(name) for name in ("numpy", "scipy")},
    }
    # The constructor is the workload's whole set-up: inputs from the
    # seed and, for the serve workloads, a started and warmed server.
    workload = workload_class(args.workload, args.seed, args.seconds, args.workdir)
    try:
        out["ready_mono"] = time.monotonic()
        out["setup_probe_s"] = probe_every_cpu(SETUP_PROBES_PER_CPU)
        if not args.setup_only:
            if args.trace:
                out["measure"] = workload.measure(args.seconds / 2)
                out["layers"] = workload.traced(tracing.Tracer(), args.seconds / 2,
                                                out["measure"])
            else:
                out["measure"] = workload.measure(args.seconds)
            out["checked"], out["failures"] = workload.check()
    finally:
        out["peak_rss_mb"] = workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
