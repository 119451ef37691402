#!/usr/bin/env python
"""One SHA-256 per paper figure, to check that figures stay byte-identical.

Regenerates all 18 figures at 2 repetitions with the result cache off,
for each seed given, and prints one line per (seed, figure): the seed,
the figure id and the SHA-256 of its raw samples (the sweep points and
every scheduler's metric arrays, as float64 bytes, in a fixed order).
Two runs whose outputs match computed every figure bit for bit alike.

Usage::

    PYTHONPATH=src python benchmarks/figure_digests.py 1 5 77 > digests.txt
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from repro.experiments import run_experiment
from repro.experiments.figures import build_figure, figure_ids

#: Repetitions per figure: enough for every randomized series to vary.
REPS = 2


def figure_digest(figure_id: str, seed: int) -> str:
    """SHA-256 of one figure's raw samples at :data:`REPS` repetitions."""
    result = run_experiment(build_figure(figure_id, reps=REPS, seed=seed),
                            use_cache=False)
    digest = hashlib.sha256(np.ascontiguousarray(result.x, dtype=np.float64).tobytes())
    for scheduler in sorted(result.data):
        for metric in sorted(result.data[scheduler]):
            digest.update(f"{scheduler}/{metric}".encode())
            digest.update(np.ascontiguousarray(
                result.data[scheduler][metric], dtype=np.float64).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="figure seeds")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for figure_id in figure_ids():
            print(seed, figure_id, figure_digest(figure_id, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
