#!/usr/bin/env python
"""Fit the frontier size below which the vector kernel loses to the
tuple kernel.

The workload is right-linear TC over disjoint 16-node cycles: with n
edges every delta round fires one launch over a frontier of exactly n
rows, for 16 rounds, whatever n is.  For each n a warm ``evaluate`` is
timed twice, alternating in-process: once with every firing on the
vector kernel (``batch_kernel.CROSSOVER_ROWS`` patched to 0) and once
with ``use_columnar=False`` (every firing on the tuple kernel).  A
sample is the median over rounds of the time per kernel launch.  A line
``a + b·n`` is fitted to each kernel's samples by least squares, and
the crossover is where the lines meet::

    n* = (a_vec − a_tup) / (b_tup − b_vec)

Both sides run the same scheduler, the same naive first round and the
same number of launches, so what they share cancels in both
differences.  The printed ``n*`` is where ``CROSSOVER_ROWS`` comes
from; EXPERIMENTS.md records the fit it was taken from.

Usage (from the repository root)::

    python scripts/crossover.py                 # sizes 16..1024, 7 rounds
    python scripts/crossover.py --smoke         # small sizes, 1 round
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog import Database  # noqa: E402
from repro.datalog.columnar import numpy_available  # noqa: E402
from repro.engine import EngineOptions, batch_kernel, evaluate  # noqa: E402
from repro.workloads.families import right_linear_tc  # noqa: E402

CYCLE = 16
SIZES = (16, 32, 64, 128, 256, 512, 1024)
SMOKE_SIZES = (16, 32, 64)
#: evaluations per sample, spread over sizes so each sample does about
#: as many launches' worth of rows as the next
ROWS_PER_SAMPLE = 4096


def cycles(n: int) -> Database:
    """n edges: n // CYCLE disjoint cycles of CYCLE nodes."""
    return Database.from_dict({
        "edge": [(i, i - i % CYCLE + (i + 1) % CYCLE) for i in range(n)]
    })


def per_launch(program, db, options, reps: int) -> float:
    """Seconds per kernel launch over *reps* warm evaluations."""
    start = time.perf_counter()
    for _ in range(reps):
        stats = evaluate(program, db, options).stats
    return (time.perf_counter() - start) / (reps * stats.kernel_launches)


def fit(points):
    """Least-squares (a, b) of ``a + b·n`` through (n, t) *points*."""
    ns = [n for n, _ in points]
    ts = [t for _, t in points]
    mean_n, mean_t = statistics.fmean(ns), statistics.fmean(ts)
    b = sum((n - mean_n) * (t - mean_t) for n, t in points) / sum(
        (n - mean_n) ** 2 for n in ns
    )
    return mean_t - b * mean_n, b


def measure(sizes, rounds: int):
    """{n: (vector µs, tuple µs)} per launch, medians over *rounds*."""
    program = right_linear_tc()
    sides = (EngineOptions(), EngineOptions(use_columnar=False))
    dbs = {n: cycles(n) for n in sizes}
    samples = {n: ([], []) for n in sizes}
    # the vector side takes every firing; the tuple side never asks
    saved, batch_kernel.CROSSOVER_ROWS = batch_kernel.CROSSOVER_ROWS, 0
    try:
        for db in dbs.values():  # unmeasured: compile, lay out images
            for options in sides:
                evaluate(program, db, options)
        for r in range(rounds):
            for n, db in dbs.items():
                reps = max(1, ROWS_PER_SAMPLE // n)
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    samples[n][side].append(per_launch(program, db, sides[side], reps))
    finally:
        batch_kernel.CROSSOVER_ROWS = saved
    return {
        n: tuple(statistics.median(s) * 1e6 for s in pair)
        for n, pair in samples.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="sizes 16, 32, 64 and one round (checks only that it runs)")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if not numpy_available():
        sys.exit("crossover.py: numpy is not installed, so both sides would run the tuple kernel")
    sizes = SMOKE_SIZES if args.smoke else SIZES
    rounds = 1 if args.smoke else args.rounds
    table = measure(sizes, rounds)
    print(f"{'n':>6} {'vector µs':>10} {'tuple µs':>10}")
    for n, (vec, tup) in table.items():
        print(f"{n:>6} {vec:>10.1f} {tup:>10.1f}")
    a_vec, b_vec = fit([(n, v) for n, (v, _) in table.items()])
    a_tup, b_tup = fit([(n, t) for n, (_, t) in table.items()])
    print(f"vector: {a_vec:.1f} + {b_vec:.4f}·n µs")
    print(f"tuple:  {a_tup:.1f} + {b_tup:.4f}·n µs")
    if b_tup > b_vec:
        print(f"n* = {(a_vec - a_tup) / (b_tup - b_vec):.0f}")
    else:
        print("n* = none (the vector line is no flatter than the tuple line)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
