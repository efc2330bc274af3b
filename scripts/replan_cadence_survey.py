#!/usr/bin/env python
"""Does the replan cadence ever change a plan?  (EXPERIMENTS.md, planner
ablation.)

Evaluates 580 (program, EDB) pairs — the 15 ``all_families()`` x 4 seeds
x 3 EDB sizes, and the 200 fixed ``random_programs()`` x 2 sizes — under
``replan_rounds`` 0 (never), 4 (the default) and 1 (every round), and
reports on how many pairs the cadence moved ``join_work``.  Answers and
fact counts never move (the planner oracle pins that); this counts the
only thing a replan can buy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.engine import EngineOptions, evaluate  # noqa: E402
from repro.workloads.edb import random_edb  # noqa: E402
from repro.workloads.families import all_families  # noqa: E402
from tests.property.strategies import random_programs  # noqa: E402


def pairs():
    for name, program in sorted(all_families().items()):
        for seed in range(4):
            for rows, domain in ((14, 7), (30, 12), (60, 20)):
                yield program, random_edb(program, rows=rows, domain=domain, seed=seed)
    programs = []

    @given(random_programs())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    def collect(program):
        programs.append(program)

    collect()
    for i, program in enumerate(programs):
        for rows, domain in ((10, 5), (30, 10)):
            yield program, random_edb(program, rows=rows, domain=domain, seed=i % 4)


def main() -> int:
    total = 0
    moved = {4: [], 1: []}
    for program, db in pairs():
        total += 1
        work = {
            every: evaluate(program, db, EngineOptions(replan_rounds=every)).stats.join_work
            for every in (0, 4, 1)
        }
        for every in moved:
            if work[every] != work[0]:
                moved[every].append(work[every] / work[0])
    for every, ratios in moved.items():
        spread = f" (x{min(ratios):.2f}..x{max(ratios):.2f})" if ratios else ""
        print(f"replan_rounds={every}: join_work moved on {len(ratios)} of {total} pairs{spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
