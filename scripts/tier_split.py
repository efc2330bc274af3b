#!/usr/bin/env python
"""Print which executor rung ran each firing of the benchmark workloads,
for diffing two source trees.

For every case of every ``BENCHMARK.json`` workload the case's program
is optimized and evaluated over its facts, as the benchmark's warm
request does; the ``serve_mixed`` update script is replayed in-process
on an ``IncrementalSession`` without a WAL, one line per batch after
the initial materialization.  Each line carries the tier counters
``kernel_launches``, ``columnar_fallbacks`` (firings the vector kernel
declined to the tuple kernel) and ``batch_rows`` (rows through the
vector kernel).  Inputs come from the benchmark's own seeded
generators (``benchmarks/e2e/inputs.py``, default seed) at full size,
or at the benchmark's smoke size with ``--smoke``.

Usage (from the repository root)::

    python scripts/tier_split.py > tree.txt
    python scripts/tier_split.py --src OTHER_CHECKOUT/src > other.txt
    diff other.txt tree.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("kernel_launches", "columnar_fallbacks", "batch_rows")


def split(stats) -> str:
    return " ".join(f"{name}={getattr(stats, name)}" for name in COUNTERS)


def query_cases(name: str, inputs, out) -> None:
    from repro.core.pipeline import optimize
    from repro.datalog import Database, parse
    from repro.datalog.parser import split_facts

    for case in inputs.cases:
        program, _ = split_facts(parse(case.program))
        _, facts = split_facts(parse(case.facts))
        stats = optimize(program).evaluate(Database.from_facts(facts)).stats
        out.write(f"{name} {case.name} {split(stats)}\n")


def session_script(name: str, inputs, out) -> None:
    from repro.datalog import Database, parse
    from repro.engine import IncrementalSession
    from serve import PROGRAM

    session = inputs.session
    live = IncrementalSession(
        parse(PROGRAM),
        Database.from_dict({"edge": [tuple(e) for e in session.edges]}),
    )
    out.write(f"{name} materialize {split(live.stats)}\n")
    for index, (kind, payload, _) in enumerate(session.script):
        if kind == "read":
            continue
        apply = live.insert if kind == "insert" else live.retract
        stats = apply({"edge": [tuple(e) for e in payload]})
        out.write(f"{name} {index} {kind} {split(stats)}\n")


def dump(out, smoke: bool) -> None:
    import catalog
    from inputs import GENERATORS

    for name, workload in catalog.WORKLOADS.items():
        params = workload.smoke if smoke else workload.params
        inputs = GENERATORS[name](catalog.DEFAULT_SEED, params)
        if inputs.session is not None:
            session_script(name, inputs, out)
        else:
            query_cases(name, inputs, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose repro package runs")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced workload sizes")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "benchmarks" / "e2e")]
    dump(sys.stdout, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
