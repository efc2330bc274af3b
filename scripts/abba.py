#!/usr/bin/env python
"""Alternate the end-to-end benchmark between a parent tree and this one.

Each pair runs ``benchmarks/e2e/run.py --workload W`` once from
PARENT_TREE and once from the working tree, flipping which side goes
first from one pair to the next (ABBA), so drift over the session
lands on both sides alike.  For every end-to-end metric
``BENCHMARK.json`` declares, it prints each pair, both medians, the
parent's quartiles and the pairs the working tree won (lower or higher,
as the metric says is better).  It only reads the benchmark: nothing
under ``benchmarks/e2e/`` is changed, and each run's result file goes
to a temporary directory.

Usage (from the repository root; PARENT_TREE is a checkout of the
commit to compare against, e.g. a ``git clone`` of it)::

    python scripts/abba.py PARENT_TREE --workload tc_cycle --pairs 10
    python scripts/abba.py PARENT_TREE                 # all five, 10 pairs
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark() -> dict:
    """``BENCHMARK.json``: its workloads and end-to-end metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(tree: Path, workload: str, out: Path) -> dict:
    """One benchmark run of *workload* from *tree*: its result dict."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--out", str(out)]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        (result,) = json.load(f)["results"]
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per metric of *metrics* (``BENCHMARK.json`` entries) present in
    the runs: both medians, the parent's quartiles, the relative
    change of the median, and the pairs the tree won, from *pairs* of
    ``(parent result, tree result)`` dicts as ``run.py`` writes them."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in p["metrics"] and name in t["metrics"] for p, t in pairs):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        tree = [t["metrics"][name]["value"] for _, t in pairs]
        lower = metric["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, tree))
        before, after = statistics.median(parent), statistics.median(tree)
        rows.append({
            "name": name, "unit": metric["unit"], "bound": metric["bound"],
            "parent": before, "tree": after, "quartiles": quartiles(parent),
            "change": (after - before) / before if before else 0.0,
            "wins": wins, "pairs": len(pairs),
            "failed": sum(p["failed"] + t["failed"] for p, t in pairs),
        })
    return rows


def format_row(workload: str, row: dict) -> str:
    q1, q3 = row["quartiles"]
    return (f"{workload} {row['name']}: parent {row['parent']:.4g} "
            f"[{q1:.4g}–{q3:.4g}] tree {row['tree']:.4g} {row['unit']} "
            f"({row['change']:+.1%}, bound {row['bound']:.0%}) "
            f"wins {row['wins']}/{row['pairs']}"
            + (f" FAILED OPERATIONS {row['failed']}" if row["failed"] else ""))


def main(argv=None) -> int:
    spec = benchmark()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "tree": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
                got = {side: run_once(sides[side], workload, Path(tmp) / f"{side}.json")
                       for side in order}
                pairs.append((got["parent"], got["tree"]))
                print(f"{workload} pair {i + 1} ({order[0]} first): " + "  ".join(
                    f"{m['name']} {got['parent']['metrics'][m['name']]['value']:.4g}"
                    f"/{got['tree']['metrics'][m['name']]['value']:.4g}"
                    for m in metrics
                    if all(m["name"] in r["metrics"] for r in got.values())),
                    flush=True)
            for row in summarize(pairs, metrics):
                print(format_row(workload, row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
