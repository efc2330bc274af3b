#!/usr/bin/env python
"""Print how much work ``optimize`` does per program, for diffing two
source trees.

For every ``rules_wide`` program of the end-to-end benchmark (built by
``benchmarks/e2e/inputs.py`` from the default seed, at full size, or at
the benchmark's smoke size with ``--smoke``) and every program family
of ``repro.workloads.families``, the program is optimized once from a
cleared prepared-program cache and one line is printed:

- ``sha1``: of ``optimize(p).report_dict()`` as sorted-key JSON, so the
  optimizer's output can be compared between trees;
- ``passes``: ``delete_rules`` passes (one per restart, counted as
  calls of ``query_rooted_summaries`` in ``repro.core.deletion``);
- ``chases``: frozen-body chases (calls of ``frozen_chase`` and of
  ``FrozenChase.derives`` in ``repro.core.uniform_equivalence``, one per
  chase; the deletion passes chase through ``derives``, which freezes
  the rule into a database only when some rule can fire);
- ``runs``: chases that ran the engine (calls of ``run_prepared`` made
  by ``repro.core.uniform_equivalence``); a chase in which no rule can
  fire returns its frozen body without one;
- ``misses``: prepared-program cache misses;
- ``compiles``: ``compile_rule`` calls made by ``prepare``;
- ``closures``: ``summary_closure`` calls made by ``repro.core.deletion``.

A last ``total`` line sums the counters.  Counting goes through
wrappers installed here, so the package itself carries no counters.
The script re-runs itself under ``PYTHONHASHSEED=0``: the Example-6
chase stops at the first failing summary of a set, so how many chases
run depends on set iteration order.

Usage (from the repository root)::

    python scripts/optimizer_work.py > tree.txt
    python scripts/optimizer_work.py --src OTHER_CHECKOUT/src > other.txt
    diff other.txt tree.txt
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (column, module, attribute) — calls of module.attribute are counted;
#: the attribute may name a method (``Class.method``)
WRAPPED = (
    ("passes", "repro.core.deletion", "query_rooted_summaries"),
    ("chases", "repro.core.uniform_equivalence", "frozen_chase"),
    ("chases", "repro.core.uniform_equivalence", "FrozenChase.derives"),
    ("runs", "repro.core.uniform_equivalence", "run_prepared"),
    ("compiles", "repro.engine.prepared", "compile_rule"),
    ("closures", "repro.core.deletion", "summary_closure"),
)
COLUMNS = ("passes", "chases", "runs", "misses", "compiles", "closures")


def install_counters() -> dict:
    counts = dict.fromkeys(COLUMNS, 0)
    for column, module_name, path in WRAPPED:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for attribute in outer:
            owner = getattr(owner, attribute)
        original = getattr(owner, name)

        def counted(*args, _column=column, _original=original, **kwargs):
            counts[_column] += 1
            return _original(*args, **kwargs)

        setattr(owner, name, counted)
    return counts


def programs(smoke: bool):
    import catalog
    from inputs import GENERATORS

    from repro.datalog import parse
    from repro.datalog.parser import split_facts
    from repro.workloads.families import all_families

    workload = catalog.WORKLOADS["rules_wide"]
    params = workload.smoke if smoke else workload.params
    for case in GENERATORS["rules_wide"](catalog.DEFAULT_SEED, params).cases:
        yield "rules_wide", case.name, split_facts(parse(case.program))[0]
    for name, program in sorted(all_families().items()):
        yield "family", name, program


def dump(out, smoke: bool) -> None:
    from repro.core.pipeline import optimize
    from repro.engine import clear_prepared_cache, prepared_cache_stats

    counts = install_counters()
    total = dict.fromkeys(COLUMNS, 0)
    for group, name, program in programs(smoke):
        clear_prepared_cache()
        for column in COLUMNS:
            counts[column] = 0
        report = optimize(program).report_dict()
        counts["misses"] = prepared_cache_stats()["misses"]
        digest = hashlib.sha1(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
        for column in COLUMNS:
            total[column] += counts[column]
        fields = " ".join(f"{c}={counts[c]}" for c in COLUMNS)
        out.write(f"{group} {name} sha1={digest} {fields}\n")
    out.write("total " + " ".join(f"{c}={total[c]}" for c in COLUMNS) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose repro package runs")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced workload sizes")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [args.src, str(ROOT / "benchmarks" / "e2e")]
    dump(sys.stdout, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
