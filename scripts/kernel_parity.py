#!/usr/bin/env python
"""Dump every generated tuple-kernel source and the vector kernel's
admitted plans over a fixed corpus, for diffing two source trees.

The corpus is the 15 ``all_families()`` programs, the 18 ``rules_wide``
benchmark programs and the 200 derandomized ``random_programs()``, each
as written and after ``optimize``.  Each program is prepared over a
small ``random_edb`` under both planners (greedy and cost-based), and
every compiled rule contributes ``kernel_source`` for each
``(plan, use_indexes, record_rows)`` and one line saying whether
``vector_rule_kernel`` admits each plan (the naive one included).

Usage (from the repository root)::

    python scripts/kernel_parity.py > tree.txt
    python scripts/kernel_parity.py --src OTHER_CHECKOUT/src > other.txt
    diff other.txt tree.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def corpus():
    from hypothesis import HealthCheck, given, settings

    from repro.workloads import families as fam
    from repro.workloads import paper_examples as pe
    from tests.property.strategies import random_programs

    programs = dict(sorted(fam.all_families().items()))
    for k in (8, 16, 24, 32):
        programs[f"wide:boolean_chain{k}"] = fam.boolean_chain(k)
    for k in (3, 4, 5, 6, 7, 8):
        programs[f"wide:sibling_components{k}"] = fam.sibling_components(k)
    for c in (1, 2, 3):
        programs[f"wide:payload{c}"] = fam.reachability_with_payload(c)
    for name in ("example1_program", "example2_program", "example5_program",
                 "example12_original", "example12_transformed"):
        programs[f"wide:{name}"] = getattr(pe, name)()

    drawn = []

    @given(random_programs())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    def collect(program):
        drawn.append(program)

    collect()
    for i, program in enumerate(drawn):
        programs[f"random{i}"] = program
    return programs


def dump(out) -> None:
    from repro.core.pipeline import optimize
    from repro.engine import kernel_source
    from repro.engine.batch_kernel import vector_rule_kernel
    from repro.engine.prepared import planning_inputs, prepare
    from repro.workloads.edb import random_edb

    for name, program in corpus().items():
        variants = [("as-written", program)]
        try:
            variants.append(("optimized", optimize(program).program))
        except Exception as exc:  # the dump records, never stops
            out.write(f"## {name} optimize: {type(exc).__name__}\n")
        for label, prog in variants:
            db = random_edb(prog, rows=10, domain=5, seed=0)
            for planner in (False, True):
                sizes, model = planning_inputs(prog, db, planner)
                prepared = prepare(prog, sizes, cost_model=model, use_cache=False)
                for cr in prepared.compiled:
                    head = f"## {name} {label} cost={planner} rule={cr.rule_index}"
                    plan_ids = [None, *range(len(cr.relational_body))]
                    for plan_id in plan_ids:
                        for use_indexes in (True, False):
                            for record_rows in (False, True):
                                out.write(
                                    f"{head} plan={plan_id} use_indexes={use_indexes} "
                                    f"record_rows={record_rows}\n"
                                )
                                out.write(kernel_source(
                                    cr, plan_id, use_indexes=use_indexes,
                                    record_rows=record_rows,
                                ))
                    admitted = [
                        plan_id for plan_id in plan_ids
                        if vector_rule_kernel(cr, plan_id) is not None
                    ]
                    out.write(f"{head} vector-admitted={admitted}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose repro package is dumped")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT)]
    dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
