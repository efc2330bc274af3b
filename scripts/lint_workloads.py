#!/usr/bin/env python
"""Gate: every workload family and paper example is static-analysis clean.

Two passes over each generated program:

- :func:`repro.analysis.lint_program` (``repro lint``): no errors —
  or, under strict promotion, warnings.  Infos are expected: they are
  the optimizer narrating what it will do (existential positions,
  boolean subqueries, the monadic rewrite).
- :func:`repro.analysis.analyze_program` (``repro analyze``): the
  abstract-interpretation domains must raise **no** DL018–DL024
  diagnostic at all, infos included — once with no EDB (assumed
  cardinalities) and once over a seeded random EDB, so the *measured*
  cardinality domain (DL021 / DL022) is gated too.  The workloads are
  the repo's measurement corpus; a sort conflict, bound blowup, or
  base-case-less recursion in one of them is a generator bug, not
  narration.

``--analyze-only`` skips the lint pass (the Makefile's ``analyze``
target runs it so ``make analyze`` exercises just the new framework).

``--digest`` gates nothing: for each gate program it prints one line
with the sha1 of ``lint_program(...).render_json()``, then of
``analyze_program(...).render_json()`` with no EDB and with the seeded
EDB, so the analyzer's output can be diffed between two source trees
(``--src`` picks the tree whose ``repro`` package runs)::

    python scripts/lint_workloads.py --digest > tree.txt
    python scripts/lint_workloads.py --digest --src OTHER_CHECKOUT/src > other.txt
    diff other.txt tree.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the abstract-interpretation codes the analyzer gate forbids outright
ABSINT_CODES = frozenset(f"DL{i:03d}" for i in range(18, 25))


def gate_programs() -> dict:
    from repro.workloads import paper_examples
    from repro.workloads.families import all_families

    programs = dict(all_families())
    programs["paper_example1"] = paper_examples.example1_program()
    programs["paper_example2"] = paper_examples.example2_program()
    programs["paper_example5"] = paper_examples.example5_program()
    return programs


def measured_edb(program):
    from repro.workloads.edb import random_edb

    return random_edb(program, rows=30, domain=12, seed=0)


def digest(programs: dict) -> None:
    from repro.analysis import analyze_program, lint_program

    def sha1(text: str) -> str:
        return hashlib.sha1(text.encode()).hexdigest()

    for name, program in sorted(programs.items()):
        lint = sha1(lint_program(program, source=name).render_json())
        assumed, measured = (
            sha1(analyze_program(program, db, source=name).render_json())
            for db in (None, measured_edb(program))
        )
        print(f"{name} lint={lint} assumed={assumed} measured={measured}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--analyze-only", action="store_true",
                        help="skip the lint pass")
    parser.add_argument("--digest", action="store_true",
                        help="print output digests per program, gate nothing")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose repro package runs")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from repro.analysis import analyze_program, lint_program

    programs = gate_programs()
    if args.digest:
        digest(programs)
        return 0
    failed = 0
    for name, program in sorted(programs.items()):
        if not args.analyze_only:
            report = lint_program(program, source=name)
            if report.exit_code(strict=True) != 0:
                failed += 1
                print(f"-- {name}: NOT strict-clean")
                print(report.render_text())
        for mode, db in (("assumed", None), ("measured", measured_edb(program))):
            result = analyze_program(program, db, source=name)
            flagged = [
                d for d in result.report.diagnostics if d.code in ABSINT_CODES
            ]
            if flagged:
                failed += 1
                print(f"-- {name}: abstract interpretation ({mode}) NOT clean")
                for diag in flagged:
                    print(f"   {diag.code} {diag.predicate}: {diag.message}")
    passes = "analyze" if args.analyze_only else "lint+analyze"
    print(f"checked {len(programs)} programs ({passes}), {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
