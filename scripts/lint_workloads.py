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
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import analyze_program, lint_program  # noqa: E402
from repro.workloads import paper_examples  # noqa: E402
from repro.workloads.edb import random_edb  # noqa: E402
from repro.workloads.families import all_families  # noqa: E402

#: the abstract-interpretation codes the analyzer gate forbids outright
ABSINT_CODES = frozenset(f"DL{i:03d}" for i in range(18, 25))


def gate_programs() -> dict:
    programs = dict(all_families())
    programs["paper_example1"] = paper_examples.example1_program()
    programs["paper_example2"] = paper_examples.example2_program()
    programs["paper_example5"] = paper_examples.example5_program()
    return programs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    analyze_only = "--analyze-only" in argv
    programs = gate_programs()
    failed = 0
    for name, program in sorted(programs.items()):
        if not analyze_only:
            report = lint_program(program, source=name)
            if report.exit_code(strict=True) != 0:
                failed += 1
                print(f"-- {name}: NOT strict-clean")
                print(report.render_text())
        measured_edb = random_edb(program, rows=30, domain=12, seed=0)
        for mode, db in (("assumed", None), ("measured", measured_edb)):
            result = analyze_program(program, db, source=name)
            flagged = [
                d for d in result.report.diagnostics if d.code in ABSINT_CODES
            ]
            if flagged:
                failed += 1
                print(f"-- {name}: abstract interpretation ({mode}) NOT clean")
                for diag in flagged:
                    print(f"   {diag.code} {diag.predicate}: {diag.message}")
    passes = "analyze" if analyze_only else "lint+analyze"
    print(f"checked {len(programs)} programs ({passes}), {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
