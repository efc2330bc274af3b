"""Shared helpers for the test suite.

The workhorse is :func:`assert_query_equivalent`: evaluate two programs
over a batch of random databases and require identical query answers.
Most suites inline their own variant (they compare through adorned
programs, optimization results, or projected answers); this generic
form is the one to reach for when adding new transformation tests.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples: a property that fails, fails
every time, and one that passes cannot be failed by a fresh draw.
"""

from __future__ import annotations

from hypothesis import settings

from repro.datalog import Database, Program
from repro.engine import EngineOptions, evaluate
from repro.workloads.edb import random_edb

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def answers_on(program: Program, db: Database, **options) -> frozenset:
    """Evaluate and return the query answers (keyword engine options)."""
    return evaluate(program, db, EngineOptions(**options)).answers()


def assert_query_equivalent(
    p1: Program,
    p2: Program,
    seeds=range(5),
    rows: int = 25,
    domain: int = 10,
    options2: EngineOptions | None = None,
    project_left=None,
):
    """Require p1 and p2 to compute the same query answers on a batch
    of random EDBs (schema taken from the union of both programs).

    *project_left* optionally maps p1's answer tuples before comparison
    (used when p2 answers a projected version of p1's query).
    """
    merged = Program(p1.rules + p2.rules)  # schema source only
    for seed in seeds:
        db = random_edb(merged, rows=rows, domain=domain, seed=seed)
        a1 = evaluate(p1, db).answers()
        if project_left is not None:
            a1 = frozenset(project_left(t) for t in a1)
        a2 = evaluate(p2, db, options2 or EngineOptions()).answers()
        assert a1 == a2, (
            f"answer mismatch on seed {seed}:\n"
            f"  p1 extra: {sorted(a1 - a2)[:5]}\n"
            f"  p2 extra: {sorted(a2 - a1)[:5]}"
        )
