"""Bound soundness: a *measured* cardinality profile is an upper bound.

DL021 / DL022 consume the analyzer's ``measured`` profiles as facts
about the fixpoint, so every one of them must dominate what :meth:`Relation.degree_profile` counts
there — in size and at every position.  Programs are analyzed with the
query stripped, so the raw rules (every head position needed) are what
is priced and the derived relations are directly comparable.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_program
from repro.datalog import Database, parse
from repro.datalog.ast import Program
from repro.engine import evaluate
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from .strategies import random_programs

FAMILIES = all_families()


def assert_measured_bounds_hold(program, db, context):
    raw = Program(program.rules)
    profiles = analyze_program(raw, db).sketches()
    result = evaluate(raw, db)
    for pred in sorted(raw.idb_predicates()):
        profile = profiles[pred]
        if not profile.measured:
            continue
        count, degrees = result.db.relation(pred).degree_profile()
        assert profile.size >= count, (
            f"{context}: {pred} holds {count} rows, bound {profile.size}"
        )
        for p, (bound, seen) in enumerate(zip(profile.degree, degrees)):
            assert bound >= seen, (
                f"{context}: {pred} position {p} has degree {seen}, "
                f"bound {bound}"
            )


def test_two_rule_union_adds():
    # the predicate holds the union of its rules' outputs: 8 + 8
    # disjoint rows sharing one Y is 16 rows of degree 16, not max(8, 8)
    program = parse("r(X, Y) :- a(X, Y).\nr(X, Y) :- b(X, Y).")
    db = Database.from_dict({
        "a": [(i, "y") for i in range(8)],
        "b": [(i, "y") for i in range(8, 16)],
    })
    profile = analyze_program(program, db).sketches()["r"]
    assert profile.measured
    assert profile.size >= 16 and profile.degree[1] >= 16
    assert_measured_bounds_hold(program, db, "two-rule union")


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rows,domain", [(14, 7), (30, 12)])
def test_measured_bounds_on_curated_families(name, seed, rows, domain):
    program = FAMILIES[name]
    db = random_edb(program, rows=rows, domain=domain, seed=seed)
    assert_measured_bounds_hold(program, db, f"{name}/seed={seed}/rows={rows}")


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_measured_bounds_on_random_programs(program, seed):
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    assert_measured_bounds_hold(program, db, f"random/seed={seed}")
