"""Pipeline differential testing over arbitrary random Datalog programs.

The chain-program generator in test_optimizer_properties covers the
grammar-shaped space; this module generates *unrestricted* safe Datalog
— mixed arities, shared variables, multiple derived predicates, random
recursion — and requires the full pipeline to preserve the projected
query answer on random databases.  This is the broadest soundness net
in the suite: any unsound adornment, projection, subsumption or
deletion shows up here as a falsifying program.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import optimize
from repro.datalog import parse
from repro.engine import evaluate
from repro.workloads.edb import random_edb

from .strategies import random_programs


@given(random_programs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=120, deadline=None)
def test_pipeline_preserves_answers_on_random_programs(program, seed):
    program.validate()
    result = optimize(program)
    db = random_edb(program, rows=10, domain=5, seed=seed)
    assert result.answers(db) == result.reference_answers(db)


def _assert_work_bound(program, seed):
    from repro.core.adornment import split_adorned

    result = optimize(program)
    db = random_edb(program, rows=12, domain=6, seed=seed)
    original = evaluate(program, db).stats
    optimized = result.evaluate(db).stats

    versions: dict[str, set[str]] = {}
    for pred in result.program.idb_predicates():
        base, ad = split_adorned(pred)
        versions.setdefault(base, set()).add(pred)
    factor = max((len(v) for v in versions.values()), default=1)
    slack = 4 * len(result.program.rules) + 4
    assert optimized.derivations <= factor * original.derivations + slack


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_pipeline_work_bound_on_random_programs(program, seed):
    """The structural work bound on *adversarial* programs.

    The paper's "at least as well" claim holds on its examples and on
    the curated families (asserted in tests/integration and the bench
    suite); on arbitrary programs, adornment can fork a predicate into
    several query forms, and when none of them is deletable, inlinable
    or unfoldable the optimized program computes each surviving form
    once.  The principled bound is therefore (number of surviving
    adorned versions of any base predicate) × the original work, plus
    slack for arity-0 boolean guards.  See EXPERIMENTS.md "Known
    deviations".
    """
    _assert_work_bound(program, seed)


def test_work_bound_falsifier_redundant_literal_pair():
    """The work bound above where unfolding the duplicated r literal
    leaves the redundant pair f(_U2), e(_U2, X) beside f(_U3), e(_U3, X):
    only reducing the body to its core removes it (with the pair, 32
    derivations against a bound of 25)."""
    program = parse(
        "q(X, X) :- r(X, X), r(X, X), e(X, Y).\n"
        "r(X, X) :- f(Y), e(Y, X).\n"
        "?- q(QX, _)."
    )
    _assert_work_bound(program, 0)


@given(random_programs())
@settings(max_examples=80, deadline=None)
def test_final_programs_validate(program):
    optimize(program).program.validate()


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_topdown_oracle_on_random_programs(program, seed):
    """Bottom-up vs tabled top-down on the same random programs."""
    from repro.engine.topdown import evaluate_topdown

    db = random_edb(program, rows=10, domain=5, seed=seed)
    td = evaluate_topdown(program, db)
    assert td.answers == evaluate(program, db).answers()
