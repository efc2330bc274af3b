"""The pipeline over every workload family: equivalence + never-worse.

This is the broad-coverage complement to the per-example tests: every
structural family the paper's optimizations interact with goes through
the full pipeline, and the result must (a) compute the same projected
answers as the original on batches of random databases, and (b) never
do more total derivation work.
"""

import pytest

from repro.engine import evaluate
from repro.core.pipeline import optimize
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

FAMILIES = all_families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pipeline_equivalence(name):
    program = FAMILIES[name]
    result = optimize(program)
    for seed in range(4):
        db = random_edb(program, rows=18, domain=8, seed=seed)
        assert result.answers(db) == result.reference_answers(db), (name, seed)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pipeline_never_more_work(name):
    program = FAMILIES[name]
    result = optimize(program)
    db = random_edb(program, rows=30, domain=10, seed=9)
    original = evaluate(program, db).stats
    optimized = result.evaluate(db).stats
    assert optimized.derivations <= original.derivations, name
    assert optimized.rule_firings <= original.rule_firings, name


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_final_program_is_valid(name):
    result = optimize(FAMILIES[name])
    result.program.validate()


def test_family_catalog_is_well_formed():
    for name, program in FAMILIES.items():
        program.validate()
        assert program.query is not None, name


#: facts the optimized program may derive on the benchmark's own inputs
#: (default seed, full size): the monadic programs of Theorem 3.3 —
#: reached nodes plus tagged answers on exist_reach, the answers plus
#: one boolean on guarded_items
BENCHMARK_FACT_BOUNDS = {("exist_reach", "exist_reach"): 1306,
                         ("family_mix", "guarded_items"): 801}


def test_monadic_chains_on_the_benchmark_inputs():
    import importlib
    import os
    import sys

    from repro.datalog import Database, parse
    from repro.datalog.parser import split_facts

    e2e = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e")
    if not os.path.isdir(e2e):
        pytest.skip("benchmarks/e2e not present")
    sys.path.insert(0, e2e)
    try:
        catalog = importlib.import_module("catalog")
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(e2e)
    for (workload, name), bound in BENCHMARK_FACT_BOUNDS.items():
        cases = inputs.GENERATORS[workload](catalog.DEFAULT_SEED,
                                            catalog.WORKLOADS[workload].params).cases
        (case,) = [c for c in cases if c.name == name]
        program, _ = split_facts(parse(case.program))
        _, facts = split_facts(parse(case.facts))
        result = optimize(program)
        evaluation = result.evaluate(Database.from_facts(facts))
        assert evaluation.stats.facts_derived <= bound, name
        answers = result.answers_of(evaluation)
        assert frozenset(map(inputs.line, answers)) == case.reference, name
