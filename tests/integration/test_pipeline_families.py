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
