"""Differential oracle for the SCC scheduler vs the monolithic loop.

The scheduler (`use_scc=True`, the default) and the monolithic
per-stratum fixpoint (`use_scc=False`, the CLI's ``--no-scc``) must
reach the same least fixpoint: identical answers, identical per-
predicate fact counts, and provenance covering exactly the same derived
facts.  The comparison runs over every engine combination (compiled
kernels and the interpreter, hash indexes and full scans) on the
curated families and on 200 fixed random programs.

Provenance *justifications* are compared by key set and per-fact
soundness, not bit-for-bit: which rule first derives a fact is a
schedule artifact (the monolithic loop interleaves all rules per round,
the scheduler completes lower units first), so the recorded witness may
legitimately differ while both remain valid derivations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineOptions, evaluate
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from ..property.strategies import random_programs

FAMILIES = all_families()

#: kernel/interpreter x index/scan — the scheduler must agree with the
#: monolithic loop under every engine combination, not just the default
ENGINE_COMBOS = {
    "kernel-indexed": {},
    "interp-indexed": {"use_kernels": False},
    "kernel-scan": {"use_indexes": False},
    "interp-scan": {"use_kernels": False, "use_indexes": False},
}


def assert_scheduler_agrees(program, db, **combo):
    """Full-state agreement between the scheduled and monolithic engines."""
    scheduled = evaluate(
        program, db, EngineOptions(record_provenance=True, **combo)
    )
    monolithic = evaluate(
        program, db, EngineOptions(record_provenance=True, use_scc=False, **combo)
    )
    assert scheduled.answers() == monolithic.answers()
    assert scheduled.stats.fact_counts == monolithic.stats.fact_counts
    # same derived facts justified (first-witness bodies may differ)
    assert set(scheduled.provenance) == set(monolithic.provenance)
    for (predicate, row) in scheduled.provenance:
        # soundness of the scheduler's recorded witnesses: each one
        # expands to a derivation tree grounded in the database
        tree = scheduled.derivation(predicate, row)
        assert tree.predicate == predicate and tree.row == row
    return scheduled, monolithic


@pytest.mark.parametrize("combo", sorted(ENGINE_COMBOS))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scheduler_vs_monolithic_on_families(name, combo):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=1)
    assert_scheduler_agrees(program, db, **ENGINE_COMBOS[combo])


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scheduler_vs_monolithic_on_random_programs(program, seed):
    """200 fixed random programs: any unit built from a wrong SCC, a
    depth ordering that runs a consumer before its producer, or an
    early exit that fires too soon diverges from the monolithic loop."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    assert_scheduler_agrees(program, db)


#: ``use_scc=False`` work counters on the families (rows=14, domain=7,
#: seed=1), recorded from the engine before the monolithic loop became
#: the unit driver over one all-heads unit per stratum: (iterations,
#: facts_derived, duplicates, rule_firings, join_probes, rows_scanned,
#: index_probes).  The scheduler is tested *against* this loop, so its
#: own counters are pinned to an absolute baseline.
MONOLITHIC_BASELINE = {
    "bill_of_materials": (3, 29, 70, 99, 74, 166, 67),
    "boolean_chain": (5, 10, 6, 16, 19, 28, 7),
    "bounded_source_tc": (2, 23, 49, 72, 40, 109, 37),
    "guarded_items": (3, 29, 373, 402, 97, 492, 67),
    "left_linear_tc": (3, 23, 31, 54, 27, 77, 23),
    "nonlinear_tc": (2, 23, 143, 166, 64, 226, 60),
    "payload1": (2, 53, 131, 184, 103, 284, 100),
    "payload2": (2, 79, 185, 264, 179, 440, 176),
    "right_linear_tc": (2, 23, 49, 72, 40, 109, 37),
    "same_generation": (3, 49, 266, 315, 361, 672, 343),
    "same_generation_sources": (3, 49, 266, 315, 361, 672, 343),
    "sibling_components": (4, 100, 277, 377, 365, 723, 346),
    "tc_sources": (3, 29, 43, 72, 30, 95, 23),
    "two_level_chain": (4, 43, 43, 86, 47, 123, 37),
    "win_move_stratified": (6, 13, 16, 29, 24, 35, 0),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_monolithic_counters_match_recorded_baseline(name):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=1)
    stats = evaluate(program, db, EngineOptions(use_scc=False)).stats
    assert (
        stats.iterations,
        stats.facts_derived,
        stats.duplicates,
        stats.rule_firings,
        stats.join_probes,
        stats.rows_scanned,
        stats.index_probes,
    ) == MONOLITHIC_BASELINE[name]
    assert stats.units_scheduled == 0 and stats.unit_early_exits == 0
