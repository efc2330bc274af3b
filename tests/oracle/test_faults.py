"""Oracle property under faults and resource governance.

The robustness contract: a governed or fault-injected run must end in
exactly one of three ways —

1. the **exact** oracle answer set (a slow unit changes nothing but
   time; generous limits never trip),
2. a **flagged partial subset** (``on_limit="partial"``: the result
   says it is a lower bound and every answer it does report is true),
3. a **structured error** (:class:`ResourceExhausted` carrying partial
   stats, or the injected genuine error surfacing verbatim).

Never a silently wrong answer set, and never a superset — bottom-up
derivation only ever adds true consequences, so even an aborted run's
facts are sound.

``REPRO_ORACLE_BASE`` overlays engine flags (no-kernel, no-scc,
no-index, ...) so CI sweeps this suite across the same matrix as the
differential oracle: every executor tier meets every fault and limit
through its real switch.
"""

from __future__ import annotations

import pytest

from repro.datalog.errors import EvaluationError
from repro.engine import (
    FaultPlan,
    IncrementalSession,
    InjectedUnitError,
    ResourceExhausted,
    evaluate,
)
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from .harness import engine_options

FAMILIES = all_families()

#: families exercising every engine shape: plain recursion, ≥3 sibling
#: units at one condensation depth, and stratified negation
#: (multi-stratum scheduling)
WORKLOADS = ["right_linear_tc", "sibling_components", "win_move_stratified"]

FAULT_PLANS = {
    "none": FaultPlan(),
    "unit-error-0": FaultPlan(unit_error=0),
    "slow-unit": FaultPlan(slow_unit=0, slow_s=0.001),
}

GOVERNOR_CONFIGS = {
    "ungoverned": {},
    "generous": {
        "deadline_s": 300.0,
        "max_facts": 10**9,
        "max_delta_rows": 10**9,
        "max_iterations": 10**6,
    },
    "tight-facts-raise": {"max_facts": 4, "on_limit": "raise"},
    "tight-facts-partial": {"max_facts": 4, "on_limit": "partial"},
    "tight-deadline-raise": {"deadline_s": 0.0, "on_limit": "raise"},
    "tight-deadline-partial": {"deadline_s": 0.0, "on_limit": "partial"},
    "tight-delta": {"max_delta_rows": 3, "on_limit": "partial"},
    "tight-iterations": {"max_iterations": 2, "on_limit": "partial"},
}


def workload(name, seed=0):
    program = FAMILIES[name]
    return program, random_edb(program, rows=14, domain=7, seed=seed)


def oracle_answers(name, seed=0):
    program, db = workload(name, seed)
    return evaluate(program, db).answers()


def assert_property(program, db, opts, oracle, context):
    """One governed/faulted run ends exact, flagged-partial, or
    structured-error — never silently wrong, never a superset."""
    try:
        result = evaluate(program, db, opts)
    except ResourceExhausted as exc:
        # outcome 3a: structured limit error with partial accounting
        assert exc.reason, context
        assert exc.stats is not None, context
        return
    except InjectedUnitError:
        # outcome 3b: the injected genuine defect surfaced verbatim
        return
    answers = result.answers()
    if result.is_partial:
        # outcome 2: flagged lower bound — sound, possibly incomplete
        assert result.stats.aborted_reason, context
        assert answers <= oracle, (
            f"{context}: partial result is not a subset of the oracle "
            f"(extra={sorted(answers - oracle)[:5]})"
        )
    else:
        # outcome 1: unflagged runs must be exact, faults or not
        assert answers == oracle, (
            f"{context}: unflagged answers differ from oracle "
            f"(extra={sorted(answers - oracle)[:5]}, "
            f"missing={sorted(oracle - answers)[:5]})"
        )


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_faults_preserve_oracle_property(workload_name, plan_name):
    program, db = workload(workload_name)
    oracle = oracle_answers(workload_name)
    plan = FAULT_PLANS[plan_name]
    opts = engine_options({"fault_plan": plan} if plan.any() else {})
    assert_property(
        program, db, opts, oracle, f"{workload_name}/{plan_name}"
    )


@pytest.mark.parametrize("config_name", sorted(GOVERNOR_CONFIGS))
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_governor_preserves_oracle_property(workload_name, config_name):
    program, db = workload(workload_name)
    oracle = oracle_answers(workload_name)
    opts = engine_options(dict(GOVERNOR_CONFIGS[config_name]))
    assert_property(
        program, db, opts, oracle, f"{workload_name}/{config_name}"
    )


def _maintenance_batches(program):
    """A fixed insert + retract pair over the program's first EDB
    predicate, sized to force real propagation."""
    arities = program.arities()
    pred = sorted(program.edb_predicates())[0]
    arity = arities[pred]
    ins = {pred: [tuple(50 + j for j in range(arity)),
                  tuple(51 + j for j in range(arity))]}
    rem = {pred: [tuple(50 + j for j in range(arity)),
                  tuple(j for j in range(arity))]}
    return pred, ins, rem


def _scratch_facts(program, base_rows):
    # the maintained state is engine-invariant, so the reference runs
    # under default options regardless of the session's tiers
    from repro.datalog import Database

    db = Database()
    arities = program.arities()
    for pred in sorted(program.edb_predicates()):
        db.ensure(pred, arities[pred]).update(base_rows.get(pred, ()))
    result = evaluate(program, db, engine_options({}))
    return {p: result.db.rows(p) for p in sorted(arities)}


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_faulted_governed_maintenance_keeps_the_triad(workload_name):
    """A slowed unit or the interpreter over full scans, under a tight
    per-batch budget: every batch outcome lands in the triad — exact,
    flagged sound partial, or structured error — never a silent
    divergence."""
    program, db = workload(workload_name)
    pred, ins, rem = _maintenance_batches(program)
    overlays = {
        "slow-unit": {"fault_plan": FAULT_PLANS["slow-unit"]},
        "interpreter-scans": {"use_kernels": False, "use_indexes": False},
    }
    for plan_name, overlay in overlays.items():
        opts = engine_options(
            {**overlay, "max_facts": 6, "on_limit": "partial"}
        )
        session = IncrementalSession(program, db, opts)
        base = {p: set(db.rows(p)) for p in db.predicates()}
        for batch, kind in ((ins, "insert"), (rem, "retract")):
            stats = getattr(session, kind)(batch)
            if kind == "insert":
                base[pred].update(map(tuple, batch[pred]))
            else:
                base[pred].difference_update(map(tuple, batch[pred]))
            want = _scratch_facts(program, base)
            if stats.aborted_reason is None and not session.is_partial:
                for p in want:
                    assert session.facts(p) == want[p], (
                        f"{workload_name}/{plan_name}: unflagged {p} diverged"
                    )
            else:
                # flagged: sound lower bound, never a superset
                for p in want:
                    assert session.facts(p) <= want[p], (
                        f"{workload_name}/{plan_name}: partial {p} overshoots"
                    )
        # recovery: refresh under generous options restores exactness
        session.options = engine_options({})
        session.refresh()
        want = _scratch_facts(program, base)
        for p in want:
            assert session.facts(p) == want[p], (
                f"{workload_name}/{plan_name}: refresh did not restore {p}"
            )


def test_bad_fault_spec_is_structured():
    from repro.engine import parse_fault_specs

    with pytest.raises(EvaluationError):
        parse_fault_specs(["no-such-fault"])
