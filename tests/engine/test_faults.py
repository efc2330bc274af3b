"""Fault injection: the failures no engine flag can produce.

A slow unit changes nothing but time, and a genuine exception inside a
unit (``unit-error``) surfaces verbatim — no wrapping that loses the
original message.  Each executor tier is reached through its
own flag instead (``tests/oracle``, ``tests/engine/test_kernel.py``);
crash points are ``tests/engine/test_durability.py``'s.
"""

import pytest

from repro.datalog import Database, parse
from repro.datalog.errors import EvaluationError, ValidationError
from repro.engine import (
    EngineOptions,
    FaultPlan,
    InjectedUnitError,
    evaluate,
    parse_fault_specs,
)

PROGRAM = """
    tc1(X, Y) :- e1(X, Y).
    tc1(X, Y) :- e1(X, Z), tc1(Z, Y).
    tc2(X, Y) :- e2(X, Y).
    tc2(X, Y) :- e2(X, Z), tc2(Z, Y).
    both(X, Y) :- tc1(X, Y), tc2(X, Y).
    ?- both(X, Y).
"""


def chain(n):
    return [(i, i + 1) for i in range(n)]


def edb():
    return Database.from_dict({"e1": chain(10), "e2": chain(10)})


@pytest.fixture(scope="module")
def expected():
    return evaluate(parse(PROGRAM), edb()).answers()


class TestDegradationLadder:
    def test_slow_unit_changes_nothing_but_time(self, expected):
        plan = FaultPlan(slow_unit=0, slow_s=0.01)
        result = evaluate(
            parse(PROGRAM), edb(), EngineOptions(fault_plan=plan)
        )
        assert result.answers() == expected


class TestUnitFailureSurfaces:
    """A unit raising mid-run must surface the original exception, and
    the counters of the units that finished before it must already be
    in the run's stats."""

    def test_unit_error_surfaces_verbatim(self):
        plan = FaultPlan(unit_error=0)
        with pytest.raises(InjectedUnitError) as exc:
            evaluate(parse(PROGRAM), edb(), EngineOptions(fault_plan=plan))
        # the original message, not a wrapper's
        assert "injected unit error" in str(exc.value)
        # deliberately NOT part of the ReproError hierarchy: genuine
        # defects must not be mistaken for governed outcomes
        assert not isinstance(exc.value, EvaluationError)

    @pytest.mark.parametrize("ordinal", [0, 1, 2])
    def test_unit_error_any_unit(self, ordinal):
        plan = FaultPlan(unit_error=ordinal)
        with pytest.raises(InjectedUnitError):
            evaluate(parse(PROGRAM), edb(), EngineOptions(fault_plan=plan))

    def test_unit_error_sequential_scheduling(self):
        plan = FaultPlan(unit_error=0)
        with pytest.raises(InjectedUnitError):
            evaluate(parse(PROGRAM), edb(), EngineOptions(fault_plan=plan))

    def test_sibling_unit_stats_still_merge(self):
        """Work done by units that completed before the failure is not
        lost: every unit writes the run's one stats object, so it
        already holds the sibling's counters when the exception
        surfaces."""
        from repro.datalog.analysis import analyze
        from repro.engine.faults import FaultInjector
        from repro.engine.governor import Governor
        from repro.engine.plan import compile_rule
        from repro.engine.scheduler import run_strata
        from repro.engine.statistics import EvalStats

        program = parse(PROGRAM)
        # fail the second depth-0 unit (tc2); its sibling tc1 completes
        # first and must be counted when the error is raised
        plan = FaultPlan(unit_error=1)
        opts = EngineOptions(fault_plan=plan)
        governor = Governor(opts, FaultInjector(plan))
        info = analyze(program)
        strata = [
            [compile_rule(r, i) for i, r in enumerate(program.rules)]
        ]
        db = edb().copy(mutating=program.idb_predicates())
        arities = program.arities()
        for pred in program.idb_predicates():
            db.ensure(pred, arities[pred])
        stats = EvalStats()
        with pytest.raises(InjectedUnitError):
            run_strata(strata, info, db, stats, {}, opts, governor)
        assert stats.units_scheduled == 2  # tc1 and the failing tc2
        assert stats.unit_rounds["tc1"] > 0  # ...including its rounds
        assert set(stats.unit_rounds) == {"tc1", "tc2"}
        assert stats.facts_derived > 0
        assert len(db.rows("tc1")) == 55  # tc1's fixpoint completed


class TestFaultSpecParsing:
    def test_round_trip_all_specs(self):
        plan = parse_fault_specs(
            ["unit-error:3", "slow-unit:1:0.25", "wal-crash:after-append:2"]
        )
        assert plan == FaultPlan(
            unit_error=3, slow_unit=1, slow_s=0.25,
            wal_crash="after-append", wal_crash_seq=2,
        )

    def test_empty_specs_mean_no_faults(self):
        assert not parse_fault_specs([]).any()

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            # retired kinds: rejected like any typo
            "worker-death", "worker-death:x", "worker-death:2",
            "columnar", "index-build", "scheduler", "kernel-compile",
            "kernel-compile:tc1",
            # malformed or never-firing arguments
            "slow-unit:0:x", "unit-error:-1", "slow-unit:-1",
            "slow-unit:0:-0.5", "wal-crash:after-append:-1",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(EvaluationError):
            parse_fault_specs([spec])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("unit_error", -1),
            ("slow_unit", -1),
            ("slow_s", -0.5),
            ("wal_crash_seq", -1),
            ("wal_crash", "quietly"),
        ],
    )
    def test_bad_plan_is_a_validation_error(self, field, value):
        with pytest.raises(ValidationError):
            FaultPlan(**{field: value})
