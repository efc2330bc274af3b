"""Unit tests for the resource governor.

Covers each limit (deadline, fact budget, global iteration bound),
both ``on_limit`` policies, the structured payload of
:class:`ResourceExhausted`, and the guarantee that a governor with
limits *set but not hit* changes no engine counter.
"""

from dataclasses import replace

import pytest

from repro.datalog import Database, parse
from repro.datalog.errors import EvaluationError, ValidationError
from repro.engine import (
    EngineOptions,
    FaultPlan,
    IncrementalSession,
    ResourceExhausted,
    evaluate,
)
from repro.workloads import families, graphs

TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
"""

SIBLINGS = """
    tc1(X, Y) :- e1(X, Y).
    tc1(X, Y) :- e1(X, Z), tc1(Z, Y).
    tc2(X, Y) :- e2(X, Y).
    tc2(X, Y) :- e2(X, Z), tc2(Z, Y).
    q(X) :- tc1(X, Y), tc2(X, Y).
    ?- q(X).
"""


def chain(n):
    return [(i, i + 1) for i in range(n)]


@pytest.fixture
def tc():
    return parse(TC), Database.from_dict({"edge": chain(20)})


@pytest.fixture
def siblings():
    return parse(SIBLINGS), Database.from_dict({"e1": chain(8), "e2": chain(8)})


class TestDeadline:
    def test_zero_deadline_raises_structured_error(self, tc):
        program, db = tc
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(program, db, EngineOptions(deadline_s=0.0))
        err = exc.value
        assert err.reason == "deadline"
        assert isinstance(err, EvaluationError)  # catchable as ReproError
        assert err.stats is not None
        assert err.stats.fact_counts  # finalized before raising
        assert err.stratum == 0
        assert err.unit == "tc"  # the offending unit, under scheduling

    def test_zero_deadline_partial_is_flagged_lower_bound(self, tc):
        program, db = tc
        full = evaluate(program, db)
        partial = evaluate(
            program, db, EngineOptions(deadline_s=0.0, on_limit="partial")
        )
        assert partial.is_partial
        assert partial.stats.aborted_reason == "deadline"
        assert partial.answers() <= full.answers()
        assert "PARTIAL" in partial.stats.summary()

    def test_generous_deadline_never_trips(self, tc):
        program, db = tc
        result = evaluate(program, db, EngineOptions(deadline_s=300.0))
        assert not result.is_partial
        assert result.answers() == evaluate(program, db).answers()

    def test_deadline_trips_inside_slowed_unit(self, tc):
        """slow-unit + deadline: the deterministic way to make the
        deadline fire inside a chosen unit — the error names it."""
        program, db = tc
        plan = FaultPlan(slow_unit=0, slow_s=0.05)
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(
                program, db, EngineOptions(deadline_s=0.01, fault_plan=plan)
            )
        assert exc.value.reason == "deadline"
        assert exc.value.unit == "tc"

    def test_monolithic_deadline_reports_no_unit(self, tc):
        program, db = tc
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(program, db, EngineOptions(deadline_s=0.0, use_scc=False))
        assert exc.value.reason == "deadline"
        assert exc.value.unit is None
        assert exc.value.stratum == 0


class TestDerivationBudgets:
    def test_max_facts_raise(self, tc):
        program, db = tc
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(program, db, EngineOptions(max_facts=5))
        assert exc.value.reason == "max_facts"

    def test_max_facts_partial_is_subset(self, tc):
        program, db = tc
        full = evaluate(program, db)
        partial = evaluate(
            program, db, EngineOptions(max_facts=5, on_limit="partial")
        )
        assert partial.is_partial
        assert partial.stats.aborted_reason == "max_facts"
        assert partial.answers() < full.answers()
        # enforcement is at rule-firing granularity: the budget may be
        # overshot by at most the one firing in flight when it tripped,
        # never by a whole extra round
        assert partial.stats.facts_derived < full.stats.facts_derived

    @pytest.mark.parametrize("edges", [200, 60])
    @pytest.mark.parametrize(
        "flags",
        [{}, {"use_columnar": False}, {"use_scc": False}, {"use_kernels": False}],
        ids=["default", "no-columnar", "no-scc", "no-kernel"],
    )
    def test_max_facts_overshoots_by_one_firing(self, edges, flags):
        """The documented contract: the budget is tested at every
        checkpoint against the exact count, so the run stops at the
        first boundary after the crossing — here the exit rule's one
        firing derives |edge| facts, and the recursive rule never
        starts."""
        program = families.right_linear_tc()
        db = Database.from_dict({"edge": graphs.chain(edges + 1)})
        partial = evaluate(
            program, db, EngineOptions(max_facts=25, on_limit="partial", **flags)
        )
        assert partial.stats.aborted_reason == "max_facts"
        assert partial.stats.facts_derived == edges
        assert partial.stats.iterations == 1

    @pytest.mark.parametrize(
        "limit", [{"deadline_s": 0.0}], ids=["deadline"]
    )
    def test_zero_budget_trips_before_any_firing(self, limit):
        program = families.right_linear_tc()
        db = Database.from_dict({"edge": graphs.chain(61)})
        partial = evaluate(program, db, EngineOptions(on_limit="partial", **limit))
        assert partial.is_partial
        assert partial.stats.facts_derived == 0
        assert partial.stats.rule_firings == 0

    def test_zero_fact_budget_allows_no_second_firing(self):
        """``max_facts=0`` is crossed by the first firing that derives
        anything, and trips before the next one starts."""
        program = families.right_linear_tc()
        db = Database.from_dict({"edge": graphs.chain(61)})
        partial = evaluate(
            program, db, EngineOptions(max_facts=0, on_limit="partial")
        )
        assert partial.stats.aborted_reason == "max_facts"
        assert partial.stats.facts_derived == 60

    def test_budget_not_hit_is_invisible(self):
        """Limits set far above the run's needs must not change any
        engine counter except the governor's own check count.

        Fresh EDBs per run: shared base relations deliberately carry
        lazy index builds across runs, which would skew index_builds.
        """
        program = parse(TC)
        plain = evaluate(
            program, Database.from_dict({"edge": chain(20)})
        )
        governed = evaluate(
            program,
            Database.from_dict({"edge": chain(20)}),
            EngineOptions(
                deadline_s=300.0,
                max_facts=10**9,
            ),
        )
        assert governed.answers() == plain.answers()
        a, b = plain.stats.as_dict(), governed.stats.as_dict()
        assert a.pop("governor_checks") == 0
        assert b.pop("governor_checks") > 0
        assert a == b


class TestIterationBounds:
    """Rounds are bounded by the fact budget (a round starts only after
    the previous one derived a fact), and that budget is one global
    bound under both engines."""

    def test_global_bound_is_global_under_scc(self, siblings):
        program, db = siblings
        baseline = evaluate(program, db)
        total = baseline.stats.facts_derived
        per_unit = max(baseline.stats.fact_counts.values())
        # the sibling units' facts sum: the global count exceeds twice
        # any single unit's (the premise of the regression)
        assert total > 2 * per_unit

        # the global count passes; the largest unit's count trips in
        # the second sibling — a per-unit budget never would
        ok = evaluate(program, db, EngineOptions(max_facts=total))
        assert ok.answers() == baseline.answers()
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(program, db, EngineOptions(max_facts=per_unit))
        assert exc.value.reason == "max_facts"
        assert exc.value.unit == "tc2"

    def test_global_bound_matches_monolithic_count(self, siblings):
        """The same global budget governs the monolithic loop: its fact
        total is its own stats.facts_derived, and one less trips."""
        program, db = siblings
        mono = evaluate(program, db, EngineOptions(use_scc=False))
        total = mono.stats.facts_derived
        ok = evaluate(program, db, EngineOptions(use_scc=False, max_facts=total))
        assert ok.answers() == mono.answers()
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(
                program, db,
                EngineOptions(use_scc=False, max_facts=total - 1),
            )
        assert exc.value.reason == "max_facts"

    def test_resource_exhausted_is_evaluation_error(self, tc):
        """Callers catch EvaluationError; the governed error must stay
        inside that hierarchy."""
        program, db = tc
        with pytest.raises(EvaluationError):
            evaluate(program, db, EngineOptions(max_facts=1))


class TestIncrementalBatchGovernance:
    """Budgets and deadlines apply **per update batch** of an
    :class:`IncrementalSession`: an ungoverned init followed by a tight
    batch trips inside that batch, leaves a flagged sound lower bound
    with exact ``partial`` subset semantics, and ``refresh()`` restores
    exactness.  (``session.options`` governs subsequent batches, so
    tests swap limits in after the generous init.)"""

    def _updated_reference(self, extra=(20, 21)):
        return evaluate(
            parse(TC), Database.from_dict({"edge": chain(20) + [extra]})
        )

    def test_zero_deadline_trips_the_batch_not_the_session(self, tc):
        program, db = tc
        session = IncrementalSession(program, db)
        session.options = replace(session.options, deadline_s=0.0)
        with pytest.raises(ResourceExhausted) as exc:
            session.insert({"edge": [(20, 21)]})
        assert exc.value.reason == "deadline"
        assert session.is_partial
        # the failed batch was still absorbed into the session counters
        assert session.stats.incremental_updates == 1

    def test_partial_insert_is_subset_and_refresh_restores(self, tc):
        program, db = tc
        full = self._updated_reference()
        session = IncrementalSession(program, db)
        session.options = replace(
            session.options, deadline_s=0.0, on_limit="partial"
        )
        stats = session.insert({"edge": [(20, 21)]})
        assert stats.aborted_reason == "deadline"
        assert session.is_partial
        assert session.answers() <= full.answers()
        assert session.facts("tc") <= full.facts("tc")
        session.options = replace(
            session.options, deadline_s=None, on_limit="raise"
        )
        refreshed = session.refresh()
        assert not session.is_partial
        assert refreshed.aborted_reason is None
        assert session.facts("tc") == full.facts("tc")
        assert session.answers() == full.answers()

    def test_partial_retraction_is_sound_and_refresh_restores(self, tc):
        program, db = tc
        session = IncrementalSession(program, db)
        full = evaluate(
            program,
            Database.from_dict(
                {"edge": [r for r in chain(20) if r != (10, 11)]}
            ),
        )
        session.options = replace(
            session.options, deadline_s=0.0, on_limit="partial"
        )
        stats = session.retract({"edge": [(10, 11)]})
        assert stats.aborted_reason == "deadline"
        assert session.is_partial
        # exact partial-subset semantics: the base deletion is applied,
        # and no stale derived fact survives
        assert (10, 11) not in session.facts("edge")
        assert session.facts("tc") <= full.facts("tc")
        session.options = replace(
            session.options, deadline_s=None, on_limit="raise"
        )
        session.refresh()
        assert not session.is_partial
        assert session.facts("tc") == full.facts("tc")

    def test_max_facts_applies_per_batch(self, tc):
        """The init derived hundreds of facts; a per-batch budget of 5
        must not count them — it trips only on the batch's own work."""
        program, db = tc
        full = self._updated_reference()
        session = IncrementalSession(program, db)
        session.options = replace(
            session.options, max_facts=5, on_limit="partial"
        )
        stats = session.insert({"edge": [(20, 21)]})
        assert stats.aborted_reason == "max_facts"
        assert session.facts("tc") <= full.facts("tc")
        # a following batch gets a fresh budget: small enough work passes
        tiny = session.retract({"edge": [(20, 21)]})
        assert tiny is not None  # the session keeps serving

    def test_generous_batch_limits_are_invisible(self, tc):
        """Mirror of test_budget_not_hit_is_invisible for maintenance:
        unhit per-batch limits change no counter but governor_checks."""
        program = parse(TC)

        def run(**limits):
            session = IncrementalSession(
                program, Database.from_dict({"edge": chain(10)})
            )
            if limits:
                session.options = replace(session.options, **limits)
            session.insert({"edge": [(10, 11)]})
            batch = session.retract({"edge": [(3, 4)]})
            return session, batch

        _, plain = run()
        _, governed = run(deadline_s=300.0, max_facts=10**9)
        a, b = plain.as_dict(), governed.as_dict()
        assert a.pop("governor_checks") == 0
        assert b.pop("governor_checks") > 0
        assert a == b


class TestOptionValidation:
    def test_bad_on_limit_rejected(self):
        with pytest.raises(ValidationError):
            EngineOptions(on_limit="ignore")

    @pytest.mark.parametrize(
        "field", ["max_facts", "deadline_s"]
    )
    def test_negative_limits_rejected(self, field):
        with pytest.raises(ValidationError):
            EngineOptions(**{field: -1})
