"""Unit tests for the SCC-condensation component scheduler.

Covers the scheduling guarantees the oracle suite cannot see from
answers alone: the iteration accounting (scheduled rounds never exceed
the monolithic loop's), the new unit counters, and component-local cut
termination.
"""

import pytest

from repro.datalog import Database, parse
from repro.engine import (
    EngineOptions,
    EvalStats,
    Governor,
    IncrementalSession,
    ResourceExhausted,
    evaluate,
    run_seeded_unit,
)
from repro.engine.governor import BudgetExceeded
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families, boolean_chain, sibling_components

#: EDB under which every level of the default boolean_chain fires
CHAIN_DB = {
    "item": [(1,), (2,)],
    "c1": [(0, 1)],
    "c2": [(0, 1)],
    "c3": [(0, 1)],
    "mark": [(1,)],
}


def both(program, db, **overrides):
    scheduled = evaluate(program, db, EngineOptions(**overrides))
    monolithic = evaluate(program, db, EngineOptions(use_scc=False, **overrides))
    assert scheduled.answers() == monolithic.answers()
    return scheduled, monolithic


class TestIterationAccounting:
    # sibling_components is excluded by design: its three *recursive*
    # units run disjoint fixpoints whose rounds sum, while the
    # monolithic loop interleaves all three per round and pays only the
    # deepest one's count — on that family SCC scheduling costs rounds
    # (EXPERIMENTS.md).  Every other curated family must not regress.
    SWEEP = sorted(set(all_families()) - {"sibling_components"})

    @pytest.mark.parametrize("name", SWEEP)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_scheduled_rounds_never_exceed_monolithic(self, name, seed):
        program = all_families()[name]
        db = random_edb(program, rows=20, domain=8, seed=seed)
        scheduled, monolithic = both(program, db)
        assert scheduled.stats.iterations <= monolithic.stats.iterations, name

    def test_boolean_chain_strictly_fewer_rounds(self):
        """The multi-component boolean family: the monolithic loop pays
        one round per chain level (the query rule is listed first), the
        scheduler fires every non-recursive unit exactly once, outside
        any fixpoint loop."""
        program = boolean_chain()
        db = Database.from_dict(CHAIN_DB)
        scheduled, monolithic = both(program, db)
        assert scheduled.answers() == frozenset({(1,), (2,)})
        assert scheduled.stats.iterations < monolithic.stats.iterations
        assert scheduled.stats.iterations == 0  # four single-pass units
        assert scheduled.stats.units_scheduled == 4

    def test_unit_rounds_sum_to_iterations(self):
        program = sibling_components()
        db = random_edb(program, rows=20, domain=8, seed=3)
        result = evaluate(program, db)
        assert sum(result.stats.unit_rounds.values()) == result.stats.iterations
        assert set(result.stats.unit_rounds) == {"tc1", "tc2", "tc3", "q"}


class TestUnitCounters:
    def test_units_scheduled_and_labels(self):
        program = parse(
            """
            q(X) :- r(X, Y).
            r(X, Y) :- s(X, Z), r(Z, Y).
            r(X, Y) :- s(X, Y).
            s(X, Y) :- base(X, Y).
            ?- q(X).
            """
        )
        db = Database.from_dict({"base": [(1, 2), (2, 3)]})
        result = evaluate(program, db)
        stats = result.stats
        assert stats.units_scheduled == 3
        assert set(stats.unit_rounds) == {"s", "r", "q"}
        # only the recursive unit iterates; s and q are single passes
        assert stats.unit_rounds["s"] == 0 and stats.unit_rounds["q"] == 0
        assert stats.unit_rounds["r"] == stats.iterations >= 1

    def test_mutually_recursive_unit_has_joint_label(self):
        program = parse(
            """
            even(X) :- zero(X).
            even(Y) :- succ(X, Y), odd(X).
            odd(Y) :- succ(X, Y), even(X).
            ?- even(X).
            """
        )
        db = Database.from_dict({"zero": [(0,)], "succ": [(0, 1), (1, 2), (2, 3)]})
        result = evaluate(program, db)
        assert "even+odd" in result.stats.unit_rounds
        assert result.answers() == frozenset({(0,), (2,)})

    def test_no_scc_mode_reports_no_units(self):
        """--no-scc is the pre-scheduler engine: every new counter must
        stay at its zero value so its stats are bit-comparable with
        historical baselines."""
        program = sibling_components()
        db = random_edb(program, rows=15, domain=6, seed=0)
        stats = evaluate(program, db, EngineOptions(use_scc=False)).stats
        assert stats.units_scheduled == 0
        assert stats.unit_early_exits == 0
        assert stats.unit_rounds == {}

    def test_trip_lists_exactly_the_units_that_started(self):
        """A limit tripped mid-run leaves ``units_scheduled`` and
        ``unit_rounds`` naming the finished units and the tripping one —
        never a unit that had not started."""
        program = sibling_components()
        db = random_edb(program, rows=20, domain=8, seed=3)
        full = evaluate(program, db).stats
        assert list(full.unit_rounds) == ["tc1", "tc2", "tc3", "q"]
        # one round more than tc1 needs: tc2 starts, and trips on its
        # second round
        limit = full.unit_rounds["tc1"] + 1
        with pytest.raises(ResourceExhausted) as exc:
            evaluate(program, db, EngineOptions(max_iterations=limit))
        assert exc.value.reason == "max_iterations"
        assert exc.value.unit == "tc2"
        stats = exc.value.stats
        assert stats.units_scheduled == 2
        assert stats.unit_rounds == {"tc1": full.unit_rounds["tc1"], "tc2": 2}
        assert stats.iterations == limit + 1


class TestComponentLocalCut:
    def test_recursive_cut_unit_exits_mid_fixpoint(self):
        """A recursive boolean unit stops as soon as its head fires,
        even with delta facts still pending — the component-local
        generalization of the existential cut."""
        program = parse(
            """
            b :- link(U, V).
            b :- link(U, W), b.
            ?- b.
            """
        )
        db = Database.from_dict({"link": [(1, 2), (2, 3), (3, 4)]})
        opts = EngineOptions(cut_predicates=frozenset({"b"}))
        result = evaluate(program, db, opts)
        assert result.has_answer()
        assert result.stats.unit_early_exits == 1
        assert result.stats.iterations == 1  # first naive round only
        assert result.stats.rules_retired == 2

    def test_single_pass_cut_unit_skips_remaining_rules(self):
        """In a non-recursive cut unit the pass stops between rules the
        moment every head boolean is true; the untried rules retire
        unfired."""
        program = parse(
            """
            b :- c1(U).
            b :- c2(U).
            q(X) :- item(X), b.
            ?- q(X).
            """
        )
        db = Database.from_dict({"c1": [(1,)], "c2": [(1,), (2,)], "item": [(7,)]})
        opts = EngineOptions(cut_predicates=frozenset({"b"}))
        result = evaluate(program, db, opts)
        assert result.answers() == frozenset({(7,)})
        assert result.stats.unit_early_exits == 1
        assert result.stats.rules_retired == 2
        # the second rule never ran: its c2 scan would have cost 2 rows
        assert result.stats.rule_firings == 2  # b via c1, q via item

    def test_unsatisfied_cut_unit_runs_to_fixpoint(self):
        program = parse(
            """
            b :- c1(U), never(U).
            q(X) :- item(X), b.
            ?- q(X).
            """
        )
        db = Database.from_dict({"c1": [(1,)], "item": [(7,)]})
        opts = EngineOptions(cut_predicates=frozenset({"b"}))
        result = evaluate(program, db, opts)
        assert result.answers() == frozenset()
        assert result.stats.unit_early_exits == 0
        assert result.stats.rules_retired == 0


class TestOneFixpointDriver:
    """From-scratch units, seeded maintenance and the monolithic stratum
    loop are one driver; these pin the edges where they used to be
    separate loops."""

    LEFT_TC = """
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- tc(X, Z), edge(Z, Y).
        ?- tc(X, Y).
    """

    def _seeded_session(self):
        """A materialized chain 1..6 with edge(0, 1) inserted but not
        yet propagated: left-linear, so tc(0, k) arrives one round per k."""
        edb = Database.from_dict({"edge": [(i, i + 1) for i in range(1, 6)]})
        session = IncrementalSession(parse(self.LEFT_TC), edb)
        session._privatize("edge")
        session.db.relation("edge").add((0, 1))
        (unit,) = [u for u in session._units if u.recursive]
        return session, unit

    def test_seeded_retry_with_a_shared_out_completes_the_pass(self):
        seeds = {"edge": {(0, 1)}}
        session, unit = self._seeded_session()
        opts = session.options
        whole = run_seeded_unit(
            unit, session.db, EvalStats(), {}, opts, Governor(opts).guard(), seeds
        )
        assert whole == {"tc": {(0, k) for k in range(1, 7)}}

        session, unit = self._seeded_session()
        out: dict = {}
        tight = EngineOptions(max_iterations=3)
        with pytest.raises(BudgetExceeded):
            run_seeded_unit(
                unit, session.db, EvalStats(), {}, tight,
                Governor(tight).guard(), seeds, out,
            )
        assert out and out["tc"] < whole["tc"]  # interrupted mid-fixpoint
        retry = {"edge": {(0, 1)}, "tc": set(out["tc"])}
        again = run_seeded_unit(
            unit, session.db, EvalStats(), {}, opts,
            Governor(opts).guard(), retry, out,
        )
        assert again is out and out == whole
        assert session.db.rows("tc") >= whole["tc"]

    def test_seeded_cut_unit_exits_mid_fixpoint(self):
        program = parse(
            """
            b :- link(U, V).
            b :- link(U, W), b.
            ?- b.
            """
        )
        edb = Database()
        edb.ensure("link", 2)
        opts = EngineOptions(cut_predicates=frozenset({"b"}))
        session = IncrementalSession(program, edb, opts)
        assert not session.answers()
        stats = session.insert({"link": {(1, 2), (2, 3)}})
        assert session.answers()
        assert stats.unit_early_exits == 1
        assert stats.iterations == 1  # the seeded round only
        assert stats.rules_retired == 2

    def test_non_recursive_units_charge_no_iterations(self):
        """From scratch a non-recursive unit is one pass outside any
        loop; the monolithic loop and a seeded resume both run rounds
        (first round, then the empty round that detects the fixpoint)."""
        program = parse(
            """
            p(X) :- e(X).
            q(X) :- p(X), f(X).
            ?- q(X).
            """
        )
        db = Database.from_dict({"e": [(1,), (2,)], "f": [(2,)]})
        scheduled = evaluate(program, db).stats
        assert scheduled.iterations == 0
        assert scheduled.unit_rounds == {"p": 0, "q": 0}
        assert evaluate(program, db, EngineOptions(use_scc=False)).stats.iterations == 2
        session = IncrementalSession(program, db)
        resumed = session.insert({"e": {(3,)}, "f": {(3,)}})
        assert resumed.unit_rounds == {"p": 2, "q": 2}
