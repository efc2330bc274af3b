"""Unit tests for the bottom-up fixpoint evaluator."""

import pytest

from repro.datalog import Database, ValidationError, parse
from repro.engine import EngineOptions, evaluate
from repro.workloads.graphs import chain, complete, cycle, random_digraph


def tc_answers(edges):
    """Reference transitive closure computed independently."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


TC = parse(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
    """
)


class TestFixpointCorrectness:
    @pytest.mark.parametrize(
        "edges",
        [
            chain(6),
            cycle(5),
            complete(4),
            random_digraph(12, 20, seed=1),
            random_digraph(12, 40, seed=2),
        ],
        ids=["chain", "cycle", "complete", "sparse", "dense"],
    )
    def test_transitive_closure_matches_reference(self, edges):
        db = Database.from_dict({"edge": edges})
        result = evaluate(TC, db)
        assert result.facts("tc") == tc_answers(edges)

    def test_naive_equals_seminaive(self):
        db = Database.from_dict({"edge": random_digraph(15, 40, seed=3)})
        semi = evaluate(TC, db)
        naive = evaluate(TC, db, EngineOptions(strategy="naive"))
        assert semi.facts("tc") == naive.facts("tc")

    def test_empty_edb(self):
        db = Database()
        result = evaluate(TC, db)
        assert result.facts("tc") == frozenset()

    def test_input_not_mutated(self):
        db = Database.from_dict({"edge": [(1, 2), (2, 3)]})
        evaluate(TC, db)
        assert "tc" not in db

    def test_initial_idb_facts_respected(self):
        # uniform-equivalence style input: tc starts non-empty
        db = Database.from_dict({"edge": [(1, 2)], "tc": [(9, 10)]})
        result = evaluate(TC, db)
        assert (9, 10) in result.facts("tc")
        assert (1, 2) in result.facts("tc")

    def test_initial_idb_facts_feed_rules(self):
        db = Database.from_dict({"edge": [(1, 2)], "tc": [(2, 9)]})
        result = evaluate(TC, db)
        assert (1, 9) in result.facts("tc")

    def test_mutual_recursion(self):
        program = parse(
            """
            reach_a(X) :- start(X).
            reach_b(Y) :- reach_a(X), ab(X, Y).
            reach_a(Y) :- reach_b(X), ba(X, Y).
            ?- reach_a(X).
            """
        )
        db = Database.from_dict(
            {"start": [(0,)], "ab": [(0, 1), (2, 3)], "ba": [(1, 2)]}
        )
        result = evaluate(program, db)
        assert result.answers() == {(0,), (2,)}
        assert result.facts("reach_b") == {(1,), (3,)}

    def test_constants_in_rules(self):
        program = parse(
            """
            special(X) :- edge(1, X).
            ?- special(X).
            """
        )
        db = Database.from_dict({"edge": [(1, 2), (3, 4), (1, 5)]})
        assert evaluate(program, db).answers() == {(2,), (5,)}

    def test_fact_rules_seeded(self):
        program = parse(
            """
            base(1, 2).
            tc(X, Y) :- base(X, Y).
            ?- tc(X, Y).
            """
        )
        assert evaluate(program, Database()).answers() == {(1, 2)}

    def test_non_ground_fact_rejected(self):
        program = parse("p(X). ?- p(X).")
        with pytest.raises(ValidationError):
            evaluate(program, Database())

    def test_unsafe_rule_rejected(self):
        program = parse("p(X, Y) :- q(X). ?- p(X, Y).")
        with pytest.raises(Exception):
            evaluate(program, Database())


class TestAnswers:
    def test_selection_on_constant(self):
        db = Database.from_dict({"edge": chain(5)})
        program = TC.with_query(parse("x(X) :- y. ?- tc(0, Y).").query)
        result = evaluate(program, db)
        assert result.answers() == {(1,), (2,), (3,), (4,)}

    def test_repeated_variable_selection(self):
        # tc(X, X): nodes on cycles
        program = TC.with_query(parse("?- tc(X, X). x(X) :- y.").query)
        db = Database.from_dict({"edge": cycle(4) + [(9, 10)]})
        result = evaluate(program, db)
        assert result.answers() == {(0,), (1,), (2,), (3,)}

    def test_answers_without_query_raises(self):
        result = evaluate(TC.with_query(None), Database.from_dict({"edge": [(1, 2)]}))
        with pytest.raises(ValidationError):
            result.answers()

    def test_has_answer(self):
        db = Database.from_dict({"edge": [(1, 2)]})
        assert evaluate(TC, db).has_answer()
        assert not evaluate(TC, Database()).has_answer()

    def test_explicit_query_argument(self):
        db = Database.from_dict({"edge": chain(4)})
        result = evaluate(TC, db)
        from repro.datalog import atom

        assert result.answers(atom("tc", 0, "Y")) == {(1,), (2,), (3,)}


class TestStats:
    def test_fact_counts_recorded(self):
        db = Database.from_dict({"edge": chain(5)})
        stats = evaluate(TC, db).stats
        assert stats.fact_counts["tc"] == 10

    def test_duplicates_counted(self):
        # complete graph: many alternative derivations of each tc fact
        db = Database.from_dict({"edge": complete(4)})
        stats = evaluate(TC, db).stats
        assert stats.duplicates > 0
        assert stats.derivations == stats.facts_derived + stats.duplicates

    def test_merge(self):
        from repro.engine import EvalStats

        a = EvalStats(iterations=1, facts_derived=2)
        b = EvalStats(iterations=2, duplicates=3, fact_counts={"p": 1})
        a.merge(b)
        assert a.iterations == 3 and a.facts_derived == 2 and a.duplicates == 3
        assert a.fact_counts == {"p": 1}

    def test_every_counter_declares_its_rule(self):
        """One field table drives ``merge`` and ``as_dict``: every field
        names a merge rule, each rule does what it says, and the
        engine-invariant view drops exactly the thirteen counters that
        measure which path ran."""
        import dataclasses
        from copy import deepcopy

        from repro.engine import EvalStats

        declared = dataclasses.fields(EvalStats)
        rules = {f.name: f.metadata["merge"] for f in declared}
        assert set(rules.values()) == {"sum", "max", "sum_keys", "first"}
        full = EvalStats().as_dict()
        assert set(full) == set(rules) | {"derivations", "join_work"}
        assert set(full) - set(EvalStats().as_dict(engine_invariant=True)) == {
            "kernel_launches", "batch_probes", "batch_rows", "dict_size",
            "columnar_fallbacks", "plans_costed", "replans",
            "bound_overestimate_max", "wal_appends",
            "wal_replays", "snapshots_written", "recovery_ms",
        }
        sample = {"sum": (2, 3, 5), "max": (2, 3, 3), "first": ("a", "b", "a"),
                  "sum_keys": ({"k": 2}, {"k": 3, "j": 1}, {"k": 5, "j": 1})}
        mine, theirs = EvalStats(), EvalStats()
        for name, rule in rules.items():
            setattr(mine, name, deepcopy(sample[rule][0]))
            setattr(theirs, name, deepcopy(sample[rule][1]))
        mine.merge(theirs)
        for name, rule in rules.items():
            assert getattr(mine, name) == sample[rule][2], name
        fresh = EvalStats()
        fresh.merge(theirs)
        assert fresh.aborted_reason == "b"  # first non-None wins

    def test_summary_format(self):
        from repro.engine import EvalStats

        assert "iters=0" in EvalStats().summary()
