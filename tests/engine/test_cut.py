"""Tests for the boolean-cut mechanism (section 3.1 runtime support).

A rule defining an arity-0 (boolean) predicate is retired from the
fixpoint once the predicate becomes true — "a rule defining a boolean
variable can be removed from the fixpoint computation once the variable
becomes true".
"""

import pytest

from repro.datalog import Database, parse
from repro.datalog.errors import ValidationError
from repro.engine import EngineOptions, IncrementalSession, evaluate
from repro.workloads.graphs import chain


PROGRAM = parse(
    """
    answer(X) :- wanted(X, Y), guard.
    guard :- tc(X, Y), mark(Y).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- answer(X).
    """
)


def db_with_mark(n=20):
    db = Database.from_dict(
        {"edge": chain(n), "wanted": [(1, 2), (3, 4)], "mark": [(n - 1,)]}
    )
    return db


class TestCut:
    def test_answers_unchanged_by_cut(self):
        db = db_with_mark()
        plain = evaluate(PROGRAM, db)
        cut = evaluate(PROGRAM, db, EngineOptions(cut_predicates={"guard"}))
        assert plain.answers() == cut.answers() == {(1,), (3,)}

    def test_cut_retires_rule(self):
        db = db_with_mark()
        cut = evaluate(PROGRAM, db, EngineOptions(cut_predicates={"guard"}))
        assert cut.stats.rules_retired >= 1

    def test_cut_reduces_work(self):
        db = db_with_mark(30)
        plain = evaluate(PROGRAM, db)
        cut = evaluate(PROGRAM, db, EngineOptions(cut_predicates={"guard"}))
        assert cut.stats.rule_firings <= plain.stats.rule_firings
        assert cut.stats.duplicates <= plain.stats.duplicates

    def test_boolean_never_true_no_retire(self):
        db = Database.from_dict(
            {"edge": chain(5), "wanted": [(1, 2)], "mark": [(999,)]}
        )
        cut = evaluate(PROGRAM, db, EngineOptions(cut_predicates={"guard"}))
        assert cut.answers() == frozenset()
        assert cut.stats.rules_retired == 0

    def test_cut_with_naive_strategy(self):
        db = db_with_mark()
        cut = evaluate(
            PROGRAM,
            db,
            EngineOptions(strategy="naive", cut_predicates={"guard"}),
        )
        assert cut.answers() == {(1,), (3,)}
        assert cut.stats.rules_retired >= 1

    def test_multiple_booleans(self):
        program = parse(
            """
            out(X) :- item(X), b1, b2.
            b1 :- p(X).
            b2 :- q(X).
            ?- out(X).
            """
        )
        db = Database.from_dict({"item": [(1,)], "p": [(5,)], "q": [(6,)]})
        result = evaluate(
            program, db, EngineOptions(cut_predicates={"b1", "b2"})
        )
        assert result.answers() == {(1,)}
        assert result.stats.rules_retired == 2

    def test_boolean_false_blocks_answer(self):
        program = parse(
            """
            out(X) :- item(X), b1.
            b1 :- p(X).
            ?- out(X).
            """
        )
        db = Database.from_dict({"item": [(1,)], "q": [(6,)]})
        result = evaluate(program, db, EngineOptions(cut_predicates={"b1"}))
        assert result.answers() == frozenset()


RIGHT_LINEAR_TC = parse(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
    """
)


class TestCutArity:
    """Retirement completes a boolean once it holds a row; a predicate
    of arity > 0 is not complete then, so cutting it is rejected
    instead of silently truncating its fixpoint."""

    def test_cut_of_a_non_boolean_is_rejected(self):
        db = Database.from_dict({"edge": chain(4)})
        assert len(evaluate(RIGHT_LINEAR_TC, db).answers()) == 6
        with pytest.raises(ValidationError, match="'tc' has arity 2"):
            evaluate(RIGHT_LINEAR_TC, db, EngineOptions(cut_predicates={"tc"}))

    def test_restored_session_rejects_it_too(self):
        db = evaluate(RIGHT_LINEAR_TC, Database.from_dict({"edge": chain(4)})).db
        with pytest.raises(ValidationError, match="'tc' has arity 2"):
            IncrementalSession._restore(
                RIGHT_LINEAR_TC, db, {}, EngineOptions(cut_predicates={"tc"})
            )

    def test_cut_names_outside_the_program_are_ignored(self):
        db = Database.from_dict({"edge": chain(4)})
        result = evaluate(
            RIGHT_LINEAR_TC, db, EngineOptions(cut_predicates={"edge", "b"})
        )
        assert len(result.answers()) == 6
