"""Tests for evaluable comparison predicates (section-6 extension)."""

import pytest

from repro.datalog import Database, ValidationError, parse
from repro.datalog.builtins import (
    eval_builtin,
    has_builtins,
    is_builtin,
    negated_builtin,
)
from repro.engine import EngineOptions, evaluate


class TestEvalBuiltin:
    @pytest.mark.parametrize(
        "name,a,b,expected",
        [
            ("lt", 1, 2, True),
            ("lt", 2, 2, False),
            ("le", 2, 2, True),
            ("gt", 3, 2, True),
            ("ge", 2, 3, False),
            ("eq", "x", "x", True),
            ("neq", "x", "y", True),
            ("neq", 1, 1, False),
        ],
    )
    def test_semantics(self, name, a, b, expected):
        assert eval_builtin(name, a, b) is expected

    def test_mixed_types_order_false_not_error(self):
        assert eval_builtin("lt", 1, "a") is False
        assert eval_builtin("ge", "a", 1) is False

    def test_mixed_types_equality(self):
        assert eval_builtin("eq", 1, "1") is False
        assert eval_builtin("neq", 1, "1") is True

    def test_string_ordering(self):
        assert eval_builtin("lt", "abc", "abd") is True

    def test_is_builtin(self):
        assert is_builtin("lt") and is_builtin("neq")
        assert not is_builtin("edge")

    def test_negated_builtin_complement(self):
        for name in ("lt", "le", "gt", "ge", "eq", "neq"):
            comp = negated_builtin(name)
            assert eval_builtin(name, 1, 2) != eval_builtin(comp, 1, 2)
            assert eval_builtin(name, 2, 2) != eval_builtin(comp, 2, 2)


class TestValidation:
    def test_unbound_builtin_variable_rejected(self):
        with pytest.raises(ValidationError):
            parse("q(X) :- e(X), lt(X, Y). ?- q(X).").validate()

    def test_negated_builtin_rejected_with_hint(self):
        with pytest.raises(ValidationError, match="ge"):
            parse("q(X) :- e(X, Y), not lt(X, Y). ?- q(X).").validate()

    def test_builtin_as_head_rejected(self):
        with pytest.raises(ValidationError):
            parse("lt(X, Y) :- e(X, Y). ?- lt(X, Y).").validate()

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError):
            parse("q(X) :- e(X), eq(X, X, X). ?- q(X).").validate()

    def test_builtins_not_edb(self):
        p = parse("q(X) :- e(X, Y), lt(X, Y). ?- q(X).")
        assert p.edb_predicates() == {"e"}

    def test_has_builtins(self):
        assert has_builtins(parse("q(X) :- e(X, Y), lt(X, Y)."))
        assert not has_builtins(parse("q(X) :- e(X, Y)."))


class TestEvaluation:
    def test_filter_semantics(self):
        p = parse("small(X, Y) :- pair(X, Y), lt(X, Y). ?- small(X, Y).")
        db = Database.from_dict({"pair": [(1, 2), (2, 1), (3, 3)]})
        assert evaluate(p, db).answers() == {(1, 2)}

    def test_neq_self_join(self):
        p = parse("distinct(X, Y) :- n(X), n(Y), neq(X, Y). ?- distinct(X, Y).")
        db = Database.from_dict({"n": [(1,), (2,)]})
        assert evaluate(p, db).answers() == {(1, 2), (2, 1)}

    def test_builtin_in_recursion(self):
        # increasing paths: each hop must go to a larger node id
        p = parse(
            """
            up_path(X, Y) :- edge(X, Y), lt(X, Y).
            up_path(X, Y) :- edge(X, Z), lt(X, Z), up_path(Z, Y).
            ?- up_path(0, Y).
            """
        )
        db = Database.from_dict({"edge": [(0, 2), (2, 1), (2, 4), (1, 3)]})
        assert evaluate(p, db).answers() == {(2,), (4,)}

    def test_constants_in_builtins(self):
        p = parse("big(X) :- n(X), ge(X, 10). ?- big(X).")
        db = Database.from_dict({"n": [(5,), (10,), (20,)]})
        assert evaluate(p, db).answers() == {(10,), (20,)}

    def test_naive_agrees(self):
        p = parse(
            """
            up_path(X, Y) :- edge(X, Y), lt(X, Y).
            up_path(X, Y) :- edge(X, Z), lt(X, Z), up_path(Z, Y).
            ?- up_path(X, Y).
            """
        )
        db = Database.from_dict({"edge": [(0, 2), (2, 1), (2, 4), (1, 3)]})
        semi = evaluate(p, db).answers()
        naive = evaluate(p, db, EngineOptions(strategy="naive")).answers()
        assert semi == naive

    def test_builtin_with_negation(self):
        p = parse(
            """
            ok(X) :- n(X), gt(X, 0), not banned(X).
            ?- ok(X).
            """
        )
        db = Database.from_dict({"n": [(-1,), (1,), (2,)], "banned": [(2,)]})
        assert evaluate(p, db).answers() == {(1,)}


class TestOptimizerWithBuiltins:
    def test_pipeline_preserves_answers(self):
        from repro.core import optimize
        from repro.workloads.edb import random_edb

        p = parse(
            """
            q(X) :- r(X, Y, D), gt(D, 5).
            r(X, Y, D) :- e(X, Y), w(Y, D).
            r(X, Y, D) :- e(X, Z), r(Z, Y, D).
            ?- q(X).
            """
        )
        result = optimize(p)
        assert result.record("delete_rules").report is None  # conservatively skipped
        for seed in range(3):
            db = random_edb(p, rows=15, domain=8, seed=seed)
            assert result.answers(db) == result.reference_answers(db)

    def test_deletion_refuses_builtins(self):
        from repro.core import adorn, delete_rules, push_projections
        from repro.datalog import TransformError

        p = parse(
            """
            q(X) :- e(X, Y), lt(X, Y).
            ?- q(X).
            """
        )
        projected = push_projections(adorn(p))
        with pytest.raises(TransformError):
            delete_rules(projected)

    def test_magic_refuses_builtins(self):
        from repro.datalog import TransformError
        from repro.rewriting import magic_sets

        p = parse(
            """
            tc(X, Y) :- e(X, Y), lt(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ?- tc(0, Y).
            """
        )
        with pytest.raises(TransformError):
            magic_sets(p)
