"""Unit tests for repro.datalog.ast."""

import pytest

from repro.datalog import (
    ArityError,
    Program,
    SafetyError,
    ValidationError,
    atom,
    rule,
)
from repro.datalog.terms import Constant, Variable


class TestAtom:
    def test_smart_constructor(self):
        a = atom("p", "X", 3, "foo")
        assert a.predicate == "p"
        assert a.args == (Variable("X"), Constant(3), Constant("foo"))

    def test_arity(self):
        assert atom("p").arity == 0
        assert atom("p", "X", "Y").arity == 2

    def test_variables_in_order_no_dups(self):
        a = atom("p", "X", "Y", "X", 1)
        assert a.variables() == (Variable("X"), Variable("Y"))

    def test_constants(self):
        a = atom("p", 1, "X", 2, 1)
        assert a.constants() == (Constant(1), Constant(2))

    def test_is_ground(self):
        assert atom("p", 1, 2).is_ground()
        assert not atom("p", 1, "X").is_ground()
        assert atom("p").is_ground()

    def test_substitute(self):
        a = atom("p", "X", "Y")
        out = a.substitute({Variable("X"): Constant(1)})
        assert out == atom("p", 1, "Y")

    def test_substitute_leaves_constants(self):
        a = atom("p", 5, "X")
        out = a.substitute({Variable("X"): Variable("Z")})
        assert out == atom("p", 5, "Z")

    def test_as_fact(self):
        assert atom("p", 1, "x").as_fact() == (1, "x")

    def test_as_fact_requires_ground(self):
        with pytest.raises(ValidationError):
            atom("p", "X").as_fact()

    def test_str(self):
        assert str(atom("p", "X", 1)) == "p(X, 1)"
        assert str(atom("b")) == "b"

    def test_rename_predicate(self):
        assert atom("p", "X").rename_predicate("q") == atom("q", "X")


class TestRule:
    def test_variables_head_first(self):
        r = rule(atom("h", "A", "B"), atom("p", "C", "A"))
        assert r.variables() == (Variable("A"), Variable("B"), Variable("C"))

    def test_is_safe(self):
        assert rule(atom("h", "X"), atom("p", "X", "Y")).is_safe()
        assert not rule(atom("h", "X", "Z"), atom("p", "X", "Y")).is_safe()

    def test_fact_rule_is_safe(self):
        assert rule(atom("h", 1)).is_safe()

    def test_is_fact(self):
        assert rule(atom("h", 1, 2)).is_fact()
        assert not rule(atom("h", "X")).is_fact()
        assert not rule(atom("h", 1), atom("p", 1)).is_fact()

    def test_substitute(self):
        r = rule(atom("h", "X"), atom("p", "X", "Y"))
        out = r.substitute({Variable("X"): Constant(1)})
        assert out == rule(atom("h", 1), atom("p", 1, "Y"))

    def test_rename_apart(self):
        r = rule(atom("h", "X"), atom("p", "X", "Y"))
        out = r.rename_apart("_1")
        assert out == rule(atom("h", "X_1"), atom("p", "X_1", "Y_1"))

    def test_predicates(self):
        r = rule(atom("h", "X"), atom("p", "X"), atom("q", "X"))
        assert r.predicates() == {"h", "p", "q"}

    def test_str(self):
        r = rule(atom("h", "X"), atom("p", "X", "Y"))
        assert str(r) == "h(X) :- p(X, Y)."
        assert str(rule(atom("f", 1))) == "f(1)."

    def test_canonical_key_separates_constants_from_variables(self):
        # numbering Y as the second variable must not make it equal to
        # a constant that happens to print like a numbered variable
        var = rule(atom("h", "X"), atom("p", "X", "Y"))
        const = rule(atom("h", "X"), atom("p", "X", Constant("C1")))
        assert var.canonical_key() != const.canonical_key()
        assert var.canonical_key() == var.rename_apart("_1").canonical_key()


class TestProgram:
    def build(self):
        return Program(
            (
                rule(atom("q", "X"), atom("a", "X", "Y")),
                rule(atom("a", "X", "Y"), atom("p", "X", "Y")),
            ),
            atom("q", "X"),
        )

    def test_idb_edb_split(self):
        p = self.build()
        assert p.idb_predicates() == {"q", "a"}
        assert p.edb_predicates() == {"p"}

    def test_predicates(self):
        assert self.build().predicates() == {"q", "a", "p"}

    def test_arities(self):
        assert self.build().arities() == {"q": 1, "a": 2, "p": 2}

    def test_arity_conflict_detected(self):
        p = Program(
            (
                rule(atom("q", "X"), atom("p", "X")),
                rule(atom("q", "X"), atom("p", "X", "Y")),
            )
        )
        with pytest.raises(ArityError):
            p.arities()

    def test_validate_safety(self):
        p = Program((rule(atom("h", "X", "Z"), atom("p", "X")),))
        with pytest.raises(SafetyError):
            p.validate()

    def test_validate_ok_chains(self):
        p = self.build()
        assert p.validate() is p

    def test_rules_for(self):
        p = self.build()
        assert len(p.rules_for("a")) == 1
        assert p.rules_for("nothing") == ()

    def test_body_occurrences(self):
        p = self.build()
        occs = list(p.body_occurrences("p"))
        assert occs == [(1, 0, atom("p", "X", "Y"))]

    def test_without_rule(self):
        p = self.build()
        assert len(p.without_rule(0)) == 1
        assert p.without_rule(0).rules[0].head.predicate == "a"

    def test_without_rules(self):
        p = self.build()
        assert len(p.without_rules([0, 1])) == 0

    def test_add_rules(self):
        p = self.build().add_rules([rule(atom("a", "X", "X"), atom("s", "X"))])
        assert len(p) == 3

    def test_with_query(self):
        p = self.build().with_query(None)
        assert p.query is None

    def test_iteration_and_str(self):
        p = self.build()
        assert len(list(p)) == 2
        assert "?- q(X)." in str(p)
