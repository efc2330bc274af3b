"""Unit tests for matching, unification, and skolemization.

One-way matching of a pattern atom against a fact is the one-atom case
of the optimizer's homomorphism search, which the matching cases below
exercise.
"""

from repro.core.subsumption import homomorphism
from repro.datalog import Atom, atom, parse_rule
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import skolem_constant, skolemize, unify

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def match(pattern, fact, subst=None):
    found = homomorphism((pattern,), (fact,), subst or {})
    return None if found is None else found[0]


class TestMatch:
    def test_simple(self):
        s = match(atom("p", "X", "Y"), atom("p", 1, 2))
        assert s == {X: Constant(1), Y: Constant(2)}

    def test_repeated_variable_consistent(self):
        assert match(atom("p", "X", "X"), atom("p", 1, 1)) is not None
        assert match(atom("p", "X", "X"), atom("p", 1, 2)) is None

    def test_constant_selection(self):
        assert match(atom("p", 1, "Y"), atom("p", 1, 2)) == {Y: Constant(2)}
        assert match(atom("p", 1, "Y"), atom("p", 3, 2)) is None

    def test_predicate_mismatch(self):
        assert match(atom("p", "X"), atom("q", 1)) is None

    def test_arity_mismatch(self):
        assert match(atom("p", "X"), atom("p", 1, 2)) is None

    def test_extends_given_substitution(self):
        s = match(atom("p", "X"), atom("p", 1), {Y: Constant(9)})
        assert s == {X: Constant(1), Y: Constant(9)}

    def test_respects_prior_binding(self):
        assert match(atom("p", "X"), atom("p", 2), {X: Constant(1)}) is None
        assert match(atom("p", "X"), atom("p", 1), {X: Constant(1)}) is not None


class TestMatchArgs:
    def test_raw_values(self):
        s = match(Atom("p", (X, Constant(3))), atom("p", 7, 3))
        assert s == {X: Constant(7)}

    def test_constant_mismatch(self):
        assert match(Atom("p", (Constant(3),)), atom("p", 4)) is None

    def test_length_mismatch(self):
        assert match(Atom("p", (X,)), atom("p", 1, 2)) is None


class TestUnify:
    def test_var_to_constant(self):
        s = unify(atom("p", "X", 2), atom("p", 1, "Y"))
        assert s == {X: Constant(1), Y: Constant(2)}

    def test_var_to_var_chain_flattened(self):
        s = unify(atom("p", "X", "X"), atom("p", "Y", 3))
        # X ~ Y ~ 3: all resolve to 3
        assert s[X] == Constant(3)
        assert s[Y] == Constant(3)

    def test_constant_clash(self):
        assert unify(atom("p", 1), atom("p", 2)) is None

    def test_same_atom(self):
        assert unify(atom("p", "X"), atom("p", "X")) == {}

    def test_idempotent(self):
        s = unify(atom("p", "X", "Y", "Y"), atom("p", "Y", "Z", 5))
        a = atom("q", "X", "Y", "Z").substitute(s)
        assert a.substitute(s) == a


class TestSkolemize:
    def test_distinct_constants_per_variable(self):
        r = parse_rule("a(X) :- p(X, Z), a(Z).")
        head, body, subst = skolemize(r)
        assert head.is_ground()
        assert all(b.is_ground() for b in body)
        values = {t.value for t in subst.values()}
        assert len(values) == 2  # X and Z frozen apart

    def test_skolem_constants_marked(self):
        c = skolem_constant(X)
        assert str(c.value).startswith("$sk_")

    def test_shared_variable_shared_constant(self):
        r = parse_rule("a(X) :- p(X, Z), q(Z).")
        _, body, _ = skolemize(r)
        assert body[0].args[1] == body[1].args[0]
