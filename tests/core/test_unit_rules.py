"""Tests for unit rules and the covers relation (section 5)."""

import pytest

from repro.datalog import TransformError
from repro.core.adornment import Adornment, adorn
from repro.core.unit_rules import (
    add_covering_unit_rules,
    covering_unit_rule,
    is_unit_rule,
)
from repro.workloads.paper_examples import (
    adorned_from_text,
    example5_adorned_text,
    example5_program,
    example7_adorned,
)


class TestIsUnitRule:
    def test_positive(self):
        program = adorned_from_text("a@nd(X) :- a@nn(X, Y). a@nn(X, Y) :- e(X, Y). ?- a@nd(X).")
        assert is_unit_rule(program.rules[0])

    def test_base_body_not_unit(self):
        program = adorned_from_text("a@nd(X) :- e(X, Y). ?- a@nd(X).")
        assert not is_unit_rule(program.rules[0])

    def test_two_literals_not_unit(self):
        program = example7_adorned()
        assert not is_unit_rule(program.rules[1])


class TestCoveringUnitRule:
    def test_construction(self):
        unit = covering_unit_rule("a@nd", Adornment("nd"), "a@nn", Adornment("nn"))
        assert str(unit) == "a@nd(V1) :- a@nn(V1, V2)."

    def test_requires_covering(self):
        with pytest.raises(TransformError):
            covering_unit_rule("a@nn", Adornment("nn"), "a@nd", Adornment("nd"))

    def test_multi_position(self):
        unit = covering_unit_rule(
            "p@ndd", Adornment("ndd"), "p@ndn", Adornment("ndn")
        )
        assert str(unit) == "p@ndd(V1) :- p@ndn(V1, V3)."


class TestAddCoveringUnitRules:
    def test_example5_gets_the_rule(self):
        program = adorned_from_text(example5_adorned_text())
        report = add_covering_unit_rules(program)
        assert len(report.added) == 1
        assert str(report.added[0]) == "a@nd(V1) :- a@nn(V1, V2)."

    def test_existing_unit_rule_not_duplicated(self):
        program = example7_adorned()  # already has p@nd :- p@nn
        report = add_covering_unit_rules(program)
        assert report.added == ()

    def test_requires_projected(self):
        adorned = adorn(example5_program())
        with pytest.raises(TransformError):
            add_covering_unit_rules(adorned)

    def test_only_query(self):
        program = adorned_from_text(
            """
            q@nd(X) :- r@nd(X).
            r@nd(X) :- r@nn(X, Y), s(Y).
            r@nn(X, Y) :- e(X, Y).
            q@nn(X, Y) :- r@nn(X, Y).
            ?- q@nd(X).
            """
        )
        report = add_covering_unit_rules(program, only_query=True)
        assert all(r.head.atom.predicate == "q@nd" for r in report.added)

    def test_no_pairs_no_change(self):
        program = adorned_from_text("a@nd(X) :- e(X, Y). ?- a@nd(X).")
        report = add_covering_unit_rules(program)
        assert report.added == ()
        assert report.program is program


class TestCanonicalKey:
    def test_renaming_invariance(self):
        p1 = adorned_from_text("a@nd(X) :- a@nn(X, Y). a@nn(U, V) :- e(U, V). ?- a@nd(X).")
        p2 = adorned_from_text("a@nd(Q) :- a@nn(Q, R). a@nn(U, V) :- e(U, V). ?- a@nd(X).")
        assert p1.rules[0].to_rule().canonical_key() == p2.rules[0].to_rule().canonical_key()

    def test_structure_sensitivity(self):
        p1 = adorned_from_text("a@nn(X, Y) :- e(X, Y). ?- a@nn(X, Y).")
        p2 = adorned_from_text("a@nn(X, Y) :- e(Y, X). ?- a@nn(X, Y).")
        assert p1.rules[0].to_rule().canonical_key() != p2.rules[0].to_rule().canonical_key()
