"""Tests for the Example-11 folding transformation."""

import pytest

from repro.datalog import TransformError
from repro.engine import evaluate
from repro.core.deletion import delete_rules, lemma51_deletable
from repro.core.folding import define_view, fold_program
from repro.workloads.edb import random_edb
from repro.workloads.paper_examples import (
    adorned_from_text,
    example9_adorned,
    example9_fold_spec,
)


def assert_same_answers(a1, a2, seeds=range(4)):
    p1, p2 = a1.to_program(), a2.to_program()
    for seed in seeds:
        db = random_edb(p1, rows=20, domain=8, seed=seed)
        assert evaluate(p1, db).answers() == evaluate(p2, db).answers(), seed


class TestDefineView:
    def test_view_exports_all_variables(self):
        program = example9_adorned()
        view, head = define_view(program, 0, (0, 1), "qq")
        assert str(view) == "qq(X, Y, Z, U) :- p@nn(X, Y), g3(Y, Z, U)."
        assert head.atom.predicate == "qq"

    def test_empty_selection_rejected(self):
        with pytest.raises(TransformError):
            define_view(example9_adorned(), 0, (), "qq")


class TestFoldProgram:
    def test_example11_fold(self):
        program = example9_adorned()
        ri, bis, name = example9_fold_spec()
        result = fold_program(program, ri, bis, name)
        texts = {str(r) for r in result.program.rules}
        assert "q0@n(X) :- qq(X, Y, Z, U)." in texts
        assert "qq(X, Y, Z, U) :- p@nn(X, Y), g3(Y, Z, U)." in texts
        # the recursive rule folds too (its g4 literal survives)
        assert any(
            r.head.atom.predicate == "p@nn" and "qq" in str(r) for r in result.program.rules
        )
        assert set(result.folded_rules) == {0, 3}

    def test_fold_preserves_answers(self):
        program = example9_adorned()
        ri, bis, name = example9_fold_spec()
        result = fold_program(program, ri, bis, name)
        assert_same_answers(program, result.program)

    def test_fold_enables_lemma51(self):
        program = example9_adorned()
        ri, bis, name = example9_fold_spec()
        result = fold_program(program, ri, bis, name)
        folded_recursive = next(
            i
            for i, r in enumerate(result.program.rules)
            if r.head.atom.predicate == "p@nn" and "qq" in str(r)
        )
        assert lemma51_deletable(result.program, folded_recursive) is not None

    def test_fold_then_delete_equivalent(self):
        program = example9_adorned()
        ri, bis, name = example9_fold_spec()
        folded = fold_program(program, ri, bis, name).program
        report = delete_rules(folded, method="lemma51", use_chase=False, use_sagiv=False)
        assert report.count >= 1
        assert_same_answers(program, report.program)

    def test_auto_view_name(self):
        program = example9_adorned()
        result = fold_program(program, 0, (0, 1))
        assert result.view_rule.head.atom.predicate == "view1"

    def test_name_collision_rejected(self):
        program = example9_adorned()
        with pytest.raises(TransformError):
            fold_program(program, 0, (0, 1), "p@nn")

    def test_embedding_with_head_variables_folds(self):
        # define_view exports every variable of the view body, so an
        # embedding whose image variables the target's head also uses
        # (Y in rule 1) folds like any other
        program = adorned_from_text(
            """
            q@n(X) :- a(X, Y), b(Y).
            r@nn(X, Y) :- a(X, Y), b(Y).
            ?- q@n(X).
            """
        )
        result = fold_program(program, 0, (0, 1), "v")
        assert set(result.folded_rules) == {0, 1}

    def test_fold_keeps_negated_literals(self):
        program = adorned_from_text(
            """
            q@n(X) :- a(X, Y), b(Y), not c(X).
            ?- q@n(X).
            """
        )
        result = fold_program(program, 0, (0, 1), "v")
        assert str(result.program.rules[0]) == "q@n(X) :- v(X, Y), not c(X)."

    def test_no_spurious_folds(self):
        program = adorned_from_text(
            """
            q@n(X) :- a(X, Y), b(Y).
            r@n(X) :- a(X, Y), c(Y).
            ?- q@n(X).
            """
        )
        result = fold_program(program, 0, (0, 1), "v")
        assert set(result.folded_rules) == {0}
