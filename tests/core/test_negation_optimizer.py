"""Optimizer behaviour on programs with (stratified) negation — the
section-6 extension, handled conservatively.

Policy under test:

- adornment marks every argument of a negated literal needed (all-n);
- projection still pushes through the *positive* existential structure;
- component splitting carries a negated literal with the component that
  binds its variables;
- the uniform-(query-)equivalence machinery refuses (non-monotonic);
- the full pipeline still runs (skipping phase 3) and preserves
  answers.
"""

import pytest

from repro.datalog import TransformError, parse
from repro.engine import EngineOptions, evaluate
from repro.core import (
    adorn,
    delete_rules,
    optimize,
    push_projections,
    rule_deletable_uniform,
    split_components,
    theta_subsumes,
)
from repro.workloads.edb import random_edb


NEG_PROGRAM = parse(
    """
    answer(X) :- reach(X, Y), not banned(X).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    reach(X, Y) :- flag(X, Y).
    ?- answer(X).
    """
)


class TestAdornmentWithNegation:
    def test_negated_literal_all_needed(self):
        adorned = adorn(NEG_PROGRAM)
        rule = adorned.rules[0]
        assert len(rule.negative) == 1
        assert str(rule.negative[0].adornment) == "n"

    def test_negated_variable_blocks_existential(self):
        # Y occurs in a negated literal: it is needed everywhere
        program = parse(
            """
            q(X) :- r(X, Y), not bad(Y).
            r(X, Y) :- e(X, Y).
            ?- q(X).
            """
        )
        adorned = adorn(program)
        assert adorned.rules[0].body[0].atom.predicate == "r@nn"

    def test_negated_derived_predicate_adorned_all_n(self):
        program = parse(
            """
            q(X) :- n(X), not d(X, X).
            d(X, Y) :- e(X, Y).
            ?- q(X).
            """
        )
        adorned = adorn(program)
        assert adorned.rules[0].negative[0].atom.predicate == "d@nn"

    def test_positive_projection_still_happens(self):
        projected = push_projections(adorn(NEG_PROGRAM))
        arities = projected.to_program().arities()
        assert arities["reach@nd"] == 1  # Y projected out of the recursion


class TestComponentsWithNegation:
    def test_negative_travels_with_its_component(self):
        program = parse(
            """
            q(X) :- item(X), w(U, V), not bad(V).
            ?- q(X).
            """
        )
        split = split_components(adorn(program))
        boolean_rule = next(
            r
            for r in split.program.rules
            if r.head.atom.predicate in split.booleans
        )
        assert [a.atom.predicate for a in boolean_rule.negative] == ["bad"]
        main = next(
            r for r in split.program.rules if r.head.atom.predicate == "q@n"
        )
        assert main.negative == ()

    def test_negation_connects_components(self):
        # `not bad(Y, V)` shares variables with both groups: they must
        # stay together (extracting either would unbind the negation)
        program = parse(
            """
            q(X) :- item(X, Y), w(U, V), not bad(Y, V).
            ?- q(X).
            """
        )
        split = split_components(adorn(program))
        assert split.booleans == frozenset()

    def test_split_preserves_answers(self):
        program = parse(
            """
            q(X) :- item(X), w(U, V), not bad(V).
            ?- q(X).
            """
        )
        split = split_components(adorn(program))
        rewritten = push_projections(split.program).to_program()
        for seed in range(3):
            db = random_edb(program, rows=12, domain=6, seed=seed)
            a1 = evaluate(program, db).answers()
            a2 = evaluate(
                rewritten, db, EngineOptions(cut_predicates=split.booleans)
            ).answers()
            assert a1 == a2


class TestDeletionRefusal:
    def test_delete_rules_refuses(self):
        projected = push_projections(adorn(NEG_PROGRAM))
        with pytest.raises(TransformError):
            delete_rules(projected)

    def test_sagiv_refuses(self):
        with pytest.raises(TransformError):
            rule_deletable_uniform(NEG_PROGRAM, 1)


class TestPipelineWithNegation:
    def test_pipeline_skips_deletion_and_preserves_answers(self):
        result = optimize(NEG_PROGRAM)
        assert result.record("delete_rules").report is None
        for seed in range(4):
            db = random_edb(NEG_PROGRAM, rows=20, domain=8, seed=seed)
            assert result.answers(db) == result.reference_answers(db)

    def test_pipeline_still_projects(self):
        result = optimize(NEG_PROGRAM)
        arities = result.program.arities()
        assert arities.get("reach@nd") == 1

    def test_guarded_negation_program(self):
        program = parse(
            """
            ok(X) :- item(X), witness(U, V), not broken(U).
            witness(U, V) :- link(U, V).
            witness(U, V) :- link(U, W), witness(W, V).
            ?- ok(X).
            """
        )
        result = optimize(program)
        for seed in range(3):
            db = random_edb(program, rows=15, domain=7, seed=seed)
            assert result.answers(db) == result.reference_answers(db)


class TestSubsumptionWithNegation:
    def test_extra_negation_is_subsumed(self):
        from repro.datalog import parse_rule

        weaker = parse_rule("p(X) :- e(X), not a(X), not b(X).")
        stronger = parse_rule("p(X) :- e(X), not a(X).")
        assert theta_subsumes(stronger, weaker)
        assert not theta_subsumes(weaker, stronger)

    def test_negative_literal_not_matched_positively(self):
        from repro.datalog import parse_rule

        r1 = parse_rule("p(X) :- e(X), not a(X).")
        r2 = parse_rule("p(X) :- e(X), a(X).")
        assert not theta_subsumes(r1, r2)
        assert not theta_subsumes(r2, r1)
