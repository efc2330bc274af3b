"""Tests for the end-to-end optimization pipeline."""

import pytest

from repro.datalog import parse
from repro.engine import (
    clear_kernel_cache,
    clear_prepared_cache,
    evaluate,
    kernel_cache_stats,
    prepared_cache_stats,
)
from repro.core.pipeline import optimize
from repro.workloads.edb import random_edb
from repro.workloads.families import boolean_chain, sibling_components
from repro.workloads.paper_examples import (
    example1_program,
    example2_program,
    example5_program,
    example12_original,
)


def check_equivalent(result, seeds=range(5), rows=25, domain=10):
    for seed in seeds:
        db = random_edb(result.original, rows=rows, domain=domain, seed=seed)
        assert result.answers(db) == result.reference_answers(db), seed


class TestPipelinePaperPrograms:
    def test_example1_to_nonrecursive(self):
        result = optimize(example1_program())
        # projection + deletion: the final program is non-recursive
        from repro.datalog.analysis import recursive_predicates

        assert recursive_predicates(result.program) == frozenset()
        check_equivalent(result)

    def test_example2_boolean_cut(self):
        result = optimize(example2_program())
        assert result.cut_predicates  # booleans survive to the final program
        check_equivalent(result)

    def test_example6_single_rule(self):
        result = optimize(example5_program())
        assert len(result.program.rules) == 1
        assert str(result.program.rules[0]) == "a@nd(X) :- p(X, Y)."
        check_equivalent(result)


class TestPipelineOptions:
    def test_no_deletion(self):
        result = optimize(example1_program(), deletion=None)
        assert result.record("delete_rules").report is None
        assert result.deleted_count == 0
        check_equivalent(result)

    def test_lemma51_method(self):
        result = optimize(example5_program(), deletion="lemma51")
        check_equivalent(result)

    def test_without_chase_or_sagiv(self):
        result = optimize(
            example5_program(), use_chase=False, use_sagiv=False, unit_rules=False
        )
        check_equivalent(result)

    def test_describe_mentions_all_phases(self):
        text = optimize(example2_program()).describe()
        for keyword in ("original", "adorned", "components", "projections", "final"):
            assert keyword in text

    def test_one_record_per_pass_in_table_order(self):
        result = optimize(example2_program())
        assert [r.name for r in result.passes] == [
            "adorn",
            "split_components",
            "push_projections",
            "monadic_chains",
            "theta_subsumption",
            "delete_rules",
            "unfold_nonrecursive",
            "minimize_rule_bodies",
            "inline_projection_query",
        ]
        assert result.adorned is result.passes[0].program
        assert result.final is result.passes[-1].program

    def test_describe_sections_follow_execution_order(self):
        # every optional section fires on this program: a duplicated
        # rule (θ-subsumption), covering unit rules, deletions, an
        # unfolded predicate and a minimized body
        program = parse(
            """
            r(V, V) :- q(V, V), e(Y, V).
            s(Y) :- g(V, V, W), g(V, Y, Y).
            q(V, V) :- s(V), e(V, W).
            q(V, V) :- s(V), e(V, W).
            r(X, X) :- e(Z, X), q(Z, Z), r(Z, Z).
            ?- r(QX, _1).
            """
        )
        headers = [
            line.split(" (")[0].strip("= ")
            for line in optimize(program).describe().splitlines()
            if line.startswith("== ")
        ]
        assert headers == [
            "original",
            "adorned",
            "components split",
            "projections pushed",
            "rules removed by theta-subsumption",
            "unit rules added",
            "rules deleted",
            "predicates unfolded into their consumers",
            "redundant body literals minimized away",
            "final",
        ]


class TestPipelineCompilesNothing:
    def test_optimize_leaves_no_kernels_behind(self):
        # the deletion chases run on the plan interpreter: deciding what
        # to delete must not fill the process-wide kernel cache
        clear_kernel_cache()
        clear_prepared_cache()
        for program in (boolean_chain(8), sibling_components(5), example12_original()):
            optimize(program)
        assert prepared_cache_stats()["misses"] > 0  # chases did run
        assert kernel_cache_stats()["compiles"] == 0


class TestPipelineGeneralPrograms:
    # (program, the (deleted, winner) pairs of the θ-subsumption pre-pass)
    @pytest.mark.parametrize(
        ("src", "subsumed"),
        [
            # same generation, existential query
            ("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            ?- sg(X, _).
            """, []),
            # two recursion levels
            ("""
            q(X) :- r(X, Y).
            r(X, Y) :- s(X, Z), r(Z, Y).
            r(X, Y) :- s(X, Y).
            s(X, Y) :- e(X, Y).
            ?- q(X).
            """, []),
            # nonlinear recursion
            ("""
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), t(Z, Y).
            ?- t(X, _).
            """, [("t@nd(Y) :- t@nd(X), e(Y, X).", "t@nd(Y) :- e(Y, X).")]),
            # query with constants
            ("""
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            ?- tc(1, _).
            """, [("tc@nd(X) :- e(X, Z), tc@nd(Z).", "tc@nd(X) :- e(X, Y).")]),
            # disconnected guard component
            ("""
            q(X) :- item(X), ok(Y, Z).
            ok(Y, Z) :- w(Y), v(Z).
            ?- q(X).
            """, []),
            # mutual variants: the later rule goes, the earlier wins
            ("""
            p(X) :- e(X, Y).
            p(U) :- e(U, V).
            ?- p(X).
            """, [("p@n(U) :- e(U, V).", "p@n(X) :- e(X, Y).")]),
            # a strict subsumer wins from behind, and over its own variant
            ("""
            p(X) :- e(X, Y), g(Y).
            p(X) :- e(X, Y).
            p(U) :- e(U, V).
            ?- p(X).
            """, [("p@n(X) :- e(X, Y), g(Y).", "p@n(X) :- e(X, Y)."),
                  ("p@n(U) :- e(U, V).", "p@n(X) :- e(X, Y).")]),
        ],
        ids=["same-gen", "two-level", "nonlinear", "constant-query", "guard",
             "variant-pair", "strict-subsumer"],
    )
    def test_equivalence_on_random_edbs(self, src, subsumed):
        result = optimize(parse(src))
        assert [(str(r), str(w)) for r, w in result.subsumed] == subsumed
        check_equivalent(result, seeds=range(4), rows=20, domain=8)

    def test_never_more_rules_than_pre_deletion(self):
        # deletion never leaves more rules than it started with
        for src_fn in (example1_program, example2_program, example5_program):
            result = optimize(src_fn())
            added, _ = result.record("delete_rules").report
            pre = len(result.record("push_projections").program) + len(added)
            assert len(result.program) <= pre

    def test_optimized_never_slower_in_facts(self):
        program = example1_program()
        result = optimize(program)
        db = random_edb(program, rows=60, domain=25, seed=2)
        orig = evaluate(program, db).stats
        opt = result.evaluate(db).stats
        assert opt.facts_derived <= orig.facts_derived
