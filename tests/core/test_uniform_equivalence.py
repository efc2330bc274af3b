"""Tests for Sagiv's uniform-equivalence machinery (Examples 4 and 5)."""

from repro.datalog import parse
from repro.engine import clear_prepared_cache, evaluate, prepared_cache_stats
from repro.core.adornment import adorn
from repro.core.pipeline import optimize
from repro.core.projection import push_projections
from repro.core.uniform_equivalence import (
    literal_deletable_uniform,
    minimize_uniform,
    rule_deletable_uniform,
    uniformly_contains,
    uniformly_equivalent,
)
from repro.workloads.edb import uniform_instance
from repro.workloads.families import boolean_chain, sibling_components
from repro.workloads.paper_examples import (
    adorned_from_text,
    example1_program,
    example5_adorned_text,
    example5_program,
)


def projected_tc():
    """Example 3's program (unary right-linear TC)."""
    return push_projections(adorn(example1_program())).to_program()


class TestRuleDeletion:
    def test_example4_recursive_rule_deletable(self):
        program = projected_tc()
        # rule 1: a@nd(X) :- p(X, Z), a@nd(Z).
        assert rule_deletable_uniform(program, 1)

    def test_example4_exit_rule_not_deletable(self):
        program = projected_tc()
        assert not rule_deletable_uniform(program, 2)

    def test_example3a_variant_blocks_deletion(self):
        # paper: "such a deletion would not be possible if the following
        # rule replaced the third rule": exit over a different relation
        program = parse(
            """
            query(X) :- a(X).
            a(X) :- p(X, Z), a(Z).
            a(X) :- p1(X, Z).
            ?- query(X).
            """
        )
        assert not rule_deletable_uniform(program, 1)

    def test_example5_nothing_deletable(self):
        program = adorned_from_text(example5_adorned_text()).to_program()
        for ri in range(len(program.rules)):
            assert not rule_deletable_uniform(program, ri), ri

    def test_trivial_circular_rule(self):
        program = parse("a(X) :- a(X). a(X) :- e(X). ?- a(X).")
        assert rule_deletable_uniform(program, 0)


class TestLiteralDeletion:
    def test_duplicate_literal_deletable(self):
        program = parse("q(X) :- e(X, Y), e(X, Y2). ?- q(X).")
        assert literal_deletable_uniform(program, 0, 1)

    def test_join_literal_not_deletable(self):
        program = parse("q(X) :- e(X, Y), f(Y). ?- q(X).")
        assert not literal_deletable_uniform(program, 0, 1)

    def test_safety_preserving_only(self):
        program = parse("q(X) :- e(X). ?- q(X).")
        assert not literal_deletable_uniform(program, 0, 0)

    def test_subsumed_literal(self):
        # f(Y, Y) subsumed? no — but e twice with swap isn't; check a
        # genuinely implied literal via an idb rule
        program = parse(
            """
            big(X) :- e(X, Y), any(X).
            any(X) :- e(X, Z).
            ?- big(X).
            """
        )
        assert literal_deletable_uniform(program, 0, 1)


class TestContainmentAndEquivalence:
    def test_self_equivalence(self):
        program = projected_tc()
        assert uniformly_equivalent(program, program)

    def test_example4_minimized_program_equivalent(self):
        program = projected_tc()
        smaller = program.without_rule(1)
        assert uniformly_equivalent(program, smaller)

    def test_example5_left_vs_right_linear_not_uniformly_equivalent(self):
        left = parse(
            """
            a(X, Y) :- a(X, Z), p(Z, Y).
            a(X, Y) :- p(X, Y).
            """
        )
        right = parse(
            """
            a(X, Y) :- p(X, Z), a(Z, Y).
            a(X, Y) :- p(X, Y).
            """
        )
        # Same least model from EDB-only inputs, but uniform inputs
        # (with a-facts present) distinguish them... actually both
        # compute tc closure over p plus closure of given a-facts
        # through p. Left extends a-facts on the right; right extends
        # on the left. They differ.
        assert not uniformly_equivalent(left, right)

    def test_containment_direction(self):
        program = projected_tc()
        extra = parse(
            """
            query(X) :- a(X).
            a(X) :- p(X, Z), a(Z).
            a(X) :- p(X, Y).
            a(X) :- bonus(X).
            ?- query(X).
            """
        )
        # careful: predicates differ (query@n vs query); rebuild matching
        base = parse(
            """
            query(X) :- a(X).
            a(X) :- p(X, Z), a(Z).
            a(X) :- p(X, Y).
            ?- query(X).
            """
        )
        assert uniformly_contains(extra, base)
        assert not uniformly_contains(base, extra)

    def test_uniform_equivalence_implies_same_fixpoints_on_samples(self):
        program = projected_tc()
        smaller = program.without_rule(1)
        for seed in range(3):
            db = uniform_instance(program, rows=6, domain=5, seed=seed)
            r1 = evaluate(program.with_query(None), db)
            r2 = evaluate(smaller.with_query(None), db)
            for pred in program.idb_predicates():
                assert r1.facts(pred) == r2.facts(pred)


class TestMinimize:
    def test_example4_minimization(self):
        program = projected_tc()
        minimized = minimize_uniform(program, drop_literals=False)
        assert len(minimized) == 2
        # the recursive rule is the one that disappears
        assert all("a@nd(Z)" not in str(r) for r in minimized.rules)

    def test_minimize_drops_duplicate_literals(self):
        program = parse("q(X) :- e(X, Y), e(X, Y2). ?- q(X).")
        minimized = minimize_uniform(program)
        assert len(minimized.rules[0].body) == 1

    def test_minimized_program_equivalent_on_samples(self):
        program = projected_tc()
        minimized = minimize_uniform(program)
        for seed in range(3):
            db = uniform_instance(program, rows=6, domain=5, seed=seed)
            assert (
                evaluate(program, db).answers()
                == evaluate(minimized, db).answers()
            )


class TestChaseGate:
    """A chase in which no rule can fire returns its frozen body without
    preparing or running the program."""

    @staticmethod
    def _misses(program):
        clear_prepared_cache()
        result = optimize(program)
        return prepared_cache_stats()["misses"], result

    def test_unfirable_chases_prepare_nothing(self):
        for program in (boolean_chain(8), sibling_components(4)):
            assert self._misses(program)[0] == 0

    def test_example5_chase_still_runs(self):
        # the left-linear chase of Example 5 fires a@nn's rules, so its
        # deletion verdicts still come from the engine
        misses, result = self._misses(example5_program())
        assert misses > 0
        assert any(
            d["reason"].startswith("uniform-query-equivalence chase")
            for d in result.report_dict()["deleted_rules"]
        )
