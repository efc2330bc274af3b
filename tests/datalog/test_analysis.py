"""Unit tests for static program analysis."""

from repro.datalog import parse
from repro.datalog.analysis import (
    analyze,
    component_depths,
    condensation,
    dependency_graph,
    firable_rules,
    is_chain_program,
    is_chain_rule,
    reachable_predicates,
    recursive_predicates,
    strongly_connected_components,
    undefined_body_predicates,
)
from repro.datalog.parser import parse_rule


TC = parse(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
    """
)

MUTUAL = parse(
    """
    even(X) :- zero(X).
    even(X) :- succ(Y, X), odd(Y).
    odd(X) :- succ(Y, X), even(X).
    ?- even(X).
    """
)


class TestDependencyGraph:
    def test_tc(self):
        g = dependency_graph(TC)
        assert g == {"tc": frozenset({"edge", "tc"})}

    def test_mutual(self):
        g = dependency_graph(MUTUAL)
        assert g["even"] == {"zero", "succ", "odd"}
        assert g["odd"] == {"succ", "even"}


class TestSCC:
    def test_self_loop(self):
        sccs = strongly_connected_components({"a": frozenset({"a"})})
        assert frozenset({"a"}) in sccs

    def test_mutual_component(self):
        g = dependency_graph(MUTUAL)
        sccs = strongly_connected_components(g)
        assert frozenset({"even", "odd"}) in sccs

    def test_reverse_topological_order(self):
        g = {"a": frozenset({"b"}), "b": frozenset({"c"}), "c": frozenset()}
        sccs = strongly_connected_components(g)
        order = [next(iter(s)) for s in sccs]
        assert order.index("c") < order.index("a")


class TestRecursion:
    def test_tc_recursive(self):
        assert recursive_predicates(TC) == {"tc"}

    def test_mutual_recursive(self):
        assert recursive_predicates(MUTUAL) == {"even", "odd"}

    def test_nonrecursive(self):
        p = parse("q(X) :- p(X, Y). ?- q(X).")
        assert recursive_predicates(p) == frozenset()


class TestReachability:
    def test_from_query(self):
        p = parse(
            """
            q(X) :- a(X).
            a(X) :- b(X, Y).
            orphan(X) :- c(X).
            ?- q(X).
            """
        )
        assert reachable_predicates(p, ["q"]) == {"q", "a", "b"}

    def test_undefined_body_predicates(self):
        p = parse("q(X) :- ghost(X). ?- q(X).")
        assert undefined_body_predicates(p) == {"ghost"}
        assert undefined_body_predicates(p, edb=["ghost"]) == frozenset()


class TestFirableRules:
    def test_fact_rule_always_fires(self):
        program = parse("p(1).\nq(X) :- r(X).\n?- q(X).")
        assert firable_rules(program, ()) == {0}

    def test_builtin_and_negated_literals_never_block(self):
        program = parse(
            """
            p(1) :- lt(1, 2).
            p(2) :- not r(2).
            q(X) :- e(X), not r(X), neq(X, 3).
            ?- q(X).
            """
        )
        assert firable_rules(program, ()) == {0, 1}
        assert firable_rules(program, {"e"}) == {0, 1, 2}

    def test_heads_propagate(self):
        program = parse("b() :- a().\nc() :- b().\n?- c().")
        assert firable_rules(program, {"a"}) == {0, 1}
        assert firable_rules(program, ()) == frozenset()

    def test_skipped_rules_neither_fire_nor_propagate(self):
        program = parse("b() :- a().\nc() :- b().\n?- c().")
        assert firable_rules(program, {"a"}, {0}) == frozenset()

    def test_frozen_head_relation_is_not_present(self, monkeypatch):
        # the frozen body of rule 0 is {b(x)}; freeze also creates the
        # (empty) relation of the head a, which must not let rule 1 fire
        from repro.core import uniform_equivalence

        program = parse("a(X) :- b(X).\nc(X) :- a(X).\n?- c(X).")
        _, body = uniform_equivalence.freeze(program.rules[0])
        assert body.relation("a") is not None and not body.relation("a")

        def no_engine(*args, **kwargs):
            raise AssertionError("a chase in which no rule fires prepared")

        monkeypatch.setattr(uniform_equivalence, "prepare", no_engine)
        head, fixpoint = uniform_equivalence.frozen_chase(
            program, program.rules[0], {0}
        )
        assert fixpoint.fact_count() == 1
        assert head.as_fact() not in fixpoint.relation("a")


class TestChainDetection:
    def test_chain_rule(self):
        assert is_chain_rule(parse_rule("p(X, Y) :- a(X, Z), b(Z, Y)."))
        assert is_chain_rule(parse_rule("p(X, Y) :- a(X, Y)."))

    def test_long_chain(self):
        assert is_chain_rule(
            parse_rule("p(X, Y) :- a(X, Z1), b(Z1, Z2), c(Z2, Z3), d(Z3, Y).")
        )

    def test_not_chain_broken_link(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- a(X, Z), b(W, Y)."))

    def test_not_chain_wrong_arity(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- a(X, Y, Z), b(Z, Y)."))
        assert not is_chain_rule(parse_rule("p(X) :- a(X, X)."))

    def test_not_chain_head_vars_equal(self):
        assert not is_chain_rule(parse_rule("p(X, X) :- a(X, X)."))

    def test_not_chain_repeated_middle(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- a(X, Z), b(Z, Z), c(Z, Y)."))

    def test_not_chain_empty_body(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- q(Y, X)."))

    def test_chain_program(self):
        assert is_chain_program(TC)
        assert not is_chain_program(MUTUAL)


class TestAnalyzeBundle:
    def test_bundle_fields(self):
        info = analyze(TC)
        assert info.recursive == {"tc"}
        assert info.idb == {"tc"}
        assert info.edb == {"edge"}
        assert info.reachable_from_query == {"tc", "edge"}
        assert info.is_derived("tc") and not info.is_derived("edge")


class TestCondensation:
    def test_self_loop_scc_drops_self_edge(self):
        # tc's SCC depends on itself (recursion) and on edge; the
        # condensation keeps only the cross-component edge
        info = analyze(TC)
        edges = condensation(info)
        tc_idx = next(i for i, scc in enumerate(info.sccs) if "tc" in scc)
        edge_idx = next(i for i, scc in enumerate(info.sccs) if "edge" in scc)
        assert edges[tc_idx] == frozenset({edge_idx})
        assert tc_idx not in edges[tc_idx]

    def test_edges_point_at_smaller_indexes(self):
        info = analyze(MUTUAL)
        for i, deps in condensation(info).items():
            assert all(j < i for j in deps)

    def test_mutual_recursion_is_one_component(self):
        info = analyze(MUTUAL)
        assert frozenset({"even", "odd"}) in info.sccs

    def test_rule_free_program_has_no_components(self):
        assert condensation(analyze(parse("?- p(X)."))) == {}


class TestComponentDepths:
    def test_chain_of_dependencies(self):
        # 0 <- 1 <- 2: depths 0, 1, 2
        edges = {0: frozenset(), 1: frozenset({0}), 2: frozenset({1})}
        assert component_depths(edges, [0, 1, 2]) == {0: 0, 1: 1, 2: 2}

    def test_restriction_to_within(self):
        # dependency on a component outside *within* does not add depth
        edges = {0: frozenset(), 1: frozenset({0}), 2: frozenset({1})}
        assert component_depths(edges, [1, 2]) == {1: 0, 2: 1}

    def test_diamond_takes_longest_path(self):
        edges = {
            0: frozenset(),
            1: frozenset({0}),
            2: frozenset({0, 1}),
            3: frozenset({1, 2}),
        }
        assert component_depths(edges, [0, 1, 2, 3]) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_self_loop_component_depth(self):
        # a recursive SCC's self-edge is dropped by condensation, so a
        # lone self-recursive component sits at depth 0
        info = analyze(TC)
        edges = condensation(info)
        depths = component_depths(edges, range(len(info.sccs)))
        tc_idx = next(i for i, scc in enumerate(info.sccs) if "tc" in scc)
        edge_idx = next(i for i, scc in enumerate(info.sccs) if "edge" in scc)
        assert depths[edge_idx] == 0
        assert depths[tc_idx] == 1


class TestChainEdgeCases:
    def test_unit_chain_rule(self):
        assert is_chain_rule(parse_rule("p(X, Y) :- q(X, Y)."))

    def test_constant_in_head_not_chain(self):
        assert not is_chain_rule(parse_rule("p(1, Y) :- q(1, Y)."))

    def test_constant_in_body_not_chain(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- q(X, 3), r(3, Y)."))

    def test_chain_variable_reused_as_terminal(self):
        # Z closes back onto the opening variable: not a chain
        assert not is_chain_rule(parse_rule("p(X, Y) :- a(X, X), b(X, Y)."))

    def test_head_second_var_must_close_chain(self):
        assert not is_chain_rule(parse_rule("p(X, Y) :- a(X, Z), b(Z, W)."))

    def test_chain_program_with_fact_rule(self):
        # a fact has no body, so it cannot be a chain rule
        program = parse("p(1, 2).\np(X, Y) :- q(X, Y).\n?- p(X, Y).")
        assert not is_chain_program(program)

    def test_chain_program_unit_rules_only(self):
        program = parse("p(X, Y) :- q(X, Y).\nq(X, Y) :- r(X, Y).\n?- p(X, Y).")
        assert is_chain_program(program)
