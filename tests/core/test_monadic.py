"""The ``monadic_chains`` pass (Theorem 3.3 inside ``optimize``)."""

from dataclasses import replace

import pytest

from repro.analysis.validate import InvariantViolation
from repro.core import optimize
from repro.core.monadic import MonadicChain
from repro.core.adornment import Adornment, AdornedLiteral, AdornedRule
from repro.datalog import Database, DerivedInputError, parse
from repro.datalog.ast import Atom
from repro.datalog.terms import Variable
from repro.workloads import families
from repro.workloads.edb import random_edb

EXIST_REACH = parse(
    "q(Y) :- start(X), reach(X, Y, T0, T1).\n"
    + "\n".join(map(str, families.reachability_with_payload(2).rules))
    + "\n?- q(Y)."
)

SIBLING3 = parse(
    "".join(f"tc{i}(X, Y) :- edge{i}(X, Y).\ntc{i}(X, Y) :- edge{i}(X, Z), tc{i}(Z, Y).\n"
            for i in (1, 2, 3))
    + "q(X, Y) :- tc1(X, Y), tc2(X, Y), tc3(X, Y).\n?- q(X, Y)."
)

#: the final programs of the programs the pass declines, as they were
#: before the pass existed: a decline changes nothing downstream
PINNED = {
    "tc_cycle": (
        parse("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n?- tc(X, X)."),
        "tc@nn(X, Y) :- edge(X, Y).\ntc@nn(X, Y) :- edge(X, Z), tc@nn(Z, Y).\n"
        "?- tc@nn(X, X).",
    ),
    "nonlinear_tc_both_endpoints": (
        parse("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), tc(Z, Y).\n?- tc(X, Y)."),
        "tc@nn(X, Y) :- edge(X, Y).\ntc@nn(X, Y) :- tc@nn(X, Z), tc@nn(Z, Y).\n"
        "?- tc@nn(X, Y).",
    ),
    "same_generation": (
        families.same_generation(),
        "sg@nn(X, Y) :- flat(X, Y).\nsg@nn(X, Y) :- up(X, U), sg@nn(U, V), down(V, Y).\n"
        "?- sg@nn(X, Y).",
    ),
    "sibling3": (
        SIBLING3,
        "q@nn(X, Y) :- tc1@nn(X, Y), tc2@nn(X, Y), tc3@nn(X, Y).\n"
        "tc3@nn(X, Y) :- edge3(X, Y).\ntc3@nn(X, Y) :- edge3(X, Z), tc3@nn(Z, Y).\n"
        "tc2@nn(X, Y) :- edge2(X, Y).\ntc2@nn(X, Y) :- edge2(X, Z), tc2@nn(Z, Y).\n"
        "tc1@nn(X, Y) :- edge1(X, Y).\ntc1@nn(X, Y) :- edge1(X, Z), tc1@nn(Z, Y).\n"
        "?- q@nn(X, Y).",
    ),
    **{
        f"payload{k}": (
            families.reachability_with_payload(k),
            f"reach@nn{'d' * k}(X, Y) :- edge(X, Y), "
            + ", ".join(f"tag{i}(Y, T{i})" for i in range(k))
            + f".\nreach@nn{'d' * k}(X, Y) :- edge(X, Z), reach@nn{'d' * k}(Z, Y).\n"
            f"?- reach@nn{'d' * k}(X, Y).",
        )
        for k in (1, 2, 3)
    },
}


def check_answers(program, seeds=range(4), rows=20, domain=8):
    result = optimize(program, validate=True)
    for seed in seeds:
        db = random_edb(program, rows=rows, domain=domain, seed=seed)
        assert result.answers(db) == result.reference_answers(db), seed
    return result


def derived_arities(result):
    return {r.head.atom.predicate: r.head.atom.arity for r in result.final.rules}


class TestExistReach:
    def test_forward_from_the_seed(self):
        result = check_answers(EXIST_REACH)
        (chain,) = result.monadic
        assert (chain.start, chain.direction, chain.seed) == ("reach@nndd", "forward", "start(X)")
        assert chain.component == ("reach@nndd",)
        assert chain.states == ("reach.fw1@n", "reach.fw2@n")
        # no binary derived predicate is left to compute
        assert set(derived_arities(result).values()) == {1}

    def test_final_program(self):
        assert [str(r) for r in optimize(EXIST_REACH).final.rules] == [
            "reach.fw1@n(Y) :- start(X), edge(X, Y).",
            "reach.fw2@n(X) :- reach.fw1@n(X), tag0(X, T0), tag1(X, T1).",
            "reach.fw1@n(Y) :- reach.fw1@n(X), edge(X, Y).",
        ]

    def test_describe_and_report(self):
        result = optimize(EXIST_REACH)
        assert "chains made monadic (Theorem 3.3)" in result.describe()
        assert "reach@nndd: forward from start(X)" in result.describe()
        (entry,) = result.report_dict()["monadic_chains"]
        assert entry["direction"] == "forward" and entry["seed"] == "start(X)"

    def test_rows_of_the_dropped_predicate_are_refused(self):
        result = optimize(EXIST_REACH)
        db = Database.from_dict({"edge": [(1, 2)], "start": [(1,)], "reach": [(1, 2, 3, 4)]})
        with pytest.raises(DerivedInputError) as err:
            result.evaluate(db)
        assert err.value.predicate == "reach"
        assert err.value.pass_name == "monadic_chains"


class TestGuardedItems:
    def test_the_recursion_is_gone(self):
        result = check_answers(families.guarded_items())
        (chain,) = result.monadic
        assert (chain.reader, chain.direction, chain.seed) == ("witness@dn", "forward", "any edge")
        assert [str(r) for r in result.final.rules] == [
            "q@n(X) :- item(X, Y), bool1.",
            "bool1 :- link(X, V), mark(V).",
        ]


class TestNonlinearTC:
    """A doubled component (``P -> P P``): the query's own version is
    redefined, because the section-5 chase cannot remove the doubling."""

    def test_final_program(self):
        result = check_answers(families.nonlinear_tc(), seeds=range(20))
        assert str(result.final) == "tc@nd(Y) :- edge(Y, X).\n?- tc@nd(X)."

    def test_the_chain(self):
        (chain,) = optimize(families.nonlinear_tc()).monadic
        assert chain == MonadicChain(
            ("tc@nn",), "tc@nn", "backward", "any edge", "tc@nd", ()
        )

    @pytest.mark.parametrize("rules", [
        # P -> P P | L P | B, read forward from a seed
        "c(X, Y) :- c(X, Z), c(Z, Y).\nc(X, Y) :- a(X, Z), c(Z, Y).\nc(X, Y) :- b(X, Y).",
        # P -> P P | P R | B with a node test on the base word
        "c(X, Y) :- c(X, Z), c(Z, Y).\nc(X, Y) :- c(X, Z), r(Z, Y).\n"
        "c(X, Y) :- b(X, Y), ok(Y, 1).",
        # both one-sided rules at once: (a* b r*)+
        "c(X, Y) :- c(X, Z), c(Z, Y).\nc(X, Y) :- a(X, Z), c(Z, Y).\n"
        "c(X, Y) :- c(X, Z), r(Z, Y).\nc(X, Y) :- b(X, Z), b(Z, Y).",
    ], ids=["left", "right-tested", "both-sides"])
    @pytest.mark.parametrize("reader", [
        "q(Y) :- s(X), c(X, Y).\n?- q(Y).",
        "q(X) :- c(X, Y), s(Y).\n?- q(X).",
        "?- c(X, _).",
        "?- c(_, Y).",
    ], ids=["seed-forward", "seed-backward", "query-first", "query-second"])
    def test_mixed_words(self, rules, reader):
        program = parse(f"{rules}\n{reader}")
        result = check_answers(program, seeds=range(10), domain=5)
        assert result.monadic
        assert set(derived_arities(result).values()) == {1}


class TestDeclines:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_final_program(self, name):
        program, text = PINNED[name]
        result = optimize(program)
        assert result.monadic == ()
        assert str(result.final) == text

    def test_query_version_is_not_redefined(self):
        # Example 5: the reader of a@nn is the query's a@nd; the chase
        # of section 5 removes the recursion there (Example 6)
        from repro.workloads.paper_examples import example5_program

        result = optimize(example5_program())
        assert result.monadic == ()
        assert [str(r) for r in result.final.rules] == ["a@nd(X) :- p(X, Y)."]

    @pytest.mark.parametrize("reader", [
        "q(X) :- c(X, Y), d(Y, X).",      # both endpoints joined to the same literal
        "q(X, Y) :- s(X), c(X, Y).",      # both endpoints needed
        "q(X) :- c(X, X).",               # one variable at both endpoints
        "q(X) :- s(X), c(X, Y), not t(Y).",  # the free side meets a negation
    ])
    def test_readers_outside_the_shapes(self, reader):
        program = parse(
            f"{reader}\nc(X, Y) :- e(X, Y).\nc(X, Y) :- e(X, Z), c(Z, Y).\n?- q(X"
            + (", Y" if reader.startswith("q(X, Y)") else "") + ")."
        )
        assert optimize(program).monadic == ()

    def test_a_subset_blowup_declines_that_direction(self):
        # c = (e|f)* e b1, b_i = (e|f) b_i+1, b8 = e | f | g c: read
        # forward, the DFA must remember the last nine symbols (past
        # MAX_DFA_STATES); read backward it stays small
        rules = ["c(X, Y) :- e(X, Z), c(Z, Y).", "c(X, Y) :- f(X, Z), c(Z, Y).",
                 "c(X, Y) :- e(X, Z), b1(Z, Y).", "b8(X, Y) :- g(X, Z), c(Z, Y)."]
        rules += [f"b{i}(X, Y) :- {t}(X, Z), b{i + 1}(Z, Y)." for i in range(1, 8) for t in "ef"]
        rules += [f"b8(X, Y) :- {t}(X, Y)." for t in "ef"]
        forward = parse("q(Y) :- s(X), c(X, Y).\n" + "\n".join(rules) + "\n?- q(Y).")
        assert check_answers(forward, seeds=range(2)).monadic == ()
        backward = parse("q(X) :- c(X, Y), s(Y).\n" + "\n".join(rules) + "\n?- q(X).")
        (chain,) = check_answers(backward, seeds=range(2)).monadic
        assert chain.direction == "backward"

    def test_declines_before_building_an_automaton(self, monkeypatch):
        import repro.grammar.regular as regular

        def boom(*args, **kwargs):
            raise AssertionError("a declined program built an automaton")

        for name in ("right_linear_to_nfa", "left_linear_to_nfa", "doubled_to_nfa", "minimal_dfa"):
            monkeypatch.setattr(regular, name, boom)
        for program, _text in PINNED.values():
            optimize(program)
        for name, program in families.all_families().items():
            if name not in ("guarded_items", "nonlinear_tc"):
                optimize(program)

    @pytest.mark.parametrize("program", [
        # mutual recursion with doubling
        "c(X, Y) :- e(X, Y).\nc(X, Y) :- d(X, Z), d(Z, Y).\nd(X, Y) :- c(X, Y).\n"
        "d(X, Y) :- f(X, Y).\n?- c(X, _).",
        # P -> L P R beside the doubling rule
        "c(X, Y) :- e(X, Y).\nc(X, Y) :- c(X, Z), c(Z, Y).\n"
        "c(X, Y) :- a(X, Z), c(Z, W), b(W, Y).\n?- c(X, _).",
        # a doubled member read at both endpoints
        "q(X) :- c(X, Y), c(Y, X).\nc(X, Y) :- e(X, Y).\n"
        "c(X, Y) :- c(X, Z), c(Z, Y).\n?- q(X).",
        # a test between the two halves of the doubling rule
        "c(X, Y) :- e(X, Y).\nc(X, Y) :- c(X, Z), t(Z), c(Z, Y).\n?- c(X, _).",
    ], ids=["mutual", "two-sided", "both-endpoints", "tested-middle"])
    def test_doubled_outside_the_shapes(self, program):
        assert check_answers(parse(program), seeds=range(2)).monadic == ()


class TestShapes:
    def test_backward_from_a_seed_on_the_second_endpoint(self):
        program = parse(
            "q(X) :- c(X, Y), goal(Y).\n"
            "c(X, Y) :- e(X, Y).\nc(X, Y) :- e(X, Z), c(Z, Y).\n?- q(X)."
        )
        result = check_answers(program)
        (chain,) = result.monadic
        assert (chain.direction, chain.seed) == ("backward", "goal(Y)")

    def test_left_linear_forward(self):
        program = parse(
            "q(Y) :- s(X), c(X, Y).\n"
            "c(X, Y) :- c(X, Z), e(Z, Y).\nc(X, Y) :- f(X, Y).\n?- q(Y)."
        )
        (chain,) = check_answers(program).monadic
        assert chain.direction == "forward"

    def test_start_state_with_incoming_moves_and_two_accepting_states(self):
        # c -> a | a b | d c: the DFA re-enters its start on d and accepts
        # after a and after a b
        program = parse(
            "q(Y) :- s(X), c(X, Y).\n"
            "c(X, Y) :- a(X, Y).\nc(X, Y) :- a(X, Z), b(Z, Y).\n"
            "c(X, Y) :- d(X, Z), c(Z, Y).\n?- q(Y)."
        )
        result = check_answers(program, seeds=range(8))
        assert result.monadic

    def test_two_chain_literals_in_one_rule(self):
        program = parse(
            "q(Y) :- s(X), c(X, Z), c(Z, Y).\n"
            "c(X, Y) :- e(X, Y).\nc(X, Y) :- e(X, Z), c(Z, Y).\n?- q(Y)."
        )
        result = check_answers(program)
        assert [c.seed for c in result.monadic] == ["s(X)", "c.fw1@n(Z)"]

    def test_node_tests_with_constants_and_mutual_recursion(self):
        program = parse(
            "q(Y) :- s(X), a(X, Y).\n"
            "a(X, Y) :- e(X, Z), ok(Z, 1), b(Z, Y).\n"
            "b(X, Y) :- f(X, Y), tag(Y, T).\nb(X, Y) :- f(X, Z), a(Z, Y).\n?- q(Y)."
        )
        result = check_answers(program, seeds=range(6), domain=4)
        (chain,) = result.monadic
        assert chain.component == ("a@nn", "b@nn")


class TestContract:
    """``check_pass`` under ``optimize(validate=True)``."""

    X, Y = Variable("X"), Variable("Y")

    def damaged(self, monkeypatch, damage):
        import repro.core.monadic as monadic

        real = monadic.monadic_chains
        monkeypatch.setattr(monadic, "monadic_chains", lambda p: damage(*real(p)))
        with pytest.raises(InvariantViolation) as err:
            optimize(EXIST_REACH, validate=True)
        assert err.value.pass_name == "monadic_chains"
        return err.value.rule

    def test_a_reader_left_on_a_dropped_predicate(self, monkeypatch):
        def damage(program, chains):
            lit = AdornedLiteral(Atom("reach@nndd", (self.X, self.Y)), Adornment("nndd"), True)
            head = AdornedLiteral(Atom("r@nn", (self.X, self.Y)), Adornment("nn"), True)
            return program.with_rules((*program.rules, AdornedRule(head, (lit,)))), chains

        assert self.damaged(monkeypatch, damage) == "monadic-dropped"

    def test_a_state_predicate_that_is_not_unary(self, monkeypatch):
        def damage(program, chains):
            head = AdornedLiteral(Atom("reach.fw3@nn", (self.X, self.Y)), Adornment("nn"), True)
            body = AdornedLiteral(Atom("edge", (self.X, self.Y)), Adornment("nn"), False)
            (chain,) = chains
            bad = replace(chain, states=chain.states + ("reach.fw3@nn",))
            return program.with_rules((*program.rules, AdornedRule(head, (body,)))), (bad,)

        assert self.damaged(monkeypatch, damage) == "monadic-unary"


class TestDerivedInput:
    """``OptimizationResult.evaluate`` refuses rows of derived predicates."""

    F1 = parse("q(X) :- a(X).\na(X) :- e(X, Y), a(Y).\na(X) :- s(X).\n?- q(X).")

    def test_f1_is_refused_and_names_the_pass(self):
        result = optimize(self.F1)
        db = Database.from_dict({"e": [(1, 2), (3, 9)], "s": [(2,)], "a": [(9,)]})
        with pytest.raises(DerivedInputError) as err:
            result.answers(db)
        assert err.value.predicate == "a"
        assert err.value.pass_name == "inline_projection_query"
        assert "'a'" in str(err.value)

    def test_edb_only_input_and_empty_derived_relations_pass(self):
        result = optimize(self.F1)
        db = Database.from_dict({"e": [(1, 2), (3, 9)], "s": [(2,)]})
        db.ensure("a", 1)
        assert result.answers(db) == {(1,), (2,)}

    def test_rows_of_a_derived_predicate_the_query_never_reads_pass(self):
        # a facts file shared with another program: `b` is derived here,
        # but nothing the query depends on reads it
        program = parse(str(self.F1).replace("?- q(X).", "b(X) :- s(X).\n?- q(X)."))
        result = optimize(program)
        db = Database.from_dict({"e": [(1, 2), (3, 9)], "s": [(2,)], "b": [(7,)]})
        assert result.answers(db) == result.reference_answers(db) == {(1,), (2,)}
