"""Tests for Theorem 3.3 machinery: self-embedding, NFAs, and the
monadic-program construction."""

from itertools import product

import pytest

from repro.datalog import Database, TransformError, parse
from repro.engine import evaluate
from repro.grammar.cfg import Grammar, Production
from repro.grammar.language import language
from repro.grammar.regular import (
    MAX_DFA_STATES,
    NFA,
    doubled_to_nfa,
    is_doubled,
    is_left_linear,
    is_right_linear,
    is_self_embedding,
    left_linear_to_nfa,
    minimal_dfa,
    monadic_program_for,
    nfa_accepts,
    reverse_nfa,
    right_linear_to_nfa,
)
from repro.workloads.graphs import chain, random_digraph


def grammar(*prods, start):
    return Grammar(
        tuple(Production(lhs, tuple(rhs.split())) for lhs, rhs in prods), start
    )


def words(alphabet, n):
    """Every non-empty word over *alphabet* of length at most *n*."""
    return [w for k in range(1, n + 1) for w in product(alphabet, repeat=k)]


TC = grammar(("a", "e a"), ("a", "e"), start="a")
ANBN = grammar(("s", "x s y"), ("s", "x y"), start="s")


class TestSelfEmbedding:
    def test_right_linear_not_self_embedding(self):
        assert not is_self_embedding(TC)

    def test_anbn_self_embedding(self):
        assert is_self_embedding(ANBN)

    def test_indirect_self_embedding(self):
        g = grammar(("a", "x b"), ("b", "a y"), ("b", "z"), start="a")
        # a => x b => x a y : self-embedding via b
        assert is_self_embedding(g)

    def test_center_recursion_without_context_not_embedding(self):
        g = grammar(("a", "x a"), ("a", "a y"), ("a", "z"), start="a")
        # left AND right recursion on the same nonterminal IS
        # self-embedding (a => x a => x a y)
        assert is_self_embedding(g)

    def test_pure_left_recursion(self):
        g = grammar(("a", "a x"), ("a", "x"), start="a")
        assert not is_self_embedding(g)


class TestLinearity:
    def test_right_linear(self):
        assert is_right_linear(TC)
        assert not is_right_linear(ANBN)

    def test_left_linear(self):
        g = grammar(("a", "a e"), ("a", "e"), start="a")
        assert is_left_linear(g)
        assert not is_right_linear(g)

    def test_terminal_only(self):
        g = grammar(("a", "x y"), start="a")
        assert is_right_linear(g) and is_left_linear(g)


class TestNFA:
    def test_tc_nfa_accepts_e_plus(self):
        nfa = right_linear_to_nfa(TC)
        assert nfa_accepts(nfa, ["e"])
        assert nfa_accepts(nfa, ["e"] * 5)
        assert not nfa_accepts(nfa, [])
        assert not nfa_accepts(nfa, ["f"])

    def test_multi_terminal_production(self):
        g = grammar(("a", "x y a"), ("a", "z"), start="a")
        nfa = right_linear_to_nfa(g)
        assert nfa_accepts(nfa, ["z"])
        assert nfa_accepts(nfa, ["x", "y", "z"])
        assert nfa_accepts(nfa, ["x", "y", "x", "y", "z"])
        assert not nfa_accepts(nfa, ["x", "z"])

    def test_unit_productions_resolved(self):
        g = grammar(("a", "b"), ("b", "x b"), ("b", "x"), start="a")
        nfa = right_linear_to_nfa(g)
        assert nfa_accepts(nfa, ["x"])
        assert nfa_accepts(nfa, ["x", "x"])

    def test_rejects_non_right_linear(self):
        with pytest.raises(TransformError):
            right_linear_to_nfa(ANBN)

    def test_agreement_with_bounded_language(self):
        g = grammar(("a", "x b"), ("b", "y b"), ("b", "y"), ("a", "z a"), ("a", "z"), start="a")
        nfa = right_linear_to_nfa(g)
        words = language(g, 5)
        # every enumerated word is accepted
        assert all(nfa_accepts(nfa, w) for w in words)
        # and a non-member is rejected
        assert not nfa_accepts(nfa, ("y", "x"))


class TestDoubled:
    """``P -> P P | L P | P R | B``: self-embedding, yet regular."""

    DOUBLED = [
        grammar(("p", "p p"), ("p", "e"), start="p"),
        grammar(("p", "p p"), ("p", "a p"), ("p", "b"), start="p"),
        grammar(("p", "p p"), ("p", "p r"), ("p", "b c"), start="p"),
        grammar(("p", "p p"), ("p", "a a p"), ("p", "p r"), ("p", "b"), ("p", "c"), start="p"),
        grammar(("p", "a p"), ("p", "p p"), ("p", "p r s"), ("p", "a"), start="p"),
    ]

    @pytest.mark.parametrize("g", DOUBLED, ids=range(len(DOUBLED)))
    def test_nfa_accepts_the_bounded_language(self, g):
        assert is_doubled(g) and is_self_embedding(g)
        nfa = doubled_to_nfa(g)
        members = language(g, 6)
        assert members
        for w in words(sorted(g.terminals), 6):
            assert nfa_accepts(nfa, w) == (w in members), w

    @pytest.mark.parametrize("g", [
        TC,                                                          # no doubling rule
        grammar(("p", "p p"), ("p", "a p b"), ("p", "e"), start="p"),  # two-sided
        grammar(("p", "p p"), ("p", "p"), ("p", "e"), start="p"),      # unit rule
        grammar(("p", "p p p"), ("p", "e"), start="p"),                # tripling
        grammar(("p", "q q"), ("q", "p"), ("q", "e"), start="p"),      # two nonterminals
    ], ids=["linear", "two-sided", "unit", "tripling", "mutual"])
    def test_other_grammars_are_not_doubled(self, g):
        assert not is_doubled(g)
        with pytest.raises(TransformError):
            doubled_to_nfa(g)

    def test_the_tail_nonterminal_is_fresh(self):
        # the rewrite's Q for p is "p$R"; here that name is a terminal
        g = grammar(("p", "p p"), ("p", "p p$R"), ("p", "e"), start="p")
        nfa = doubled_to_nfa(g)
        members = language(g, 5)
        for w in words(["e", "p$R"], 5):
            assert nfa_accepts(nfa, w) == (w in members), w


class TestMonadicProgram:
    def tc_program(self):
        return parse(
            """
            a(X, Y) :- e(X, Z), a(Z, Y).
            a(X, Y) :- e(X, Y).
            ?- a(X, _).
            """
        )

    def test_construction_matches_projection(self):
        program = self.tc_program()
        monadic = monadic_program_for(program)
        assert monadic is not None
        arities = monadic.arities()
        assert all(
            arities[p] == 1 for p in monadic.idb_predicates()
        )  # monadic indeed
        for seed in range(3):
            db = Database.from_dict({"e": random_digraph(12, 25, seed=seed)})
            reference = {t[0] for t in evaluate(program, db).answers()}
            got = {t[0] for t in evaluate(monadic, db).answers()}
            assert reference == got

    def test_chain_graph(self):
        program = self.tc_program()
        monadic = monadic_program_for(program)
        db = Database.from_dict({"e": chain(10)})
        assert {t[0] for t in evaluate(monadic, db).answers()} == set(range(9))

    def test_non_right_linear_returns_none(self):
        program = parse(
            """
            s(X, Y) :- x(X, Z1), s(Z1, Z2), y(Z2, Y).
            s(X, Y) :- x(X, Z), y(Z, Y).
            ?- s(X, _).
            """
        )
        assert monadic_program_for(program) is None

    def test_multi_nonterminal_language(self):
        program = parse(
            """
            a(X, Y) :- u(X, Z), b(Z, Y).
            b(X, Y) :- v(X, Z), b(Z, Y).
            b(X, Y) :- v(X, Y).
            ?- a(X, _).
            """
        )
        monadic = monadic_program_for(program)
        assert monadic is not None
        db = Database.from_dict({"u": [(0, 1)], "v": [(1, 2), (2, 3)]})
        assert {t[0] for t in evaluate(monadic, db).answers()} == {0}


class TestQueryForm:
    """monadic_program_for answers the first endpoint, so it checks the
    query."""

    RIGHT = "a(X, Y) :- e(X, Z), a(Z, Y).\na(X, Y) :- f(X, Y).\n"
    LEFT = "a(X, Y) :- a(X, Z), e(Z, Y).\na(X, Y) :- f(X, Y).\n"

    @pytest.mark.parametrize(
        "query", ["a(X, Y)", "a(X, X)", "a(1, Y)", "a(X, 1)", "a(_, _)", "a(_, Y)"]
    )
    def test_other_query_forms_get_none(self, query):
        assert monadic_program_for(parse(f"{self.RIGHT}?- {query}.")) is None

    def test_left_linear_gets_none(self):
        assert monadic_program_for(parse(f"{self.LEFT}?- a(X, _).")) is None

    def test_first_endpoint(self):
        program = parse(f"{self.RIGHT}?- a(X, _).")
        monadic = monadic_program_for(program)
        assert monadic is not None
        assert all(arity == 1 for p, arity in monadic.arities().items()
                   if p in monadic.idb_predicates())
        for seed in range(4):
            db = Database.from_dict({"e": random_digraph(10, 16, seed=seed),
                                     "f": random_digraph(10, 6, seed=seed + 5)})
            reference = {t[0] for t in evaluate(program, db).answers()}
            assert {t[0] for t in evaluate(monadic, db).answers()} == reference


class TestAutomata:
    def test_minimal_dfa_of_e_plus_f(self):
        # a -> e a | e f: the NFA has an intermediate state per two-terminal
        # production; the minimal DFA has three states
        g = Grammar((Production("a", ("e", "a")), Production("a", ("e", "f"))), "a")
        nfa = right_linear_to_nfa(g)
        dfa = minimal_dfa(nfa)
        assert len(dfa.states) == 3 and dfa.start == "0"
        assert all(len(dsts) == 1 for dsts in dfa.transitions.values())
        for w in words("ef", 5):
            assert nfa_accepts(dfa, w) == nfa_accepts(nfa, w), w

    def test_reverse_and_left_linear(self):
        g = Grammar((Production("a", ("a", "e")), Production("a", ("f",))), "a")
        nfa = left_linear_to_nfa(g)  # f e*
        assert nfa_accepts(nfa, ("f", "e", "e")) and not nfa_accepts(nfa, ("e", "f"))
        back = reverse_nfa(nfa)  # e* f
        for w in words("ef", 4):
            assert nfa_accepts(back, w) == nfa_accepts(nfa, w[::-1]), w

    def test_trim_drops_dead_states(self):
        nfa = NFA(frozenset({"s", "t", "dead"}), "s", frozenset({"t"}),
                  {("s", "e"): frozenset({"t", "dead"}), ("s", "f"): frozenset({"dead"})})
        dfa = minimal_dfa(nfa)
        assert dfa.transitions == {("0", "e"): frozenset({"1"})}
        assert minimal_dfa(NFA(frozenset({"s"}), "s", frozenset(), {})).finals == frozenset()

    @staticmethod
    def kth_from_last(k: int) -> Grammar:
        """(e|f)* e (e|f)^k, whose minimal DFA has 2^(k+1) states."""
        prods = [Production("a", ("e", "a")), Production("a", ("f", "a")),
                 Production("a", ("e", "b1"))]
        for i in range(1, k):
            prods += [Production(f"b{i}", (t, f"b{i + 1}")) for t in "ef"]
        prods += [Production(f"b{k}", (t,)) for t in "ef"]
        return Grammar(tuple(prods), "a")

    def test_subset_blowup_refused(self):
        assert 2 ** 8 <= MAX_DFA_STATES < 2 ** 9
        assert len(minimal_dfa(right_linear_to_nfa(self.kth_from_last(7))).states) == 2 ** 8
        with pytest.raises(TransformError, match="exceeds"):
            minimal_dfa(right_linear_to_nfa(self.kth_from_last(8)))
