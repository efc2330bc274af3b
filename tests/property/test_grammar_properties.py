"""Property-based tests for the grammar correspondence (Lemma 4.1 and
the section-1.1 semantics)."""

from hypothesis import assume, given, settings

from repro.datalog import Database
from repro.engine import evaluate
from repro.grammar.cfg import grammar_to_program
from repro.grammar.equivalence import (
    query_equivalent_bounded,
    uniform_query_equivalent_bounded,
)
from repro.grammar.language import extended_language, language, shortest_word
from repro.grammar.regular import is_right_linear, nfa_accepts, right_linear_to_nfa

from .strategies import chain_grammars, labelled_graphs, right_linear_grammars

MAX_LEN = 4


def paths_spelling(db, word, max_nodes=8):
    """All (start, end) pairs connected by a path labelled *word*."""
    pairs = {(n, n) for n in range(max_nodes)}
    for symbol in word:
        edges = db.rows(symbol)
        pairs = {(a, d) for (a, b) in pairs for (c, d) in edges if b == c}
        if not pairs:
            return set()
    return pairs


@given(chain_grammars(max_rhs=2), labelled_graphs(max_nodes=5))
@settings(max_examples=40, deadline=None)
def test_words_yield_derived_facts(grammar, db):
    """Soundness of the correspondence: every word of L(G) that labels a
    path x→y witnesses the derived fact s(x, y)."""
    assume("s" in grammar.nonterminals)
    program = grammar_to_program(grammar)
    facts = evaluate(program, db).facts("s")
    for word in language(grammar, MAX_LEN):
        for pair in paths_spelling(db, word):
            assert pair in facts


@given(chain_grammars(max_rhs=2), labelled_graphs(max_nodes=4, max_edges_per_label=5))
@settings(max_examples=30, deadline=None)
def test_facts_on_short_dags_have_word_witnesses(grammar, db):
    """Completeness on acyclic graphs with short paths: every derived
    fact is witnessed by some word within the bound."""
    # keep only forward edges (DAG) so all paths have length < nodes
    dag = Database()
    for label in ("e", "f"):
        rel = dag.ensure(label, 2)
        rel.update((a, b) for (a, b) in db.rows(label) if a < b)
    assume("s" in grammar.nonterminals)
    program = grammar_to_program(grammar)
    facts = evaluate(program, dag).facts("s")
    witnessed = set()
    for word in language(grammar, MAX_LEN):
        witnessed |= paths_spelling(dag, word)
    assert facts <= witnessed


@given(chain_grammars(max_rhs=2))
@settings(max_examples=50, deadline=None)
def test_language_subset_of_extended(grammar):
    assert language(grammar, MAX_LEN) <= extended_language(grammar, MAX_LEN)


@given(chain_grammars(max_rhs=2))
@settings(max_examples=50, deadline=None)
def test_uniform_query_equivalence_implies_query_equivalence(grammar):
    """Lemma 4.1: L^ex equality is stronger than L equality — check the
    implication on grammar pairs (g, g-with-duplicate-production)."""
    doubled = type(grammar)(grammar.productions + grammar.productions[:1], "s")
    assert uniform_query_equivalent_bounded(grammar, doubled, MAX_LEN)
    assert query_equivalent_bounded(grammar, doubled, MAX_LEN)


@given(chain_grammars(max_rhs=2))
@settings(max_examples=50, deadline=None)
def test_shortest_word_is_in_language(grammar):
    word = shortest_word(grammar)
    if word is None:
        assert language(grammar, 6) == frozenset()
    else:
        assert word in language(grammar, len(word))


@given(right_linear_grammars())
@settings(max_examples=50, deadline=None)
def test_nfa_agrees_with_bounded_language(grammar):
    """The right-linear→NFA construction accepts exactly the language
    (checked on all strings up to the bound)."""
    assume("s" in grammar.nonterminals)
    nfa = right_linear_to_nfa(grammar)
    assert is_right_linear(grammar)
    words = language(grammar, MAX_LEN)
    for word in words:
        assert nfa_accepts(nfa, word)
    # exhaustive negative check over the alphabet up to length 3
    from itertools import product

    for k in range(1, 4):
        for candidate in product(("e", "f"), repeat=k):
            if candidate not in words:
                assert not nfa_accepts(nfa, candidate), candidate


@given(right_linear_grammars(), labelled_graphs(max_nodes=5))
@settings(max_examples=30, deadline=None)
def test_monadic_program_agrees_with_binary(grammar, db):
    """Theorem 3.3, constructive direction, randomized."""
    from repro.grammar.regular import monadic_program_for

    assume("s" in grammar.nonterminals)
    program = grammar_to_program(grammar, ("X", "_"))
    monadic = monadic_program_for(program)
    assert monadic is not None
    reference = {t[0] for t in evaluate(program, db).answers()}
    got = {t[0] for t in evaluate(monadic, db).answers()}
    assert reference == got
