"""Property-based tests for the optimizer: every phase preserves the
query answer on random chain programs over random labelled graphs."""

from hypothesis import assume, given, settings

from repro.datalog import Atom, Program
from repro.datalog.terms import Variable
from repro.engine import EngineOptions, evaluate
from repro.core import adorn, delete_rules, optimize, push_projections
from repro.core.components import split_components
from repro.grammar.cfg import grammar_to_program
from repro.grammar.language import productive_nonterminals

from .strategies import chain_grammars, labelled_graphs


def program_from(grammar, existential=True):
    """A chain program for the grammar, queried as s^nd (anonymous
    second argument) or s^nn."""
    program = grammar_to_program(grammar)
    if existential:
        query = Atom("s", (Variable("X"), Variable("_1")))
        program = Program(program.rules, query)
    return program


def projected_reference(program, db):
    """First column of the original query's answers."""
    return {t[0] for t in evaluate(program.with_query(Atom("s", (Variable("X"), Variable("Y")))), db).answers()}


@given(chain_grammars(), labelled_graphs())
@settings(max_examples=50, deadline=None)
def test_full_pipeline_preserves_answers(grammar, db):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    result = optimize(program)
    got = {t[0] for t in result.answers(db)}
    assert got == projected_reference(program, db)


@given(chain_grammars(), labelled_graphs())
@settings(max_examples=50, deadline=None)
def test_projection_pushing_preserves_answers(grammar, db):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    projected = push_projections(adorn(program)).to_program()
    got = {t[0] for t in evaluate(projected, db).answers()}
    assert got == projected_reference(program, db)


@given(chain_grammars(), labelled_graphs())
@settings(max_examples=30, deadline=None)
def test_summary_deletion_preserves_answers(grammar, db):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    projected = push_projections(adorn(program))
    trimmed = delete_rules(projected, use_chase=False, use_sagiv=False)
    got = {t[0] for t in evaluate(trimmed.program.to_program(), db).answers()}
    assert got == projected_reference(program, db)


@given(chain_grammars(), labelled_graphs())
@settings(max_examples=25, deadline=None)
def test_chase_and_sagiv_deletion_preserve_answers(grammar, db):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    projected = push_projections(adorn(program))
    trimmed = delete_rules(projected)
    got = {t[0] for t in evaluate(trimmed.program.to_program(), db).answers()}
    assert got == projected_reference(program, db)


@given(chain_grammars(), labelled_graphs())
@settings(max_examples=30, deadline=None)
def test_component_split_preserves_answers(grammar, db):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    split = split_components(adorn(program))
    projected = push_projections(split.program)
    options = EngineOptions(cut_predicates=split.booleans)
    got = {
        t[0]
        for t in evaluate(projected.to_program(), db, options).answers()
    }
    assert got == projected_reference(program, db)


@given(chain_grammars())
@settings(max_examples=50, deadline=None)
def test_optimizer_never_grows_recursive_arity(grammar):
    assume("s" in grammar.nonterminals)
    program = program_from(grammar)
    result = optimize(program)
    original_arities = program.arities()
    for pred, arity in result.program.arities().items():
        base = pred.split("@", 1)[0]
        if base in original_arities:
            assert arity <= original_arities[base]


@given(chain_grammars())
@settings(max_examples=40, deadline=None)
def test_unproductive_query_detected(grammar):
    """If the grammar start is unproductive, the optimizer discovers the
    empty answer at compile time (Example 8's emptiness detection)."""
    assume("s" in grammar.nonterminals)
    assume("s" not in productive_nonterminals(grammar))
    program = program_from(grammar)
    result = optimize(program)
    assert len(result.program) == 0
