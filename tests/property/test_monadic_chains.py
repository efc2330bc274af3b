"""Properties of the ``monadic_chains`` pass and of the refusal of
derived input rows.

1. Over random right- and left-linear chain grammars, with random unary
   seeds, node tests and reader shapes, the optimized program answers
   what the original answers on every EDB-only instance.
2. The same over random doubled grammars (``s -> s s`` beside drawn
   ``L s``, ``s R`` and ``B`` words), read by those shapes or by the
   query itself at one endpoint.
3. On random programs over IDB-seeded instances (rows for derived
   predicates given), ``run -O`` answers what ``run`` answers or
   refuses; it never answers differently.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import optimize
from repro.datalog import Database, ValidationError, parse
from repro.datalog.ast import Atom, Program, Rule
from repro.datalog.terms import Variable
from repro.grammar.cfg import Grammar, Production
from repro.workloads.edb import uniform_instance

from .strategies import NONTERMINALS, TERMINALS, random_programs, right_linear_grammars

#: reader shapes: the rule that consumes the chain predicate ``s``
READERS = {
    "forward": ("q(Y) :- seed(X), s(X, Y).", "Y"),
    "backward": ("q(X) :- s(X, Y), seed(Y).", "X"),
    "forward-tested": ("q(Y) :- seed(X), mark(X), s(X, Y), mark(Y).", "Y"),
    "any-edge": ("q(Y) :- node(Y), s(X, Y).", "Y"),
    "guard": ("q(X) :- node(X), s(U, V), mark(V).", "X"),
    "two-hops": ("q(Y) :- seed(X), s(X, Z), s(Z, Y).", "Y"),
}


#: the query itself as the reader, asking for one endpoint of ``s``
QUERIES = {"query-first": "s(X, _)", "query-second": "s(_, Y)"}

#: a non-empty terminal word of at most two letters
WORDS = st.lists(st.sampled_from(TERMINALS), min_size=1, max_size=2).map(tuple)


def chain_program(grammar, left, tests, reader):
    """The chain program of *grammar* (rules read backwards when *left*,
    which makes it left-linear), with ``tests[i][k]`` (None, ``"tag"``
    or ``"mark"``) at chain variable *k* of rule *i*, read by
    ``READERS[reader]`` or queried as ``QUERIES[reader]``."""
    rules = []
    for p, marks in zip(grammar.productions, tests):
        rhs = p.rhs[::-1] if left else p.rhs
        nodes = [Variable("X")] + [Variable(f"Z{i}") for i in range(1, len(rhs))] + [Variable("Y")]
        body = [Atom(sym, (nodes[i], nodes[i + 1])) for i, sym in enumerate(rhs)]
        for k, (node, test) in enumerate(zip(nodes, marks)):
            if test == "tag":
                body.append(Atom("tag", (node, Variable(f"W{k}"))))
            elif test == "mark":
                body.append(Atom("mark", (node,)))
        rules.append(Rule(Atom(p.lhs, (nodes[0], nodes[-1])), tuple(body)))
    if reader in QUERIES:
        return parse("\n".join(map(str, rules)) + f"\n?- {QUERIES[reader]}.")
    text, answer = READERS[reader]
    return Program((*parse(text).rules, *rules), Atom("q", (Variable(answer),)))


@st.composite
def recursive_grammars(draw):
    """A right-linear grammar over s/t and e/f in which ``s`` recurses:
    ``s -> w s`` and ``s -> w'`` beside a drawn right-linear grammar, so
    that ``s`` has a recursive component for the pass to rewrite."""
    drawn = draw(right_linear_grammars(max_productions=3)).productions
    productions = (Production("s", draw(WORDS) + ("s",)), Production("s", draw(WORDS)), *drawn)
    return Grammar(tuple(dict.fromkeys(productions)), "s")


@st.composite
def chain_programs(draw):
    """A one-sided-linear chain program over s/t and e/f whose rules may
    carry node tests, read by one of :data:`READERS`."""
    grammar = draw(recursive_grammars())
    left = draw(st.booleans())
    test = st.sampled_from([None, "tag", "mark"])
    tests = []
    for p in grammar.productions:
        rhs = p.rhs[::-1] if left else p.rhs
        # a test beside a nonterminal would leave the one-sided shape
        beside = {k for i, sym in enumerate(rhs) if sym in NONTERMINALS for k in (i, i + 1)}
        tests.append([None if k in beside else draw(test) for k in range(len(rhs) + 1)])
    return chain_program(grammar, left, tests, draw(st.sampled_from(sorted(READERS))))


@st.composite
def doubled_programs(draw):
    """A doubled chain program: ``s -> s s`` plus drawn ``L s``, ``s R``
    and ``B`` words over e/f, with node tests on the nodes of those
    words (a test beside the ``s`` of a one-sided rule would leave the
    shape), read by one of :data:`READERS` or :data:`QUERIES`."""
    test = st.sampled_from([None, "tag", "mark"])
    productions = {("s", "s"): [None] * 3}
    for w in draw(st.lists(WORDS, max_size=2)):
        productions[w + ("s",)] = [draw(test) for _ in w] + [None, None]
    for w in draw(st.lists(WORDS, max_size=2)):
        productions[("s",) + w] = [None, None] + [draw(test) for _ in w]
    for w in draw(st.lists(WORDS, min_size=1, max_size=2)):
        productions[w] = [draw(test) for _ in range(len(w) + 1)]
    grammar = Grammar(tuple(Production("s", rhs) for rhs in productions), "s")
    reader = draw(st.sampled_from(sorted(READERS) + sorted(QUERIES)))
    return chain_program(grammar, False, list(productions.values()), reader)


@st.composite
def chain_databases(draw, nodes=5, min_size=0):
    node = st.integers(min_value=0, max_value=nodes - 1)
    pairs = st.sets(st.tuples(node, node), min_size=min_size, max_size=8)
    singles = st.sets(st.tuples(node), min_size=min(min_size, 1), max_size=nodes)
    relations = {label: draw(pairs) for label in TERMINALS}
    relations["tag"] = draw(st.sets(st.tuples(node, st.integers(0, 1)), max_size=6))
    for label in ("mark", "seed", "node"):
        relations[label] = draw(singles)
    db = Database()
    for label, rows in relations.items():
        db.ensure(label, 1 if label in ("mark", "seed", "node") else 2).update(rows)
    return db


@given(chain_programs(), st.lists(chain_databases(min_size=4), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_monadic_chains_keeps_the_answers(program, dbs):
    result = optimize(program, validate=True)
    for db in dbs:
        assert result.answers(db) == result.reference_answers(db), str(result.final)


def test_most_chain_programs_are_rewritten_and_answer_something():
    """The property above is vacuous unless the pass fires on what the
    strategy draws and the drawn instances answer something.  (A
    left-linear chain read by ``any-edge`` or ``guard`` is never
    rewritten: see :func:`test_every_reader_shape_fires`.)"""
    rewritten, answered = [], []

    @given(chain_programs(), st.lists(chain_databases(min_size=4), min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    def draw(program, dbs):
        result = optimize(program)
        rewritten.append(bool(result.monadic))
        answered.append(any(result.reference_answers(db) for db in dbs))

    draw()
    assert len(rewritten) >= 100
    assert sum(rewritten) >= 0.5 * len(rewritten), sum(rewritten)
    assert sum(answered) >= 0.5 * len(answered), sum(answered)


@given(doubled_programs(), st.lists(chain_databases(min_size=4), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_doubled_chains_keep_the_answers(program, dbs):
    result = optimize(program, validate=True)
    for db in dbs:
        assert result.answers(db) == result.reference_answers(db), str(result.final)


def test_most_doubled_programs_are_rewritten():
    """The property above is vacuous unless the pass fires on what the
    strategy draws."""
    fired = []

    @given(doubled_programs())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def draw(program):
        fired.append(bool(optimize(program).monadic))

    draw()
    assert len(fired) >= 30 and sum(fired) >= 0.8 * len(fired)


@pytest.mark.parametrize("left", [False, True], ids=["right-linear", "left-linear"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_shape_fires(reader, left):
    """The property above is vacuous unless the pass fires on the shapes
    the strategy draws: here on ``s -> e s | f`` and its mirror image.
    Asked for its second endpoint only, the left-linear chain is unary
    after projection pushing already, so there is nothing to rewrite."""
    grammar = Grammar((Production("s", ("e", "s")), Production("s", ("f",))), "s")
    program = chain_program(grammar, left, [[None] * 3, [None] * 2], reader)
    expected = {"backward": {"backward"}}.get(reader, {"forward"})
    if left and reader in ("any-edge", "guard"):
        expected = set()
    assert {c.direction for c in optimize(program).monadic} == expected


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_O_answers_like_run_or_refuses(program, seed):
    result = optimize(program)
    db = uniform_instance(program, rows=6, domain=4, seed=seed)
    try:
        got = result.answers(db)
    except ValidationError:
        return
    assert got == result.reference_answers(db), str(result.final)
