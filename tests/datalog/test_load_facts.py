"""Differential test of the ground-fact reader against the grammar.

``load_facts`` reads plain fact text without the rule grammar and
hands everything else to ``parse``.  Whatever the text, it must be
indistinguishable from ``Database.from_facts(split_facts(parse(text))[1])``:
the same database with the same set iteration order (the engine's
order-dependent counters start from it), or the same error.
"""

import importlib
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Program,
    ReproError,
    load_facts,
    parse,
    read_facts,
    split_facts,
)
from repro.datalog.dump import dumps_database
from repro.datalog.parser import _scan_facts
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families


def by_grammar(text):
    return Database.from_facts(split_facts(parse(text))[1])


def outcome(load, text):
    """What a caller can observe of ``load(text)``."""
    try:
        db = load(text)
    except ReproError as exc:
        return type(exc), str(exc)
    return [(pred, db.relation(pred).arity, list(db.relation(pred))) for pred in db]


def assert_same(text):
    assert outcome(load_facts, text) == outcome(by_grammar, text)


PREDICATES = st.sampled_from(["p", "q", "edge", "p.1", "a@nd", "not", "r_2"])
NUMBERS = st.integers(-50, 50).map(str) | st.sampled_from(["007", "-0"])
IDENTS = st.sampled_from(["a", "b", "x.y", "c@d", "k9", "aB", "a.B.c"])
STRINGS = st.text(
    alphabet="ab ,%.()X_-:?", max_size=6
).map(lambda s: f"'{s}'")
GROUND = NUMBERS | IDENTS | STRINGS
#: what takes a line out of the plain-fact subset, or out of the grammar
ODD = st.sampled_from(["X", "_", "_x", "Abc", "1a", "é", "'open", "a.", "--1"])
GAP = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n "])


@st.composite
def facts(draw, terms=GROUND):
    pred = draw(PREDICATES)
    args = draw(st.none() | st.lists(terms, max_size=3))
    if args is None:
        return f"{pred}{draw(GAP)}."

    def gap():
        return draw(GAP)

    inner = f"{gap()},{gap()}".join(args)
    return f"{pred}{gap()}({gap()}{inner}{gap()}){gap()}."


COMMENTS = st.text(alphabet="ab .,'()%X:-", max_size=8).map(lambda s: f"% {s}\n")
STRAYS = st.sampled_from([
    "p(X) :- q(X).", "?- p(X).", "?- p(1).", "p(1) :- q(1).", "p(1", "P(1).",
    "p(1)).", "p(1) q(2).", "p(1,).", "p(1 2).", ".", "p(1).q(2).", "p.q.",
    "p(a.b).x.", "q(1,% inside\n2).", "p :- not q.", "\x0c", "\xa0p(1).",
])
PIECES = st.one_of(facts(), facts(), facts(), COMMENTS, GAP)


@given(st.lists(PIECES, max_size=12))
@settings(max_examples=400, deadline=None)
def test_plain_fact_text(pieces):
    """Comments, blank lines, several facts a line, negative numbers,
    awkward strings, duplicates — and arity clashes between them."""
    text = " ".join(pieces)
    assert_same(text)


@given(st.lists(st.one_of(PIECES, facts(GROUND | ODD), STRAYS), max_size=8))
@settings(max_examples=400, deadline=None)
def test_anything_else_is_the_grammars_business(pieces):
    assert_same("".join(pieces))
    assert_same(" ".join(pieces))


def test_the_reader_takes_plain_facts_and_only_those():
    assert _scan_facts("p(1). q('a,b', x, -3).\n% c\n s.  r().\n") is not None
    for text in ["p(X).", "p(1) :- q(1).", "?- p(1).", "p(1). p(1, 2).",
                 "P(1).", "p(1", "p(1,\n% c\n2).", "p(é)."]:
        assert _scan_facts(text) is None, text


def test_identifier_dots_are_not_clause_dots():
    """``p.q.`` is one fact about ``p.q``, ``p(1).q(2).`` two facts."""
    for text in ["p.q.", "p(1).q(2).", "p.1(2).p.1(3).", "p. q."]:
        assert _scan_facts(text) is not None
        assert_same(text)
    assert list(load_facts("p.q.")) == ["p.q"]


def test_read_facts_returns_what_is_not_a_fact():
    program, db = read_facts("p(1). p(2).")
    assert program == Program((), None) and len(db.relation("p")) == 2
    text = "p(1). q(X) :- p(X). ?- q(X)."
    program, db = read_facts(text)
    assert (program, db) == (split_facts(parse(text))[0], by_grammar(text))
    assert load_facts(text) == db


def test_errors_come_from_the_grammar():
    for text in ["p(1). p(1, 2).", "p(1).\n  q(", "p(1). Q(2)."]:
        kind, message = outcome(by_grammar, text)
        with pytest.raises(kind) as err:
            load_facts(text)
        assert str(err.value) == message


def test_dumped_databases_round_trip_on_the_fast_path():
    for name, program in sorted(all_families().items()):
        db = random_edb(program, rows=12, domain=6, seed=3)
        text = dumps_database(db)
        assert _scan_facts(text) is not None, name
        assert_same(text)
        assert load_facts(text) == db


def test_benchmark_inputs_load_on_the_fast_path():
    """The fact files of all five ``benchmarks/e2e`` workloads (smoke
    sizes; the generators are pure functions of the seed)."""
    e2e = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "e2e"
    )
    if not os.path.isdir(e2e):
        pytest.skip("benchmarks/e2e not present")
    sys.path.insert(0, e2e)
    try:
        catalog = importlib.import_module("catalog")
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(e2e)
    for name, workload in catalog.WORKLOADS.items():
        for case in inputs.GENERATORS[name](7, workload.smoke).cases:
            assert _scan_facts(case.facts) is not None, case.name
            assert_same(case.facts)
