"""The capability matrix of the three deletion engines.

The paper's story is precisely about which sufficient condition catches
which redundancy: Sagiv's uniform-equivalence chase (Example 4), the
summary tests (Lemmas 5.1/5.3, Examples 7/8/10), and uniform *query*
equivalence (Example 6).  This module pins the whole matrix down as
executable facts, one program per row, so any change to a test's power
— stronger or weaker — fails loudly.
"""

import pytest

from repro.core import (
    chase_deletable,
    lemma51_deletable,
    lemma53_deletable,
    rule_deletable_uniform,
    theorem52_deletable,
)
from repro.core import uniform_equivalence
from repro.core.adornment import AdornedProgram, adorn
from repro.core.components import split_components
from repro.core.projection import push_projections
from repro.datalog.errors import TransformError
from repro.engine import EngineOptions
from repro.workloads import paper_examples
from repro.workloads.families import all_families
from repro.workloads.paper_examples import adorned_from_text


def capabilities(program, rule_index):
    """Which engines would delete rule *rule_index*?"""
    plain = program.to_program()
    return {
        "sagiv": bool(rule_deletable_uniform(plain, rule_index)),
        "lemma51": lemma51_deletable(program, rule_index) is not None,
        "lemma53": lemma53_deletable(program, rule_index) is not None,
        "chase": chase_deletable(program, rule_index) is not None,
        "thm52": theorem52_deletable(plain, rule_index),
    }


# One row per phenomenon.  `rule` is the redundant rule under test;
# `expected` maps engine -> can-delete.
MATRIX = {
    "right-linear-recursion (Example 4)": (
        """
        query@n(X) :- a@nd(X).
        a@nd(X) :- p(X, Z), a@nd(Z).
        a@nd(X) :- p(X, Z).
        ?- query@n(X).
        """,
        1,
        {"sagiv": True, "lemma51": False, "lemma53": False, "chase": False, "thm52": False},
    ),
    "left-linear-recursion (Example 6)": (
        """
        a@nd(X) :- a@nn(X, Z), p(Z, Y).
        a@nd(X) :- p(X, Y).
        a@nn(X, Y) :- a@nn(X, Z), p(Z, Y).
        a@nn(X, Y) :- p(X, Y).
        ?- a@nd(X).
        """,
        2,
        {"sagiv": False, "lemma51": False, "lemma53": False, "chase": True, "thm52": False},
    ),
    "unit-rule summary (Example 7 shape)": (
        """
        p@nd(X) :- p@nn(X, Y).
        p@nn(X, Y) :- b1(X, Y).
        p1@nn(X, Z) :- p@nn(X, U), b2(U, W, Z).
        p@nd(X) :- p1@nn(X, Z), b4(Z, Y).
        ?- p@nd(X).
        """,
        2,
        {"sagiv": False, "lemma51": True, "lemma53": True, "chase": True, "thm52": False},
    ),
    "swap pair needs Lemma 5.3 (Example 10)": (
        """
        p0@nn(X, Y) :- p@nn(X, Y).
        p0@nn(X, Y) :- p@nn(Y, X).
        p@nn(X, Y) :- q@nn(X, Y).
        p@nn(X, Y) :- q@nn(Y, X).
        q@nn(X, Y) :- p@nn(X, Y).
        p@nn(X, Y) :- b(X, Y).
        ?- p0@nn(X, Y).
        """,
        4,
        # the stronger semantic tests also see it; the pinned fact is
        # the 5.1-vs-5.3 split the paper demonstrates
        {"sagiv": False, "lemma51": False, "lemma53": True, "chase": True, "thm52": True},
    ),
    "subsumed contribution (Example 9)": (
        """
        q0@n(X) :- p@nn(X, Y), g3(Y, Z, U).
        q0@n(X) :- g1(X, Y).
        p@nn(X, Y) :- g2(X, Y).
        p@nn(X, Z) :- p@nn(X, Y), g3(Y, Z, U), g4(U, W).
        ?- q0@n(X).
        """,
        3,
        {"sagiv": False, "lemma51": False, "lemma53": False, "chase": True, "thm52": False},
    ),
    "duplicate rule (everyone wins)": (
        """
        q@n(X) :- e(X, Y).
        q@n(X) :- e(X, Y).
        ?- q@n(X).
        """,
        1,
        {"sagiv": True, "lemma51": False, "lemma53": False, "chase": True, "thm52": True},
    ),
    "needed exit rule (nobody may win)": (
        """
        query@n(X) :- a@nd(X).
        a@nd(X) :- p(X, Z), a@nd(Z).
        a@nd(X) :- p(X, Z).
        ?- query@n(X).
        """,
        2,
        {"sagiv": False, "lemma51": False, "lemma53": False, "chase": False, "thm52": False},
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_capability_matrix(name):
    source, rule_index, expected = MATRIX[name]
    program = adorned_from_text(source)
    got = capabilities(program, rule_index)
    assert got == expected, f"{name}: {got} != {expected}"


def test_chase_strictly_stronger_than_nothing_on_matrix():
    """Sanity: across the matrix, every row some engine claims is
    deletable really is — differential check."""
    from repro.engine import evaluate
    from repro.workloads.edb import random_edb

    for name, (source, rule_index, expected) in MATRIX.items():
        if not any(expected.values()):
            continue
        program = adorned_from_text(source)
        trimmed = program.without_rules([rule_index])
        p1, p2 = program.to_program(), trimmed.to_program()
        for seed in range(3):
            db = random_edb(p1, rows=15, domain=7, seed=seed)
            assert (
                evaluate(p1, db).answers() == evaluate(p2, db).answers()
            ), (name, seed)


def _projected_corpus():
    """Every paper example and family, as a projected adorned program."""
    corpus = dict(all_families())
    for name in dir(paper_examples):
        if name.startswith("example") and not name.endswith(("_text", "_spec")):
            corpus[name] = getattr(paper_examples, name)()
    for name, program in corpus.items():
        if not isinstance(program, AdornedProgram):
            program = push_projections(split_components(adorn(program)).program)
        yield name, program


def _chase_verdicts(program):
    """What the three frozen-body tests say about every rule (a refusal
    — negation, built-ins — is a verdict too)."""
    plain = program.to_program()
    verdicts = []
    for ri in range(len(program.rules)):
        for test in (
            lambda: rule_deletable_uniform(plain, ri),
            lambda: chase_deletable(program, ri),
            lambda: theorem52_deletable(plain, ri),
        ):
            try:
                verdicts.append(test())
            except TransformError as exc:
                verdicts.append(str(exc))
    return verdicts


def test_chase_verdicts_do_not_depend_on_the_engine(monkeypatch):
    """The chases run on the plan interpreter; the production engine
    must reach the same verdict on every rule."""
    reference = {n: _chase_verdicts(p) for n, p in _projected_corpus()}
    assert any(v is True for vs in reference.values() for v in vs)
    assert any(isinstance(v, str) and "chase" in v for vs in reference.values() for v in vs)
    monkeypatch.setattr(
        uniform_equivalence, "_REFERENCE_ENGINE", EngineOptions()
    )
    assert {n: _chase_verdicts(p) for n, p in _projected_corpus()} == reference
