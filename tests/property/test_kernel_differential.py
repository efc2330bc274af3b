"""Kernel/interpreter differential property suite.

The compiled kernels claim to be *bit-identical* to the plan
interpreter — not just the same answers, but the same fact counts, the
same work counters (the gates of ``tests/bench`` and the frozen work
baseline depend on them), and the same first-justification
provenance.  This suite checks full-state agreement on the curated
program families and on the 200 fixed random oracle programs
(``derandomize=True``; ``make check`` pins the Hypothesis seed), in
both index modes, with provenance recorded and without it.

Answer-set agreement across *all* strategies lives in ``tests/oracle``;
this file owns the stronger claim about counters and provenance.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import Database, parse
from repro.datalog.ast import Atom, Program, Rule
from repro.datalog.terms import Constant
from repro.engine import EngineOptions, evaluate
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from .strategies import BASE, random_programs

FAMILIES = all_families()


def _full_state(program, db_factory, **overrides):
    """(answers, fact counts, invariant counters, provenance) of one run.

    Each run gets a fresh database from *db_factory* so lazily built
    indexes carried on shared base relations (see ``Database.copy``)
    cannot leak work between the runs being compared.
    """
    res = evaluate(program, db_factory(), EngineOptions(**overrides))
    return (
        res.answers(),
        res.stats.fact_counts,
        res.stats.as_dict(engine_invariant=True),
        res.provenance,
    )


def _assert_kernel_matches_interpreter(program, db):
    """Both index modes, with provenance recorded and without it — the
    hot path, whose kernels record nothing.  Without provenance the
    vector kernel would take the firings it admits, so the kernel side
    runs the tuple kernel alone (``use_columnar=False``)."""
    for use_indexes in (True, False):
        for record in (True, False):
            common = dict(use_indexes=use_indexes, record_provenance=record)
            kern = _full_state(program, db.copy, use_columnar=False, **common)
            interp = _full_state(program, db.copy, use_kernels=False, **common)
            for part, kernel_side, interp_side in zip(
                ("answers", "fact_counts", "stats", "provenance"), kern, interp
            ):
                assert kernel_side == interp_side, (
                    f"kernel/interpreter divergence in {part} "
                    f"(use_indexes={use_indexes}, record_provenance={record}): "
                    f"kernel={kernel_side!r} interpreter={interp_side!r}"
                )


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_differential_on_curated_families(name, seed):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=seed)
    _assert_kernel_matches_interpreter(program, db)


def test_kernel_differential_on_absent_relation_under_cut():
    """No ``c`` at all: inside ``b``'s existential loop (``Y`` is dead)
    the absent relation ends the loop after the first witness, on the
    kernel as in the interpreter — under ``use_indexes=False`` too,
    where every extra ``b`` candidate would be a whole-relation scan."""
    program = parse("h(X) :- a(X), b(X, Y), c(X).\n?- h(X).")
    db = Database.from_dict({
        "a": [(x,) for x in range(3)],
        "b": [(x, y) for x in range(3) for y in range(3)],
    })
    _assert_kernel_matches_interpreter(program, db)


def test_kernel_path_is_not_vacuously_equal():
    """Guard: the default engine really launches kernels on the
    families — otherwise the differential above compares the
    interpreter with itself."""
    launched = 0
    for program in FAMILIES.values():
        db = random_edb(program, rows=10, domain=5, seed=0)
        launched += evaluate(program, db).stats.kernel_launches
    assert launched > 0


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_differential_on_random_programs(program, seed):
    """The 200 fixed random oracle programs: kernels and the
    interpreter agree on answers, fact counts, stats counters, and
    provenance, with and without indexes and provenance recording."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    _assert_kernel_matches_interpreter(program, db)


#: constants inside random_edb's domain, so constant probes can hit
CONSTANTS = st.integers(min_value=0, max_value=4).map(Constant)


@st.composite
def ground_atoms(draw):
    pred, arity = draw(st.sampled_from(BASE))
    return Atom(pred, tuple(draw(CONSTANTS) for _ in range(arity)))


@st.composite
def programs_with_constants(draw):
    """A random oracle program whose rules also carry constants (the
    shared ``random_programs`` draws none): up to two variables of a
    rule are selected to constants throughout it — a literal left
    without variables becomes ground — and a rule may gain a ground
    body literal and a ground negated literal."""
    program = draw(random_programs())
    rules = []
    for rule in program.rules:
        chosen = draw(st.lists(st.sampled_from(rule.variables()), unique=True, max_size=2))
        rule = rule.substitute({v: draw(CONSTANTS) for v in chosen})
        body = rule.body + tuple(draw(st.lists(ground_atoms(), max_size=1)))
        negative = tuple(draw(st.lists(ground_atoms(), max_size=1)))
        rules.append(Rule(rule.head, body, negative))
    return Program(tuple(rules), program.query)


@given(programs_with_constants(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_differential_on_programs_with_constants(program, seed):
    """Ground body literals, ground negated literals and constant
    selections: a fully bound literal compiles to the loop-free
    membership probe, and every kernel around it must still compile
    and agree with the interpreter."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    _assert_kernel_matches_interpreter(program, db)
