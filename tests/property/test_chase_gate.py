"""A frozen-body chase skips the engine only when that cannot change
its fixpoint (section 3.3).

``frozen_chase`` returns the frozen body unevaluated when
:func:`~repro.datalog.analysis.firable_rules` finds no rule of
``P − skip`` that can fire from the body's non-empty predicates.  Here
every chase is also run the long way — ``prepare`` +
``working_database`` + ``run_prepared`` over the same frozen body —
and the two fixpoints must agree on every predicate, in particular on
the frozen head's (Sagiv's test) and the query's (the Example-6 chase,
Theorem 5.2).  Whenever no rule can fire, the engine must derive
nothing beyond the frozen body.  The deletion passes ask through one
``FrozenChase`` per program, whose gate and whose ``derives`` answer
(which reads a gated chase off the frozen body without building it)
must agree with the long way too.

The programs are the deletion matrix's corpus (every paper example and
family) and derandomized random programs, the latter also with a fact
rule added; the chases are every rule with ``skip = {r}`` plus one random
``skip`` per rule.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import uniform_equivalence
from repro.core.adornment import adorn
from repro.core.components import split_components
from repro.core.projection import push_projections
from repro.core.uniform_equivalence import FrozenChase, freeze, frozen_chase
from repro.datalog.analysis import firable_rules
from repro.datalog.ast import Atom, Rule
from repro.datalog.errors import ReproError
from repro.datalog.terms import Constant
from repro.engine.evaluator import run_prepared, working_database
from repro.engine.prepared import prepare

from ..core.test_deletion_matrix import _projected_corpus
from .strategies import random_programs

#: a fact over the base predicate every random rule may join
FACT = Rule(Atom("e", (Constant(0), Constant(0))), ())


def _engine_chase(program, rule, skip):
    """The chase with no gate: always prepare and run."""
    _, body = freeze(rule)
    prepared = prepare(program.with_query(None))
    db = working_database(prepared.program, body)
    opts = uniform_equivalence._REFERENCE_ENGINE
    return run_prepared(prepared, db, opts, skip).db


def _facts(db):
    return {(p, row) for p in db for row in db.rows(p)}


def _chases(program, rng):
    """``(rule, skip)`` for every rule: ``{r}``, then a random subset."""
    n = len(program.rules)
    for ri, rule in enumerate(program.rules):
        yield rule, {ri}
        yield rule, {i for i in range(n) if rng.random() < 0.5}


def _check(program, rng):
    """Check every chase of *program*; the number where no rule fired."""
    gated = 0
    chase = FrozenChase(program)
    arities = program.arities()
    for rule, skip in _chases(program, rng):
        head, fixpoint = frozen_chase(program, rule, skip)
        _, body = freeze(rule)
        expected = _engine_chase(program, rule, skip)
        assert _facts(fixpoint) == _facts(expected), (str(rule), skip)
        present = [p for p in body if body.relation(p)]
        fires = bool(firable_rules(program, present, skip))
        assert chase.fires(rule, skip) == fires, (str(rule), skip)
        if not fires:
            gated += 1
            assert _facts(expected) == _facts(body), (str(rule), skip)
        # the frozen head's arguments, whole or a prefix, as a fact of
        # each predicate of that arity (the Example-6 chase's question)
        row = head.as_fact()
        for pred, arity in arities.items():
            if arity > len(row):
                continue
            positions = tuple(range(arity))
            facts = expected.relation(pred)
            derived = facts is not None and row[:arity] in facts
            assert chase.derives(rule, skip, pred, positions) == derived, (
                str(rule), skip, pred,
            )
    return gated


def test_gate_is_sound_on_corpus():
    gated = 0
    for index, (_, program) in enumerate(_projected_corpus()):
        gated += _check(program.to_program(), random.Random(index))
    assert gated > 0


@given(random_programs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
def test_gate_is_sound_on_random_programs(program, rng):
    _check(program, rng)
    _check(program.add_rules([FACT]), rng)
    try:
        projected = push_projections(split_components(adorn(program)).program)
    except ReproError:
        assume(False)
    _check(projected.to_program(), rng)
