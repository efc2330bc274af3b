"""Every deletion verdict preserves uniform query equivalence (section 4).

Phase 3's claim is not plain query equivalence: a rule that Sagiv's
test, Lemma 5.3 or the Example-6 chase calls deletable must leave the
query answer unchanged on *every* input instance, including instances
that already hold facts for derived predicates.  The other soundness
nets in the suite seed only the EDB; here every relation of the
projected adorned program — derived ones included — is seeded, and
``P`` and ``P − {r}`` must answer the query identically.

The programs are the deletion matrix's corpus (every paper example and
family) and derandomized random programs.
"""

from hypothesis import HealthCheck, assume, given, settings

from repro.core import chase_deletable, lemma53_deletable, rule_deletable_uniform
from repro.core.adornment import adorn
from repro.core.components import split_components
from repro.core.projection import push_projections
from repro.datalog.errors import ReproError, TransformError
from repro.engine import evaluate
from repro.workloads.edb import uniform_instance

from ..core.test_deletion_matrix import _projected_corpus
from .strategies import random_programs

SEEDS = range(4)


def _deletable(program):
    """Indexes of the rules some deletion test calls deletable, with the
    test's name (a refusal — negation, built-ins — deletes nothing)."""
    plain = program.to_program()
    tests = (
        ("sagiv", lambda ri: program.rules[ri].body and rule_deletable_uniform(plain, ri)),
        ("lemma53", lambda ri: lemma53_deletable(program, ri) is not None),
        ("chase", lambda ri: chase_deletable(program, ri) is not None),
    )
    for ri in range(len(program.rules)):
        for name, test in tests:
            try:
                if test(ri):
                    yield ri, name
            except TransformError:
                pass


def _counterexamples(program):
    """The number of deletable verdicts, and ``(rule, test, seed)`` for
    every one some IDB-seeded instance refutes."""
    plain = program.to_program()
    verdicts, found = 0, []
    for ri, name in _deletable(program):
        verdicts += 1
        trimmed = program.without_rules([ri]).to_program()
        for seed in SEEDS:
            db = uniform_instance(plain, rows=8, domain=5, seed=seed)
            if evaluate(plain, db).answers() != evaluate(trimmed, db).answers():
                found.append((str(program.rules[ri]), name, seed))
    return verdicts, found


def test_deletion_verdicts_preserve_uniform_query_equivalence_on_corpus():
    checked = 0
    for name, program in _projected_corpus():
        verdicts, found = _counterexamples(program)
        assert found == [], name
        checked += verdicts
    assert checked > 0


@given(random_programs())
@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
def test_deletion_verdicts_preserve_uniform_query_equivalence_on_random_programs(
    program,
):
    try:
        projected = push_projections(split_components(adorn(program)).program)
    except ReproError:
        assume(False)
    assert _counterexamples(projected)[1] == []
