"""Differential IVM oracle: incremental maintenance vs from-scratch.

An :class:`~repro.engine.incremental.IncrementalSession` claims that
after any sequence of insert/retract batches its database equals what a
from-scratch evaluation over the updated EDB would produce — answers,
per-predicate fact sets and counts, and (when recorded) a valid
provenance justification for every derived fact.  This suite drives
random update scripts (``harness.update_script``: base-fact batches,
plus inserts of given rows into derived predicates, which the
from-scratch reference takes as input rows) against curated families
and 200 fixed random programs and checks that claim after **every**
batch, under the
suite-wide ``REPRO_ORACLE_BASE`` overlays (CI sweeps kernel/interp x
index/scan x scc/monolithic through the same tests) and,
in-process, across every named strategy overlay.  Every state is also
read back through point queries — a constant at each position, a
constant no row holds, a repeated variable — and each read must equal
a plain scan of the predicate's rows, so the session's selection path
(hash index, buffered postings, packed chunks) is checked wherever the
overlays take it.

Provenance is checked for *validity*, not identity: the engine records
the first justification found, which legitimately depends on the order
facts were (re)derived — but every recorded witness must be a real
derivation step over present facts, and every non-given derived fact
must have one.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Constant, Database, Variable
from repro.engine import IncrementalSession, evaluate
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from ..property.strategies import random_programs
from .harness import STRATEGIES, engine_options, scan_answers, update_script

FAMILIES = all_families()


def _point_reads(pred, arity, rows):
    """Point queries over one predicate: each position bound to a value
    a stored row has there (free elsewhere), the first position bound
    to a constant no row holds, and a variable repeated across the
    first two positions."""
    free = tuple(Variable(f"V{p}") for p in range(arity))
    witness = min(rows, key=repr, default=None)
    for p, value in enumerate(witness or ()):
        yield Atom(pred, (*free[:p], Constant(value), *free[p + 1:]))
    if arity:
        yield Atom(pred, (Constant("absent"), *free[1:]))
    if arity >= 2:
        yield Atom(pred, (free[0], free[0], *free[2:]))


def _check_state(session, program, cur, opts, context):
    """The oracle's core assertion: session state == from-scratch."""
    arities = program.arities()
    ref = Database()
    for pred, rows in cur.items():
        arity = arities.get(pred)
        if arity is None:
            if not rows:
                continue
            arity = len(next(iter(rows)))
        ref.ensure(pred, arity).update(rows)
    scratch = evaluate(program, ref, opts)
    for pred in sorted(set(program.arities()) | set(cur)):
        got = session.facts(pred)
        want = scratch.db.rows(pred)
        assert got == want, (
            f"{context}: predicate {pred!r} diverged: "
            f"only-incremental={sorted(got - want)[:5]} "
            f"only-scratch={sorted(want - got)[:5]}"
        )
    assert session.answers() == scratch.answers(), f"{context}: answers diverged"
    for pred, arity in sorted(arities.items()):
        for query in _point_reads(pred, arity, session.facts(pred)):
            assert session.query(query) == scan_answers(
                session.facts(pred), query
            ), f"{context}: point read {query} diverged from the scan"
    # fact counts reported by the last batch match the real fixpoint
    for pred in program.idb_predicates():
        assert session.last_stats.fact_counts.get(pred, 0) == len(
            scratch.db.rows(pred)
        ), f"{context}: fact_counts[{pred!r}] stale"


def _check_provenance(session, program):
    """Every recorded justification is a valid derivation step over
    present facts, and every non-given derived fact has one."""
    rules = program.rules
    given = {
        pred: session._protected(pred) for pred in program.idb_predicates()
    }
    for (pred, row), just in session.provenance.items():
        assert row in session.facts(pred), f"stale provenance for {pred}{row}"
        assert 0 <= just.rule_index < len(rules)
        assert rules[just.rule_index].head.predicate == pred
        for body_pred, body_row in just.body:
            assert body_row in session.facts(body_pred), (
                f"justification of {pred}{row} cites absent "
                f"{body_pred}{body_row}"
            )
    for pred in program.idb_predicates():
        for row in session.facts(pred) - given[pred]:
            assert (pred, row) in session.provenance, (
                f"derived fact {pred}{row} has no justification"
            )


def _run_script(program, overrides, *, seed, rows=10, domain=5, steps=6,
                record_provenance=False):
    opts = engine_options(
        {**overrides, "record_provenance": record_provenance}
    )
    edb = random_edb(program, rows=rows, domain=domain, seed=seed)
    session = IncrementalSession(program, edb, opts)
    cur = {p: set(edb.rows(p)) for p in edb.predicates()}
    rng = random.Random(seed * 6029 + 17)
    for step, (kind, pred, batch) in enumerate(
        update_script(program, rng, domain, steps)
    ):
        # bias retractions toward rows that exist, so deletion paths run
        if kind == "retract" and cur.get(pred) and rng.random() < 0.7:
            batch = set(batch) | set(
                rng.sample(sorted(cur[pred]), min(2, len(cur[pred])))
            )
        if kind == "insert":
            session.insert({pred: batch})
            cur.setdefault(pred, set()).update(batch)
        else:
            session.retract({pred: batch})
            cur.get(pred, set()).difference_update(batch)
        context = f"step {step} ({kind} {pred} x{len(batch)})"
        _check_state(session, program, cur, opts, context)
        if record_provenance:
            _check_provenance(session, program)
    return session


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_ivm_on_curated_families(name, seed):
    _run_script(FAMILIES[name], {}, seed=seed)


@pytest.mark.parametrize("label", sorted(STRATEGIES))
@pytest.mark.parametrize(
    "name", ["right_linear_tc", "win_move_stratified", "sibling_components"]
)
def test_ivm_strategy_matrix(label, name):
    """Maintenance agrees with from-scratch under every engine overlay
    (the CI REPRO_ORACLE_BASE sweep layers more underneath)."""
    _run_script(FAMILIES[name], STRATEGIES[label], seed=0)


@pytest.mark.parametrize("name", ["right_linear_tc", "bill_of_materials"])
def test_ivm_provenance_stays_valid(name):
    _run_script(FAMILIES[name], {}, seed=2, record_provenance=True)


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ivm_on_random_programs(program, seed):
    """>= 200 fixed random programs x random update scripts, checked
    against a from-scratch evaluation after every batch.  Any unsound
    delta seeding, overdeletion, rederivation, negation cone, or
    shared-relation aliasing diverges here."""
    program.validate()
    _run_script(program, {}, seed=seed, steps=4)
