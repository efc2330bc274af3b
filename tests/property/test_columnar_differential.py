"""Columnar/tuple-kernel differential property suite.

The vector kernel claims to be *bit-identical* to the tuple kernels
(and hence the interpreter) on every engine-invariant counter — not
just the same answers, but the same fact counts, duplicates, join
probes, rows scanned, index builds, and per-unit rounds.  This suite
checks full-state agreement on the curated program families and on the
200 fixed random oracle programs (``derandomize=True``), in both index
modes and under the monolithic loop.

Provenance-recording runs route to the tuple path before the vector
kernel is consulted (packed batches carry no per-fact body rows), so
the provenance half of the contract lives in
``tests/property/test_kernel_differential.py`` unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import optimize
from repro.datalog.columnar import numpy_available
from repro.datalog.database import Database
from repro.datalog.parser import parse
from repro.engine import EngineOptions, evaluate, scheduler
from repro.workloads import families
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from .strategies import random_programs

FAMILIES = all_families()


def _full_state(program, db_factory, **overrides):
    """(answers, fact counts, invariant counters) of one run.

    Each run gets a fresh database from *db_factory* so lazily built
    indexes carried on shared base relations cannot leak work between
    the runs being compared.
    """
    res = evaluate(program, db_factory(), EngineOptions(**overrides))
    return (
        res.answers(),
        res.stats.fact_counts,
        res.stats.as_dict(engine_invariant=True),
    )


def _assert_columnar_matches(program, db, **base):
    for use_indexes in (True, False):
        col = _full_state(program, db.copy, use_indexes=use_indexes, **base)
        tup = _full_state(
            program,
            db.copy,
            use_indexes=use_indexes,
            use_columnar=False,
            **base,
        )
        interp = _full_state(
            program,
            db.copy,
            use_indexes=use_indexes,
            use_columnar=False,
            use_kernels=False,
            **base,
        )
        for part, c, t, i in zip(
            ("answers", "fact_counts", "stats"), col, tup, interp
        ):
            assert c == t, (
                f"columnar/tuple divergence in {part} "
                f"(use_indexes={use_indexes}, base={base}): "
                f"columnar={c!r} tuple={t!r}"
            )
            assert c == i, (
                f"columnar/interpreter divergence in {part} "
                f"(use_indexes={use_indexes}, base={base}): "
                f"columnar={c!r} interpreter={i!r}"
            )


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_differential_on_curated_families(name, seed):
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=seed)
    _assert_columnar_matches(program, db)


@pytest.mark.parametrize("name", ["right_linear_tc", "bill_of_materials"])
def test_columnar_differential_composes_with_scheduler_modes(name):
    """Parity holds under the monolithic loop, not just the default
    SCC schedule."""
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=0)
    _assert_columnar_matches(program, db, use_scc=False)


def test_columnar_path_is_not_vacuously_equal():
    """With numpy the default engine really runs the vector kernel on
    the families — otherwise the differential above compares the tuple
    path with itself.  Also pins the counter-visibility contract:
    columnar runs report batch work and a populated dictionary, tuple
    runs report neither; without numpy the two are the same engine."""
    batched = 0
    for program in FAMILIES.values():
        db = random_edb(program, rows=10, domain=5, seed=0)
        col = evaluate(program, db.copy()).stats
        tup = evaluate(program, db.copy(), EngineOptions(use_columnar=False)).stats
        batched += col.batch_probes
        if col.batch_probes:
            assert col.dict_size > 0
            assert col.batch_rows >= 0
        assert tup.batch_probes == 0
        assert tup.batch_rows == 0
        assert tup.dict_size == 0
        assert tup.columnar_fallbacks == 0
    assert (batched > 0) == numpy_available()


@pytest.mark.skipif(not numpy_available(), reason="the vector kernel needs numpy")
@pytest.mark.parametrize("name", ["left_linear_tc", "right_linear_tc"])
@pytest.mark.parametrize("use_scc", [True, False], ids=["scc", "no-scc"])
def test_linear_recursion_takes_the_vector_rung(name, use_scc):
    """Linear recursion is the shape the vector kernel exists for: its
    delta plans must really run there, and leave the same state behind
    as the tuple engine — counters, answers and facts.  (Not the order
    facts went in: a packed frontier keeps derivation order where the
    tuple path's frontier is a set, so later rounds may enumerate
    differently; the differentials above show no counter observes it.)"""
    program = FAMILIES[name]
    db = random_edb(program, rows=14, domain=7, seed=0)
    col = evaluate(program, db.copy(), EngineOptions(use_scc=use_scc))
    tup = evaluate(
        program, db.copy(), EngineOptions(use_scc=use_scc, use_columnar=False)
    )
    assert col.stats.batch_probes > 0 and col.stats.batch_rows > 0
    # the naive first round still went to the tuple kernel
    assert 0 < col.stats.columnar_fallbacks < col.stats.kernel_launches
    assert col.stats.as_dict(engine_invariant=True) == tup.stats.as_dict(
        engine_invariant=True
    )
    assert col.answers() == tup.answers()
    for pred in program.idb_predicates():
        assert col.db.rows(pred) == tup.db.rows(pred), pred


@pytest.mark.skipif(not numpy_available(), reason="the vector kernel needs numpy")
def test_semijoin_query_over_packed_closure_takes_the_vector_rung(monkeypatch):
    """``exist_reach``'s shape: after Lemma 3.2 the query rule is
    ``q@n(Y) :- start(X), reach@nndd(X, Y)``, lowered to ``[scan
    reach@nndd, member start]`` because the cost planner prices the
    empty ``reach@nndd`` first.  Over a chain every round of the
    recursion vectorizes, so ``reach@nndd``'s packed runs are current
    when the query rule fires, and its one firing must run on the
    vector kernel, leaving the tuple kernel's and the interpreter's
    state behind."""
    rules = "\n".join(map(str, families.reachability_with_payload(2).rules))
    program = optimize(
        parse(f"q(Y) :- start(X), reach(X, Y, T0, T1).\n{rules}\n?- q(Y).")
    ).program
    (query,) = [cr for cr in program.rules if cr.head.predicate == "q@n"]
    v = 40
    db = Database.from_dict({
        "edge": [(i, i + 1) for i in range(v)],
        "tag0": [(i, "a") for i in range(v + 1)],
        "tag1": [(i, i % 3) for i in range(v + 1)],
        "start": [(0,), (17,), (33,)],
    })
    launches = []
    real = scheduler.vector_rule_kernel

    def spy(cr, plan_id, **kw):
        kernel = real(cr, plan_id, **kw)
        if kernel is None or cr.rule != query:
            return kernel

        def launch(db, stats, delta):
            out = kernel(db, stats, delta)
            launches.append(out is not None)
            return out

        return launch

    monkeypatch.setattr(scheduler, "vector_rule_kernel", spy)
    res = evaluate(program, db.copy())
    assert launches == [True], "the query rule's firing fell back to the tuple kernel"
    assert len(res.answers()) == v
    _assert_columnar_matches(program, db)


@given(random_programs(), st.integers(min_value=0, max_value=3))
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_columnar_differential_on_random_programs(program, seed):
    """The 200 fixed random oracle programs: the vector kernel, tuple
    kernels and the interpreter agree on answers, fact counts and
    stats counters, with and without indexes."""
    program.validate()
    db = random_edb(program, rows=10, domain=5, seed=seed)
    _assert_columnar_matches(program, db)
