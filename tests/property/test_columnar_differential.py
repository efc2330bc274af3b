"""Columnar/tuple-kernel differential property suite.

The vector kernel claims to be *bit-identical* to the tuple kernels
(and hence the interpreter) on every engine-invariant counter — not
just the same answers, but the same fact counts, duplicates, join
probes, rows scanned, index builds, and per-unit rounds.  This suite
checks full-state agreement on the curated program families and on the
200 fixed random oracle programs (``derandomize=True``), in both index
modes and under the monolithic loop.

The inputs are small, so every test here runs with the vector
kernel's crossover at 0 (the ``vector_at_any_size`` fixture): every
firing of an admitted plan is offered to the vector kernel, whatever
its frontier's size.  ``tests/property/test_vector_crossover.py``
covers runs at the fitted crossover.

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

pytestmark = pytest.mark.usefixtures("vector_at_any_size")


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
    state behind.  (The program is taken right after
    ``push_projections``: the full pipeline's ``monadic_chains`` pass
    replaces the binary closure with unary state predicates.)"""
    rules = "\n".join(map(str, families.reachability_with_payload(2).rules))
    program = optimize(
        parse(f"q(Y) :- start(X), reach(X, Y, T0, T1).\n{rules}\n?- q(Y).")
    ).record("push_projections").program.to_program()
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


# -- random lookup chains ------------------------------------------------------


@st.composite
def lookup_chains(draw):
    """A program whose chain rule lowers to a ``delta`` or ``scan``
    step, then lookups keyed on one register, optionally ending in a
    fully bound ``member``: 3–4 body literals in all.

    In *delta* mode the chain rule recurses through its first literal,
    ``h(A, B) :- h(V0, V1), ...``; in *scan* mode it reads ``s``, a
    closure the vector kernel computes, so the planner (which prices
    the empty derived ``s`` first) scans its packed runs.  Each lookup
    ``l<i>`` is keyed on one variable the previous literal bound, at a
    drawn position, so no step is a cut; the trailing member's key
    holds the last fresh variable.  The EDB is drawn too: small probe
    relations beside a larger ``b`` feeding the frontier, so stale
    probe images are laid out and many firings really vectorize.
    """
    mode = draw(st.sampled_from(["delta", "scan"]))
    member = draw(st.booleans())
    # 3–4 literals: the start, the lookups, the member
    lookups = draw(st.integers(min_value=2 - member, max_value=3 - member))
    names = iter(f"V{i}" for i in range(12))
    start = [next(names), next(names)]
    bound = list(start)
    last = [draw(st.sampled_from(start))]
    body, edb_arities = [], {}
    for i in range(lookups):
        arity = draw(st.integers(min_value=2, max_value=3))
        at = draw(st.integers(min_value=0, max_value=arity - 1))
        key = draw(st.sampled_from(last))
        fresh = [next(names) for _ in range(arity - 1)]
        args = fresh[:at] + [key] + fresh[at:]
        body.append(f"l{i}({', '.join(args)})")
        edb_arities[f"l{i}"] = arity
        bound += fresh
        last = fresh
    if member:
        width = draw(st.integers(min_value=1, max_value=2))
        keys = [draw(st.sampled_from(last))]
        keys += [draw(st.sampled_from(bound)) for _ in range(width - 1)]
        body.append(f"m({', '.join(keys)})")
        edb_arities["m"] = width
    if mode == "delta":
        head = [draw(st.sampled_from(last)), draw(st.sampled_from(bound))]
        if draw(st.booleans()):
            head.reverse()
        text = (
            "s(X, Y) :- b(X, Y).\n"
            "h(X, Y) :- s(X, Y).\n"
            f"h({', '.join(head)}) :- h({', '.join(start)}), {', '.join(body)}.\n"
            "?- h(X, Y).\n"
        )
    else:
        width = draw(st.integers(min_value=1, max_value=3))
        head = [draw(st.sampled_from(last))]
        head += [draw(st.sampled_from(bound)) for _ in range(width - 1)]
        text = (
            "s(X, Y) :- b(X, Y).\n"
            "s(X, Y) :- s(X, Z), b(Z, Y).\n"
            f"q({', '.join(head)}) :- s({', '.join(start)}), {', '.join(body)}.\n"
            f"?- q({', '.join(f'Q{i}' for i in range(width))}).\n"
        )
    value = st.integers(min_value=0, max_value=5)
    data = {"b": draw(st.lists(st.tuples(value, value), min_size=1, max_size=24))}
    for pred, arity in edb_arities.items():
        data[pred] = draw(st.lists(st.tuples(*[value] * arity), min_size=1, max_size=6))
    return parse(text), Database.from_dict(data)


@given(lookup_chains())
@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_columnar_differential_on_lookup_chains(case):
    """Random lookup chains: answers and every engine-invariant counter
    agree across the vector kernel, the tuple kernels and the
    interpreter, with and without indexes."""
    program, db = case
    program.validate()
    _assert_columnar_matches(program, db)


@pytest.mark.skipif(not numpy_available(), reason="the vector kernel needs numpy")
def test_lookup_chains_really_run_on_the_vector_kernel(monkeypatch):
    """The chain differential is not vacuous: in many of the drawn
    programs a plan of three or more steps commits on the vector
    kernel."""
    drawn = []

    @given(lookup_chains())
    @settings(max_examples=60, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    def collect(case):
        drawn.append(case)

    collect()
    committed = []
    real = scheduler.vector_rule_kernel

    def spy(cr, plan_id, **kw):
        kernel = real(cr, plan_id, **kw)
        if kernel is None or len(cr.lowered(plan_id).steps) < 3:
            return kernel

        def launch(db, stats, delta):
            out = kernel(db, stats, delta)
            committed.append(out is not None)
            return out

        return launch

    monkeypatch.setattr(scheduler, "vector_rule_kernel", spy)
    chains = 0
    for program, db in drawn:
        committed.clear()
        evaluate(program, db.copy())
        chains += any(committed)
    assert chains > len(drawn) // 3, chains
