"""Experiment COLUMNAR — the columnar data plane vs the tuple kernels
vs the interpreter (section 2's repeated-evaluation cost, attacked at
the representation layer).

The claim: interning constants once into dense ids, packing rows into
single int64s, and pushing the semi-naive frontier through vectorized
batch join kernels removes per-row Python dispatch from the fixpoint's
hot loop — while staying *observationally identical* to the tuple
engine (same answers, same fact counts, same engine-invariant
counters; the property/oracle suites are the exhaustive safety net,
these benchmarks re-assert it at the point of measurement).

Workloads: ``tc-chain`` (one deep linear transitive closure — the
canonical delta-frontier pipeline) and ``sibling`` (three disjoint
closures under one program — the multi-unit shape the scheduler feeds
the columnar plane one unit at a time).

Expected shape: columnar ≤ tuple-kernel ≤ interpreter wall-clock at
every size, with the columnar advantage growing with the frontier
width (see BENCH_columnar.json for the committed ablation at report
sizes, where the gap exceeds 3×).
"""

import pytest

from repro.datalog import Database
from repro.datalog.parser import parse
from repro.engine import EngineOptions, evaluate

SIZES = [60, 120]

#: the degradation ladder's three rungs, benchmarked per index mode
CONFIGS = {
    "interpreter": {"use_kernels": False, "use_columnar": False},
    "tuple-kernel": {"use_columnar": False},
    "columnar": {},
}

TC_PROGRAM = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- tc(X, Y), edge(Y, Z).
    ?- tc(X, Y).
"""

SIBLING_PROGRAM = """
    tc1(X, Y) :- edge1(X, Y).
    tc1(X, Z) :- tc1(X, Y), edge1(Y, Z).
    tc2(X, Y) :- edge2(X, Y).
    tc2(X, Z) :- tc2(X, Y), edge2(Y, Z).
    tc3(X, Y) :- edge3(X, Y).
    tc3(X, Z) :- tc3(X, Y), edge3(Y, Z).
    ?- tc1(X, Y).
"""


def _chain(n, base=0):
    return [(base + i, base + i + 1) for i in range(n)]


def tc_db(n):
    """One n-chain: the deepest frontier for a single closure."""
    return Database.from_dict({"edge": _chain(n)})


def sibling_db(n):
    """Three disjoint n-chains: each closure is deep and independent."""
    return Database.from_dict(
        {"edge1": _chain(n), "edge2": _chain(n, 1000), "edge3": _chain(n, 2000)}
    )


WORKLOADS = {
    "tc-chain": (TC_PROGRAM, tc_db),
    "sibling": (SIBLING_PROGRAM, sibling_db),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("use_indexes", [True, False], ids=["index", "noindex"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config", list(CONFIGS))
def test_columnar(benchmark, workload, config, use_indexes, n):
    program_text, make_db = WORKLOADS[workload]
    program = parse(program_text)
    db = make_db(n)
    opts = EngineOptions(use_indexes=use_indexes, **CONFIGS[config])
    benchmark.group = (
        f"columnar {workload} n={n} {'index' if use_indexes else 'noindex'}"
    )
    result = benchmark(lambda: evaluate(program, db.copy(), opts))
    if config == "columnar":
        # identical observables at the point of measurement: answers,
        # fixpoint sizes, and every engine-invariant counter match the
        # tuple engine bit for bit (cold database per run, so lazily
        # built index work is comparable)
        tup = evaluate(
            program,
            db.copy(),
            EngineOptions(use_indexes=use_indexes, **CONFIGS["tuple-kernel"]),
        )
        col = evaluate(program, db.copy(), opts)
        assert col.answers() == tup.answers()
        assert col.stats.fact_counts == tup.stats.fact_counts
        assert col.stats.as_dict(engine_invariant=True) == tup.stats.as_dict(
            engine_invariant=True
        )
        # the vector kernel actually engaged (not a silent fallback);
        # its CSR probe image is an index, so --no-index runs never do
        if use_indexes:
            assert col.stats.batch_probes > 0
        assert col.stats.dict_size > 0
