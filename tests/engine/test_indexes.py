"""Hash indexes: lazy construction, incremental maintenance, planner
key selection, and the scan-fallback path of the evaluator."""

import pytest

from repro.datalog import Database, parse
from repro.datalog.database import Relation
from repro.datalog.terms import Constant
from repro.engine import EngineOptions, evaluate
from repro.engine.plan import compile_rule, order_body


# -- Relation-level index behaviour -----------------------------------------


def test_index_built_lazily_and_counted():
    rel = Relation(2, [(1, 2), (1, 3), (2, 3)])
    assert rel.index_builds == 0
    assert not rel.has_index((0,))
    index = rel.index_for((0,))
    assert rel.index_builds == 1
    assert rel.has_index((0,))
    assert sorted(index[(1,)]) == [(1, 2), (1, 3)]
    # a second request reuses the cached index
    assert rel.index_for((0,)) is index
    assert rel.index_builds == 1


def test_indexes_maintained_on_insert():
    rel = Relation(2, [(1, 2)])
    rel.index_for((0,))
    rel.index_for((1,))
    rel.add((1, 5))
    assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 5)]
    assert rel.lookup((1,), (5,)) == [(1, 5)]
    # no rebuild happened: both lookups were served incrementally
    assert rel.index_builds == 2


def test_duplicate_insert_does_not_corrupt_index():
    rel = Relation(2, [(1, 2)])
    rel.index_for((0,))
    assert rel.add((1, 2)) is False
    assert rel.lookup((0,), (1,)) == [(1, 2)]


def test_invalidate_indexes_then_rebuild():
    rel = Relation(2, [(1, 2), (2, 3)])
    rel.index_for((0,))
    assert rel.indexed_position_sets() == frozenset({(0,)})
    rel.invalidate_indexes()
    assert rel.indexed_position_sets() == frozenset()
    assert not rel.has_index((0,))
    # lookups still work (lazy rebuild) and the build is counted
    assert rel.lookup((0,), (2,)) == [(2, 3)]
    assert rel.index_builds == 2


def test_lookup_on_multi_position_key():
    rel = Relation(3, [(1, 2, 3), (1, 2, 4), (1, 9, 3)])
    assert sorted(rel.lookup((0, 1), (1, 2))) == [(1, 2, 3), (1, 2, 4)]
    assert rel.lookup((0, 1), (1, 7)) == []


def test_empty_positions_lookup_returns_all_rows():
    rel = Relation(2, [(1, 2), (2, 3)])
    assert sorted(rel.lookup((), ())) == [(1, 2), (2, 3)]
    assert rel.index_builds == 0  # full enumeration needs no index


# -- planner key selection ---------------------------------------------------


def test_planner_selects_bound_positions_as_index_key():
    program = parse(
        """
        out(X, Z) :- e(X, Y), f(Y, Z).
        ?- out(X, Z).
        """
    )
    cr = compile_rule(program.rules[0], 0)
    first, second = cr.plan
    assert first.bound_positions == ()  # nothing bound yet: scan
    assert second.bound_positions == (0,)  # Y is bound by the first literal
    assert second.atom.predicate in {"e", "f"}


def test_planner_prefers_smaller_relation_on_ties():
    program = parse(
        """
        out(X) :- big(X), small(X).
        ?- out(X).
        """
    )
    sizes = {"big": 1000, "small": 3}
    plan = order_body(tuple(program.rules[0].body), sizes=sizes)
    assert plan[0].atom.predicate == "small"
    assert plan[1].atom.predicate == "big"
    assert plan[1].bound_positions == (0,)


def test_constants_count_as_bound_positions():
    program = parse(
        """
        out(Y) :- e(1, Y).
        ?- out(Y).
        """
    )
    cr = compile_rule(program.rules[0], 0)
    assert cr.plan[0].bound_positions == (0,)
    (step,) = cr.lowered(None).steps
    assert (step.kind, step.key) == ("lookup", (Constant(1),))


# -- evaluator counters: index probes vs scan fallbacks ----------------------

TC = """
a(X, Y) :- p(X, Y).
a(X, Y) :- p(X, Z), a(Z, Y).
?- a(X, Y).
"""

DB = {"p": [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)]}


def test_indexed_run_counts_probes_and_builds():
    program = parse(TC)
    res = evaluate(program, Database.from_dict(DB))
    assert res.stats.index_probes > 0
    assert res.stats.index_builds > 0
    # fallbacks only for the unbound first literals, which are scans by
    # nature, never because an index was refused
    assert res.stats.scan_fallbacks > 0
    assert res.stats.join_work == res.stats.rows_scanned + res.stats.index_probes


def test_no_index_run_takes_scan_fallback_path():
    program = parse(TC)
    db = Database.from_dict(DB)
    indexed = evaluate(program, db)
    scan = evaluate(program, db, EngineOptions(use_indexes=False))
    assert scan.stats.index_probes == 0
    assert scan.stats.index_builds == 0
    assert scan.stats.scan_fallbacks >= indexed.stats.scan_fallbacks
    assert scan.stats.rows_scanned > indexed.stats.rows_scanned
    assert scan.answers() == indexed.answers()


def test_scan_fallback_charges_full_relation():
    # one bound probe into p under use_indexes=False must enumerate all
    # of p: delivered + rejected rows == len(p)
    program = parse(
        """
        out(Y) :- q(X), p(X, Y).
        ?- out(Y).
        """
    )
    db = Database.from_dict({"p": [(1, 2), (1, 3), (2, 9)], "q": [(1,)]})
    scan = evaluate(program, db, EngineOptions(use_indexes=False))
    # q scan: 1 row; p probe: all 3 rows enumerated
    assert scan.stats.rows_scanned == 1 + 3
    assert scan.stats.scan_fallbacks == 2


def test_second_evaluate_reuses_base_relation_indexes():
    """Regression: evaluate() used to deep-copy the EDB and rebuild
    every index from scratch on each call.  Base relations are now
    shared with the working database, so indexes built during one run
    stay materialized for the next."""
    program = parse(TC)
    db = Database.from_dict(DB)
    first = evaluate(program, db)
    assert first.stats.index_builds > 0  # cold start builds them
    built = db.index_builds()
    assert built > 0  # ... and they persisted onto the input database
    second = evaluate(program, db)
    assert db.index_builds() == built  # no EDB index was rebuilt
    assert second.stats.index_builds < first.stats.index_builds
    assert second.answers() == first.answers()


def test_relation_copy_carries_indexes():
    rel = Relation(2, [(1, 2), (1, 3), (2, 3)])
    rel.index_for((0,))
    clone = rel.copy()
    assert clone.has_index((0,))
    assert sorted(clone.lookup((0,), (1,))) == [(1, 2), (1, 3)]
    assert clone.index_builds == 0  # carried, not rebuilt
    # the carried index is independent of the original
    clone.add((1, 9))
    assert sorted(clone.lookup((0,), (1,))) == [(1, 2), (1, 3), (1, 9)]
    assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 3)]


def test_shared_copy_shares_exactly_the_unnamed_relations():
    db = Database.from_dict({"p": [(1, 2)], "q": [(3,)]})
    shared = db.copy(mutating={"q"})
    assert shared.relation("p") is db.relation("p")
    assert shared.relation("q") is not db.relation("q")
    shared.add("q", 4)
    assert db.rows("q") == {(3,)}


def test_probe_ratio_property():
    program = parse(TC)
    res = evaluate(program, Database.from_dict(DB))
    total = res.stats.index_probes + res.stats.scan_fallbacks
    assert res.stats.probe_ratio == pytest.approx(res.stats.index_probes / total)
    scan = evaluate(program, Database.from_dict(DB), EngineOptions(use_indexes=False))
    assert scan.stats.probe_ratio == 0.0
