"""Differential test of :meth:`Relation.select` against a scan.

``select`` answers from whatever tier holds a row — a deferred packed
chunk, the raw row set (through a hash index when one fits), the rows
whose postings are still buffered — and must agree with the obvious
filter over ``rows()`` in every state a fixpoint can leave a relation
in.  It must also be a read: no index built, no deferred row
materialized, no constant interned.  The one thing it may move is the
buffered postings, which it folds into the built indexes once when one
of them answers the probe.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Relation, columnar
from repro.datalog.columnar import (
    PACK_LIMIT,
    global_dictionary,
    numpy_available,
    pack_encoded,
)
from repro.engine import EvalStats
from repro.engine.scheduler import _absorb_packed

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="packed chunks need numpy"
)

#: 1 / 1.0 / True are one constant to the row sets and the dictionary
VALUES = [0, 1, 1.0, True, 2, 3, "a", "b"]
GHOST = "never-interned"


def scan(rel, bound, equal, project):
    """The reference: filter a full copy of the rows."""
    return {
        tuple(row[p] for p in project)
        for row in rel.rows()
        if all(row[p] == v for p, v in bound.items())
        and all(row[p] == row[q] for p, q in equal)
    }


def defer(rel, rows):
    """Absorb *rows* the way a vectorized kernel does: as one packed
    chunk whose raw tuples stay unmaterialized."""
    import numpy as np

    intern_row = global_dictionary().intern_row
    produced = np.array(
        [pack_encoded(intern_row(row)) for row in rows], dtype=np.int64
    )
    _absorb_packed(rel, "r", produced, EvalStats(), {})


def assert_select_is_scan(rel, bound, equal, project):
    """``select`` equals the scan and moved nothing on the way but
    the buffered postings, folded iff a built index answers."""
    builds = rel.index_builds
    indexed = rel.indexed_position_sets()
    chunks = [arr for arr, _ in rel._raw_dirty]
    buffered = len(rel._index_dirty)
    interned = len(global_dictionary())
    got = rel.select(bound, equal, project)
    assert rel.index_builds == builds
    assert rel.indexed_position_sets() == indexed
    assert [arr for arr, _ in rel._raw_dirty] == chunks
    assert rel._raw_dirty_rows == sum(len(arr) for arr in chunks)
    answered = any(all(p in bound for p in positions) for positions in indexed)
    assert len(rel._index_dirty) == (0 if bound and answered else buffered)
    assert len(global_dictionary()) == interned
    assert got == scan(rel, bound, equal, project)  # rows() syncs: last


@st.composite
def cases(draw):
    arity = draw(st.sampled_from([1, 2, 3]))
    row = st.tuples(*[st.sampled_from(VALUES)] * arity)
    positions = st.integers(0, arity - 1)
    index_sets = st.lists(positions, min_size=1, unique=True).map(tuple)
    return {
        "arity": arity,
        # three batches: added raw, deferred, deferred after a sync
        "batches": draw(st.tuples(*[st.lists(row, max_size=8)] * 3)),
        "indexes": draw(st.lists(index_sets, max_size=2)),
        "bound": draw(st.dictionaries(
            positions, st.sampled_from([*VALUES, GHOST]), max_size=arity)),
        "equal": draw(st.lists(st.tuples(positions, positions), max_size=2)),
        "project": draw(st.one_of(st.none(), st.lists(positions, max_size=4))),
        "new_epoch": draw(st.booleans()),
    }


def build(case, deferred: bool):
    """The relation of *case*; with *deferred*, the second and third
    batches arrive as packed chunks, the row set is synced in between
    (so, with an index present, the second batch's postings are left
    buffered) and the dictionary may move to a new epoch afterwards."""
    global_dictionary().clear()
    raw, second, third = case["batches"]
    rel = Relation(case["arity"], raw)
    for positions in case["indexes"]:
        rel.index_for(positions)
    if deferred:
        defer(rel, second)
        rel._sync()
        defer(rel, third)
        if case["new_epoch"]:
            global_dictionary().clear()
            for value in reversed(VALUES):  # ids differ from the old table's
                global_dictionary().intern(value)
    else:
        rel.update([*second, *third])
    project = case["project"]
    if project is None:
        project = range(case["arity"])
    return rel, case["bound"], case["equal"], project


@given(cases())
@settings(max_examples=300, deadline=None)
def test_raw_rows(case):
    assert_select_is_scan(*build(case, deferred=False))


@needs_numpy
@given(cases())
@settings(max_examples=300, deadline=None)
def test_deferred_chunks(case):
    assert_select_is_scan(*build(case, deferred=True))


@pytest.mark.parametrize(
    "deferred", [False, pytest.param(True, marks=needs_numpy)]
)
def test_arity_zero(deferred):
    global_dictionary().clear()
    rel = Relation(0)
    assert rel.select({}) == set()
    if deferred:
        defer(rel, [()])
        assert rel._raw_dirty
    else:
        rel.add(())
    assert_select_is_scan(rel, {}, (), ())


@needs_numpy
def test_chunk_is_read_through_its_own_value_table():
    """After an epoch change the live id of a constant differs from the
    one the chunk was packed with; the captured table decides."""
    d = global_dictionary()
    d.clear()
    rel = Relation(2, [("x", "y")])
    defer(rel, [("a", "b"), ("b", "a"), ("b", "b")])
    assert rel._raw_dirty
    d.clear()
    d.intern("b")  # id 0 now; it was 3 in the chunk's table
    assert rel.select({0: "b"}, (), (1,)) == {("a",), ("b",)}
    assert rel.select({}, [(0, 1)]) == {("b", "b")}
    assert rel.select({0: GHOST}) == set()
    assert rel._raw_dirty and len(d) == 1


@needs_numpy
def test_existence_stops_without_decoding():
    global_dictionary().clear()
    rel = Relation(2)
    defer(rel, [(1, 2), (2, 2), (3, 1)])
    assert rel.select({}, [(0, 1)], ()) == {()}
    assert rel.select({0: 2, 1: 1}, (), ()) == set()
    assert rel.select({}, (), ()) == {()}
    assert Relation(2).select({}, (), ()) == set()


def test_index_on_a_subset_of_the_bound_positions_is_used():
    rel = Relation(3, [(i, i % 3, i % 2) for i in range(30)])
    rel.index_for((1,))
    seen = []

    class Probe(dict):
        def get(self, key, default=None):
            seen.append(key)
            return super().get(key, default)

    rel._indexes[(1,)] = Probe(rel._indexes[(1,)])
    assert rel.select({1: 2, 2: 0}, (), (0,)) == {(i,) for i in range(2, 30, 6)}
    assert seen == [(2,)]
    assert rel.index_builds == 1


def test_ids_past_the_packing_bound():
    """Constants whose ids do not fit a packed row never reach a chunk;
    they are selected from the raw rows like any other."""
    d = global_dictionary()
    d.clear()
    try:
        d._values.extend([None] * PACK_LIMIT)  # the next id is PACK_LIMIT
        rel = Relation(2, [("p", "q"), ("q", "q"), ("q", "p")])
        assert rel.packed_runs() is None
        assert global_dictionary().intern("p") >= PACK_LIMIT
        assert_select_is_scan(rel, {0: "q"}, (), (1,))
        assert_select_is_scan(rel, {}, [(0, 1)], (0, 1))
    finally:
        d.clear()


@given(cases())
@settings(max_examples=50, deadline=None)
def test_without_numpy(case):
    saved = columnar._np
    columnar._np = None  # load_numpy: not importable
    try:
        assert_select_is_scan(*build(case, deferred=False))
    finally:
        columnar._np = saved
