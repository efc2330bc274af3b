"""Unit tests for the columnar data plane: the constant dictionary,
each relation's packed image (membership runs, CSR probe images) seen
through its contract, copy independence, and the vector kernel's gates
(what it declines, what it commits to).

Full-run parity (vector kernel vs tuple kernels vs interpreter on
every engine-invariant counter) lives in
``tests/property/test_columnar_differential.py``; this file owns the
substrate-level contracts those runs rest on.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import columnar
from repro.datalog.columnar import (
    ConstantDictionary,
    global_dictionary,
    numpy_available,
)
from repro.datalog.database import Database, Relation
from repro.datalog.parser import parse
from repro.engine import (
    EngineOptions,
    EvalStats,
    clear_kernel_cache,
    clear_prepared_cache,
    evaluate,
    kernel_cache_stats,
)
from repro.engine import batch_kernel, scheduler
from repro.engine.batch_kernel import vector_rule_kernel
from repro.engine.kernel import rule_kernel
from repro.engine.plan import DeltaIndex, compile_rule
from tests.conftest import record_vector_rungs

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vector kernel needs numpy"
)


# -- constant dictionary -----------------------------------------------------


class TestConstantDictionary:
    def test_intern_is_dense_and_stable(self):
        d = ConstantDictionary()
        ids = [d.intern(v) for v in ("a", "b", "a", 7, "b")]
        assert ids == [0, 1, 0, 2, 1]
        assert len(d) == 3

    def test_round_trip(self):
        d = ConstantDictionary()
        row = ("x", 3, None, "x")
        assert d.decode_row(d.intern_row(row)) == row

    def test_equal_values_share_an_id(self):
        # interning is keyed by ==/hash exactly like the raw row sets,
        # so 1, 1.0 and True conflate in both representations
        d = ConstantDictionary()
        assert d.intern(1) == d.intern(1.0) == d.intern(True)

    def test_clear_bumps_epoch_and_forgets(self):
        d = ConstantDictionary()
        d.intern("a")
        epoch = d.epoch
        d.clear()
        assert d.epoch == epoch + 1
        assert len(d) == 0
        assert d.intern("b") == 0

    def test_global_dictionary_is_shared(self):
        assert global_dictionary() is global_dictionary()


# -- column store ------------------------------------------------------------


def _members(rel, rows):
    """The subset of raw *rows* the relation's packed membership (its
    sorted runs) reports present."""
    np = columnar.load_numpy()
    rows = sorted(rows)
    packed = columnar.pack_rows(rows, rel.arity, global_dictionary())
    order = np.argsort(packed)
    novel = rel.packed_novel_mask(packed[order])
    return {rows[i] for i, new in zip(order.tolist(), novel.tolist()) if not new}


@needs_numpy
class TestColumnStore:
    def test_encoded_index_mirrors_raw_posting_order(self):
        """The CSR probe image decodes, key by key, to the raw hash
        index's posting lists in posting order (the order-parity
        contract)."""
        rel = Relation(2, [(i % 3, i) for i in range(30)])
        raw = rel.index_for((0,))
        csr = batch_kernel._csr_for(rel, 0)
        d = global_dictionary()
        assert csr.keys.tolist() == sorted(d.intern(key[0]) for key in raw)
        for slot, key_id in enumerate(csr.keys.tolist()):
            lo, hi = csr.offsets[slot], csr.offsets[slot + 1]
            posting = list(zip(*(col[lo:hi].tolist() for col in csr.cols)))
            key = (d.values_list()[key_id],)
            assert [d.decode_row(e) for e in posting] == raw[key]
        assert rel.index_builds == 1  # laid out from the index, not beside it

    def test_epoch_change_rebuilds_store(self):
        rel = Relation(1, [("keep",), ("also",)])
        store = rel.column_store()
        assert _members(rel, [("keep",), ("also",), ("gone",)]) == {
            ("keep",), ("also",)
        }
        global_dictionary().clear()
        global_dictionary().intern("shift")  # ids are reassigned, not reused
        rebuilt = rel.column_store()
        assert rebuilt is not store
        assert rebuilt.epoch == global_dictionary().epoch
        assert _members(rel, [("keep",), ("also",), ("shift",)]) == {
            ("keep",), ("also",)
        }

    def test_retraction_drops_store(self):
        rel = Relation(1, [(1,), (2,), (3,)])
        assert _members(rel, [(1,), (2,), (3,)]) == {(1,), (2,), (3,)}
        rel.discard((1,))
        assert _members(rel, [(1,), (2,), (3,)]) == {(2,), (3,)}
        assert rel.rows() == {(2,), (3,)}

    def test_absorbs_keep_two_disjoint_sorted_runs(self, monkeypatch):
        """Batches of varied sizes, each partly known, cross the
        tail→base merge many times; after every batch the packed image
        is at most a base and a tail, each strictly increasing, and
        together exactly the relation's rows — extended in place, never
        re-packed."""
        np = columnar.load_numpy()
        rng = random.Random(45)
        domain = range(120)
        rel = Relation(2, {(rng.choice(domain), rng.choice(domain)) for _ in range(40)})
        rel.packed_runs()
        monkeypatch.setattr(
            columnar.ColumnStore, "rebuild",
            lambda *a: pytest.fail("the runs were re-packed"),
        )
        merges = tails = 0
        base = rel.packed_runs()[0]
        for size in [1, 3, 7, 30, 2, 90, 5, 400, 11, 60, 1, 250, 17, 8, 700, 4, 120, 40] * 2:
            batch = [(rng.choice(domain), rng.choice(domain)) for _ in range(size)]
            produced = columnar.pack_rows(batch, 2, global_dictionary())
            scheduler._absorb_packed(rel, "p", produced, EvalStats(), {})
            runs = rel.packed_runs()
            assert 1 <= len(runs) <= 2
            for run in runs:
                assert (run[1:] > run[:-1]).all()
            both = np.concatenate(runs)
            assert len(np.unique(both)) == len(both)  # disjoint
            assert set(rel.decode_packed(both)) == rel.rows()
            merges += runs[0] is not base
            tails += len(runs) == 2
            base = runs[0]
        assert merges >= 5 and tails >= 5


# -- copies do not share the packed image ------------------------------------


@needs_numpy
class TestCopyOnWrite:
    def test_write_to_copy_does_not_leak_into_original(self):
        rel = Relation(2, [("a", "b")])
        rel.packed_runs()
        twin = rel.copy()
        twin.add(("x", "y"))
        probe = [("a", "b"), ("x", "y")]
        assert _members(rel, probe) == {("a", "b")} == rel.rows()
        assert _members(twin, probe) == {("a", "b"), ("x", "y")} == twin.rows()

    def test_write_to_original_does_not_leak_into_copy(self):
        rel = Relation(2, [("a", "b")])
        rel.packed_runs()
        twin = rel.copy()
        rel.add(("x", "y"))
        probe = [("a", "b"), ("x", "y")]
        assert _members(twin, probe) == {("a", "b")} == twin.rows()
        assert _members(rel, probe) == {("a", "b"), ("x", "y")} == rel.rows()

    def test_evaluations_sharing_a_database_do_not_cross_talk(self):
        """Two back-to-back columnar evaluations over one database: the
        first run's derived facts (inserted into copy-on-write head
        relations) must not surface in the second run's EDB image."""
        program = parse(
            """
            tc(X,Y) :- edge(X,Y).
            tc(X,Y) :- tc(X,Z), edge(Z,Y).
            ?- tc(X,Y).
            """
        )
        db = Database.from_dict({"edge": [(1, 2), (2, 3), (3, 4)]})
        first = evaluate(program, db, EngineOptions())
        assert db.relation("tc") is None or len(db.relation("tc")) == 0
        second = evaluate(program, db, EngineOptions())
        assert first.answers() == second.answers()
        assert len(db.relation("edge")) == 3


# -- vector-kernel gates -----------------------------------------------------

LEFT_TC = "tc(X,Y) :- tc(X,Z), e(Z,Y).\n?- tc(X,Y)."
RIGHT_TC = "tc(X,Y) :- e(X,Z), tc(Z,Y).\n?- tc(X,Y)."


def _compiled(text, index=0, sizes=None):
    program = parse(text)
    return compile_rule(program.rules[index], index, sizes=sizes)


def _delta_plan(cr, predicate):
    """The delta plan id of *cr* whose frontier literal is *predicate*."""
    (plan_id,) = [i for i, p in cr.delta_literals({predicate})]
    return plan_id


def _vector_kernel(text, predicate, **kw):
    cr = _compiled(text)
    return vector_rule_kernel(cr, _delta_plan(cr, predicate), **kw)


def _launch(kernel, db, frontier):
    """Run *kernel* over *frontier* (None: a naive plan's launch);
    (packed result, counters touched)."""
    stats = EvalStats()
    out = kernel(db, stats, None if frontier is None else DeltaIndex(frontier))
    return out, {k: v for k, v in stats.as_dict().items() if v}


def _tuple_launch(cr, plan_id, db, frontier):
    """The tuple kernel's firing of the same plan into a fresh head:
    (the rows it inserted, in derivation order, and every
    engine-invariant counter touched, its absorb's included).

    An index over all head positions, built before the firing, keeps
    its keys in insertion order, which is derivation order; the kernel
    buffers its postings, so the order is read back through
    ``index_for``, which folds them in."""
    stats = EvalStats()
    delta = None if frontier is None else DeltaIndex(frontier)
    head = Relation(len(cr.rule.head.args))
    everything = tuple(range(head.arity))
    head.index_for(everything)
    new: set = set()
    rule_kernel(cr, plan_id)(db, stats, delta, head, new, {})
    rows = list(head.index_for(everything))
    assert set(rows) == new == head.rows()
    return rows, {k: v for k, v in stats.as_dict(engine_invariant=True).items() if v}


def _absorbed(out, arity):
    """The counters the vector rung's absorb charges for *out* into a
    fresh head, as ``_fire`` charges them."""
    stats = EvalStats()
    if len(out):
        scheduler._absorb_packed(Relation(arity), "head", out, stats, {})
    return {k: v for k, v in stats.as_dict(engine_invariant=True).items() if v}


def _invariant(touched):
    variant = set(EvalStats().as_dict()) - set(EvalStats().as_dict(engine_invariant=True))
    return {k: v for k, v in touched.items() if k not in variant}


#: a semijoin whose naive plan is ``[scan r, member s]`` once r is priced
#: below s (the shape of ``exist_reach``'s optimized query rule)
SEMIJOIN = "q(Y) :- r(X,Y), s(X).\n?- q(Y)."


#: a three-step lookup chain, and probe relations no larger than the
#: three-row frontiers it is fired with (so their images are laid out)
CHAIN = "p(X, W) :- d(X, Y), e(Y, Z), f(Z, W).\n?- p(X, W)."
CHAIN_DATA = {"e": [(2, 3), (2, 4), (5, 6)], "f": [(3, 7), (4, 8), (4, 9)]}


def _semijoin():
    cr = _compiled(SEMIJOIN, sizes={"r": 1, "s": 10})
    assert [(s.kind, s.predicate) for s in cr.lowered(None).steps] == [
        ("scan", "r"), ("member", "s")
    ]
    return cr


@pytest.mark.usefixtures("vector_at_any_size")
class TestBatchKernelGates:
    """The gates of :mod:`repro.engine.batch_kernel` — the vector
    kernel.  A declined plan returns ``None`` at compile time; a
    runtime decline returns ``None`` from the launch *before touching
    any counter*, so the tuple kernel charges the firing exactly once.
    The frontiers here are tiny, so the crossover is 0
    (:class:`TestCrossover` tests it at its fitted value)."""

    def test_plain_join_rule_compiles(self):
        if not numpy_available():
            pytest.skip("the vector kernel needs numpy")
        kernel = _vector_kernel("p(X,Y) :- e(X,Z), f(Z,Y).\n?- p(X,Y).", "e")
        db = Database.from_dict({"e": [(1, 2), (5, 2)], "f": [(2, 3), (2, 4)]})
        # the frontier covers f, so laying out f's probe image pays
        out, touched = _launch(kernel, db, [(1, 2), (5, 2)])
        assert db.ensure("p", 2).decode_packed(out) == [(1, 3), (1, 4), (5, 3), (5, 4)]
        assert touched["batch_probes"] == 2 and touched["rule_firings"] == 4

    def test_self_referential_naive_plan_is_gated(self):
        # a naive plan whose probe step reads the head never vectorizes:
        # the tuple engine inserts per yield while enumerating, so that
        # step sees mid-firing inserts a whole-frontier batch cannot
        cr = _compiled(RIGHT_TC, sizes={"tc": 10, "e": 10})
        assert [(s.kind, s.predicate) for s in cr.lowered(None).steps] == [
            ("scan", "e"), ("lookup", "tc")
        ]
        assert vector_rule_kernel(cr) is None

    @needs_numpy
    def test_naive_scan_of_the_head_commits_like_the_tuple_kernel(self):
        """LEFT_TC's naive plan ``[scan tc, lookup e]`` scans the head
        itself: the tuple kernel snapshots it with ``list(tc)`` and the
        packed runs are a snapshot too, so the plan vectorizes, with
        the tuple kernel's rows (in sorted-id order, not set order) and
        counters."""
        cr = _compiled(LEFT_TC, sizes={"tc": 10, "e": 10})
        assert [(s.kind, s.predicate) for s in cr.lowered(None).steps] == [
            ("scan", "tc"), ("lookup", "e")
        ]
        kernel = vector_rule_kernel(cr)
        db = Database.from_dict(
            {"e": [(2, 3), (3, 4), (2, 5)], "tc": [(1, 2), (2, 3), (7, 7)]}
        )
        db.relation("tc").packed_runs()
        rows, expected = _tuple_launch(cr, None, db, None)
        out, touched = _launch(kernel, db, None)
        assert sorted(db.relation("tc").decode_packed(out)) == sorted(rows)
        assert len(rows) == 3
        assert _invariant(touched) | _absorbed(out, 2) == expected == {
            "join_probes": 4, "scan_fallbacks": 1, "index_probes": 3,
            "rows_scanned": 6, "rule_firings": 3, "join_work": 9,
            "facts_derived": 3, "derivations": 3,
        }
        assert (touched["batch_probes"], touched["batch_rows"]) == (2, 6)

    @needs_numpy
    def test_delta_step_on_head_is_allowed(self):
        # the frontier at delta step 0 is a frozen snapshot in both
        # engines, so linear recursion stays vectorized
        for text in (LEFT_TC, RIGHT_TC):
            assert _vector_kernel(text, "tc") is not None, text

    @needs_numpy
    @pytest.mark.parametrize("text", [LEFT_TC, RIGHT_TC], ids=["left", "right"])
    def test_commits_on_linear_tc(self, text):
        kernel = _vector_kernel(text, "tc")
        db = Database.from_dict({"e": [(1, 2), (2, 3)], "tc": [(1, 2), (2, 3)]})
        out, touched = _launch(kernel, db, [(1, 2), (2, 3)])
        assert db.relation("tc").decode_packed(out) == [(1, 3)]
        assert touched["rule_firings"] == 1
        assert touched["join_probes"] == 3  # the frontier, then one per row
        assert touched["index_probes"] == 2

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("p(X) :- d(X,Y), f(Y,W).", id="existential-step"),
            pytest.param("p(X,Y) :- d(X,Z), p(Z,Y).", id="step-reads-head"),
            pytest.param("p(X,V) :- d(X,Y,Z,W), f(Y,V).", id="arity-above-3"),
            pytest.param("p(X,Y) :- d(1,X), f(X,Y).", id="constant-in-delta"),
            pytest.param("p(X,Y) :- d(X,X), f(X,Y).", id="repeated-variable"),
            pytest.param("p(X,Y) :- d(X,Y), f(Y,1).", id="constant-in-member-key"),
            pytest.param("p(X,Y) :- d(X,Z), f(Z,Y), lt(Z,Y).", id="built-in"),
            pytest.param("p(X,Y) :- d(X,Z), f(Z,Y), not g(Y).", id="negation"),
        ],
    )
    def test_shape_gates_decline_at_compile_time(self, text):
        cr = _compiled(text + "\n?- " + text.split(" :-")[0] + ".")
        assert vector_rule_kernel(cr, _delta_plan(cr, "d")) is None

    @needs_numpy
    def test_fully_bound_probe_commits_exactly(self):
        """``[delta d, member f]``: the keys are packed and answered by
        f's membership runs, charged one probe per frontier row."""
        cr = _compiled("p(X,Y) :- d(X,Y), f(Y).\n?- p(X,Y).")
        kernel = vector_rule_kernel(cr, _delta_plan(cr, "d"))
        db = Database.from_dict({"f": [(2,), (4,)]})
        frontier = [(1, 2), (3, 4), (5, 6)]
        rows, expected = _tuple_launch(cr, _delta_plan(cr, "d"), db, frontier)
        out, touched = _launch(kernel, db, frontier)
        assert db.ensure("p", 2).decode_packed(out) == rows == [(1, 2), (3, 4)]
        assert _invariant(touched) | _absorbed(out, 2) == expected == {
            "join_probes": 4, "index_probes": 3, "rows_scanned": 5,
            "rule_firings": 2, "join_work": 8, "facts_derived": 2, "derivations": 2,
        }
        assert (touched["batch_probes"], touched["batch_rows"]) == (2, 5)

    @needs_numpy
    def test_stale_scanned_runs_decline_before_any_counter(self):
        # re-packing the whole scanned relation to read it once never
        # pays, whatever its size
        cr = _semijoin()
        db = Database.from_dict({"r": [(1, 2)], "s": [(1,)]})
        assert _launch(vector_rule_kernel(cr), db, None) == (None, {})
        db.relation("r").packed_runs()
        out, touched = _launch(vector_rule_kernel(cr), db, None)
        assert db.ensure("q", 1).decode_packed(out) == [(2,)]
        assert touched["rule_firings"] == 1

    @needs_numpy
    def test_stale_member_relation_larger_than_frontier_declines(self):
        cr = _semijoin()
        db = Database.from_dict({"r": [(1, 2)], "s": [(i,) for i in range(3)]})
        db.relation("r").packed_runs()
        assert _launch(vector_rule_kernel(cr), db, None) == (None, {})
        db.relation("s").packed_runs()
        out, touched = _launch(vector_rule_kernel(cr), db, None)
        assert db.ensure("q", 1).decode_packed(out) == [(2,)]
        assert touched["index_probes"] == 1

    @needs_numpy
    def test_absent_scanned_relation_counts_nothing(self):
        # the scan's ``fail`` is ``return``: the tuple kernel counts nothing
        cr = _semijoin()
        db = Database.from_dict({"s": [(1,)]})
        out, touched = _launch(vector_rule_kernel(cr), db, None)
        assert out is not None and len(out) == 0 and touched == {}
        assert _tuple_launch(cr, None, db, None) == ([], {})

    @needs_numpy
    def test_absent_member_relation_charges_only_the_scan(self):
        cr = _semijoin()
        db = Database.from_dict({"r": [(1, 2), (3, 4)]})
        db.relation("r").packed_runs()
        out, touched = _launch(vector_rule_kernel(cr), db, None)
        assert out is not None and len(out) == 0
        only_scan = {
            "join_probes": 1, "scan_fallbacks": 1, "rows_scanned": 2, "join_work": 2,
        }
        assert _invariant(touched) == only_scan
        assert _tuple_launch(cr, None, db, None) == ([], only_scan)

    def test_existential_repeat_is_gated(self):
        cr = _compiled("p(X) :- e(X), f(Y,Y).\n?- p(X).")
        assert vector_rule_kernel(cr, _delta_plan(cr, "e")) is None

    def test_existential_bound_scan_without_indexes_is_gated(self):
        # the CSR image *is* an index: --no-index runs never vectorize
        assert _vector_kernel(LEFT_TC, "tc", use_indexes=False) is None

    def test_numpy_absent_declines_everything(self, monkeypatch):
        monkeypatch.setattr(columnar, "_np", None)  # load_numpy: not importable
        assert _vector_kernel(LEFT_TC, "tc") is None

    @needs_numpy
    def test_id_past_pack_limit_declines_before_any_counter(self, monkeypatch):
        kernel = _vector_kernel(LEFT_TC, "tc")
        db = Database.from_dict({"e": [(1, 2)], "tc": [(0, 1)]})
        monkeypatch.setattr(batch_kernel, "PACK_LIMIT", 1)  # ids 0 only
        assert _launch(kernel, db, [(0, 1)]) == (None, {})

    @needs_numpy
    def test_unpackable_frontier_declines_before_any_counter(self, monkeypatch):
        kernel = _vector_kernel(LEFT_TC, "tc")
        db = Database.from_dict({"e": [(1, 2)], "tc": [(0, 1)]})
        monkeypatch.setattr(columnar, "PACK_LIMIT", 1)
        assert _launch(kernel, db, [(0, 1)]) == (None, {})

    @needs_numpy
    @pytest.mark.parametrize("side", ["probed", "head"])
    def test_stale_image_larger_than_frontier_declines_before_any_counter(self, side):
        """Re-encoding a stale image larger than the frontier would cost
        more than the firing: the launch declines untouched.  Once the
        image is current, the same one-row frontier commits."""
        kernel = _vector_kernel(LEFT_TC, "tc")
        big = [(i, i + 1) for i in range(3)]
        if side == "probed":  # e's CSR image was never laid out
            db = Database.from_dict({"e": big, "tc": [(0, 1)]})
        else:  # tc's packed runs were never packed
            db = Database.from_dict({"e": [(1, 2)], "tc": big})
        assert _launch(kernel, db, [(0, 1)]) == (None, {})
        if side == "probed":
            batch_kernel._csr_for(db.relation("e"), 0)
        else:
            db.relation("tc").packed_runs()
        out, touched = _launch(kernel, db, [(0, 1)])
        assert out is not None and touched["batch_probes"] == 2

    @needs_numpy
    def test_frontier_as_large_as_the_image_rebuilds_it_and_commits(self):
        kernel = _vector_kernel(LEFT_TC, "tc")
        db = Database.from_dict({"e": [(1, 2), (2, 3), (3, 4)], "tc": [(0, 1)]})
        e = db.relation("e")
        frontier = [(0, 1), (5, 2), (6, 3)]
        out, _ = _launch(kernel, db, frontier)
        assert db.relation("tc").decode_packed(out) == [(0, 2), (5, 3), (6, 4)]
        assert batch_kernel._csr_current(e, 0)
        e.add((4, 5))  # stale again, and now one row larger than the frontier
        assert _launch(kernel, db, frontier) == (None, {})
        out, touched = _launch(kernel, db, [*frontier, (7, 4)])
        assert db.relation("tc").decode_packed(out) == [(0, 2), (5, 3), (6, 4), (7, 5)]
        assert touched["rule_firings"] == 4
        assert batch_kernel._csr_current(e, 0)

    @needs_numpy
    def test_three_step_chain_commits_with_the_tuple_kernels_counters(self):
        """``[delta d, lookup e, lookup f]``: each lookup probes the
        whole batch once, and rows come out in the tuple kernel's
        nested-loop order with its counters."""
        cr = _compiled(CHAIN)
        plan_id = _delta_plan(cr, "d")
        assert [s.kind for s in cr.lowered(plan_id).steps] == ["delta", "lookup", "lookup"]
        frontier = [(1, 2), (9, 5), (8, 2)]
        rows, expected = _tuple_launch(cr, plan_id, Database.from_dict(CHAIN_DATA), frontier)
        db = Database.from_dict(CHAIN_DATA)
        out, touched = _launch(vector_rule_kernel(cr, plan_id), db, frontier)
        assert db.ensure("p", 2).decode_packed(out) == rows
        assert sorted(rows) == [(1, 7), (1, 8), (1, 9), (8, 7), (8, 8), (8, 9)]
        assert _invariant(touched) | _absorbed(out, 2) == expected
        assert expected["join_probes"] == 1 + 3 + 5 and expected["rows_scanned"] == 3 + 5 + 6
        assert (touched["batch_probes"], touched["batch_rows"]) == (3, 14)

    @needs_numpy
    def test_chain_ending_in_a_member_commits_with_the_tuple_kernels_counters(self):
        """``[delta d, lookup e, member g]``: ``X`` is carried through
        the lookup, since the member's key still reads it, while the
        dead ``Y`` is dropped."""
        cr = _compiled("p(X, Z) :- d(X, Y), e(Y, Z), g(Z, X).\n?- p(X, Z).")
        plan_id = _delta_plan(cr, "d")
        assert [s.kind for s in cr.lowered(plan_id).steps] == ["delta", "lookup", "member"]
        spec = batch_kernel._vector_spec(cr, cr.lowered(plan_id))
        assert spec["proj"] == [0, 1] and spec["key_slots"] == [1, 0]
        data = {"e": CHAIN_DATA["e"], "g": [(3, 1), (4, 1), (6, 9), (4, 8)]}
        frontier = [(1, 2), (9, 5), (8, 2)]
        rows, expected = _tuple_launch(cr, plan_id, Database.from_dict(data), frontier)
        db = Database.from_dict(data)
        db.relation("g").packed_runs()  # g holds more rows than the frontier
        out, touched = _launch(vector_rule_kernel(cr, plan_id), db, frontier)
        assert db.ensure("p", 2).decode_packed(out) == rows
        assert sorted(rows) == [(1, 3), (1, 4), (8, 4), (9, 6)]
        assert _invariant(touched) | _absorbed(out, 2) == expected
        assert (touched["batch_probes"], touched["batch_rows"]) == (3, 3 + 5 + 4)

    @needs_numpy
    def test_a_step_reached_with_no_rows_builds_no_index(self):
        """The tuple kernel resolves a lookup's index at its first
        probe, so when ``e`` matches nothing ``f``'s index is never
        built; nor is its probe image laid out."""
        cr = _compiled(CHAIN)
        plan_id = _delta_plan(cr, "d")
        frontier = [(1, 6), (9, 7), (4, 0)]
        tuple_db, vector_db = Database.from_dict(CHAIN_DATA), Database.from_dict(CHAIN_DATA)
        rows, expected = _tuple_launch(cr, plan_id, tuple_db, frontier)
        out, touched = _launch(vector_rule_kernel(cr, plan_id), vector_db, frontier)
        assert rows == [] and len(out) == 0
        assert _invariant(touched) == expected == {
            "join_probes": 4, "index_probes": 3, "rows_scanned": 3, "join_work": 6,
        }
        assert vector_db.index_builds() == tuple_db.index_builds() == 1
        assert not vector_db.relation("f").indexed_position_sets()
        assert not batch_kernel._csr_current(vector_db.relation("f"), 0)

    @needs_numpy
    @pytest.mark.parametrize("older, commits", [(2, True), (3, False)])
    def test_recursive_heads_own_frontier_does_not_count_against_its_repack(
        self, older, commits
    ):
        """A delta step over the head: its n frontier rows are head
        rows the re-pack covers anyway, so only the older rows count.
        A head of the frontier plus n older rows re-packs (the plain
        size rule, ``len(head) > n``, would decline it); one more
        older row declines untouched."""
        kernel = _vector_kernel(LEFT_TC, "tc")
        frontier = [(0, 1), (5, 1)]
        older = [(7 + i, 7 + i) for i in range(older)]
        db = Database.from_dict({"e": [(1, 2)], "tc": frontier + older})
        assert db.relation("tc").packed_runs_stale()
        out, touched = _launch(kernel, db, frontier)
        if commits:
            assert db.relation("tc").decode_packed(out) == [(0, 2), (5, 2)]
            assert touched["rule_firings"] == 2
        else:
            assert (out, touched) == (None, {})

    @needs_numpy
    def test_absorb_without_packed_runs_decodes_in_order(self, monkeypatch):
        """The head relation holds an id the packing bound excludes, so
        the vectorized absorb has no membership runs: the packed rows
        are decoded and inserted one at a time, in production order,
        duplicates counted like the tuple kernel's."""
        d = global_dictionary()
        rel = Relation(2, [("a", "b")])
        rel.index_for((0,))
        np = columnar.load_numpy()
        packed = np.array(
            [
                columnar.pack_encoded(d.intern_row(r))
                for r in [("c", "d"), ("a", "b"), ("e", "f"), ("c", "d")]
            ],
            dtype=np.int64,
        )
        monkeypatch.setattr(Relation, "packed_runs", lambda self: None)
        stats, added = EvalStats(), {}
        scheduler._absorb_packed(rel, "p", packed, stats, added)
        assert (stats.facts_derived, stats.duplicates) == (2, 2)
        assert added == {"p": {("c", "d"), ("e", "f")}}
        assert rel.index_for((0,))[("c",)] == [("c", "d")]
        assert rel.rows() == {("a", "b"), ("c", "d"), ("e", "f")}


# -- the packed absorb's dedup --------------------------------------------------


def _absorb_reference(rel, produced, stats, added):
    """``_absorb_packed``'s packed branch with in-batch dedup by
    ``np.unique(return_index=True)``: the form it replaced."""
    np = columnar.load_numpy()
    uniq, first = np.unique(produced, return_index=True)
    mask = rel.packed_novel_mask(uniq)
    k = int(mask.sum())
    stats.duplicates += len(produced) - k
    if k:
        stats.facts_derived += k
        fresh_ordered = produced[np.sort(first[mask])]
        rel.add_packed_deferred(fresh_ordered, uniq[mask])
        added.setdefault("p", scheduler.PackedDelta(rel)).chunks.append(fresh_ordered)


_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(
    present=st.lists(_pairs, max_size=12),
    batches=st.lists(st.lists(_pairs, min_size=1, max_size=60), min_size=1, max_size=3),
)
def test_absorb_packed_dedup_matches_unique(present, batches):
    """Batches with repeats, some rows already present: the same
    frontier chunks (values and order), counters and packed runs as
    the ``np.unique`` reference."""
    runs = []
    for absorb in (scheduler._absorb_packed, None):
        rel, stats, added = Relation(2, present), EvalStats(), {}
        for batch in batches:
            produced = columnar.pack_rows(batch, 2, global_dictionary())
            if absorb is None:
                _absorb_reference(rel, produced, stats, added)
            else:
                absorb(rel, "p", produced, stats, added)
        chunks = [c.tolist() for c in added["p"].chunks] if added else []
        packed = [r.tolist() for r in rel.packed_runs()]
        runs.append((chunks, stats.duplicates, stats.facts_derived, packed, rel.rows()))
    assert runs[0] == runs[1]
    assert runs[0][1] + runs[0][2] == sum(map(len, batches))


# -- the public cache resets -------------------------------------------------


def _generated_code_held_by_modules():
    """(module, attribute) of every module-level dict in the package
    that holds a function compiled from generated source."""
    held = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, dict) and any(
                getattr(fn, "__code__", None) is not None
                and fn.__code__.co_filename.startswith("<repro")
                for fn in value.values()
            ):
                held.append((name, attr))
    return held


@pytest.mark.parametrize(
    "overrides", [{}, {"use_columnar": False}], ids=["columnar", "no-columnar"]
)
def test_public_resets_leave_no_generated_code(overrides):
    """After the three public resets no generated code survives in the
    process, so a cold ``evaluate`` compiles every kernel it launches
    (the deleted batch rung kept a second source cache that
    ``clear_kernel_cache`` never emptied, so "cold" runs were not)."""
    program = parse(
        """
        tc(X,Y) :- edge(X,Y).
        tc(X,Y) :- tc(X,Z), edge(Z,Y).
        far(X) :- tc(X,Y), not edge(X,Y), lt(X,Y).
        ?- far(X).
        """
    )
    db = Database.from_dict({"edge": [(i, i + 1) for i in range(6)]})
    opts = EngineOptions(**overrides)
    evaluate(program, db, opts)
    assert _generated_code_held_by_modules()  # the probe sees the cache
    clear_prepared_cache()
    clear_kernel_cache()
    global_dictionary().clear()
    assert _generated_code_held_by_modules() == []
    assert kernel_cache_stats() == {"compiles": 0, "hits": 0}
    evaluate(program, db, opts)
    cold = kernel_cache_stats()
    assert cold["compiles"] > 0 and cold["hits"] == 0


# -- engine-level integration ------------------------------------------------


class TestColumnarEngine:
    @needs_numpy
    @pytest.mark.usefixtures("vector_at_any_size")
    def test_columnar_runs_report_batch_work(self):
        program = parse(
            """
            tc(X,Y) :- edge(X,Y).
            tc(X,Y) :- tc(X,Z), edge(Z,Y).
            ?- tc(X,Y).
            """
        )
        db = Database.from_dict({"edge": [(i, i + 1) for i in range(8)]})
        res = evaluate(program, db, EngineOptions())
        assert res.stats.batch_probes > 0
        assert res.stats.batch_rows > 0
        assert res.stats.dict_size > 0
        # the naive plans ran on the tuple kernel
        assert res.stats.columnar_fallbacks > 0

    @needs_numpy
    @pytest.mark.usefixtures("vector_at_any_size")
    def test_right_linear_tc_over_a_cycle_vectorizes_every_delta_round(self):
        """Round 2 faces a V-row frontier against two stale V-row
        images (edge's probe image, tc's packed runs).  Each alone is
        no larger than the frontier, so the round vectorizes — as does
        every later one, whose images are current."""
        program = parse(
            """
            tc(X,Y) :- edge(X,Y).
            tc(X,Y) :- edge(X,Z), tc(Z,Y).
            ?- tc(X,X).
            """
        )
        v = 40
        db = Database.from_dict({"edge": [(i, (i + 1) % v) for i in range(v)]})
        stats = evaluate(program, db, EngineOptions()).stats
        delta_rounds = stats.iterations - 1  # round 1 is the naive round
        assert delta_rounds == v - 1
        assert stats.kernel_launches - stats.columnar_fallbacks == delta_rounds

    @needs_numpy
    def test_warm_same_generation_runs_its_delta_rounds_vectorized(self):
        """``sg(X, Y) :- up(X, U), sg(U, V), down(V, Y)`` lowers to a
        three-step chain.  The first evaluation lays out ``up``'s and
        ``down``'s probe images once a frontier is as large as they
        are; they are shared base relations, so a second evaluation
        runs every delta round whose frontier reaches the crossover on
        the vector kernel.  On a 255-node binary tree the naive round
        reaches depth 1, so the delta rounds face the 4**d pairs of
        depths 1 to 7; those below the crossover, and the two naive
        firings, run on the tuple kernel."""
        from repro.workloads import families

        program = families.same_generation()
        nodes = 255
        tree = [((i - 1) // 2, i) for i in range(1, nodes)]
        db = Database.from_dict({
            "up": [(c, p) for p, c in tree], "down": tree, "flat": [(0, 0)],
        })
        frontiers = [4**d for d in range(1, 8)]
        small = sum(n < batch_kernel.CROSSOVER_ROWS for n in frontiers)
        assert 0 < small < len(frontiers)
        cold = evaluate(program, db)
        warm = evaluate(program, db)
        assert warm.stats.columnar_fallbacks == 2 + small
        assert warm.stats.kernel_launches == 2 + len(frontiers)
        assert warm.stats.batch_rows > 0
        assert warm.answers() == cold.answers()
        tup = evaluate(program, db, EngineOptions(use_columnar=False))
        assert warm.stats.as_dict(engine_invariant=True) == tup.stats.as_dict(
            engine_invariant=True
        )

    def test_no_columnar_option_disables_batching(self):
        program = parse("p(X) :- e(X).\n?- p(X).")
        db = Database.from_dict({"e": [(1,), (2,)]})
        res = evaluate(program, db, EngineOptions(use_columnar=False))
        assert res.stats.batch_probes == 0
        assert res.stats.dict_size == 0

    def test_provenance_routes_around_batch_kernels(self):
        program = parse("p(X) :- e(X).\n?- p(X).")
        db = Database.from_dict({"e": [(1,), (2,)]})
        res = evaluate(program, db, EngineOptions(record_provenance=True))
        assert res.stats.batch_probes == 0
        assert res.provenance is not None


# -- the crossover -------------------------------------------------------------

#: ``family_mix``'s sibling case: three right-linear closures over the
#: same nodes in three orders, joined on both columns
SIBLING_JOIN = "".join(
    f"tc{i}(X, Y) :- edge{i}(X, Y).\ntc{i}(X, Y) :- edge{i}(X, Z), tc{i}(Z, Y).\n"
    for i in (1, 2, 3)
) + "q(X, Y) :- tc1(X, Y), tc2(X, Y), tc3(X, Y).\n?- q(X, Y).\n"


@needs_numpy
class TestCrossover:
    """The vector kernel at its fitted crossover
    (``batch_kernel.CROSSOVER_ROWS``): a smaller frontier declines to
    the tuple kernel before touching a counter."""

    @staticmethod
    def _tc_firing(n):
        """Right-linear TC's delta plan over an n-row frontier, with
        ``e`` no larger than the frontier (so its stale probe image
        alone would not decline the launch)."""
        cr = _compiled(RIGHT_TC)
        rows = [(i, i + 1) for i in range(n)]
        return cr, _delta_plan(cr, "tc"), Database.from_dict({"e": rows, "tc": rows}), rows

    def test_a_frontier_one_row_below_the_crossover_declines_untouched(self):
        cr, plan_id, db, rows = self._tc_firing(batch_kernel.CROSSOVER_ROWS - 1)
        assert _launch(vector_rule_kernel(cr, plan_id), db, rows) == (None, {})

    def test_a_frontier_at_the_crossover_commits(self):
        n = batch_kernel.CROSSOVER_ROWS
        cr, plan_id, db, rows = self._tc_firing(n)
        out, touched = _launch(vector_rule_kernel(cr, plan_id), db, rows)
        assert out is not None and touched["rule_firings"] == n - 1
        _, expected = _tuple_launch(cr, plan_id, db, rows)
        assert _invariant(touched) | _absorbed(out, 2) == expected

    def test_warm_sibling_chains_run_every_delta_firing_on_the_tuple_kernel(
        self, monkeypatch
    ):
        """``family_mix``'s ``sibling3`` shape: 80-node chains, so no
        delta frontier reaches the crossover, even once every image is
        laid out."""
        nodes = list(range(80))
        rng = random.Random(0)
        data = {}
        for i in (1, 2, 3):
            order = rng.sample(nodes, len(nodes))
            data[f"edge{i}"] = list(zip(order, order[1:]))
        program = parse(SIBLING_JOIN)
        db = Database.from_dict(data)
        evaluate(program, db)
        taken = record_vector_rungs(monkeypatch)
        warm = evaluate(program, db)
        delta = [committed for plan_id, committed in taken if plan_id is not None]
        assert len(delta) > 3 and not any(delta)
        tup = evaluate(program, db, EngineOptions(use_columnar=False))
        assert warm.answers() == tup.answers()
        assert warm.stats.as_dict(engine_invariant=True) == tup.stats.as_dict(
            engine_invariant=True
        )

    def test_tc_over_a_cycle_twice_the_crossover_vectorizes_every_delta_round(self):
        """``tc_cycle``'s shape: every delta frontier holds V rows."""
        v = 2 * batch_kernel.CROSSOVER_ROWS
        db = Database.from_dict({"edge": [(i, (i + 1) % v) for i in range(v)]})
        program = parse(
            "tc(X,Y) :- edge(X,Y).\ntc(X,Y) :- edge(X,Z), tc(Z,Y).\n?- tc(X,X)."
        )
        stats = evaluate(program, db, EngineOptions()).stats
        delta_rounds = stats.iterations - 1
        assert delta_rounds == v - 1
        assert stats.kernel_launches - stats.columnar_fallbacks == delta_rounds
