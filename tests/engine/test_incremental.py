"""Property tests for :class:`~repro.engine.incremental.IncrementalSession`.

The differential oracle (tests/oracle/test_incremental.py) checks the
big equivalence — incremental state == from-scratch state.  This module
pins the *session-level* contracts that equivalence alone does not
force: algebraic no-op laws (insert-then-retract, idempotent batches,
batch order-insensitivity), the maintenance counters and their
invariants (``units_reactivated <= units_scheduled``, unaffected units
skipped), retraction as the two DRed rule rewrites on the compiled
engine (no interpreter, collision-free generated names, sound trips in
either walk), copy-on-write isolation between sessions sharing one EDB,
and the prepared-program cache (hits skip planning without changing a
single counter).
"""

import random
import sys
from dataclasses import replace

import pytest

from repro.datalog import Database, ParseError, columnar, parse
from repro.datalog.columnar import numpy_available
from repro.datalog.errors import ArityError
from repro.engine import (
    EngineOptions,
    IncrementalSession,
    ResourceExhausted,
    clear_prepared_cache,
    evaluate,
    prepared_cache_stats,
)
from repro.engine import batch_kernel, incremental, plan

TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
"""

SIBLINGS = """
    tc1(X, Y) :- e1(X, Y).
    tc1(X, Y) :- e1(X, Z), tc1(Z, Y).
    tc2(X, Y) :- e2(X, Y).
    tc2(X, Y) :- e2(X, Z), tc2(Z, Y).
    q(X) :- tc1(X, Y), tc2(X, Y).
    ?- q(X).
"""


def chain(n):
    return [(i, i + 1) for i in range(n)]


def snapshot(session, preds):
    state = {p: session.facts(p) for p in preds}
    state["__answers__"] = session.answers()
    return state


@pytest.fixture
def tc_session():
    return IncrementalSession(
        parse(TC), Database.from_dict({"edge": chain(6)})
    )


class TestNoOpLaws:
    def test_insert_then_retract_same_batch_is_noop(self, tc_session):
        before = snapshot(tc_session, ["edge", "tc"])
        batch = {"edge": [(10, 11), (11, 12), (2, 10)]}
        tc_session.insert(batch)
        tc_session.retract(batch)
        assert snapshot(tc_session, ["edge", "tc"]) == before

    def test_insert_of_present_rows_is_noop(self, tc_session):
        before = snapshot(tc_session, ["edge", "tc"])
        stats = tc_session.insert({"edge": [(0, 1), (1, 2)]})
        assert snapshot(tc_session, ["edge", "tc"]) == before
        assert stats.units_reactivated == 0  # nothing changed, no work

    def test_retract_of_absent_rows_is_noop(self, tc_session):
        before = snapshot(tc_session, ["edge", "tc"])
        stats = tc_session.retract({"edge": [(40, 41)], "tc": [(40, 41)]})
        assert snapshot(tc_session, ["edge", "tc"]) == before
        assert stats.facts_retracted == 0

    def test_batch_is_order_insensitive(self):
        """One batch applied in any element order lands in one state —
        updates are set-at-a-time, not row-at-a-time."""
        rows = [("edge", (7, 8)), ("edge", (3, 7)), ("edge", (8, 0))]
        states = []
        for batch in (rows, list(reversed(rows))):
            s = IncrementalSession(
                parse(TC), Database.from_dict({"edge": chain(6)})
            )
            s.insert(batch)
            s.retract([("edge", (1, 2)), ("edge", (8, 0))])
            states.append(snapshot(s, ["edge", "tc"]))
        assert states[0] == states[1]

    def test_refresh_without_partial_is_noop(self, tc_session):
        before = snapshot(tc_session, ["edge", "tc"])
        tc_session.refresh()
        assert not tc_session.is_partial
        assert snapshot(tc_session, ["edge", "tc"]) == before

    def test_inserted_idb_row_is_given_even_when_derived(self):
        """Inserting an IDB row that is already derived still makes it a
        given fact: it survives the loss of its derivation, as it would
        in a from-scratch evaluation over the given row."""
        session = IncrementalSession(
            parse(TC), Database.from_dict({"edge": [(1, 2)]})
        )
        session.insert({"tc": [(1, 2)]})
        session.retract({"edge": [(1, 2)]})
        scratch = evaluate(parse(TC), Database.from_dict({"tc": [(1, 2)]}))
        assert session.facts("tc") == scratch.facts("tc") == {(1, 2)}

    def test_arity_mismatch_rejected(self, tc_session):
        with pytest.raises(ArityError):
            tc_session.insert({"edge": [(1, 2, 3)]})
        with pytest.raises(ArityError):
            tc_session.retract({"tc": [(1,)]})


class TestMaintenanceCounters:
    def test_reactivated_never_exceeds_scheduled(self):
        session = IncrementalSession(
            parse(SIBLINGS),
            Database.from_dict({"e1": chain(5), "e2": chain(5)}),
        )
        for batch in (
            {"e1": [(5, 6)]},
            {"e2": [(9, 10)]},
            {"e1": [(0, 1)], "e2": [(1, 2)]},
        ):
            stats = session.insert(batch)
            assert stats.units_reactivated <= stats.units_scheduled
            stats = session.retract(batch)
            assert stats.units_reactivated <= stats.units_scheduled
        cumulative = session.stats
        assert cumulative.units_reactivated <= cumulative.units_scheduled
        assert cumulative.incremental_updates == 6

    def test_unaffected_units_are_skipped(self):
        """An insert touching only e1 must not re-run the tc2 unit:
        three units exist (tc1, tc2, q), only tc1 and q react."""
        session = IncrementalSession(
            parse(SIBLINGS),
            Database.from_dict({"e1": chain(5), "e2": chain(5)}),
        )
        stats = session.insert({"e1": [(5, 6)]})
        assert stats.units_scheduled == 3
        assert stats.units_reactivated == 2
        assert "tc2" not in stats.unit_rounds

    def test_rederivation_is_counted(self):
        """Deleting edge(1,2) overdeletes tc(0,2) (derived through it)
        but the shortcut edge(0,2) still supports it — DRed must bring
        it back and say so."""
        session = IncrementalSession(
            parse(TC),
            Database.from_dict({"edge": [(0, 1), (1, 2), (0, 2)]}),
        )
        stats = session.retract({"edge": [(1, 2)]})
        assert (0, 2) in session.facts("tc")
        assert stats.facts_rederived >= 1
        assert stats.facts_retracted >= 2  # edge(1,2) and tc(1,2) at least
        scratch = evaluate(
            parse(TC), Database.from_dict({"edge": [(0, 1), (0, 2)]})
        )
        assert session.facts("tc") == scratch.facts("tc")

    def test_tail_deletion_worst_case_stays_exact(self):
        """DRed's worst case: deleting the *tail* edge of a right-linear
        chain kills tc(*, n) one overdeletion round per hop — O(n)
        rounds, no rederivation possible.  The batch may degrade toward
        from-scratch cost but never past soundness."""
        n = 12
        session = IncrementalSession(
            parse(TC), Database.from_dict({"edge": chain(n)})
        )
        stats = session.retract({"edge": [(n - 1, n)]})
        # the whole last column dies: edge(n-1,n) plus tc(i,n) for all i
        assert stats.facts_retracted == n + 1
        assert stats.facts_rederived == 0
        scratch = evaluate(
            parse(TC), Database.from_dict({"edge": chain(n - 1)})
        )
        assert session.facts("tc") == scratch.facts("tc")


def forest(trees, size, seed):
    """Edges of *trees* random rooted trees of *size* nodes each (a
    node's parent is drawn from the nodes before it)."""
    rng = random.Random(seed)
    return [
        (t * size + rng.randrange(i), t * size + i)
        for t in range(trees)
        for i in range(1, size)
    ]


@pytest.mark.skipif(
    not numpy_available(), reason="the vector kernel needs numpy"
)
class TestSmallUpdatesStayUnencoded:
    def test_one_edge_insert_reencodes_nothing(self, monkeypatch):
        """A small insert into a large closure: its frontiers hold a few
        rows while edge's probe image and tc's packed runs hold
        thousands, so re-encoding either would dwarf the batch.  The
        firings run on the tuple kernel instead — no CSR layout, no run
        re-pack — with the tuple engine's counters."""
        edges = forest(4, 250, seed=3)
        sessions = [
            IncrementalSession(
                parse(TC), Database.from_dict({"edge": edges}),
                EngineOptions(use_columnar=use_columnar),
            )
            for use_columnar in (True, False)
        ]
        assert len(sessions[0].facts("tc")) >= 2000
        calls = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        spy(batch_kernel._CSR, "__init__")
        spy(columnar.ColumnStore, "rebuild")
        col, tup = (s.insert({"edge": [(3, 200)]}) for s in sessions)
        assert calls == []
        assert col.facts_derived > 0
        assert col.as_dict(engine_invariant=True) == tup.as_dict(engine_invariant=True)
        assert sessions[0].facts("tc") == sessions[1].facts("tc")


class TestDRedRewrites:
    """Retraction is two rule rewrites (overdeletion Δ rules, rederivation
    ∇ rules) walked by the same seeded unit walk as insertion."""

    def test_retraction_runs_on_compiled_kernels(self, monkeypatch):
        """No plan-interpreter call anywhere in a default retract batch:
        both walks fire compiled kernels."""
        calls = []
        original = plan.interpret

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro.") \
                    and getattr(module, "interpret", None) is original:
                monkeypatch.setattr(module, "interpret", spy)
        session = IncrementalSession(
            parse(TC), Database.from_dict({"edge": chain(12) + [(0, 5)]})
        )
        stats = session.retract({"edge": [(3, 4)]})
        assert calls == []
        assert stats.kernel_launches > 0
        assert stats.facts_rederived > 0  # both walks did work
        scratch = evaluate(
            parse(TC),
            Database.from_dict({"edge": [e for e in chain(12) if e != (3, 4)] + [(0, 5)]}),
        )
        assert session.facts("tc") == scratch.facts("tc")

    @pytest.mark.parametrize(
        "prefix",
        [incremental._DELETED, incremental._REDERIVE, incremental._PROTECTED],
    )
    def test_generated_names_are_unparsable(self, prefix):
        with pytest.raises(ParseError):
            parse(f"{prefix}tc(X) :- e(X).")

    def test_lookalike_predicates_are_maintained_exactly(self):
        """A program whose own predicates look like generated ones."""
        text = TC + """
            del_tc(X, Y) :- tc(X, Y), edge(Y, X).
            tc_del(X) :- del_tc(X, Y), tc(Y, Y).
        """
        program = parse(text)
        edges = set(chain(6)) | {(6, 0), (3, 1)}
        session = IncrementalSession(program, Database.from_dict({"edge": edges}))
        for kind, batch in (
            ("retract", {(6, 0)}),
            ("insert", {(5, 2), (6, 0)}),
            ("retract", {(2, 3), (3, 1)}),
        ):
            getattr(session, kind)({"edge": batch})
            edges = edges | batch if kind == "insert" else edges - batch
            scratch = evaluate(program, Database.from_dict({"edge": edges}))
            for pred in ("tc", "del_tc", "tc_del"):
                assert session.facts(pred) == scratch.facts(pred), (kind, pred)

    @pytest.mark.parametrize(
        "limits, gone, tripped_in",
        [
            # the tail edge kills tc(*, 12) one Δ round per hop
            ({"max_facts": 3}, (11, 12), incremental._DELETED + "tc"),
            # edge(2, 3) overdeletes tc(0..2, 3..12) in four Δ rounds
            # (30 rows); the bypass edge(1, 3) rederives tc(1, *) and
            # then, one ∇ round later, tc(0, *)
            ({"max_facts": 30}, (2, 3), "tc"),
        ],
    )
    def test_trip_in_either_walk_is_a_sound_lower_bound(self, limits, gone, tripped_in):
        edges = set(chain(12)) | {(1, 3)}
        session = IncrementalSession(parse(TC), Database.from_dict({"edge": edges}))
        session.options = EngineOptions(**limits)
        with pytest.raises(ResourceExhausted) as trip:
            session.retract({"edge": [gone]})
        assert trip.value.unit == tripped_in
        assert session.is_partial
        scratch = evaluate(parse(TC), Database.from_dict({"edge": edges - {gone}}))
        assert session.facts("tc") <= scratch.facts("tc")
        session.options = EngineOptions()
        session.refresh()
        assert not session.is_partial
        assert session.facts("tc") == scratch.facts("tc")


class TestSharedEdbIsolation:
    """The copy-on-write regression: sessions sharing one EDB must stay
    independent, and the caller's database must never mutate."""

    def test_two_sessions_on_one_edb_stay_independent(self):
        edb = Database.from_dict({"edge": chain(6)})
        baseline_edge = edb.rows("edge")
        s1 = IncrementalSession(parse(TC), edb)
        s2 = IncrementalSession(parse(TC), edb)
        s1.insert({"edge": [(6, 7)]})
        assert s2.facts("edge") == baseline_edge
        assert (6, 7) not in s2.facts("tc").union(s2.facts("edge"))
        s2.retract({"edge": [(0, 1)]})
        assert (0, 1) in s1.facts("edge")  # s2's retraction is private
        assert (0, 6) in s1.facts("tc")
        assert (0, 1) not in s2.facts("edge")
        assert edb.rows("edge") == baseline_edge  # caller's EDB untouched
        # each session still equals its own from-scratch reference
        ref1 = evaluate(parse(TC), Database.from_dict({"edge": chain(7)}))
        assert s1.facts("tc") == ref1.facts("tc")
        ref2 = evaluate(parse(TC), Database.from_dict({"edge": chain(6)[1:]}))
        assert s2.facts("tc") == ref2.facts("tc")

    def test_retraction_before_any_insert_privatizes(self):
        """The dangerous direction: the first write being a *discard*
        must copy the shared relation, not mutate it in place."""
        edb = Database.from_dict({"edge": chain(4)})
        session = IncrementalSession(parse(TC), edb)
        session.retract({"edge": [(1, 2)]})
        assert (1, 2) in edb.rows("edge")
        assert (1, 2) not in session.facts("edge")


class TestPreparedCache:
    def test_repeat_sessions_hit_the_cache(self):
        clear_prepared_cache()
        db = {"edge": chain(6)}
        s1 = IncrementalSession(parse(TC), Database.from_dict(db))
        after_first = prepared_cache_stats()
        assert after_first["misses"] == 1
        s2 = IncrementalSession(parse(TC), Database.from_dict(db))
        after_second = prepared_cache_stats()
        assert after_second["hits"] == after_first["hits"] + 1
        assert after_second["misses"] == after_first["misses"]
        assert after_second["entries"] == 1
        # sharing the prepared program shares the compiled rules
        assert s2.prepared is s1.prepared

    def test_cache_hit_changes_no_counter(self):
        """A hit skips planning work only: the evaluation itself is
        bit-identical to the cold-cache run."""
        clear_prepared_cache()
        db = {"edge": chain(6)}
        cold = IncrementalSession(parse(TC), Database.from_dict(db))
        warm = IncrementalSession(parse(TC), Database.from_dict(db))
        assert warm.answers() == cold.answers()
        assert warm.stats.as_dict() == cold.stats.as_dict()

    def test_size_profile_is_part_of_the_key(self):
        """Plans depend on the relation-size profile, so a different
        EDB shape must miss rather than reuse stale join orders."""
        clear_prepared_cache()
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(6)}))
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(30)}))
        stats = prepared_cache_stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_same_size_bucket_hits(self):
        """The key carries log-bucketed sizes, not exact counts: two
        EDBs in the same power-of-two bucket provably get identical
        plans, so a few inserted rows must not evict the preparation."""
        clear_prepared_cache()
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(100)}))
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(101)}))
        stats = prepared_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        assert stats["entries"] == 1

    def test_bucket_boundary_misses(self):
        """Crossing a bucket boundary changes the planning inputs, so
        the cache must miss rather than reuse a stale order."""
        clear_prepared_cache()
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(127)}))
        IncrementalSession(parse(TC), Database.from_dict({"edge": chain(128)}))
        stats = prepared_cache_stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_per_batch_options_can_be_swapped(self, tc_session):
        """session.options governs *subsequent* batches — swapping in a
        tighter budget mid-session applies per batch (used heavily by
        the governor tests)."""
        tc_session.options = replace(tc_session.options, max_facts=10**9)
        stats = tc_session.insert({"edge": [(6, 7)]})
        assert stats.governor_checks > 0
        assert not tc_session.is_partial
