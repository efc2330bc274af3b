"""The estimator's contract: profile once, never count inside a fixpoint.

- ``Relation.degree_profile()`` is memoized against the relation's
  mutation counter, so an unchanged relation is counted once however
  many evaluations ask, and every mutation path invalidates the memo;
- ``AdaptiveReplanner.model_for`` reads frozen inputs through that memo
  and prices the loop's own relations from their lengths — no counting
  pass ever touches a member relation while its fixpoint runs;
- the planner-lane counters this must not move are pinned on the two
  recursive planner shapes of ``tests/bench/cases.py`` and a 480-cycle TC.
"""

import pytest

from repro.datalog import Database, parse
from repro.datalog.columnar import global_dictionary, pack_encoded
from repro.datalog.database import Relation
from repro.engine import EngineOptions, evaluate, scheduler

from ..bench.cases import PLANNER_SHAPES

TC = parse(
    "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n?- tc(X, X)."
)


def cycle(n):
    return Database.from_dict({"edge": [(i, (i + 1) % n) for i in range(n)]})


class ProfileSpy:
    """Records every ``degree_profile`` call made while a fixpoint
    runs, and every counting pass (a memo miss) with the rows it
    covered."""

    def __init__(self, monkeypatch):
        self.in_fixpoint = 0
        self.asked_in_fixpoint: list = []
        self.passes: list[tuple[object, int]] = []
        spy = self

        real_profile = Relation.degree_profile
        real_count = Relation._count_degrees
        real_fixpoint = scheduler._fixpoint

        def degree_profile(rel):
            if spy.in_fixpoint:
                spy.asked_in_fixpoint.append(rel)
            return real_profile(rel)

        def count_degrees(rel):
            spy.passes.append((rel, len(rel)))
            return real_count(rel)

        def fixpoint(*args, **kwargs):
            spy.in_fixpoint += 1
            try:
                return real_fixpoint(*args, **kwargs)
            finally:
                spy.in_fixpoint -= 1

        monkeypatch.setattr(Relation, "degree_profile", degree_profile)
        monkeypatch.setattr(Relation, "_count_degrees", count_degrees)
        monkeypatch.setattr(scheduler, "_fixpoint", fixpoint)

    def rows_counted(self):
        return sum(rows for _, rows in self.passes)


class TestProfileOnce:
    @pytest.mark.parametrize(
        "overrides", [{}, {"use_columnar": False}], ids=["default", "no-columnar"]
    )
    def test_fixpoint_never_counts_a_member(self, monkeypatch, overrides):
        spy = ProfileSpy(monkeypatch)
        db = cycle(60)
        result = evaluate(TC, db, EngineOptions(replan_rounds=1, **overrides))
        assert result.stats.replans >= 3  # the replanner really ran
        tc = result.db.relation("tc")
        assert all(rel is not tc for rel in spy.asked_in_fixpoint)
        # what the loop did ask about is the frozen input, via the memo
        edge = db.relation("edge")
        assert all(rel is edge for rel in spy.asked_in_fixpoint)
        counted_edge = [obj for obj, rows in spy.passes if rows and obj is edge]
        assert len(counted_edge) == 1
        # nothing but the frozen input was ever counted
        assert spy.rows_counted() == len(edge)

    def test_second_evaluate_counts_nothing(self, monkeypatch):
        db = cycle(60)
        first = evaluate(TC, db, EngineOptions(replan_rounds=1))
        spy = ProfileSpy(monkeypatch)
        again = evaluate(TC, db, EngineOptions(replan_rounds=1))
        assert spy.rows_counted() == 0
        for counter in ("replans", "plans_costed", "join_work", "fact_counts"):
            assert getattr(again.stats, counter) == getattr(first.stats, counter)

    def test_copy_carries_the_memo(self, monkeypatch):
        rel = cycle(20).relation("edge")
        profile = rel.degree_profile()
        spy = ProfileSpy(monkeypatch)
        assert rel.copy().degree_profile() == profile
        assert spy.passes == []


class TestMemoInvalidation:
    def fresh(self):
        rel = Relation(2, [(1, 2), (1, 3)])
        assert rel.degree_profile() == (2, (2, 1))
        return rel, rel._version

    def test_add(self):
        rel, version = self.fresh()
        assert rel.add((1, 4))
        assert rel._version > version
        assert rel.degree_profile() == (3, (3, 1))

    def test_duplicate_add_keeps_the_memo(self):
        rel, version = self.fresh()
        assert not rel.add((1, 2))
        assert rel._version == version

    def test_discard(self):
        rel, version = self.fresh()
        assert rel.discard((1, 3))
        assert rel._version > version
        assert rel.degree_profile() == (1, (1, 1))

    def test_bulk_load(self):
        rel = Relation(2)
        assert rel.degree_profile() == (0, (0, 0))
        version = rel._version
        rel.bulk_load([(1, 2), (1, 3), (2, 3)])
        assert rel._version > version
        assert rel.degree_profile() == (3, (2, 2))

    def test_add_packed_deferred(self):
        np = pytest.importorskip("numpy")
        rel, version = self.fresh()
        rel.column_store()
        ids = global_dictionary().intern_row((1, 4))
        fresh = np.array([pack_encoded(ids)], dtype=np.int64)
        rel.add_packed_deferred(fresh, fresh)
        assert rel._version > version
        assert rel.degree_profile() == (3, (3, 1))


@pytest.mark.parametrize(
    "overrides",
    [{}, {"use_columnar": False}, {"use_kernels": False}],
    ids=["default", "no-columnar", "no-kernel"],
)
@pytest.mark.parametrize(
    "workload,expected",
    [
        (PLANNER_SHAPES["skew-star"], (4, 17, 303)),
        (PLANNER_SHAPES["tc-parity"], (4, 12, 9959)),
        ((TC, lambda: cycle(480)), (7, 18, 693120)),
    ],
    ids=["skew-star", "tc-parity", "tc-cycle-480"],
)
def test_planner_lane_counters_pinned(workload, expected, overrides):
    """(replans, plans_costed, join_work) at the default cadence — the
    values measured before the replanner stopped re-profiling."""
    program, make_db = workload
    stats = evaluate(program, make_db(), EngineOptions(**overrides)).stats
    assert (stats.replans, stats.plans_costed, stats.join_work) == expected
