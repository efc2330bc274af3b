"""Unit tests for rule compilation, join planning, lowering and the
lowered-plan interpreter."""

from repro.datalog import Database, parse_rule
from repro.datalog.terms import Constant, Variable
from repro.engine import EvalStats, compile_rule, order_body
from repro.engine.plan import DeltaIndex, interpret


class TestOrderBody:
    def test_constant_literal_first(self):
        r = parse_rule("h(X) :- a(X, Y), b(1, X).")
        plans = order_body(r.body)
        assert plans[0].atom.predicate == "b"  # has a constant → most bound

    def test_bound_positions_accumulate(self):
        r = parse_rule("h(X) :- a(X, Y), b(Y, Z).")
        plans = order_body(r.body)
        first, second = plans
        assert first.bound_positions == ()
        assert second.bound_positions == (0,)  # Y bound by first literal

    def test_forced_first(self):
        r = parse_rule("h(X) :- a(X, Y), b(Y, Z).")
        plans = order_body(r.body, first=1)
        assert plans[0].atom.predicate == "b"
        assert plans[1].bound_positions == (1,)  # Y now bound by b

    def test_deterministic_tie_break_original_order(self):
        r = parse_rule("h(X) :- a(X, Y), c(X, Z).")
        plans = order_body(r.body)
        assert plans[0].atom.predicate == "a"

    def test_tie_break_contract_is_body_index_not_name(self):
        """The documented contract: an exact score tie goes to the
        smallest body index — textual order, never predicate name."""
        r = parse_rule("h(X) :- zz(X, Y), aa(X, Z).")
        plans = order_body(r.body)
        assert [p.atom.predicate for p in plans] == ["zz", "aa"]

    def test_cost_model_tie_break_original_order(self):
        """The DP inherits the same contract: among equal-cost orders
        the lexicographically smallest index tuple (= original body
        order) wins, so plans are reproducible run to run."""
        from repro.engine.cost import BoundCostModel, RelationProfile

        r = parse_rule("h(X) :- zz(X, Y), aa(X, Z).")
        profile = RelationProfile(15, (1, 1))
        model = BoundCostModel({"zz": profile, "aa": profile})
        plans = order_body(r.body, cost_model=model,
                           needed=frozenset(r.head.args))
        assert [p.atom.predicate for p in plans] == ["zz", "aa"]

    def test_repeated_variable_free_positions(self):
        r = parse_rule("h(X) :- a(X, X).")
        plans = order_body(r.body)
        assert plans[0].free_positions == (
            (0, Variable("X")),
            (1, Variable("X")),
        )


def _lowered(rule_src, plan_id=None, use_indexes=True):
    return compile_rule(parse_rule(rule_src), 0).lowered(plan_id, use_indexes)


class TestLiteralPlan:
    def test_key_mixes_constants_and_registers(self):
        low = _lowered("h(X, Y) :- a(X), b(1, X, Y).", plan_id=0)  # a first
        step = low.steps[1]
        assert (step.kind, step.positions) == ("lookup", (0, 1))
        assert step.key == (Constant(1), 0)  # the constant, then X's register
        assert low.registers == (Variable("X"), Variable("Y"))

    def test_bind_consistency(self):
        (step,) = _lowered("h(X) :- a(X, X).").steps
        assert step.binds == ((0, 0),) and step.checks == ((1, 0),)
        results, stats = TestMatchPlan.run(
            "h(X) :- a(X, X).", {"a": [(1, 1), (1, 2), (3, 3)]}
        )
        assert {head for head, _ in results} == {(1,), (3,)}
        assert stats.rows_scanned == 3  # the rejected row is still scanned


class TestMatchPlan:
    """Matching one lowered plan with :func:`interpret`: answers, body
    rows, and the exact counters of each access kind."""

    @staticmethod
    def run(rule_src, data, plan_id=None, delta=None, use_indexes=True):
        """Interpret one plan of *rule_src* over *data*, called like a
        tuple kernel: (each new head row with its body rows, in
        derivation order; the counters)."""
        low = _lowered(rule_src, plan_id, use_indexes)
        db = Database.from_dict(data)
        stats, new, provenance = EvalStats(), set(), {}
        head = db.ensure("h", len(low.head))
        frontier = DeltaIndex(delta) if delta is not None else None
        interpret(low, db, stats, frontier, head, new, provenance)
        assert {row for _, row in provenance} == new
        return [
            (row, tuple(body_row for _, body_row in why.body))
            for (_, row), why in provenance.items()
        ], stats

    @staticmethod
    def counters(stats):
        return (stats.join_probes, stats.index_probes, stats.scan_fallbacks,
                stats.rows_scanned, stats.rule_firings)

    def test_join(self):
        results, _ = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2), (1, 3)], "b": [(2, 5), (3, 6), (9, 9)]},
        )
        assert {head for head, _ in results} == {(1, 5), (1, 6)}

    def test_body_rows_in_original_order(self):
        # the delta plan on b runs b first; rows come back in body order
        results, _ = self.run(
            "h(X) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2)], "b": [(2, 3)]},
            plan_id=1, delta=[(2, 3)],
        )
        assert results == [((1,), ((1, 2), (2, 3)))]

    def test_missing_relation_yields_nothing(self):
        results, stats = self.run("h(X) :- ghost(X).", {"a": [(1, 2)]})
        assert results == []
        assert self.counters(stats) == (0, 0, 0, 0, 0)  # nothing is charged

    def test_delta_restriction(self):
        results, stats = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2), (4, 5)], "b": [(2, 3), (5, 6)]},
            plan_id=0, delta=[(1, 2)],
        )
        assert [head for head, _ in results] == [(1, 3)]
        assert [s.kind for s in _lowered("h(X, Z) :- a(X, Y), b(Y, Z).", 0).steps] == [
            "delta", "lookup"]
        assert self.counters(stats) == (2, 1, 0, 2, 1)

    def test_stats_counters_move(self):
        # scan a (2 rows), then one index lookup on b per a-row
        results, stats = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2), (1, 3)], "b": [(2, 5), (3, 6), (9, 9)]},
        )
        assert [s.kind for s in _lowered("h(X, Z) :- a(X, Y), b(Y, Z).").steps] == [
            "scan", "lookup"]
        assert self.counters(stats) == (3, 2, 1, 4, 2)

    def test_member_probe_builds_no_index(self):
        src = "h(X) :- a(X), b(X)."
        assert [s.kind for s in _lowered(src).steps] == ["scan", "member"]
        data = {"a": [(1,), (2,), (3,)], "b": [(2,), (3,), (9,)]}
        low = _lowered(src)
        db = Database.from_dict(data)
        stats, new = EvalStats(), set()
        interpret(low, db, stats, None, db.ensure("h", 1), new, None)
        assert new == {(2,), (3,)}
        assert self.counters(stats) == (4, 3, 1, 5, 2)
        assert db.relation("b").index_builds == 0

    def test_filter_scans_whole_relation_per_probe(self):
        src = "h(X, Z) :- a(X, Y), b(Y, Z)."
        assert [s.kind for s in _lowered(src, use_indexes=False).steps] == [
            "scan", "filter"]
        results, stats = self.run(
            src, {"a": [(1, 2), (1, 3)], "b": [(2, 5), (3, 6), (9, 9)]},
            use_indexes=False,
        )
        assert {head for head, _ in results} == {(1, 5), (1, 6)}
        # every b row is charged on each of the two probes
        assert self.counters(stats) == (3, 0, 3, 2 + 2 * 3, 2)

    def test_existential_cut_stops_at_first_witness(self):
        src = "h(X) :- a(X), b(X, Y)."  # Y is dead: b is an existence test
        assert [s.cut for s in _lowered(src).steps] == [False, True]
        results, stats = self.run(
            src, {"a": [(1,), (2,)], "b": [(1, 7), (1, 8), (1, 9), (2, 7)]}
        )
        assert sorted(head for head, _ in results) == [(1,), (2,)]
        assert (stats.rows_scanned, stats.rule_firings) == (2 + 1 + 1, 2)

    def test_absent_relation_takes_the_fail_action(self):
        # c is absent: inside b's cut loop that is a break, not a continue
        src = "h(X) :- a(X), b(X, Y), c(X)."
        low = _lowered(src, use_indexes=False)
        assert [s.kind for s in low.steps] == ["scan", "filter", "filter"]
        assert [s.fail for s in low.steps] == ["return", "continue", "break"]
        three = [(1,), (2,), (3,)]
        data = {"a": three, "b": [(x, y) for x in range(1, 4) for y in range(1, 4)]}
        results, stats = self.run(src, data, use_indexes=False)
        assert results == []
        # one witness of b per a-row, then the absent c ends the cut
        assert stats.join_probes == 1 + 3
        assert stats.rule_firings == 0

    def test_compile_rule_has_delta_plan_per_literal(self):
        r = parse_rule("h(X) :- a(X, Y), b(Y, Z), c(Z).")
        cr = compile_rule(r, 0)
        assert len(cr.delta_plans) == 3
        for i, plans in enumerate(cr.delta_plans):
            assert plans[0].body_index == i

    def test_head_values(self):
        results, _ = self.run("h(X, 7) :- a(X).", {"a": [(3,)]})
        assert [head for head, _ in results] == [(3, 7)]

    def test_lowering_is_memoized_lazily(self):
        cr = compile_rule(parse_rule("h(X) :- a(X, Y)."), 0)
        assert cr._memo == {}  # compile_rule lowers nothing
        assert cr.lowered(0) is cr.lowered(0)
        assert cr.lowered(0) is not cr.lowered(0, use_indexes=False)
