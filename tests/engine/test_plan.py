"""Unit tests for rule compilation and join planning."""

from repro.datalog import Database, parse_rule
from repro.datalog.terms import Variable
from repro.engine import EvalStats, compile_rule, order_body
from repro.engine.plan import match_plan


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


class TestLiteralPlan:
    def test_key_for_mixes_constants_and_bindings(self):
        r = parse_rule("h(X) :- b(1, X).")
        plan = order_body(r.body)[0]
        assert plan.key_for({}) == (1,)

    def test_bind_consistency(self):
        r = parse_rule("h(X) :- a(X, X).")
        plan = order_body(r.body)[0]
        assert plan.bind((1, 1), {}) == {Variable("X"): 1}
        assert plan.bind((1, 2), {}) is None


class TestMatchPlan:
    def run(self, rule_src, data, delta=None):
        r = parse_rule(rule_src)
        plans = order_body(r.body, first=0 if delta is not None else None)
        db = Database.from_dict(data)
        stats = EvalStats()
        return list(
            match_plan(plans, db, stats, delta_rows=delta)
        ), stats

    def test_join(self):
        results, _ = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2), (1, 3)], "b": [(2, 5), (3, 6), (9, 9)]},
        )
        bindings = {
            (s[Variable("X")], s[Variable("Z")]) for s, _ in results
        }
        assert bindings == {(1, 5), (1, 6)}

    def test_body_rows_in_original_order(self):
        results, _ = self.run(
            "h(X) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2)], "b": [(2, 3)]},
        )
        (_, rows), = results
        assert rows == ((1, 2), (2, 3))

    def test_missing_relation_yields_nothing(self):
        results, _ = self.run("h(X) :- ghost(X).", {"a": [(1, 2)]})
        assert results == []

    def test_delta_restriction(self):
        results, _ = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2), (4, 5)], "b": [(2, 3), (5, 6)]},
            delta=frozenset({(1, 2)}),
        )
        assert len(results) == 1

    def test_stats_counters_move(self):
        _, stats = self.run(
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            {"a": [(1, 2)], "b": [(2, 3)]},
        )
        assert stats.join_probes >= 2
        assert stats.rows_scanned >= 2

    def test_compile_rule_has_delta_plan_per_literal(self):
        r = parse_rule("h(X) :- a(X, Y), b(Y, Z), c(Z).")
        cr = compile_rule(r, 0)
        assert len(cr.delta_plans) == 3
        for i, plans in enumerate(cr.delta_plans):
            assert plans[0].body_index == i

    def test_head_values(self):
        r = parse_rule("h(X, 7) :- a(X).")
        cr = compile_rule(r, 0)
        assert cr.head_values({Variable("X"): 3}) == (3, 7)
