"""Tests for the connected-component / boolean rewriting (section 3.1)."""

from repro.datalog import parse
from repro.datalog.analysis import body_components
from repro.engine import EngineOptions, evaluate
from repro.core.adornment import adorn
from repro.core.components import split_components
from repro.core.projection import push_projections
from repro.workloads.paper_examples import example2_program
from repro.workloads.edb import random_edb


class TestRuleComponents:
    def components_of(self, src):
        rule = adorn(parse(src)).rules[0].to_rule()
        return body_components(rule.body, rule.negative)

    def test_single_component(self):
        comps = self.components_of("q(X) :- a(X, Y), b(Y, Z). ?- q(X).")
        assert len(comps) == 1

    def test_two_components(self):
        comps = self.components_of("q(X) :- a(X, Y), c(W). ?- q(X).")
        assert sorted(map(sorted, comps)) == [[0], [1]]

    def test_transitive_connection(self):
        comps = self.components_of(
            "q(X) :- a(X, Y), b(Y, Z), c(Z, W), d(U, V). ?- q(X)."
        )
        assert sorted(map(len, comps)) == [1, 3]

    def test_ground_literal_own_component(self):
        comps = self.components_of("q(X) :- a(X), c(1, 2). ?- q(X).")
        assert len(comps) == 2


class TestSplitComponents:
    def test_example2_shape(self):
        adorned = adorn(example2_program())
        split = split_components(adorned)
        assert split.rules_split == 1
        assert len(split.booleans) == 2
        texts = [str(r) for r in split.program.rules]
        # main rule references both booleans
        main = next(t for t in texts if t.startswith("p@nd"))
        for b in sorted(split.booleans):
            assert b in main
        # each boolean has a defining rule
        for b in split.booleans:
            assert any(t.startswith(b) for t in texts)

    def test_example2_boolean_bodies(self):
        adorned = adorn(example2_program())
        split = split_components(adorned)
        bodies = {
            r.head.atom.predicate: {lit.atom.predicate for lit in r.body}
            for r in split.program.rules
            if r.head.atom.predicate in split.booleans
        }
        assert {"q3", "q4@n"} in bodies.values()
        assert {"q5"} in bodies.values()

    def test_no_split_when_connected(self):
        adorned = adorn(parse("q(X) :- a(X, Y), b(Y). ?- q(X)."))
        split = split_components(adorned)
        assert split.rules_split == 0
        assert split.booleans == frozenset()
        assert str(split.program) == str(adorned)

    def test_paper_mode_frees_head_d_variable(self):
        # U anchors only through the head's d position
        adorned = adorn(example2_program())
        split = split_components(adorned)
        main = next(
            r for r in split.program.rules if r.head.atom.predicate == "p@nd"
        )
        head_second = main.head.atom.args[1]
        body_vars = {v for lit in main.body for v in lit.atom.variables()}
        assert head_second not in body_vars  # replaced by a fresh variable

    def test_paper_mode_plus_projection_preserves_answers(self):
        program = example2_program()
        projected = push_projections(split_components(adorn(program)).program)
        rewritten = projected.to_program()
        rewritten.validate()
        for seed in range(4):
            db = random_edb(program, rows=15, domain=6, seed=seed)
            a1 = {t[0] for t in evaluate(program, db).answers()}
            a2 = evaluate(
                rewritten,
                db,
                EngineOptions(cut_predicates=projected.boolean_predicates),
            ).answers()
            assert a1 == {t[0] for t in a2}

    def test_boolean_names_avoid_collisions(self):
        program = parse(
            """
            bool1(X) :- e(X).
            q(X) :- a(X), bool1(Y), c(W).
            ?- q(X).
            """
        )
        split = split_components(adorn(program))
        assert "bool1" not in split.booleans  # name already taken

    def test_booleans_accumulate_across_calls(self):
        adorned = adorn(example2_program())
        once = split_components(adorned)
        twice = split_components(once.program)
        assert once.booleans <= twice.program.boolean_predicates
        assert twice.rules_split == 0  # nothing left to split
