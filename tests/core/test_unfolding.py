"""Tests for the unfolding post-pass (section-6 literal transformation)."""


from repro.datalog import parse
from repro.engine import evaluate
from repro.core import adorn, optimize, push_projections
from repro.core.unfolding import UnfoldReport, unfold_nonrecursive
from repro.workloads.edb import random_edb
from repro.workloads.paper_examples import adorned_from_text


def unfolded(text, **kw):
    program = adorned_from_text(text)
    return unfold_nonrecursive(program, **kw)


class TestEligibility:
    def test_single_rule_nonrecursive_unfolds(self):
        report = unfolded(
            """
            q@n(X) :- view@nn(X, Y).
            view@nn(X, Y) :- e(X, Y).
            ?- q@n(X).
            """
        )
        assert report.unfolded == ("view@nn",)
        assert str(report.program.rules[0]) == "q@n(X) :- e(X, Y)."

    def test_two_rules_not_unfolded(self):
        report = unfolded(
            """
            q@n(X) :- view@nn(X, Y).
            view@nn(X, Y) :- e(X, Y).
            view@nn(X, Y) :- f(X, Y).
            ?- q@n(X).
            """
        )
        assert report.unfolded == ()

    def test_recursive_not_unfolded(self):
        report = unfolded(
            """
            q@n(X) :- view@nn(X, Y).
            view@nn(X, Y) :- e(X, Z), view@nn(Z, Y).
            ?- q@n(X).
            """
        )
        assert report.unfolded == ()

    def test_mutual_recursion_not_unfolded(self):
        report = unfolded(
            """
            q@n(X) :- a@nn(X, Y).
            a@nn(X, Y) :- b@nn(X, Y).
            b@nn(X, Y) :- e(X, Z), a@nn(Z, Y).
            b@nn(X, Y) :- e(X, Y).
            ?- q@n(X).
            """
        )
        assert "a@nn" not in report.unfolded

    def test_query_predicate_not_unfolded(self):
        report = unfolded(
            """
            q@n(X) :- e(X, Y).
            r@n(X) :- q@n(X).
            ?- q@n(X).
            """
        )
        assert "q@n" not in report.unfolded

    def test_negated_predicate_not_unfolded(self):
        report = unfolded(
            """
            q@n(X) :- e(X), not view@n(X).
            view@n(X) :- f(X).
            ?- q@n(X).
            """
        )
        assert report.unfolded == ()

    def test_boolean_guard_not_unfolded(self):
        program = adorned_from_text(
            """
            q@n(X) :- item(X), b1.
            b1 :- w(U, V).
            ?- q@n(X).
            """,
            booleans=["b1"],
        )
        assert unfold_nonrecursive(program).unfolded == ()

    def test_body_size_cap(self):
        text = """
            q@n(X) :- view@nn(X, Y).
            view@nn(X, Y) :- e(X, Z), f(Z, W), g(W, Y).
            ?- q@n(X).
        """
        assert unfolded(text).unfolded == ()
        assert unfolded(text, max_body=3).unfolded == ("view@nn",)


class TestSemantics:
    def test_unifier_applied_to_consumer(self):
        report = unfolded(
            """
            q@n(X) :- view@nn(X, X).
            view@nn(X, Y) :- e(X, Y).
            ?- q@n(X).
            """
        )
        assert str(report.program.rules[0]) == "q@n(X) :- e(X, X)."

    def test_constants_propagate(self):
        report = unfolded(
            """
            q@n(X) :- view@nn(X, 3).
            view@nn(X, Y) :- e(X, Y).
            ?- q@n(X).
            """
        )
        assert str(report.program.rules[0]) == "q@n(X) :- e(X, 3)."

    def test_defining_negatives_spliced(self):
        report = unfolded(
            """
            q@n(X) :- view@n(X).
            view@n(X) :- e(X), not bad(X).
            ?- q@n(X).
            """
        )
        assert str(report.program.rules[0]) == "q@n(X) :- e(X), not bad(X)."

    def test_variable_collision_freshened(self):
        report = unfolded(
            """
            q@n(Y) :- item(Y), view@nn(Y, Z).
            view@nn(X, Y) :- e(X, Y), f(Y).
            ?- q@n(Y).
            """
        )
        rule = report.program.rules[0]
        text = str(rule)
        assert "e(Y," in text and "item(Y)" in text
        rule.to_rule()  # still well-formed
        assert report.program.to_program().validate()

    def test_multiple_occurrences_all_spliced(self):
        report = unfolded(
            """
            q@nn(X, Y) :- view@nn(X, Z), view@nn(Z, Y).
            view@nn(X, Y) :- e(X, Y).
            ?- q@nn(X, Y).
            """
        )
        assert str(report.program.rules[0]) == "q@nn(X, Y) :- e(X, Z), e(Z, Y)."

    def test_answers_preserved_randomized(self):
        source = parse(
            """
            q(X, Y) :- mid(X, Z), mid(Z, Y).
            mid(X, Y) :- e(X, Y), mark(Y).
            ?- q(X, _).
            """
        )
        projected = push_projections(adorn(source))
        report = unfold_nonrecursive(projected)
        assert report.unfolded
        p1, p2 = projected.to_program(), report.program.to_program()
        for seed in range(4):
            db = random_edb(p1, rows=15, domain=7, seed=seed)
            assert evaluate(p1, db).answers() == evaluate(p2, db).answers()


class TestPipelineIntegration:
    def test_adornment_fork_removed(self):
        # q@nn survives only as a copy of e; unfolding removes the copy
        from repro.datalog import Program
        from repro.datalog.ast import Atom, Rule
        from repro.datalog.terms import Variable

        X, Y, QX, A1 = (Variable(n) for n in ("X", "Y", "QX", "_1"))
        program = Program(
            (
                Rule(Atom("q", (X, Y)), (Atom("e", (X, Y)),)),
                Rule(Atom("q", (Y, X)), (Atom("q", (X, Y)), Atom("e", (X, X)))),
            ),
            Atom("q", (QX, A1)),
        )
        result = optimize(program)
        assert "q@nn" in result.record("unfold_nonrecursive").report
        db = random_edb(program, rows=12, domain=6, seed=0)
        original = evaluate(program, db).stats
        optimized = result.evaluate(db).stats
        assert optimized.derivations <= original.derivations
        assert result.answers(db) == result.reference_answers(db)

    def test_unfold_disabled(self, monkeypatch):
        program = parse(
            """
            query(X) :- reach(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            reach(X, Y) :- edge(X, Y).
            ?- query(X).
            """
        )
        folded = optimize(program)
        assert folded.record("unfold_nonrecursive").report
        # the pass row looks the pass up at call time: patch it to a no-op
        monkeypatch.setattr(
            "repro.core.pipeline.unfold_nonrecursive",
            lambda p: UnfoldReport(p, ()),
        )
        plain = optimize(program)
        assert plain.record("unfold_nonrecursive").report == ()
        db = random_edb(program, rows=15, domain=7, seed=1)
        assert plain.answers(db) == folded.answers(db)
