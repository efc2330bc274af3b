"""Tests for the paper-style pretty printer."""

from repro.datalog import parse, parse_rule
from repro.datalog.pretty import diff_programs, paper_atom, paper_rule, render
from repro.core import adorn, optimize
from repro.workloads.paper_examples import example1_program


class TestPaperAtoms:
    def test_adorned_name_caret(self):
        a = parse("a@nd(X) :- p(X, Y). ?- a@nd(X).").rules[0].head
        assert paper_atom(a) == "a^nd(X)"

    def test_plain_name_untouched(self):
        a = parse_rule("p(X, 1) :- e(X).").head
        assert paper_atom(a) == "p(X, 1)"

    def test_bf_suffix_untouched(self):
        a = parse("tc@bf(X, Y) :- e(X, Y). ?- tc@bf(X, Y).").rules[0].head
        assert paper_atom(a) == "tc@bf(X, Y)"

    def test_arity_zero(self):
        a = parse("b :- e(X). ?- b.").rules[0].head
        assert paper_atom(a) == "b"


class TestPaperRules:
    def test_rule(self):
        r = parse("a@nd(X) :- p(X, Y). ?- a@nd(X).").rules[0]
        assert paper_rule(r) == "a^nd(X) :- p(X, Y)."

    def test_negation(self):
        r = parse_rule("p(X) :- n(X), not q(X).")
        assert paper_rule(r) == "p(X) :- n(X), not q(X)."

    def test_fact(self):
        r = parse_rule("f(1, 2).")
        assert paper_rule(r) == "f(1, 2)."


class TestRender:
    def test_paper_style(self):
        adorned = adorn(example1_program())
        text = render(adorned)
        assert "a^nd" in text and "@" not in text
        assert text.endswith("?- query^n(X).")

    def test_plain_style(self):
        adorned = adorn(example1_program())
        text = render(adorned, style="plain")
        assert "a@nd" in text and "^" not in text

    def test_alignment(self):
        adorned = adorn(example1_program())
        lines = render(adorned).splitlines()
        rule_lines = [line for line in lines if ":-" in line]
        positions = {line.index(":-") for line in rule_lines}
        assert len(positions) == 1

    def test_plain_program_renders(self):
        text = render(example1_program())
        assert "query(X)" in text

    def test_unknown_style_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            render(example1_program(), style="latex")


class TestDiff:
    def test_deleted_rules_marked(self):
        result = optimize(example1_program())
        diff = diff_programs(result.record("push_projections").program, result.final)
        assert any(line.startswith("- ") for line in diff.splitlines())

    def test_common_rules_unmarked(self):
        before = parse("p(X) :- e(X). p(X) :- f(X). ?- p(X).")
        after = parse("p(X) :- e(X). ?- p(X).")
        diff = diff_programs(before, after)
        assert any(line.startswith("  ") for line in diff.splitlines())
        assert any(line.startswith("- ") for line in diff.splitlines())

    def test_added_rules_marked(self):
        before = parse("p(X) :- e(X). ?- p(X).")
        after = parse("p(X) :- e(X). p(X) :- f(X). ?- p(X).")
        diff = diff_programs(before, after)
        assert "+ p(X) :- f(X)." in diff

    def test_identity_diff_all_common(self):
        p = example1_program()
        diff = diff_programs(p, p)
        assert all(line.startswith("  ") for line in diff.splitlines())
