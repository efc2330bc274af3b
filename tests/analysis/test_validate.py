"""Tests for the pass-contract sanitizer (Layer 2).

Each check gets a passing case (the real pipeline's output) and a
failing case (a deliberately corrupted program or a monkeypatched
pass), asserting the violation names the right pass and rule.
"""

from dataclasses import replace

import pytest

from repro.analysis import (
    InvariantViolation,
    check_adorned_program,
    check_argument_projections,
    check_compiled_program,
    check_component_partition,
    check_split_anchoring,
    validate_result,
)
from repro.core.adornment import Adornment, AdornedLiteral, adorn
from repro.core.components import split_components
from repro.core.pipeline import optimize
from repro.core.projection import push_projections
from repro.datalog import parse
from repro.datalog.ast import Atom

TC_EXISTENTIAL = parse(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, _).
    """
)

EXAMPLE2_STYLE = parse(
    """
    p(X) :- q(X, Y), r(Z, W), s(W).
    q(X, Y) :- e(X, Y).
    ?- p(X).
    """
)


def adorned_tc():
    return adorn(TC_EXISTENTIAL)


class TestCheckAdornedProgram:
    def test_real_adorned_program_passes(self):
        check_adorned_program(adorned_tc(), "adorn")

    def test_real_projected_program_passes(self):
        check_adorned_program(push_projections(adorned_tc()), "push_projections")

    def test_wrong_mangled_name(self):
        program = adorned_tc()
        rule = program.rules[0]
        bad_head = replace(
            rule.head, atom=Atom("tc@nn", rule.head.atom.args)
        )
        bad = program.with_rules(
            [replace(rule, head=bad_head), *program.rules[1:]]
        )
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "adorn")
        assert e.value.rule == "name-adornment-agree"
        assert e.value.pass_name == "adorn"

    def test_claimed_projected_but_full_arity(self):
        # flipping the flag without dropping the d columns must trip
        # the arity contract of Lemma 3.2
        bad = replace(adorned_tc(), projected=True)
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "push_projections")
        assert e.value.rule == "adornment-arity"

    def test_negated_literal_with_existential_adornment(self):
        program = adorn(
            parse("p(X) :- e(X), not q(X).\nq(X) :- f(X).\n?- p(X).")
        )
        target = next(r for r in program.rules if r.negative)
        bad_neg = replace(target.negative[0], adornment=Adornment("d"))
        bad = program.with_rules(
            [
                replace(r, negative=(bad_neg,)) if r is target else r
                for r in program.rules
            ]
        )
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "adorn")
        assert e.value.rule == "negation-all-needed"

    def test_boolean_predicate_with_arity(self):
        program = adorned_tc()
        bad = replace(
            program, boolean_predicates=frozenset({"tc@nd"})
        )
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "split_components")
        assert e.value.rule == "boolean-arity"

    def test_undefined_derived_body_predicate(self):
        program = adorned_tc()
        # drop every tc@nd rule but keep the query referencing it
        bad = program.with_rules([])
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "adorn")
        assert e.value.rule == "derived-defined"

    def test_undefined_derived_tolerated_after_deletion(self):
        # the same shape is legitimate after delete_rules (a deleted
        # predicate may leave a never-firing reference behind)
        bad = adorned_tc().with_rules([])
        check_adorned_program(bad, "delete_rules")


class TestComponentChecks:
    def test_partition_on_real_program(self):
        check_component_partition(adorned_tc(), "adorn")

    def test_split_output_is_anchored(self):
        split = split_components(adorn(EXAMPLE2_STYLE))
        check_split_anchoring(split.program, "split_components")

    def test_unsplit_program_fails_anchoring(self):
        # before the Lemma 3.1 rewriting, r(Z, W), s(W) hangs off p's
        # body without touching a needed head variable
        with pytest.raises(InvariantViolation) as e:
            check_split_anchoring(adorn(EXAMPLE2_STYLE), "split_components")
        assert e.value.rule == "single-component"
        assert e.value.pass_name == "split_components"


class TestArgumentProjectionCheck:
    def test_real_projections_pass(self):
        projected = push_projections(split_components(adorned_tc()).program)
        check_argument_projections(projected, "push_projections")

    def test_unprojected_program_is_skipped(self):
        check_argument_projections(adorned_tc(), "adorn")

    def test_corrupted_projection_caught(self, monkeypatch):
        from repro.core import argument_projection as ap

        # fully-needed tc: the recursive literal tc@nn(Z, Y) shares Y
        # with the head, so its projection has a real edge to corrupt
        full = parse(
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
            "?- tc(X, Y)."
        )
        projected = push_projections(split_components(adorn(full)).program)
        real = ap.program_projections(projected)
        key, proj = next(
            (k, p) for k, p in sorted(real.items()) if p.edges
        )
        broken = dict(real)
        broken[key] = replace(proj, edges=frozenset())
        monkeypatch.setattr(ap, "program_projections", lambda _p: broken)
        with pytest.raises(InvariantViolation) as e:
            check_argument_projections(projected, "push_projections")
        assert e.value.rule == "hidden-link-edges"


class TestCompiledProgramCheck:
    def test_real_compilation_passes(self):
        check_compiled_program(TC_EXISTENTIAL, "final")

    def test_tampered_plan_caught(self, monkeypatch):
        from repro.engine import plan as plan_mod

        real_compile = plan_mod.compile_rule

        def tampered(rule, rule_index, sizes=None):
            compiled = real_compile(rule, rule_index, sizes)
            if len(compiled.plan) < 2:
                return compiled
            # swap two steps WITHOUT recomputing bound/free positions:
            # the binding metadata now lies about the join order
            swapped = (compiled.plan[1], compiled.plan[0], *compiled.plan[2:])
            return replace(compiled, plan=swapped)

        monkeypatch.setattr(plan_mod, "compile_rule", tampered)
        with pytest.raises(InvariantViolation) as e:
            check_compiled_program(TC_EXISTENTIAL, "final")
        assert e.value.rule in ("slot-binding", "slot-free")
        assert e.value.pass_name == "final"


class TestPipelineIntegration:
    def test_validate_true_accepts_real_pipeline(self):
        optimize(TC_EXISTENTIAL, validate=True)
        optimize(EXAMPLE2_STYLE, validate=True)

    def test_validate_result_post_hoc(self):
        validate_result(optimize(TC_EXISTENTIAL))
        validate_result(optimize(EXAMPLE2_STYLE))

    def test_broken_projection_pass_is_caught(self, monkeypatch):
        # mutation fixture: push_projections claims success without
        # dropping the existential columns
        def broken(adorned):
            return replace(adorned, projected=True)

        monkeypatch.setattr("repro.core.pipeline.push_projections", broken)
        with pytest.raises(InvariantViolation) as e:
            optimize(TC_EXISTENTIAL, validate=True)
        assert e.value.pass_name == "push_projections"
        assert e.value.rule == "adornment-arity"
        # the post-hoc check walks the same records and names the same pass
        with pytest.raises(InvariantViolation) as e:
            validate_result(optimize(TC_EXISTENTIAL))
        assert (e.value.pass_name, e.value.rule) == ("push_projections", "adornment-arity")

    def test_broken_split_pass_is_caught(self, monkeypatch):
        from repro.core.components import ComponentSplit

        # mutation fixture: the component split does nothing but still
        # reports success — the unanchored component survives
        def broken(adorned):
            return ComponentSplit(
                program=adorned, booleans=frozenset(), rules_split=0
            )

        monkeypatch.setattr("repro.core.pipeline.split_components", broken)
        with pytest.raises(InvariantViolation) as e:
            optimize(EXAMPLE2_STYLE, validate=True)
        assert e.value.pass_name == "split_components"
        assert e.value.rule == "single-component"
        with pytest.raises(InvariantViolation) as e:
            validate_result(optimize(EXAMPLE2_STYLE))
        assert (e.value.pass_name, e.value.rule) == ("split_components", "single-component")

    def test_without_validate_broken_pass_slips_through(self, monkeypatch):
        from repro.core.components import ComponentSplit

        def broken(adorned):
            return ComponentSplit(
                program=adorned, booleans=frozenset(), rules_split=0
            )

        monkeypatch.setattr("repro.core.pipeline.split_components", broken)
        result = optimize(EXAMPLE2_STYLE)  # no validation: no exception here
        with pytest.raises(InvariantViolation):
            validate_result(result)

    def test_answer_positions_out_of_range_caught(self):
        # the positions live in the inline_projection_query record, so
        # the post-hoc check reads them through that pass's contract
        from repro.workloads.families import nonlinear_tc

        result = optimize(nonlinear_tc())
        inline = result.passes[-1]
        assert inline.report is not None
        bad = replace(
            result, passes=(*result.passes[:-1], replace(inline, report=(7,)))
        )
        with pytest.raises(InvariantViolation) as e:
            validate_result(bad)
        assert (e.value.pass_name, e.value.rule) == (
            "inline_projection_query",
            "answer-positions",
        )

    def test_every_pass_is_checked_post_hoc(self, monkeypatch):
        # every projected record is re-checked, the passes between
        # projection and the final program included
        checked = []
        monkeypatch.setattr(
            "repro.analysis.validate.check_argument_projections",
            lambda program, name: checked.append(name),
        )
        result = optimize(TC_EXISTENTIAL)
        validate_result(result)
        assert checked == [r.name for r in result.passes if r.program.projected]
        assert "delete_rules" in checked

    def test_violation_message_names_pass_and_rule(self):
        err = InvariantViolation("push_projections", "adornment-arity", "boom")
        assert "push_projections" in str(err)
        assert "adornment-arity" in str(err)
        assert err.pass_name == "push_projections"
        assert err.rule == "adornment-arity"


class TestQueryLiteral:
    def test_query_arity_violation(self):
        program = adorned_tc()
        bad_query = AdornedLiteral(
            Atom("tc@nd", program.query.atom.args[:1]),
            program.query.adornment,
            derived=True,
        )
        bad = replace(program, query=bad_query)
        with pytest.raises(InvariantViolation) as e:
            check_adorned_program(bad, "adorn")
        assert e.value.rule == "adornment-arity"
