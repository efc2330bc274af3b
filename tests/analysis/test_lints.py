"""Per-code trigger and non-trigger tests for every program lint.

Each diagnostic code DL001–DL017 gets at least one program that
produces it and one near-identical program that must not.
"""

from repro.analysis import Severity, lint_program
from repro.core import optimize
from repro.datalog import parse

CLEAN = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
"""


def codes(text, edb=None):
    return lint_program(parse(text), edb=edb).codes()


def diag_for(text, code, edb=None):
    report = lint_program(parse(text), edb=edb)
    matches = [d for d in report if d.code == code]
    assert matches, f"{code} not emitted; got {sorted(report.codes())}"
    return matches[0]


class TestDL001Unsafe:
    def test_unbound_head_variable(self):
        d = diag_for("p(X, Y) :- e(X).\n?- p(X, Y).", "DL001")
        assert d.severity is Severity.ERROR
        assert "Y" in d.message
        assert d.rule_index == 0

    def test_unbound_negated_variable(self):
        assert "DL001" in codes("p(X) :- e(X), not q(X, Y).\n?- p(X).")

    def test_safe_rule_clean(self):
        assert "DL001" not in codes(CLEAN)


class TestDL002Arity:
    def test_two_arities(self):
        d = diag_for("p(X) :- e(X, Y).\np(X, Y) :- e(X, Y).\n?- p(X).", "DL002")
        assert d.predicate == "p"

    def test_consistent_arities_clean(self):
        assert "DL002" not in codes(CLEAN)


class TestDL003Stratification:
    def test_negative_cycle(self):
        text = (
            "p(X) :- e(X), not q(X).\n"
            "q(X) :- e(X), not p(X).\n"
            "?- p(X)."
        )
        assert "DL003" in codes(text)

    def test_stratified_negation_clean(self):
        text = "p(X) :- e(X), not q(X).\nq(X) :- f(X).\n?- p(X)."
        assert "DL003" not in codes(text)


class TestDL004NoQuery:
    def test_rules_without_query(self):
        d = diag_for("p(X) :- e(X).", "DL004")
        assert d.severity is Severity.WARNING

    def test_with_query_clean(self):
        assert "DL004" not in codes(CLEAN)

    def test_empty_program_clean(self):
        assert "DL004" not in codes("")


class TestDL005UndefinedQuery:
    def test_query_predicate_undefined(self):
        assert "DL005" in codes("p(X) :- e(X).\n?- q(X).")

    def test_query_predicate_in_edb_clean(self):
        assert "DL005" not in codes("p(X) :- e(X).\n?- q(X).", edb={"q", "e"})

    def test_defined_query_clean(self):
        assert "DL005" not in codes(CLEAN)


class TestDL006UndefinedBody:
    def test_undefined_with_known_edb(self):
        d = diag_for("p(X) :- ghost(X).\n?- p(X).", "DL006", edb={"e"})
        assert d.predicate == "ghost"

    def test_without_edb_knowledge_silent(self):
        # unknown names default to EDB relations when the EDB is unknown
        assert "DL006" not in codes("p(X) :- ghost(X).\n?- p(X).")

    def test_stored_predicate_clean(self):
        assert "DL006" not in codes("p(X) :- e(X).\n?- p(X).", edb={"e"})

    def test_builtins_exempt(self):
        text = "p(X) :- e(X, Y), lt(X, Y).\n?- p(X)."
        assert "DL006" not in codes(text, edb={"e"})


class TestDL007Unreachable:
    def test_rule_off_the_query(self):
        d = diag_for("p(X) :- e(X).\ndead(X) :- e(X).\n?- p(X).", "DL007")
        assert d.predicate == "dead"

    def test_all_reachable_clean(self):
        assert "DL007" not in codes(CLEAN)


class TestDL008Duplicate:
    def test_renamed_duplicate(self):
        text = "p(X) :- e(X).\np(Y) :- e(Y).\n?- p(X)."
        assert "DL008" in codes(text)

    def test_distinct_rules_clean(self):
        assert "DL008" not in codes(CLEAN)


class TestDL009RedundantLiteral:
    def test_repeated_literal(self):
        assert "DL009" in codes("p(X) :- e(X), e(X).\n?- p(X).")

    def test_distinct_literals_clean(self):
        assert "DL009" not in codes("p(X) :- e(X), f(X).\n?- p(X).")


class TestDL010ExistentialPosition:
    def test_existential_query_column(self):
        text = (
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
            "?- tc(X, _)."
        )
        d = diag_for(text, "DL010")
        assert d.severity is Severity.INFO
        assert "tc@nd" in d.message and "2 to 1" in d.message

    def test_all_needed_clean(self):
        assert "DL010" not in codes(CLEAN)


class TestDL011BooleanSubquery:
    def test_disconnected_component(self):
        d = diag_for("p(X) :- q(X), r(Y).\n?- p(X).", "DL011")
        assert "r(Y)" in d.message

    def test_connected_body_clean(self):
        assert "DL011" not in codes("p(X) :- q(X), r(X).\n?- p(X).")


class TestDL012CrossProduct:
    def test_product_of_needed_components(self):
        d = diag_for("p(X, Y) :- a(X), b(Y).\n?- p(X, Y).", "DL012")
        assert d.severity is Severity.WARNING

    def test_existential_component_is_not_a_product(self):
        # the disconnected component anchors an existential head
        # position only: Lemma 3.1 extracts it (DL011), no DL012
        text = "p(X, Y) :- a(X), b(Y).\n?- p(X, _)."
        report = lint_program(parse(text))
        assert "DL012" not in report.codes()
        assert "DL011" in report.codes()

    def test_connected_join_clean(self):
        assert "DL012" not in codes(CLEAN)


class TestDL013ChainRegular:
    def test_right_linear_chain(self):
        text = (
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
            "?- tc(1, X)."
        )
        assert "DL013" in codes(text)

    def test_self_embedding_chain_clean(self):
        text = (
            "p(X, Y) :- c(X, Y).\n"
            "p(X, Y) :- a(X, Z), p(Z, W), b(W, Y).\n"
            "?- p(1, X)."
        )
        assert "DL013" not in codes(text)

    def test_non_chain_clean(self):
        text = "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\nsg(X, X) :- person(X).\n?- sg(1, X)."
        assert "DL013" not in codes(text)

    def test_doubled_chain(self):
        """Non-linear TC is self-embedding (``tc -> tc tc``), yet its
        language is regular, and ``optimize`` rewrites it when asked
        for one endpoint."""
        text = (
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- tc(X, Z), tc(Z, Y).\n"
            "?- tc(X, _)."
        )
        assert "doubled" in diag_for(text, "DL013").message
        assert optimize(parse(text)).monadic


class TestDL014NegatedUndefined:
    def test_negated_ghost(self):
        text = "p(X) :- e(X), not ghost(X).\n?- p(X)."
        d = diag_for(text, "DL014", edb={"e"})
        assert d.predicate == "ghost"

    def test_without_edb_silent(self):
        assert "DL014" not in codes("p(X) :- e(X), not ghost(X).\n?- p(X).")

    def test_defined_negation_clean(self):
        text = "p(X) :- e(X), not q(X).\nq(X) :- f(X).\n?- p(X)."
        assert "DL014" not in codes(text, edb={"e", "f"})


class TestDL015FactInProgram:
    def test_inline_fact(self):
        d = diag_for("e(1, 2).\np(X) :- e(X, Y).\n?- p(X).", "DL015")
        assert d.severity is Severity.INFO

    def test_pure_rules_clean(self):
        assert "DL015" not in codes(CLEAN)


def _boolean_query_program(n_constants):
    """A zero-arity query whose rules mention *n_constants* distinct
    constants (one membership rule per constant)."""
    rules = "\n".join(
        f"hit() :- item({i})." for i in range(n_constants)
    )
    return f"{rules}\n?- hit()."


class TestDL016DictionaryOverhead:
    def test_boolean_query_over_many_constants(self):
        from repro.analysis.lints import DICTIONARY_OVERHEAD_THRESHOLD

        d = diag_for(
            _boolean_query_program(DICTIONARY_OVERHEAD_THRESHOLD + 1),
            "DL016",
        )
        assert d.severity is Severity.WARNING
        assert "--no-columnar" in (d.hint or "")

    def test_small_constant_universe_clean(self):
        from repro.analysis.lints import DICTIONARY_OVERHEAD_THRESHOLD

        assert "DL016" not in codes(
            _boolean_query_program(DICTIONARY_OVERHEAD_THRESHOLD)
        )

    def test_non_boolean_query_clean(self):
        # same constant universe, but the query returns rows the
        # encoding work amortizes over
        rules = "\n".join(f"hit(X) :- item(X, {i})." for i in range(40))
        assert "DL016" not in codes(f"{rules}\n?- hit(X).")

    def test_repeated_constants_count_once(self):
        rules = "\n".join("hit() :- item(1)." for _ in range(40))
        assert "DL016" not in codes(f"{rules}\n?- hit().")


class TestDL017BoundBlowup:
    def test_needed_cross_product_triggers(self):
        d = diag_for(
            "q(X, Y) :- a(X, Z), b(Y, W).\n?- q(X, Y).", "DL017"
        )
        assert d.severity is Severity.WARNING
        assert d.predicate == "q"

    def test_long_weak_chain_triggers(self):
        body = ", ".join(
            f"e(V{i}, V{i + 1})" for i in range(5)
        )
        assert "DL017" in codes(f"q(V0, V5) :- {body}.\n?- q(X, Y).")

    def test_transitive_closure_clean(self):
        assert "DL017" not in codes(CLEAN)

    def test_same_generation_clean(self):
        assert "DL017" not in codes(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            ?- sg(1, Y).
            """
        )

    def test_existential_atom_clean(self):
        # the junk atom's variables feed nothing: the Lemma 3.1 cut
        # prices the component at one row
        assert "DL017" not in codes(
            "q(X) :- a(X, Z), junk(U, V).\n?- q(X)."
        )

    def test_existential_component_clean(self):
        # a multi-literal existential component is retired whole by
        # the component split (DL011), never enumerated as a product
        assert "DL017" not in codes(
            "q(X) :- a(X, Z), b(U, W), c(W, V).\n?- q(X)."
        )


    def test_measured_profiles_override_synthetic(self):
        # DL017 prices the synthetic profile only; a cross product over
        # tiny *measured* relations is DL021's call, and harmless there:
        # its threshold scales with the largest measured size
        from repro.analysis import analyze_program
        from repro.datalog import Database

        program = parse("q(X, Y) :- a(X, Z), b(Y, W).\n?- q(X, Y).")
        db = Database()
        db.ensure("a", 2).update([(i, i) for i in range(5)])
        db.ensure("b", 2).update([(i, i) for i in range(5)])
        assert "DL017" in lint_program(program, edb=db.predicates()).codes()
        assert "DL021" not in analyze_program(program, db).report.codes()

    def test_measured_profiles_catch_real_blowups(self):
        # ...while a genuinely large measured EDB trips DL021 relative
        # to its own largest relation
        from repro.analysis import analyze_program
        from repro.datalog import Database

        program = parse("q(X, Y) :- a(X, Z), b(Y, W).\n?- q(X, Y).")
        db = Database()
        db.ensure("a", 2).update([(i, i) for i in range(300)])
        db.ensure("b", 2).update([(i, i) for i in range(300)])
        assert "DL021" in analyze_program(program, db).report.codes()

    def test_error_program_suppresses(self):
        # opportunity lints are gated on an error-free program
        assert "DL017" not in codes(
            "q(X, Y) :- a(X, Z), b(Y, W), c(Q).\n?- q(X, Y)."
            + "\nc(A, B) :- a(A, B)."
        )


class TestReportShape:
    def test_clean_program_empty_strict_exit(self):
        report = lint_program(parse(CLEAN))
        assert report.exit_code(strict=True) == 0

    def test_error_suppresses_opportunity_lints(self):
        # unsafe rule (error) → DL010/DL011/DL013 are withheld
        report = lint_program(parse("p(X, Y) :- e(X).\n?- p(X, _)."))
        assert "DL001" in report.codes()
        assert not {"DL010", "DL011", "DL013"} & report.codes()

    def test_spans_point_into_source(self):
        report = lint_program(parse("p(X, Y) :- e(X).\n?- p(X, Y)."))
        d = [d for d in report if d.code == "DL001"][0]
        assert d.span is not None and d.span.line == 1

    def test_every_code_has_registry_entry(self):
        report = lint_program(
            parse("p(X, Y) :- e(X).\np(X) :- e(X).\n?- q(X)."), edb=set()
        )
        for d in report:
            assert d.name  # raises KeyError on unregistered codes
