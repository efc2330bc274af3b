"""Compiled rule kernels: codegen shape, caching, pooled constants,
and bit-identical agreement with the plan interpreter."""

import cProfile
import pstats
from functools import partial

import pytest

from repro.datalog import Database, parse, parse_rule
from repro.datalog.columnar import numpy_available
from repro.datalog.terms import Constant, Variable
from repro.engine import (
    EngineOptions,
    EvalStats,
    compile_rule,
    evaluate,
    kernel_cache_stats,
    kernel_source,
    rule_kernel,
)
from repro.engine.plan import DeltaIndex, interpret


def _compiled(src: str, index: int = 0):
    return compile_rule(parse_rule(src), index)


def _fire_tuple(cr, plan_id, db, frontier=None, use_indexes=True, kernel=True):
    """One firing of *cr*'s plan into its head relation in *db*, on the
    tuple kernel or (*kernel* false) on the interpreter through the same
    call: (the counters, the frontier it extended)."""
    stats, new = EvalStats(), set()
    head = db.ensure(cr.rule.head.predicate, len(cr.rule.head.args))
    delta = None if frontier is None else DeltaIndex(frontier)
    if kernel:
        run = rule_kernel(cr, plan_id, use_indexes=use_indexes)
    else:
        run = partial(interpret, cr.lowered(plan_id, use_indexes))
    run(db, stats, delta, head, new, None)
    return stats, new


# -- generated source shape ---------------------------------------------------


class TestKernelSource:
    def test_slot_registers_replace_substitution_dicts(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr)
        # every variable is a compile-time register; no dict in sight
        assert "r0 = row0[0]" in src
        assert "dict" not in src
        assert "subst" not in src

    def test_constants_inlined_as_literals(self):
        cr = _compiled("h(Y) :- e(1, Y), f(Y, 'abc').")
        src = kernel_source(cr)
        assert "(1,)" in src  # constant index key for e
        assert "'abc'" in src  # constant key for f

    def test_index_lookup_emitted_directly(self):
        """A ``lookup`` step resolves its hash index at its first probe
        and then probes the live dict; ``index_probes`` still counts
        every probe, once."""
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr)
        assert "idx1 = None" in src
        assert "if idx1 is None: idx1 = rel1.index_for((0,))" in src
        assert "for row1 in idx1.get((r1,), ()):" in src
        assert ".lookup(" not in src
        assert src.count("c_index_probes += 1") == 1  # one increment site
        db = Database.from_dict({"a": [(1, 2), (3, 2), (4, 5)], "b": [(2, 7), (2, 8)]})
        stats, _ = _fire_tuple(cr, None, db)
        assert stats.index_probes == 3  # one per row of a
        assert stats.rows_scanned == 3 + 4
        assert db.relation("b").index_builds == 1

    def test_existential_cut_emits_break(self):
        # Y is dead after a(X, Y): the literal is an existence test
        cr = _compiled("h(X) :- p(X), a(X, Y).")
        assert any(step.cut for step in cr.lowered(None).steps)
        assert "break" in kernel_source(cr)

    def test_non_existential_plan_has_no_break(self):
        cr = _compiled("h(X, Y) :- a(X, Y).")
        assert "break" not in kernel_source(cr)

    def test_repeated_free_variable_compiles_to_guard(self):
        cr = _compiled("h(X) :- a(X, X).")
        src = kernel_source(cr)
        assert "if row0[1] != r0: continue" in src

    def test_builtin_and_negation_in_kernel_body(self):
        r = parse_rule("h(X) :- a(X, Y), lt(X, Y), not bad(X).")
        cr = compile_rule(r, 0)
        src = kernel_source(cr)
        assert "_bi_lt(r0, r1)" in src
        assert "nrel0" in src and "in nrel0" in src

    def test_delta_plan_reads_frontier(self):
        cr = _compiled("h(X, Y) :- e(X, Z), t(Z, Y).")
        src = kernel_source(cr, 1)  # delta on t
        assert "delta.all_rows()" in src or "delta.lookup(" in src

    def test_scan_mode_emits_filtered_full_scan(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        src = kernel_source(cr, use_indexes=False)
        assert ".lookup(" not in src
        assert "scan_fallbacks" in src
        assert "if row1[0] != r1: continue" in src

    def test_provenance_variant_records_rows_in_body_order(self):
        cr = _compiled("h(X, Y) :- e(X, Z), t(Z, Y).")
        src = kernel_source(cr, 1, record_rows=True)
        # delta plan starts at body literal 1, but the justification
        # lists rows in original body order: (e-row, t-row)
        assert "h = (r2, r1)" in src
        assert (
            "provenance[('h', h)] = _Justification(0, (('e', row1), ('t', row0)))"
            in src
        )
        assert "yield" not in kernel_source(cr, 1)


# -- caching and pooled constants ---------------------------------------------

#: one nan object for every run of a rule reading it: programs are
#: prepared once per text, and two nan objects print alike
NAN = float("nan")



class TestKernelCache:
    def test_kernel_memoized_per_rule(self):
        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        k1 = rule_kernel(cr)
        k2 = rule_kernel(cr)
        assert k1 is k2

    def test_structurally_identical_rules_share_one_kernel(self):
        before = kernel_cache_stats()
        a = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        b = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        ka, kb = rule_kernel(a), rule_kernel(b)
        assert ka is kb  # same source => same compiled function
        after = kernel_cache_stats()
        assert after["compiles"] + after["hits"] > before["compiles"] + before["hits"]

    def test_unsupported_constant_falls_back_to_interpreter(self):
        """A constant with no literal form becomes a kernel global, and
        the kernel matches the interpreter in both index modes."""
        from repro.datalog.ast import Atom, Rule

        weird = Constant((1, 2))  # no inline literal form
        rule = Rule(
            Atom("h", (Variable("X"),)),
            (Atom("p", (Variable("X"), weird)),),
        )
        cr = compile_rule(rule, 0)
        assert "for row0 in idx0.get((_k0,), ()):" in kernel_source(cr)
        data = {"p": [(7, (1, 2)), (8, (9, 9))], "h": [(9,)]}
        for use_indexes in (True, False):
            kern = _fire_tuple(cr, None, Database.from_dict(data), use_indexes=use_indexes)
            interp = _fire_tuple(
                cr, None, Database.from_dict(data), use_indexes=use_indexes, kernel=False
            )
            assert kern[1] == interp[1] == {(7,)}
            assert kern[0].as_dict(engine_invariant=True) == interp[0].as_dict(
                engine_invariant=True
            )

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_constant_falls_back_to_interpreter(self, value):
        """``repr`` of a non-finite float is a name, not a literal: the
        rule runs on the tuple kernel with the constant as a kernel
        global, and matches the interpreter."""
        from repro.datalog.ast import Atom, Program, Rule

        rule = Rule(
            Atom("h", (Variable("X"),)),
            (Atom("a", (Variable("X"), Constant(value))),),
        )
        assert "_k0" in kernel_source(compile_rule(rule, 0))
        program = Program((rule,), query=Atom("h", (Variable("X"),)))
        data = {"a": [(1, value), (2, 3)]}
        res = evaluate(program, Database.from_dict(data))
        assert res.stats.kernel_launches > 0
        interp = evaluate(program, Database.from_dict(data), EngineOptions(use_kernels=False))
        # the row holds the constant's own object, so even nan matches it
        assert res.answers() == interp.answers() == {(1,)}
        assert res.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_nan_constant_matches_itself_only(self, use_indexes):
        """A pooled nan compares identity first, then ``==``, on every
        access kind: it matches the row holding that very object, and
        not another nan — under ``--no-index`` a plain ``!=`` would
        reject both."""
        from repro.datalog.ast import Atom, Program, Rule

        X = Variable("X")
        rule = Rule(Atom("h", (X,)), (Atom("a", (X, Constant(NAN))),))
        program = Program((rule,), query=Atom("h", (X,)))
        data = {"a": [(1, NAN), (2, 3), (3, float("nan"))]}
        kern, interp = (
            evaluate(program, Database.from_dict(data),
                     EngineOptions(use_kernels=kernels, use_indexes=use_indexes))
            for kernels in (True, False)
        )
        assert kern.stats.kernel_launches > 0
        assert kern.answers() == interp.answers() == {(1,)}
        assert kern.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )

    def test_pooled_constants_key_the_cache(self):
        """Rules whose pooled constants differ get distinct kernels,
        each answering its own constant — also when their sources are
        equal (two nan objects print alike)."""
        from repro.datalog.ast import Atom, Rule

        def rule(value):
            X = Variable("X")
            return compile_rule(Rule(Atom("h", (X,)), (Atom("p", (X, Constant(value))),)), 0)

        nan_a, nan_b = float("nan"), float("nan")
        data = {"p": [(7, (1, 2)), (8, (3, 4)), (5, nan_a), (6, nan_b)]}
        for (a, b), answers in [
            ((rule((1, 2)), rule((3, 4))), ({(7,)}, {(8,)})),
            ((rule(nan_a), rule(nan_b)), ({(5,)}, {(6,)})),
        ]:
            assert rule_kernel(a) is not rule_kernel(b)
            for cr, expected in zip((a, b), answers):
                for use_indexes in (True, False):
                    db = Database.from_dict(data)
                    assert _fire_tuple(cr, None, db, use_indexes=use_indexes)[1] == expected
        assert kernel_source(rule(nan_a)) == kernel_source(rule(nan_b))

    def test_fallback_rule_still_evaluates_via_interpreter(self):
        """A rule with a pooled constant runs on the tuple kernel, also
        in one run with every other tier."""
        from repro.datalog.ast import Atom, Program, Rule

        weird = Constant((1, 2))
        rule = Rule(Atom("h", (Variable("X"),)), (Atom("p", (Variable("X"), weird)),))
        program = Program((rule,), query=Atom("h", (Variable("X"),)))
        db = Database.from_dict({"p": [(7, (1, 2)), (8, (9, 9))]})
        res = evaluate(program, db)
        assert res.answers() == {(7,)}
        assert res.stats.kernel_launches > 0

        # One run on every tier at once: the TC rules on the tuple and
        # vector kernels, the rule with a pooled constant on the tuple
        # kernel.  It agrees with the all-interpreter run on answers
        # and on every engine-invariant counter.
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        far = Rule(
            Atom("far", (X,)),
            (Atom("tc", (X, Y)), Atom("w", (Y, Constant(float("inf"))))),
        )
        assert "_k0" in kernel_source(compile_rule(far, 2))
        tc = parse(TC)
        program = Program(tc.rules + (far,), query=Atom("far", (X,)))
        edges = [(i, i + 1) for i in range(30)] + [(30, 0), (7, 19)]
        data = {"edge": edges, "w": [(5, float("inf")), (9, 1.0)]}
        mixed = evaluate(program, Database.from_dict(data))
        interp = evaluate(
            program, Database.from_dict(data), EngineOptions(use_kernels=False)
        )
        assert mixed.answers() == interp.answers() == {(i,) for i in range(31)}
        # the vector kernel ran (numpy permitting), and the tuple kernel
        assert (mixed.stats.batch_rows > 0) == numpy_available()
        assert mixed.stats.kernel_launches > 0
        assert interp.stats.kernel_launches == 0
        assert mixed.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )


# -- engine integration -------------------------------------------------------

TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
?- tc(X, Y).
"""

EDGES = {"edge": [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)]}


class TestKernelEngine:
    def _pair(self, src, data, **common):
        program = parse(src)
        kern = evaluate(
            program, Database.from_dict(data),
            EngineOptions(record_provenance=True, **common),
        )
        interp = evaluate(
            program, Database.from_dict(data),
            EngineOptions(record_provenance=True, use_kernels=False, **common),
        )
        return kern, interp

    def test_kernel_path_actually_runs(self):
        kern, interp = self._pair(TC, EDGES)
        assert kern.stats.kernel_launches > 0
        assert interp.stats.kernel_launches == 0

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_bit_identical_with_interpreter(self, use_indexes):
        kern, interp = self._pair(TC, EDGES, use_indexes=use_indexes)
        assert kern.answers() == interp.answers()
        assert kern.provenance == interp.provenance
        assert kern.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )

    # a fully bound literal compiles to a loop-free membership probe, so a
    # failed check after it has no enclosing loop to ``continue``
    @pytest.mark.parametrize(
        ("src", "expected"),
        [
            ("p(Y) :- e(Y, X), f(1).\n?- p(Y).", {(1,), (2,)}),
            ("p :- f(1), not g(1).\n?- p.", {()}),
            ("p(X) :- e(X, Y), h(1, 2).\n?- p(X).", {(1,), (2,)}),
        ],
        ids=["ground-literal", "ground-negation", "ground-binary-literal"],
    )
    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_ground_body_literal_compiles(self, src, expected, use_indexes):
        data = {"e": [(1, 2), (2, 3)], "f": [(1,)], "g": [(5,)], "h": [(1, 2)]}
        kern, interp = self._pair(src, data, use_indexes=use_indexes)
        assert kern.stats.kernel_launches > 0
        assert kern.answers() == interp.answers() == expected
        assert kern.stats.as_dict(engine_invariant=True) == interp.stats.as_dict(
            engine_invariant=True
        )
        for cr in (compile_rule(r, i) for i, r in enumerate(parse(src).rules)):
            compile(kernel_source(cr, use_indexes=use_indexes), "<kernel>", "exec")

    def test_cli_no_kernel_flag(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "p.dl"
        facts = tmp_path / "f.dl"
        prog.write_text("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n?- tc(1, Y).\n")
        facts.write_text("e(1, 2).\ne(2, 3).\n")
        assert main(["run", str(prog), str(facts)]) == 0
        with_kernels = capsys.readouterr().out
        assert main(["run", str(prog), str(facts), "--no-kernel"]) == 0
        assert capsys.readouterr().out == with_kernels

    def test_kernel_halves_interpreter_frame_allocations(self):
        """The headline claim: >= 2x fewer Python function/generator
        frames on the join hot path (measured as profiled call count)."""
        program = parse(TC)
        db = Database.from_dict(
            {"edge": [(i, (i * 7 + 1) % 40) for i in range(40)] + [(i, i + 1) for i in range(40)]}
        )

        def calls(options):
            prof = cProfile.Profile()
            prof.enable()
            evaluate(program, db.copy(), options)
            prof.disable()
            return pstats.Stats(prof).total_calls

        kernel_calls = calls(EngineOptions())
        interp_calls = calls(EngineOptions(use_kernels=False))
        assert kernel_calls * 2 <= interp_calls, (kernel_calls, interp_calls)


# -- the kernel absorbs its own rows ------------------------------------------

NONLINEAR_TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
?- tc(X, Y).
"""


class TestKernelAbsorb:
    @pytest.mark.parametrize("scc", [True, False])
    def test_lookup_on_own_head_matches_interpreter(self, scc):
        """Non-linear TC probes ``tc`` while inserting into it, in every
        round: the kernel's inline absorb and the interpreter's
        generator agree on every counter."""
        program = parse(NONLINEAR_TC)
        data = {"edge": [(i, (i + 1) % 6) for i in range(6)] + [(2, 4)]}
        runs = [
            evaluate(program, Database.from_dict(data), EngineOptions(
                use_kernels=kernels, use_columnar=False, use_scc=scc,
            ))
            for kernels in (True, False)
        ]
        kern, interp = (run.stats for run in runs)
        assert kern.kernel_launches > 0 and interp.kernel_launches == 0
        assert runs[0].answers() == runs[1].answers()
        assert len(runs[0].answers()) == 36
        for counter in ("iterations", "duplicates", "join_work", "rows_scanned"):
            assert getattr(kern, counter) == getattr(interp, counter), counter
        assert kern.as_dict(engine_invariant=True) == interp.as_dict(engine_invariant=True)

    def test_lookup_on_own_head_walks_rows_inserted_mid_firing(self):
        """``[scan k, lookup h, lookup succ]``: each derived ``h(1, Z)``
        lands in the posting list the ``h`` step is walking, so one
        firing follows the whole ``succ`` chain — on the kernel exactly
        as on the interpreter's live lookup."""
        cr = compile_rule(
            parse_rule("h(X, Z) :- k(X), h(X, Y), succ(Y, Z)."), 0,
            sizes={"k": 1, "h": 10, "succ": 100},
        )
        assert [s.kind for s in cr.lowered(None).steps] == ["scan", "lookup", "lookup"]
        data = {"h": [(1, 0)], "k": [(1,)], "succ": [(i, i + 1) for i in range(8)]}
        stats, new = _fire_tuple(cr, None, Database.from_dict(data))
        interp_stats, added = _fire_tuple(cr, None, Database.from_dict(data), kernel=False)
        assert new == added == {(1, z) for z in range(1, 9)}
        assert stats.as_dict(engine_invariant=True) == interp_stats.as_dict(
            engine_invariant=True
        )

    @pytest.mark.parametrize(
        ("src", "data", "frontier"),
        [
            # the delta plan over a: an empty frontier reaches no lookup
            ("h(X, Z) :- a(X, Y), b(Y, Z).", {"b": [(2, 3)]}, []),
            # the repeated-variable check fails on every row of a
            ("h(X, Z) :- a(X, X), b(X, Z).", {"a": [(1, 2), (2, 3)], "b": [(1, 3)]}, None),
            # a failed membership probe guards the lookup
            ("h(X, Z) :- a(X), f(X), b(X, Z).",
             {"a": [(1,), (2,)], "f": [(7,)], "b": [(1, 3)]}, None),
        ],
        ids=["empty-frontier", "failed-check", "failed-member"],
    )
    def test_unreached_lookup_builds_no_index(self, src, data, frontier):
        cr = _compiled(src)
        plan_id = None if frontier is None else 0
        kinds = [step.kind for step in cr.lowered(plan_id).steps]
        assert kinds[-1] == "lookup", kinds
        db = Database.from_dict(data)
        stats, new = _fire_tuple(cr, plan_id, db, frontier)
        assert new == set() and stats.rule_firings == 0
        assert db.index_builds() == 0


# -- counters: locals flushed once per firing ---------------------------------

#: marks a kernel whose innermost row count is fused with rule_firings
FUSED = "c_rows_scanned + c_rule_firings"


def _contract(src, data, plan_id=None, frontier=None, use_indexes=True):
    """Fire one plan of *src*'s rule on the tuple kernel and on the
    interpreter (the reference absorb), each into its own copy of
    *data*: the two must derive the same frontier and agree on every
    engine-invariant counter, ``duplicates`` included.  Returns the
    kernel's source and counters."""
    cr = _compiled(src)
    stats, new = _fire_tuple(cr, plan_id, Database.from_dict(data), frontier, use_indexes)
    interp_stats, added = _fire_tuple(
        cr, plan_id, Database.from_dict(data), frontier, use_indexes, kernel=False
    )
    assert new == added
    assert stats.as_dict(engine_invariant=True) == interp_stats.as_dict(
        engine_invariant=True
    )
    return kernel_source(cr, plan_id, use_indexes=use_indexes), stats


#: ``h(1, 7)`` is derived twice and ``h(3, 8)`` is already in the head
JOIN_DATA = {
    "a": [(1, 2), (3, 2), (1, 4), (5, 6)],
    "b": [(2, 7), (4, 7), (2, 8), (6, 6)],
    "h": [(3, 8)],
    "c": [(8,)],
    "t": [(2, 7, 7), (2, 8, 9), (4, 7, 7), (6, 6, 6)],
}


class TestKernelCounters:
    @pytest.mark.parametrize(
        ("src", "plan_id", "frontier", "last"),
        [
            ("h(X, Z) :- a(X, Y), b(Y, Z).", None, None, "lookup"),
            ("h(X, Z) :- a(X, Y), b(Y, Z).", 1, [(2, 7), (2, 8), (4, 7)], "lookup"),
            ("h(X, Y) :- a(X, Y).", 0, [(1, 2), (3, 8), (5, 6)], "delta"),
            ("h(Y, Y) :- a(X, Y).", None, None, "scan"),
            ("h(X, X) :- a(X, Y).", None, None, "scan"),  # a cut step
        ],
        ids=["lookup", "delta-plan", "delta", "scan", "scan-cut"],
    )
    def test_fused_innermost_count(self, src, plan_id, frontier, last):
        """Nothing filters the innermost row: one local counts its
        ``rows_scanned`` and its ``rule_firings``."""
        cr = _compiled(src)
        assert cr.lowered(plan_id).steps[-1].kind == last
        source, stats = _contract(src, JOIN_DATA, plan_id, frontier)
        assert FUSED in source
        assert stats.rule_firings > 0 and stats.duplicates > 0

    @pytest.mark.parametrize(
        ("src", "use_indexes"),
        [
            ("h(X, Z) :- a(X, Y), t(Y, Z, Z).", True),
            ("h(X, Z) :- a(X, Y), b(Y, Z), lt(X, Z).", True),
            ("h(X, Z) :- a(X, Y), b(Y, Z), not c(Z).", True),
            ("h(X, Z) :- a(X, Y), b(Y, Z).", False),
        ],
        ids=["check", "builtin", "negation", "filter"],
    )
    def test_unfused_when_something_filters(self, src, use_indexes):
        """Each reason that blocks fusion: a repeated-variable check on
        the last step, a built-in, a negated literal, a ``filter``
        step."""
        cr = _compiled(src)
        last = cr.lowered(None, use_indexes).steps[-1]
        assert last.checks or cr.builtins or cr.rule.negative or last.kind == "filter"
        source, stats = _contract(src, JOIN_DATA, use_indexes=use_indexes)
        assert FUSED not in source
        assert stats.rule_firings > 0

    def test_return_path_flushes(self):
        """A ``member`` step, then a scan of an absent relation: the
        kernel returns from inside the member's block, and the member's
        probe is still counted."""
        src = "h(X) :- f(1), e(X)."
        steps = _compiled(src).lowered(None).steps
        assert [(s.kind, s.fail) for s in steps] == [("member", "return"), ("scan", "return")]
        _, stats = _contract(src, {"f": [(1,)]})
        assert (stats.join_probes, stats.index_probes, stats.rows_scanned) == (1, 1, 1)
        assert stats.rule_firings == 0

    def test_exception_path_flushes(self):
        """A probe that raises mid-loop: *stats* holds every count made
        before the raise."""

        class FlakyIndex(dict):
            probes = 0

            def get(self, key, default=None):
                FlakyIndex.probes += 1
                if FlakyIndex.probes == 2:
                    raise RuntimeError("second probe")
                return [(key[0], 7), (key[0], 8)]

        class StubRelation:
            def index_for(self, positions):
                return FlakyIndex()

        data = Database.from_dict({"a": [(1, 2), (1, 3)], "h": [(1, 7)]})
        rels = {"a": data.relation("a"), "b": StubRelation()}

        class StubDatabase:
            def relation(self, predicate):
                return rels.get(predicate)

        cr = _compiled("h(X, Z) :- a(X, Y), b(Y, Z).")
        assert [s.kind for s in cr.lowered(None).steps] == ["scan", "lookup"]
        stats, new = EvalStats(), set()
        with pytest.raises(RuntimeError, match="second probe"):
            rule_kernel(cr)(StubDatabase(), stats, None, data.relation("h"), new, {})
        assert new == {(1, 8)}
        assert (stats.join_probes, stats.index_probes, stats.scan_fallbacks) == (3, 2, 1)
        assert (stats.rows_scanned, stats.rule_firings) == (4, 2)
        assert (stats.facts_derived, stats.duplicates) == (1, 1)

    def test_one_flush_statement_per_kernel(self):
        """``compile()`` copies a ``finally`` body to every exit, so the
        flush stays one statement, the source's last line."""
        rules = [
            "h(X, Z) :- a(X, Y), b(Y, Z).",
            "h(X, Z) :- a(X, Y), t(Y, Z, Z), lt(X, Z), not c(Z).",
            "h(X) :- f(1), e(X), a(X, Y).",
            "h :- a(X, Y), b(Y, Z), f(Z).",
        ]
        for text in rules:
            cr = _compiled(text)
            for plan_id in (None, *range(len(cr.delta_plans))):
                for use_indexes in (True, False):
                    for record_rows in (True, False):
                        lines = kernel_source(
                            cr, plan_id, use_indexes=use_indexes, record_rows=record_rows
                        ).splitlines()
                        assert lines[-2:-1] == ["    finally:"]
                        assert lines[-1].startswith("        _count(stats, ")
                        assert sum("_count(" in line for line in lines) == 1
