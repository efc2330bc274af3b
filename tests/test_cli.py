"""Tests for the command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
    query(X) :- reach(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    reach(X, Y) :- edge(X, Y).
    ?- query(X).
"""

FACTS = """
    edge(1, 2).
    edge(2, 3).
    edge(7, 8).
"""

CHAIN = """
    a(X, Y) :- e(X, Z), a(Z, Y).
    a(X, Y) :- e(X, Y).
    ?- a(X, Y).
"""


#: a needed cross product: DL012 from every command, DL017 from lint only
CROSS = "q(X, Y) :- a(X), b(Y).\n?- q(X, Y).\n"

#: one program, many warnings (DL006 and DL014 need the facts file)
WARNINGS = """\
r(X, Y) :- a(X), b(Y).
r(X, Y) :- p(X), p(Y), not ghostneg(X).
p(X) :- e(X), ghost(X).
p(X) :- e(X), e(X).
p(Y) :- e(Y), ghost(Y).
dead(X) :- e(X).
?- r(X, Y).
"""


@pytest.fixture
def files(tmp_path):
    program = tmp_path / "program.dl"
    program.write_text(PROGRAM)
    facts = tmp_path / "facts.dl"
    facts.write_text(FACTS)
    chain = tmp_path / "chain.dl"
    chain.write_text(CHAIN)
    return program, facts, chain


def _count_evaluations(monkeypatch) -> list:
    """Record every ``evaluate`` the CLI reaches, directly or through
    ``OptimizationResult``; returns the list the results land in."""
    import repro.cli
    import repro.core.pipeline
    from repro.engine import evaluate

    runs = []

    def counted(*args, **kwargs):
        runs.append(evaluate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(repro.cli, "evaluate", counted)
    monkeypatch.setattr(repro.core.pipeline, "evaluate", counted)
    return runs


class TestOptimize:
    def test_describe_output(self, files, capsys):
        program, _, _ = files
        assert main(["optimize", str(program)]) == 0
        out = capsys.readouterr().out
        assert "adorned" in out and "final" in out

    def test_quiet_final_only(self, files, capsys):
        program, _, _ = files
        assert main(["optimize", str(program), "-q"]) == 0
        out = capsys.readouterr().out
        assert "query@n(X) :- edge(X, Y)." in out
        assert "adorned" not in out

    def test_no_deletion_flag(self, files, capsys):
        program, _, _ = files
        assert main(["optimize", str(program), "-q", "--no-deletion"]) == 0
        out = capsys.readouterr().out
        assert "query@n" in out

    def test_missing_file(self, capsys):
        assert main(["optimize", "/nonexistent.dl"]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_plain_run(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["1", "2", "7"]

    def test_optimized_run_same_answers(self, files, capsys):
        program, facts, _ = files
        main(["run", str(program), str(facts)])
        plain = capsys.readouterr().out
        main(["run", str(program), str(facts), "-O"])
        optimized = capsys.readouterr().out
        assert sorted(plain.splitlines()) == sorted(optimized.splitlines())

    @pytest.mark.parametrize("flags", [[], ["-O"], ["-O", "--validate"]])
    def test_evaluates_exactly_once(self, files, capsys, monkeypatch, flags):
        program, facts, _ = files
        runs = _count_evaluations(monkeypatch)
        assert main(["run", str(program), str(facts), *flags]) == 0
        assert len(runs) == 1
        assert sorted(capsys.readouterr().out.splitlines()) == ["1", "2", "7"]

    def test_optimized_run_refuses_rows_of_a_derived_predicate(self, tmp_path, capsys):
        program = tmp_path / "f1.dl"
        program.write_text("q(X) :- a(X).\na(X) :- e(X, Y), a(Y).\na(X) :- s(X).\n?- q(X).\n")
        facts = tmp_path / "f1_facts.dl"
        facts.write_text("e(1,2). s(2). a(9). e(3,9).\n")
        assert main(["run", str(program), str(facts)]) == 0
        assert sorted(capsys.readouterr().out.split()) == ["1", "2", "3", "9"]
        assert main(["run", str(program), str(facts), "-O"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'a'" in captured.err and "inline_projection_query" in captured.err

    def test_stats_to_stderr(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts), "--stats"]) == 0
        captured = capsys.readouterr()
        assert "iters=" in captured.err

    def test_facts_file_with_rules_rejected(self, files, capsys):
        program, _, _ = files
        assert main(["run", str(program), str(program)]) == 2
        assert "ground facts" in capsys.readouterr().err

    def test_program_file_with_facts_rejected(self, files, tmp_path, capsys):
        _, facts, _ = files
        mixed = tmp_path / "mixed.dl"
        mixed.write_text(PROGRAM + FACTS)
        assert main(["run", str(mixed), str(facts)]) == 2
        assert "facts" in capsys.readouterr().err


class TestGovernedRun:
    """The resource-governor flags: exit code 3 on a tripped limit
    under ``--on-limit raise``, flagged lower-bound output under
    ``--on-limit partial``, fault injection, and spec validation."""

    def test_zero_deadline_exits_3(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts), "--deadline", "0"]) == 3
        err = capsys.readouterr().err
        assert "ResourceExhausted" in err and "deadline" in err
        assert "partial work before abort" in err

    def test_max_facts_exits_3(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts), "--max-facts", "1"]) == 3
        err = capsys.readouterr().err
        assert "max_facts" in err

    def test_partial_is_flagged_lower_bound(self, files, capsys):
        program, facts, _ = files
        rc = main(
            ["run", str(program), str(facts),
             "--max-facts", "1", "--on-limit", "partial"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "PARTIAL RESULT" in captured.err
        assert "lower bound" in captured.err
        # every printed answer must be a true answer of the full run
        capsys.readouterr()
        main(["run", str(program), str(facts)])
        full = set(capsys.readouterr().out.splitlines())
        assert set(captured.out.splitlines()) <= full

    def test_partial_answers_banner_and_stats_are_one_run(
        self, files, capsys, monkeypatch
    ):
        """``run -O`` under a tripped limit: the printed rows are the
        answers of the very evaluation the banner and ``--stats``
        describe — there is no second, differently-cut run."""
        _, _, chain = files
        facts = chain.with_name("chain_facts.dl")
        facts.write_text("".join(f"e({i}, {i + 1}).\n" for i in range(40)))
        runs = _count_evaluations(monkeypatch)
        rc = main(
            ["run", str(chain), str(facts), "-O", "--stats",
             "--max-facts", "100", "--on-limit", "partial"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        (result,) = runs
        assert result.is_partial and "PARTIAL RESULT" in captured.err
        assert f"-- {result.stats.summary()}" in captured.err
        printed = captured.out.splitlines()
        assert 0 < len(printed) < 40 * 41 // 2
        assert sorted(printed) == sorted(
            ", ".join(map(str, row)) for row in result.answers()
        )

    def test_generous_limits_change_nothing(self, files, capsys):
        program, facts, _ = files
        rc = main(
            ["run", str(program), str(facts),
             "--deadline", "3600", "--max-facts", "1000000"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert sorted(captured.out.strip().splitlines()) == ["1", "2", "7"]
        assert "PARTIAL" not in captured.err

    @pytest.mark.parametrize(
        "spec", ["columnar", "index-build", "scheduler", "kernel-compile"]
    )
    def test_retired_fault_kinds_exit_2(self, files, capsys, spec):
        """The executor tiers are flags (--no-columnar, --no-index,
        --no-scc, --no-kernel), not faults: their old fault specs are
        bad specs like any other."""
        program, facts, _ = files
        rc = main(["run", str(program), str(facts), "--inject-fault", spec])
        assert rc == 2
        assert "unknown fault spec" in capsys.readouterr().err

    def test_injected_wal_crash_then_restart_recovers(self, files, tmp_path, capsys):
        """A crash injected after batch 2's record is durable kills
        serve mid-batch; a restart on the same WAL replays both records
        and answers with both batches applied."""
        from repro.engine import WalCrash

        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        with pytest.raises(WalCrash):
            _serve(
                [program, facts, "--wal", wal,
                 "--inject-fault", "wal-crash:after-append:2"],
                ["+edge(3, 9).", "-edge(7, 8).", "?"],
            )
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("ok ")  # batch 1 only
        assert _serve([program, "--wal", wal], ["?"]) == 0
        captured = capsys.readouterr()
        assert "recovered source=replay snapshot_seq=0 replayed=2 " in captured.err
        assert sorted(captured.out.splitlines()) == ["1", "2", "3"]

    def test_bad_fault_spec_exits_2(self, files, capsys):
        program, facts, _ = files
        rc = main(
            ["run", str(program), str(facts), "--inject-fault", "no-such"]
        )
        assert rc == 2
        assert "fault" in capsys.readouterr().err


class TestGrammar:
    def test_chain_program_report(self, files, capsys):
        _, _, chain = files
        assert main(["grammar", str(chain)]) == 0
        out = capsys.readouterr().out
        assert "a -> e a" in out
        assert "self-embedding: False" in out
        assert "monadic" in out

    def test_words_listing(self, files, capsys):
        _, _, chain = files
        assert main(["grammar", str(chain), "--words", "3"]) == 0
        out = capsys.readouterr().out
        assert "  e e e" in out

    def test_non_chain_program_errors(self, files, capsys):
        program, _, _ = files
        assert main(["grammar", str(program)]) == 2
        assert "chain" in capsys.readouterr().err


class TestExplain:
    def test_derivation_tree(self, files, capsys):
        program, facts, _ = files
        assert main(["explain", str(program), str(facts), "reach", "1,3"]) == 0
        out = capsys.readouterr().out
        assert "reach(1, 3)" in out and "[rule" in out
        assert "edge" in out

    def test_underived_fact(self, files, capsys):
        program, facts, _ = files
        assert main(["explain", str(program), str(facts), "reach", "3,1"]) == 1
        assert "not derived" in capsys.readouterr().err


class TestJsonReport:
    def test_json_output(self, files, capsys):
        import json

        program, _, _ = files
        assert main(["optimize", str(program), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["final_rules"] == ["query@n(X) :- edge(X, Y)."]
        assert report["query"] == "query(X)"
        assert report["unfolded_predicates"] == ["reach@nd"]
        assert any(
            "subsumed" in d["reason"] or "sagiv" in d["reason"]
            for d in report["deleted_rules"]
        )

    # each delete_rules flag, on a program where it changes the report
    @pytest.mark.parametrize(
        ("flag", "setting", "example"),
        [
            ("--no-deletion", {"deletion": None}, "example12_original"),
            ("--no-unit-rules", {"unit_rules": False}, "example12_original"),
            ("--no-chase", {"use_chase": False}, "example5_program"),
            ("--no-sagiv", {"use_sagiv": False}, "example12_original"),
        ],
    )
    def test_deletion_flags_reach_the_pass(self, tmp_path, capsys, flag, setting, example):
        import json

        from repro.core import optimize
        from repro.workloads import paper_examples

        program = getattr(paper_examples, example)()
        path = tmp_path / "program.dl"
        path.write_text(f"{program}\n")
        assert main(["optimize", str(path), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(["optimize", str(path), "--json", flag]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report != default
        assert report == optimize(program, **setting).report_dict()

    def test_deletion_flag_effects(self, tmp_path, capsys):
        import json

        from repro.workloads.paper_examples import example5_program, example12_original

        def report(program, *flags):
            path = tmp_path / "program.dl"
            path.write_text(f"{program}\n")
            assert main(["optimize", str(path), "--json", *flags]) == 0
            return json.loads(capsys.readouterr().out)

        assert report(example5_program())["final_rules"] == ["a@nd(X) :- p(X, Y)."]
        assert report(example5_program(), "--no-chase")["final_rules"] == [
            "a@nd(V1) :- p(V1, V2)."
        ]
        e12 = example12_original()
        reasons = [d["reason"] for d in report(e12)["deleted_rules"]]
        assert reasons == ["sagiv uniform equivalence"] * 2
        reasons = [d["reason"] for d in report(e12, "--no-sagiv")["deleted_rules"]]
        assert len(reasons) == 2
        assert all(r.startswith("uniform-query-equivalence chase") for r in reasons)
        assert len(report(e12)["final_rules"]) == 2
        without_units = report(e12, "--no-unit-rules")
        assert without_units["unit_rules_added"] == []
        assert len(without_units["final_rules"]) == 4
        assert report(e12, "--no-deletion")["deleted_rules"] == []

    def test_report_dict_shape(self):
        from repro.core import optimize
        from repro.workloads.paper_examples import example2_program

        report = optimize(example2_program()).report_dict()
        assert report["boolean_predicates"]
        assert isinstance(report["adorned_rules"], list)


class TestSubsumptionLogging:
    def test_describe_mentions_subsumption(self):
        from repro.core import optimize
        from repro.datalog import parse

        program = parse(
            """
            p(X) :- e(X, Y).
            p(X) :- e(X, Y), g(Y).
            ?- p(X).
            """
        )
        result = optimize(program)
        assert result.subsumed
        assert "theta-subsumption" in result.describe()


DIRTY = """
    p(X, Y) :- e(X).
    p(X) :- e(X).
    dead(X) :- e(X).
    ?- p(X).
"""

WARN_ONLY = """
    p(X) :- e(X).
    p(Y) :- e(Y).
    ?- p(X).
"""


class TestLint:
    @pytest.fixture
    def lint_files(self, tmp_path):
        clean = tmp_path / "clean.dl"
        clean.write_text(PROGRAM)
        dirty = tmp_path / "dirty.dl"
        dirty.write_text(DIRTY)
        warn = tmp_path / "warn.dl"
        warn.write_text(WARN_ONLY)
        facts = tmp_path / "facts.dl"
        facts.write_text(FACTS)
        return clean, dirty, warn, facts

    def test_clean_program_exits_zero(self, lint_files, capsys):
        clean, _, _, _ = lint_files
        assert main(["lint", str(clean)]) == 0
        out = capsys.readouterr().out
        # the reach query drops a column, so the optimizer opportunity
        # is reported as an info — infos never affect the exit code
        assert "info[DL010] existential-position" in out
        assert out.strip().splitlines()[-1] == "0 error(s), 0 warning(s), 1 info(s)"

    def test_infos_do_not_fail_strict(self, lint_files, capsys):
        clean, _, _, _ = lint_files
        assert main(["lint", str(clean), "--strict"]) == 0

    def test_errors_exit_two_with_rendered_diagnostics(self, lint_files, capsys):
        _, dirty, _, _ = lint_files
        assert main(["lint", str(dirty)]) == 2
        out = capsys.readouterr().out
        assert "error[DL001] unsafe-rule" in out
        assert "error[DL002] arity-mismatch" in out
        assert str(dirty) + ":" in out  # diagnostics carry the file name

    def test_warnings_pass_by_default_fail_strict(self, lint_files, capsys):
        _, _, warn, _ = lint_files
        assert main(["lint", str(warn)]) == 0
        capsys.readouterr()
        assert main(["lint", str(warn), "--strict"]) == 2
        out = capsys.readouterr().out
        assert "warning[DL008] duplicate-rule" in out

    def test_json_format(self, lint_files, capsys):
        import json

        _, dirty, _, _ = lint_files
        assert main(["lint", str(dirty), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "DL001" in codes and "DL002" in codes
        assert payload["counts"]["error"] >= 2
        assert payload["source"] == str(dirty)

    def test_facts_file_defines_edb(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text("p(X) :- ghost(X).\n?- p(X).")
        facts = tmp_path / "f.dl"
        facts.write_text("e(1).")
        # without facts the EDB is unknown: ghost is assumed stored
        assert main(["lint", str(program)]) == 0
        capsys.readouterr()
        # with facts the EDB is known and ghost is flagged
        assert main(["lint", str(program), str(facts), "--strict"]) == 2
        out = capsys.readouterr().out
        assert "warning[DL006] undefined-body-predicate" in out
        assert "ghost" in out

    def test_facts_never_reprice_bound_blowup(self, tmp_path, capsys):
        """DL017 prices the synthetic profile with or without FACTS;
        measured pricing is ``analyze``'s DL021."""
        program = tmp_path / "p.dl"
        program.write_text("q(X, Y, Z) :- a(X), b(Y), c(Z).\n?- q(X, Y, Z).")
        facts = tmp_path / "f.dl"
        facts.write_text(
            "".join(f"{p}({i}). " for p in "abc" for i in range(40))
        )
        assert main(["lint", str(program), str(facts)]) == 0
        out = capsys.readouterr().out
        assert "DL017" in out and "synthetic relation size" in out
        assert "measured" not in out

    def test_missing_file(self, capsys):
        assert main(["lint", "/nonexistent.dl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_facts_lint_as_info_not_parse_error(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text("e(1, 2).\np(X) :- e(X, Y).\n?- p(X).")
        assert main(["lint", str(program)]) == 0
        assert "info[DL015] fact-in-program" in capsys.readouterr().out


class TestValidateFlag:
    def test_optimize_validate_clean(self, files, capsys):
        program, _, _ = files
        assert main(["optimize", str(program), "--validate", "-q"]) == 0

    def test_run_validate_clean(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts), "-O", "--validate"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["1", "2", "7"]


class TestDiagnosticWarnings:
    def test_run_warns_on_undefined_body_predicate(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text("p(X) :- e(X), ghost(X).\n?- p(X).")
        facts = tmp_path / "f.dl"
        facts.write_text("e(1).")
        assert main(["run", str(program), str(facts)]) == 0
        err = capsys.readouterr().err
        assert "DL006" in err and "ghost" in err

    def test_run_quiet_on_fully_defined_program(self, files, capsys):
        program, facts, _ = files
        assert main(["run", str(program), str(facts)]) == 0
        assert "DL" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "run -O", "optimize", "serve"])
    def test_bound_blowup_is_left_to_lint(self, tmp_path, capsys, command):
        program = tmp_path / "p.dl"
        program.write_text(CROSS)
        facts = tmp_path / "f.dl"
        facts.write_text("a(1). a(2). b(3).")
        if command == "serve":
            assert _serve([program, facts], ["?"]) == 0
        else:
            argv = [*command.split(), str(program)]
            assert main(argv + ([str(facts)] if command != "optimize" else [])) == 0
        captured = capsys.readouterr()
        assert "DL012" in captured.err and "DL017" not in captured.err
        if command.startswith("run"):
            assert sorted(captured.out.split("\n")[:-1]) == ["1, 3", "2, 3"]
        assert main(["lint", str(program), str(facts)]) == 0
        assert "DL017" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, text",
        [pytest.param(c, WARNINGS, id=c)
         for c in ("run", "run -O", "optimize", "serve")]
        # serve opens its session before it lints: an unsafe rule stops it first
        + [pytest.param(c, WARNINGS + "bad(X) :- e(Y).\n", id=f"{c} with-error")
           for c in ("run", "run -O", "optimize")],
    )
    def test_every_other_diagnostic_is_printed_in_order(
        self, tmp_path, capsys, command, text
    ):
        """What the evaluating commands print is ``repro lint``'s errors
        and warnings, in its order, without DL017."""
        from repro.analysis import lint_program
        from repro.datalog import parse

        program = tmp_path / "p.dl"
        program.write_text(text)
        facts = tmp_path / "f.dl"
        facts.write_text("a(1). b(2). e(1). e(2).")
        edb = {"a", "b", "e"} if command.startswith("run") else None
        if command == "serve":
            _serve([program, facts], [])
        else:
            argv = [*command.split(), str(program)]
            main(argv + ([str(facts)] if command != "optimize" else []))
        report = lint_program(parse(text), edb=edb)
        expected = [
            d.render(str(program))
            for d in (*report.errors, *report.warnings)
            if d.code != "DL017"
        ]
        assert "DL017" in report.codes() or report.errors
        printed = capsys.readouterr().err.splitlines()
        rendered = "\n".join(expected).splitlines()
        assert printed[: len(rendered)] == rendered
        assert not any("[DL" in line for line in printed[len(rendered):])

    @pytest.mark.parametrize(
        "argv", [["run", "-O"], ["run"], ["optimize"]], ids=" ".join
    )
    def test_one_adornment_per_invocation(self, files, monkeypatch, capsys, argv):
        """``run -O`` and ``optimize`` lint the pipeline's own adornment;
        plain ``run`` adorns once, for the lints."""
        import sys

        from repro.core import adornment

        original, calls = adornment.adorn, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "adorn", None) is original:
                monkeypatch.setattr(module, "adorn", counted)
        program, facts, _ = files
        paths = [str(program)] + ([str(facts)] if argv[0] == "run" else [])
        assert main([*argv, *paths]) == 0
        assert len(calls) == 1


def _serve(argv, lines):
    """Run ``repro serve`` with scripted stdin (the ``input`` hook the
    parser defaults to None is how tests inject a line source)."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["serve", *map(str, argv)])
    args.input = (line + "\n" for line in lines)  # lazy: a generator may act between lines
    return args.fn(args)


class TestServe:
    def test_basic_batches_and_query(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], ["+edge(3, 9).", "?"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ok ")
        assert sorted(out[1:]) == ["1", "2", "3", "7"]

    def test_malformed_line_is_structured_error(self, files, capsys):
        """Satellite: garbage must answer ``err ...`` on stdout, and the
        session must keep serving afterwards — never a crash."""
        program, facts, _ = files
        rc = _serve(
            [program, facts],
            ["+edge(1, ", "+edge((1,2)).", "!!!", "+edge(3, 9).", "?"],
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len([l for l in out if l.startswith("err ")]) == 3
        assert any(l.startswith("ok ") for l in out)
        assert "3" in out  # the good batch after the garbage landed

    def test_undefined_predicate_rejected(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], ["+ghost(1).", "?"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("err ReproError: undefined predicate(s) ghost")
        assert sorted(out[1:]) == ["1", "2", "7"]

    def test_arity_mismatch_rejected(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], ["+edge(1, 2, 3).", "?"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("err ")
        assert "arity" in out[0]

    def test_rule_in_batch_rejected(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], ["+p(X) :- edge(X, Y)."])
        assert rc == 0
        out = capsys.readouterr().out
        assert "err ReproError: update batches must contain only ground" in out

    def test_unknown_command_rejected(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], [".frobnicate"])
        assert rc == 0
        assert "err ReproError: unrecognized command" in capsys.readouterr().out

    def test_checkpoint_requires_wal(self, files, capsys):
        program, facts, _ = files
        rc = _serve([program, facts], [".checkpoint", ".recover"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "err ReproError: .checkpoint requires --wal" in out
        assert "err ReproError: .recover requires --wal" in out

    def test_durable_checkpoint_and_recover(self, files, tmp_path, capsys):
        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        rc = _serve(
            [program, facts, "--wal", wal],
            ["+edge(3, 9).", ".checkpoint", ".recover", "?"],
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ok ")
        assert out[1] == "ok checkpoint seq=1"
        assert out[2].startswith("ok recovered source=replay replayed=")
        assert sorted(out[3:]) == ["1", "2", "3", "7"]

    def test_restart_recovers_state(self, files, tmp_path, capsys):
        """A second serve over the same --wal resumes exactly where the
        first exited — the facts file is ignored on recovery."""
        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        assert _serve([program, facts, "--wal", wal], ["+edge(3, 9)."]) == 0
        capsys.readouterr()
        assert _serve([program, "--wal", wal], ["?"]) == 0
        captured = capsys.readouterr()
        assert sorted(captured.out.splitlines()) == ["1", "2", "3", "7"]
        assert "recovered source=" in captured.err

    def test_recover_sees_buffered_batches(self, files, tmp_path, capsys):
        """Under ``--fsync off`` the live log buffers its records;
        ``.recover`` must still replay every accepted batch."""
        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        rc = _serve(
            [program, facts, "--wal", wal, "--fsync", "off"],
            ["+edge(3, 9).", ".recover", "? reach"],
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "ok recovered source=replay replayed=1"
        assert "3, 9" in out[2:]

    def test_refused_recover_keeps_the_session_durable(self, files, tmp_path, capsys):
        """A refused ``.recover`` leaves the live session serving with
        its log attached: later batches are logged, ``.checkpoint``
        works, and a restart replays them."""
        program, facts, _ = files
        wal = tmp_path / "serve.wal"

        def lines():
            yield "+edge(3, 4)."
            for snap in tmp_path.glob("serve.wal.snap-*"):
                snap.unlink()
            yield ".recover"
            yield "+edge(4, 5)."
            yield ".checkpoint"

        assert _serve([program, facts, "--wal", wal], lines()) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("err RecoveryError")
        assert "no-valid-snapshot" in out[1]
        assert out[2].startswith("ok ")
        assert out[3] == "ok checkpoint seq=2"
        assert _serve([program, "--wal", wal], ["? reach"]) == 0
        captured = capsys.readouterr()
        assert "recovered source=replay" in captured.err
        assert "4, 5" in captured.out.splitlines()

    def test_unknown_predicate_query_rejected(self, files, capsys):
        """A typo'd ``? pred`` is an error, not an empty relation."""
        program, facts, _ = files
        rc = _serve([program, facts], ["? reachh", "? reach"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("err ReproError: undefined predicate(s) reachh")
        assert "1, 3" in out[1:]

    def test_restart_without_facts_lints_against_recovered_state(
        self, files, tmp_path, capsys
    ):
        """The stored relations of a restart come from the WAL, so the
        lint must not warn that ``edge`` has no facts."""
        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        assert _serve([program, facts, "--wal", wal], ["+edge(3, 9)."]) == 0
        capsys.readouterr()
        assert _serve([program, "--wal", wal], ["?"]) == 0
        assert "DL006" not in capsys.readouterr().err

    def test_fresh_session_without_facts_does_not_warn_empty_edb(self, files, capsys):
        """The stdin batches fill the EDB predicates, so ``serve P``
        lints like ``repro lint P``: no DL006 for ``edge``."""
        program, _, _ = files
        assert _serve([program], ["+edge(1, 2). edge(2, 3).", "?"]) == 0
        captured = capsys.readouterr()
        assert "DL006" not in captured.err
        assert sorted(captured.out.splitlines()[1:]) == ["1", "2"]

    def test_rejected_lines_never_reach_the_wal(self, files, tmp_path, capsys):
        """WAL consistency under garbage: rejected lines leave no log
        record, so recovery equals the live session exactly."""
        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        rc = _serve(
            [program, facts, "--wal", wal],
            ["+ghost(1).", "+edge(1,", "+edge(3, 9).", "-edge(7, 8)."],
        )
        assert rc == 0
        capsys.readouterr()
        from repro.engine import read_wal

        records = read_wal(str(wal)).records
        assert [r["kind"] for r in records] == ["insert", "retract"]
        assert _serve([program, "--wal", wal], ["?"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sorted(out) == ["1", "2", "3"]

    def test_main_entry_serves_durably(self, files, tmp_path, capsys):
        """End-to-end through main(): flags parse and thread through.
        The first session runs under a one-fact budget, so every
        snapshot it writes is dirty and the restart takes the scratch
        rung back to the exact state."""
        import repro.cli as cli

        program, facts, _ = files
        wal = tmp_path / "serve.wal"
        real = cli.build_parser

        def serve(argv, lines):
            lines = iter(lines)

            def patched():
                parser = real()
                original = parser.parse_args

                def parse_args(argv=None):
                    args = original(argv)
                    if getattr(args, "fn", None) is cli._cmd_serve:
                        args.input = lines
                    return args

                parser.parse_args = parse_args
                return parser

            cli.build_parser = patched
            try:
                return main(["serve", str(program), *argv, "--wal", str(wal)])
            finally:
                cli.build_parser = real

        rc = serve(
            [
                str(facts),
                "--fsync", "always",
                "--snapshot-every", "1",
                "--max-facts", "1",
                "--on-limit", "partial",
            ],
            ["+edge(3, 9).\n", ".checkpoint\n", "?\n"],
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ok ")
        assert "ok checkpoint seq=1" in out
        assert serve([], ["?\n"]) == 0
        captured = capsys.readouterr()
        assert "recovered source=scratch" in captured.err
        assert sorted(captured.out.splitlines()) == ["1", "2", "3", "7"]


MISMATCH = """
    a(1).
    b('x').
    p(X) :- a(X), b(X).
    ?- p(X).
"""


class TestAnalyze:
    @pytest.fixture
    def analyze_files(self, tmp_path):
        program = tmp_path / "program.dl"
        program.write_text(PROGRAM)
        facts = tmp_path / "facts.dl"
        facts.write_text(FACTS)
        mismatch = tmp_path / "mismatch.dl"
        mismatch.write_text(MISMATCH)
        return program, facts, mismatch

    def test_text_report_with_domain_summary(self, analyze_files, capsys):
        program, facts, _ = analyze_files
        assert main(["analyze", str(program), str(facts)]) == 0
        out = capsys.readouterr().out
        assert "domains:" in out
        assert "measured" in out

    def test_json_covers_all_three_domains(self, analyze_files, capsys):
        import json

        program, facts, _ = analyze_files
        assert main(["analyze", str(program), str(facts), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["domains"]) == {"sorts", "cardinality", "boundedness"}
        assert data["measured"] is True
        # the stored EDB relation carries a measured sketch...
        edge = data["domains"]["cardinality"]["edge"]
        assert edge["measured"] is True
        # ...the derived predicates carry sorts and boundedness verdicts
        assert "reach" in data["domains"]["sorts"]
        assert data["domains"]["boundedness"]["reach"]["derivable"] is True

    def test_json_without_facts_is_synthetic(self, analyze_files, capsys):
        import json

        program, _, _ = analyze_files
        assert main(["analyze", str(program), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["measured"] is False
        assert data["domains"]["cardinality"]["edge"]["measured"] is False

    def test_sort_mismatch_warns_and_fails_strict(self, analyze_files, capsys):
        _, _, mismatch = analyze_files
        assert main(["analyze", str(mismatch)]) == 0
        out = capsys.readouterr().out
        assert "DL019" in out
        assert main(["analyze", str(mismatch), "--strict"]) == 2

    def test_profile_save_load_round_trip(self, analyze_files, tmp_path, capsys):
        import json

        program, facts, _ = analyze_files
        profiles = tmp_path / "profiles.json"
        assert main(
            ["analyze", str(program), str(facts),
             "--save-profiles", str(profiles)]
        ) == 0
        saved = json.loads(profiles.read_text())
        assert saved["version"] == 1
        assert saved["sketches"]["edge"]["measured"] is True
        capsys.readouterr()
        # re-analyze without the facts file: the loaded sketches keep
        # the cardinality domain measured
        assert main(
            ["analyze", str(program), "--format", "json",
             "--load-profiles", str(profiles)]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["domains"]["cardinality"]["edge"]["measured"] is True

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.dl"]) == 2
        assert "error" in capsys.readouterr().err
