"""Command-line interface: optimize, run, and inspect Datalog programs.

Usage (also via ``python -m repro``)::

    python -m repro optimize program.dl            # print the pipeline story
    python -m repro run program.dl facts.dl        # evaluate a query
    python -m repro run program.dl facts.dl -O     # ... after optimization
    python -m repro serve program.dl [facts.dl]    # incremental update session
    python -m repro lint program.dl [facts.dl]     # static diagnostics
    python -m repro analyze program.dl [facts.dl]  # abstract interpretation
    python -m repro grammar program.dl             # chain-program/CFG view
    python -m repro explain program.dl facts.dl p "1,2"   # derivation tree
    python -m repro shell [files...]               # interactive session

Program files use the textual syntax of :mod:`repro.datalog.parser`;
fact files are programs consisting of ground facts (``edge(1, 2).``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.pipeline import optimize
from .datalog import Database, Program, ReproError, parse, read_facts
from .datalog.parser import split_facts
from .engine import (
    EngineOptions,
    IncrementalSession,
    ResourceExhausted,
    evaluate,
    parse_fault_specs,
)

__all__ = ["main"]

#: exit code for a governed run that hit a resource limit under
#: ``--on-limit raise`` — distinct from 2 (usage / input errors) so
#: scripts can tell "the query was too expensive" from "the query was
#: wrong"
EXIT_RESOURCE_EXHAUSTED = 3


def _load_program(path: str) -> Program:
    with open(path) as f:
        program, facts = split_facts(parse(f.read()))
    if facts:
        raise ReproError(
            f"{path}: program files must not contain facts "
            f"(found {facts[0]}); put them in the facts file"
        )
    return program


def _load_facts(path: str) -> Database:
    with open(path) as f:
        program, db = read_facts(f.read())
    if program.rules:
        raise ReproError(
            f"{path}: fact files must contain only ground facts "
            f"(found rule {program.rules[0]})"
        )
    return db


def _warn_diagnostics(program: Program, source: str, edb=None) -> None:
    """Print lint errors/warnings for *program* to stderr.

    Used by ``optimize`` and ``run`` so mistakes like an undefined body
    predicate surface as a diagnostic instead of a silently empty
    evaluation; infos are withheld (``repro lint`` shows everything)."""
    from .analysis import lint_program

    report = lint_program(program, edb=edb, source=source)
    for diag in (*report.errors, *report.warnings):
        print(diag.render(source), file=sys.stderr)


def _cmd_optimize(args) -> int:
    program = _load_program(args.program)
    _warn_diagnostics(program, args.program)
    result = optimize(
        program,
        deletion=None if args.no_deletion else "lemma53",
        unit_rules=not args.no_unit_rules,
        use_chase=not args.no_chase,
        use_sagiv=not args.no_sagiv,
        validate=args.validate,
    )
    if args.json:
        import json

        print(json.dumps(result.report_dict(), indent=2))
    elif args.quiet:
        print(result.final)
    else:
        print(result.describe())
    return 0


def _engine_kwargs(args) -> dict:
    """The EngineOptions kwargs shared by ``run`` and ``serve``."""
    engine = dict(
        use_indexes=not args.no_index,
        use_kernels=not args.no_kernel,
        use_columnar=not args.no_columnar,
        use_cost_planner=not args.no_cost_planner,
        replan_rounds=args.replan_rounds,
        use_scc=not args.no_scc,
        deadline_s=args.deadline,
        max_facts=args.max_facts,
        on_limit=args.on_limit,
    )
    if args.inject_fault:
        engine["fault_plan"] = parse_fault_specs(args.inject_fault)
    return engine


def _cmd_run(args) -> int:
    program = _load_program(args.program)
    db = _load_facts(args.facts)
    _warn_diagnostics(program, args.program, edb=db.predicates())
    engine = _engine_kwargs(args)
    try:
        if args.optimize:
            result = optimize(program, validate=args.validate)
            evaluation = result.evaluate(db, **engine)
            answers = result.answers_of(evaluation)
        else:
            evaluation = evaluate(program, db, EngineOptions(**engine))
            answers = evaluation.answers()
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.stats is not None:
            print(f"-- partial work before abort: {exc.stats.summary()}", file=sys.stderr)
        return EXIT_RESOURCE_EXHAUSTED
    for row in sorted(answers, key=repr):
        print(", ".join(map(str, row)))
    if evaluation.is_partial:
        print(
            f"-- PARTIAL RESULT (lower bound): evaluation aborted by "
            f"{evaluation.stats.aborted_reason} limit; absent answers are "
            f"unknown, not false",
            file=sys.stderr,
        )
    if args.stats:
        print(f"-- {evaluation.stats.summary()}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    """Incremental mode: materialize once, then maintain the fixpoint
    under a line protocol on stdin.

    Commands (one per line)::

        +edge(1, 2). edge(2, 3).   apply the facts as one insert batch
        -edge(1, 2).               apply the facts as one retract batch
        ?                          print the program query's answers
        ? pred                     print the stored rows of a predicate
        .stats                     cumulative session counters (stderr)
        .last                      last batch's counters (stderr)
        .refresh                   re-run fixpoint (restores exactness
                                   after a partial, governed batch)
        .checkpoint                force a snapshot + WAL compaction
                                   (requires --wal)
        .recover                   reopen the session from disk, as a
                                   restart would (requires --wal); a
                                   refused recovery keeps the session
        .quit                      exit (EOF also exits)

    Each update line is one governed batch: deadlines/budgets from the
    engine flags apply per batch.  A tripped batch leaves the session
    in a flagged lower-bound state; the session keeps serving and
    ``.refresh`` restores exactness.

    **Error protocol.**  A bad input line — a parse error, an arity
    mismatch, an undefined predicate, an unknown command — answers with
    one structured line on **stdout**, ``err <Type>: <message>``, and
    the session keeps serving with its state (and WAL, when durable)
    untouched by the rejected line.  Rejection happens before anything
    reaches the log, so the WAL never records a batch that was not
    applied.

    With ``--wal`` the session is **durable**: every accepted batch is
    appended to the write-ahead log before it is applied, and snapshots
    per ``--snapshot-every``/``--fsync`` bound the replay tail.  If the
    WAL already exists on startup, the session is *recovered* from it,
    under whatever engine flags this run passes (the facts file is
    ignored in that case — state comes from disk).
    """
    import os

    program = _load_program(args.program)
    db = _load_facts(args.facts) if args.facts else Database()
    opts = EngineOptions(**_engine_kwargs(args))

    config = None
    if args.wal:
        from .engine import DurabilityConfig

        config = DurabilityConfig(
            wal_path=args.wal,
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )

    def open_session():
        if config is not None and os.path.exists(config.wal_path):
            from .engine import recover

            session, report = recover(program, config, opts)
            print(
                f"recovered source={report.source} "
                f"snapshot_seq={report.snapshot_seq} "
                f"replayed={report.replayed_batches} "
                f"recovery_ms={report.recovery_ms:.1f}",
                file=sys.stderr,
            )
            return session
        return IncrementalSession(program, db, opts, durable=config)

    try:
        session = open_session()
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_EXHAUSTED
    # no EDB: the stdin batches may fill any program predicate, so none
    # is known to stay empty (lint as ``repro lint P`` does)
    _warn_diagnostics(program, args.program)

    def check_known(predicates) -> None:
        unknown = sorted(set(predicates) - session.known_predicates())
        if unknown:
            raise ReproError(
                f"undefined predicate(s) {', '.join(unknown)}: not in "
                f"the program or the loaded EDB"
            )

    def parse_batch(text: str):
        batch_program, facts = split_facts(parse(text))
        if batch_program.rules or batch_program.query is not None:
            raise ReproError(
                "update batches must contain only ground facts"
            )
        check_known(f.predicate for f in facts)
        return facts

    from .engine import WalCrash

    print(f"ready {session.stats.summary()}", file=sys.stderr)
    try:
        for raw in args.input if args.input is not None else sys.stdin:
            line = raw.strip()
            try:
                if not line or line.startswith("%"):
                    continue
                if line in (".quit", ".exit"):
                    break
                if line == ".stats":
                    print(f"-- {session.stats.summary()}", file=sys.stderr)
                    continue
                if line == ".last":
                    print(f"-- {session.last_stats.summary()}", file=sys.stderr)
                    continue
                if line == ".refresh":
                    batch = session.refresh()
                    print(f"ok {batch.summary()}")
                    continue
                if line == ".checkpoint":
                    if not session.durable:
                        raise ReproError(".checkpoint requires --wal")
                    seq = session.checkpoint()
                    print(f"ok checkpoint seq={seq}")
                    continue
                if line == ".recover":
                    if config is None:
                        raise ReproError(".recover requires --wal")
                    from .engine import recover

                    # recovery reads the log this session appends to;
                    # a refused recovery keeps this session serving
                    session.flush()
                    recovered, report = recover(program, config, opts)
                    session.close()
                    session = recovered
                    print(
                        f"ok recovered source={report.source} "
                        f"replayed={report.replayed_batches}"
                    )
                    continue
                if line == "?" or line.startswith("? "):
                    pred = line[1:].strip()
                    if pred:
                        check_known([pred])
                    rows = session.facts(pred) if pred else session.answers()
                    for row in sorted(rows, key=repr):
                        print(", ".join(map(str, row)))
                    if session.is_partial:
                        print(
                            "-- PARTIAL RESULT (lower bound): a previous "
                            "batch was aborted; run .refresh",
                            file=sys.stderr,
                        )
                    continue
                if line[0] in "+-":
                    facts = parse_batch(line[1:])
                    if line[0] == "+":
                        batch = session.insert(facts)
                    else:
                        batch = session.retract(facts)
                    partial = " PARTIAL" if session.is_partial else ""
                    print(f"ok{partial} {batch.summary()}")
                    continue
                raise ReproError(f"unrecognized command: {line!r}")
            except WalCrash:
                # an injected crash is a crash: no structured reply, no
                # orderly shutdown — recovery is the test's next move
                raise
            except ResourceExhausted as exc:
                print(f"err ResourceExhausted: {exc}")
                print(
                    "-- session state is a sound lower bound; .refresh "
                    "restores exactness",
                    file=sys.stderr,
                )
            except ReproError as exc:
                print(f"err {type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - serve must survive any bad line
                print(f"err {type(exc).__name__}: {exc}")
    finally:
        session.close()
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint_program

    # Parse directly rather than via _load_program: a program file
    # containing facts should *lint* (DL015) instead of being rejected.
    with open(args.program) as f:
        program = parse(f.read())
    edb = _load_facts(args.facts).predicates() if args.facts else None
    report = lint_program(program, edb=edb, source=args.program)
    print(report.render_json() if args.format == "json" else report.render_text())
    return report.exit_code(strict=args.strict)


def _cmd_analyze(args) -> int:
    from .analysis import analyze_program, load_profiles, save_profiles

    # Like lint: parse directly so fact-carrying programs analyze (the
    # in-program facts seed the sort and cardinality domains).
    with open(args.program) as f:
        program = parse(f.read())
    db = _load_facts(args.facts) if args.facts else None
    sketches = load_profiles(args.load_profiles) if args.load_profiles else None
    result = analyze_program(
        program, db, sketches=sketches, source=args.program
    )
    if args.save_profiles:
        save_profiles(args.save_profiles, result.sketches())
    print(result.render_json() if args.format == "json" else result.render_text())
    return result.report.exit_code(strict=args.strict)


def _cmd_grammar(args) -> int:
    from .grammar import (
        is_right_linear,
        is_self_embedding,
        language,
        monadic_program_for,
        program_to_grammar,
        shortest_word,
    )

    program = _load_program(args.program)
    grammar = program_to_grammar(program)
    print(grammar)
    print(f"self-embedding: {is_self_embedding(grammar)}")
    print(f"right-linear:   {is_right_linear(grammar)}")
    word = shortest_word(grammar)
    print(f"shortest word:  {' '.join(word) if word else '(empty language)'}")
    if args.words:
        for w in sorted(language(grammar, args.words), key=lambda w: (len(w), w)):
            print("  " + " ".join(w))
    monadic = monadic_program_for(program)
    if monadic is not None:
        print("equivalent monadic program (Theorem 3.3):")
        print(monadic)
    else:
        print("no monadic program: one is built for a p(X, _) query "
              "over a right-linear grammar")
    return 0


def _cmd_shell(args) -> int:
    from .shell import run_shell

    if args.load:
        # preload by synthesizing .load commands ahead of stdin
        import itertools

        preload = [f".load {path}" for path in args.load]
        import sys as _sys

        return run_shell(itertools.chain(preload, _sys.stdin))
    return run_shell()


def _cmd_explain(args) -> int:
    program = _load_program(args.program)
    db = _load_facts(args.facts)
    result = evaluate(program, db, EngineOptions(record_provenance=True))
    row = tuple(int(v) if v.lstrip("-").isdigit() else v for v in args.row.split(","))
    if row not in result.facts(args.predicate):
        print(f"{args.predicate}{row!r} was not derived", file=sys.stderr)
        return 1
    print(result.derivation(args.predicate, row).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimizing Existential Datalog Queries (PODS 1988) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the optimization pipeline")
    p_opt.add_argument("program", help="Datalog program file (with a ?- query)")
    p_opt.add_argument("-q", "--quiet", action="store_true", help="final program only")
    p_opt.add_argument("--json", action="store_true", help="machine-readable report")
    p_opt.add_argument(
        "--no-deletion",
        action="store_true",
        help="skip the delete_rules pass (sections 3.3/5)",
    )
    p_opt.add_argument(
        "--no-unit-rules",
        action="store_true",
        help="delete_rules: do not retry with covering unit rules added (section 5)",
    )
    p_opt.add_argument(
        "--no-chase",
        action="store_true",
        help="delete_rules: skip the Example-6 uniform-query-equivalence chase",
    )
    p_opt.add_argument(
        "--no-sagiv",
        action="store_true",
        help="delete_rules: skip Sagiv's uniform-equivalence test",
    )
    p_opt.add_argument(
        "--validate",
        action="store_true",
        help="arm the pass-contract sanitizer: assert each pipeline "
        "pass's published invariant over its output and fail with a "
        "structured InvariantViolation naming the pass and rule",
    )
    p_opt.set_defaults(fn=_cmd_optimize)

    p_run = sub.add_parser("run", help="evaluate the program's query")
    p_run.add_argument("program")
    p_run.add_argument("facts", help="file of ground facts (the EDB)")
    p_run.add_argument("-O", "--optimize", action="store_true")
    p_run.add_argument("--stats", action="store_true", help="work counters to stderr")
    _add_engine_flags(p_run)
    p_run.add_argument(
        "--validate",
        action="store_true",
        help="with -O, arm the optimizer's pass-contract sanitizer "
        "(see 'repro optimize --validate')",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="incremental mode: materialize once, maintain under "
        "+fact/-fact update batches from stdin",
    )
    p_serve.add_argument("program")
    p_serve.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional initial EDB fact file (default: empty)",
    )
    _add_engine_flags(p_serve)
    p_serve.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="make the session durable: write-ahead-log every accepted "
        "batch to PATH and keep columnar snapshots next to it; if PATH "
        "already exists the session is recovered from it on startup "
        "(the facts file is ignored then)",
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        metavar="N",
        help="with --wal, snapshot + compact the log every N accepted "
        "batches (0 = only on .checkpoint; default 64)",
    )
    p_serve.add_argument(
        "--fsync",
        choices=("always", "batch", "off"),
        default="batch",
        help="with --wal, the log's durability/latency trade-off: "
        "'always' fsyncs every record (survives power loss), 'batch' "
        "flushes every record (survives process death; default), 'off' "
        "leaves flushing to the OS",
    )
    p_serve.set_defaults(fn=_cmd_serve, input=None)

    p_lint = sub.add_parser(
        "lint", help="paper-grounded static diagnostics (no evaluation)"
    )
    p_lint.add_argument("program", help="Datalog program file")
    p_lint.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional fact file; enables undefined-predicate checks "
        "against the actual EDB schema",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors (exit code 2)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_ana = sub.add_parser(
        "analyze",
        help="abstract-interpretation analysis: sorts, degree "
        "sketches, boundedness (no evaluation)",
    )
    p_ana.add_argument("program", help="Datalog program file")
    p_ana.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional fact file; seeds the domains with measured "
        "sorts and degree sketches",
    )
    p_ana.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors (exit code 2)",
    )
    p_ana.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_ana.add_argument(
        "--save-profiles",
        metavar="FILE",
        default=None,
        help="persist the computed degree sketches as JSON",
    )
    p_ana.add_argument(
        "--load-profiles",
        metavar="FILE",
        default=None,
        help="pre-seed the cardinality domain from persisted sketches",
    )
    p_ana.set_defaults(fn=_cmd_analyze)

    p_gram = sub.add_parser("grammar", help="chain-program / CFG view")
    p_gram.add_argument("program")
    p_gram.add_argument(
        "--words", type=int, metavar="LEN", help="list L(G) members up to LEN"
    )
    p_gram.set_defaults(fn=_cmd_grammar)

    p_shell = sub.add_parser("shell", help="interactive Datalog shell")
    p_shell.add_argument(
        "load", nargs="*", help="program/fact files to load on startup"
    )
    p_shell.set_defaults(fn=_cmd_shell)

    p_exp = sub.add_parser("explain", help="print a fact's derivation tree")
    p_exp.add_argument("program")
    p_exp.add_argument("facts")
    p_exp.add_argument("predicate")
    p_exp.add_argument("row", help='comma-separated values, e.g. "1,2"')
    p_exp.set_defaults(fn=_cmd_explain)

    return parser


def _add_engine_flags(p_run: argparse.ArgumentParser) -> None:
    """Engine/governor/fault flags shared by ``run`` and ``serve``."""
    p_run.add_argument(
        "--no-index",
        action="store_true",
        help="answer probes by full scans instead of hash indexes "
        "(the baseline engine; answers are identical, only work differs)",
    )
    p_run.add_argument(
        "--no-kernel",
        action="store_true",
        help="evaluate rule bodies with the plan interpreter instead of "
        "compiled kernels (the differential oracle; answers, provenance "
        "and work counters are identical, only wall-clock differs)",
    )
    p_run.add_argument(
        "--no-columnar",
        action="store_true",
        help="evaluate every rule on the per-tuple kernels, never the "
        "dictionary-encoded vector kernel (the columnar plane's "
        "differential oracle; answers and work counters are identical, "
        "only wall-clock differs)",
    )
    p_run.add_argument(
        "--no-cost-planner",
        action="store_true",
        help="order joins with the size-greedy heuristic instead of the "
        "bound-driven cost model (the planner's differential oracle; "
        "answers and fact counts are identical, only join work differs)",
    )
    p_run.add_argument(
        "--replan-rounds",
        type=int,
        default=4,
        metavar="N",
        help="under the cost planner, re-rank a recursive fixpoint's "
        "delta plans from observed round cardinalities every N rounds "
        "(0 disables adaptive replanning; default 4)",
    )
    p_run.add_argument(
        "--no-scc",
        action="store_true",
        help="run each stratum as one monolithic fixpoint instead of "
        "scheduling its SCC-condensation DAG unit by unit (the "
        "pre-scheduler engine; answers are identical, only work differs)",
    )
    p_run.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget in seconds; on expiry the run is "
        "cancelled cooperatively at the next iteration/unit/rule "
        "boundary (see --on-limit)",
    )
    p_run.add_argument(
        "--max-facts",
        type=int,
        default=None,
        metavar="N",
        help="derivation budget: abort once more than N facts have "
        "been derived (checked before every rule firing; may overshoot "
        "by at most the one in-flight firing)",
    )
    p_run.add_argument(
        "--on-limit",
        choices=("raise", "partial"),
        default="raise",
        help="what a tripped limit does: 'raise' exits with code 3 and "
        "a structured ResourceExhausted message; 'partial' prints the "
        "best-effort answers flagged as a lower bound (default: raise)",
    )
    p_run.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="deterministically inject a failure no flag can produce; "
        "repeatable.  SPEC is unit-error:N (unit N raises), "
        "slow-unit:N[:seconds] (unit N sleeps at every boundary) or, "
        "under serve --wal, wal-crash:POINT[:seq] (simulated death at a "
        "durability crash point)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
