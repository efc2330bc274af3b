"""Measuring the query path from outside: cold, warm, and stage by stage.

Everything here times calls into the public functions of ``repro.cli``,
``repro.datalog``, ``repro.analysis``, ``repro.core`` and
``repro.engine``; nothing under ``src/`` is edited or patched.

- :func:`untraced` gives the end-to-end numbers (``cold_s``,
  ``warm_ms``) and records no span.
- :func:`traced` is a separate run: per sample one real
  ``repro.cli.main`` call (the root span ``cli.run``) followed by a
  re-enactment of the same path one stage at a time, then probes of the
  single layers (plan/codegen, fixpoint rungs, optimizer phases).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from inputs import Case, Inputs, lines
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

now = time.perf_counter


# ---------------------------------------------------------------------------
# bookkeeping shared by every workload


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass(frozen=True)
class Floors:
    """Minimum sample counts; time budgets only ever add samples."""

    setup: int = 3
    cold: int = 5
    warm: int = 10
    traced: int = 3
    probe: int = 3
    #: times the serve_mixed script is run (each op keeps its median)
    scripts: int = 3


SMOKE_FLOORS = Floors(setup=1, cold=2, warm=3, traced=2, probe=1, scripts=2)

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def summarize(values: Sequence[float], scale: float = 1.0) -> dict:
    """Median, quartiles and sample count of *values* (times *scale*)."""
    vs = [v * scale for v in values]
    q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                 else (vs[0], vs[0], vs[0]))
    return {"value": statistics.median(vs), "q1": q1, "q3": q3, "n": len(vs)}


CALIBRATION_LOOPS = 150_000
#: what one calibration loop took, undisturbed, on the machine the
#: benchmark was defined on; turns a ratio back into seconds
REFERENCE_S = 0.016


def calibration(loops: int = CALIBRATION_LOOPS) -> float:
    """How long the full calibration loop takes *right now*: a fixed
    piece of pure-Python work (integer arithmetic, a dict store and a
    tuple allocation per step), timed, and scaled to the full length
    when a shorter slice was asked for."""
    t0 = now()
    total = 0
    table = {}
    for i in range(loops):
        total += i * i
        table[i & 1023] = (i, total)
    return (now() - t0) * (CALIBRATION_LOOPS / loops)


def calibrated(fn: Callable[[], float]) -> tuple[float, float]:
    """Run *fn* (which returns the seconds it timed) between two
    calibration loops; returns ``(raw, steady)`` where steady is
    ``raw / calibration * REFERENCE_S`` — the time the same work would
    take with the machine at its reference speed (README, "Why
    calibrated seconds")."""
    before = calibration()
    raw = fn()
    after = calibration()
    return raw, raw / ((before + after) / 2) * REFERENCE_S


def steady(samples: Sequence[tuple[float, float]], scale: float = 1.0) -> dict:
    """Summary of ``(raw, steady)`` samples: the reported value is the
    median of the calibrated times, the raw median is kept beside it."""
    out = summarize([c for _, c in samples], scale)
    out["raw"] = statistics.median(r for r, _ in samples) * scale
    return out


def scalar(value: float) -> dict:
    return {"value": value, "q1": value, "q3": value, "n": 1}


def tail(values: Sequence[float], scale: float = 1.0) -> dict:
    """The highest ladder percentile with at least ten samples beyond
    it; below twenty samples, the maximum (percentile 100)."""
    vs = sorted(v * scale for v in values)
    n = len(vs)
    usable = [p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10]
    if not usable:
        return {**scalar(vs[-1]), "n": n, "percentile": 100.0}
    p = usable[-1]
    return {**scalar(vs[min(n - 1, int(n * p / 100.0))]), "n": n,
            "percentile": p}


def sample_until(fn: Callable[[], object], budget_s: float, at_least: int) -> list:
    """Call *fn* until the budget is spent, and at least *at_least* times."""
    out: list = []
    deadline = now() + budget_s
    while len(out) < at_least or now() < deadline:
        out.append(fn())
    return out


def median_time(fn: Callable[[], object], n: int) -> float:
    out = []
    for _ in range(n):
        t0 = now()
        fn()
        out.append(now() - t0)
    return statistics.median(out)


def import_seconds() -> float:
    """``import repro.cli`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import repro.cli"
    t0 = now()
    subprocess.run([sys.executable, "-c", code], check=True)
    return now() - t0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the query path


def write_inputs(cases: Iterable[Case], workdir: str) -> dict:
    """Write each case's program and fact file; name -> (P, F)."""
    paths = {}
    for c in cases:
        program = os.path.join(workdir, f"{c.name}.dl")
        facts = os.path.join(workdir, f"{c.name}.facts.dl")
        for path, text in ((program, c.program), (facts, c.facts)):
            with open(path, "w") as f:
                f.write(text)
        paths[c.name] = (program, facts)
    return paths


def clear_caches() -> None:
    """Empty every process-wide cache through its public reset."""
    from repro.datalog.columnar import global_dictionary
    from repro.engine import clear_kernel_cache, clear_prepared_cache

    clear_prepared_cache()
    clear_kernel_cache()
    global_dictionary().clear()


def cold_run(case: Case, paths: dict, tally: Tally) -> float:
    """One ``repro run --optimize P F`` from text files to printed
    answers, caches emptied first, stdout into memory."""
    from repro import cli

    program, facts = paths[case.name]
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--optimize", program, facts])
    elapsed = now() - t0
    printed = frozenset(out.getvalue().splitlines())
    tally.check(code == 0 and printed == case.reference,
                f"cold {case.name}: exit {code}, {len(printed)} answers, "
                f"{len(case.reference)} expected")
    return elapsed


@dataclass
class Loaded:
    """A case with its database loaded and its program optimized."""

    case: Case
    program: object
    db: object
    opt: object
    #: the last raw answer set found equal to the reference, so the
    #: next identical one is checked by set equality, not re-rendered
    verified: object = None


def load(case: Case, paths: dict) -> Loaded:
    from repro.core.pipeline import optimize
    from repro.datalog import Database, parse
    from repro.datalog.parser import split_facts

    program_path, facts_path = paths[case.name]
    with open(program_path) as f:
        program, _ = split_facts(parse(f.read()))
    with open(facts_path) as f:
        _, facts = split_facts(parse(f.read()))
    return Loaded(case, program, Database.from_facts(facts), optimize(program))


def printed_answers(opt, raw) -> frozenset:
    """The raw answers of the optimized program as ``run`` prints them
    (a query over a wider predicate is projected onto the asked
    positions)."""
    if opt.answer_positions is not None:
        raw = {tuple(row[i] for i in opt.answer_positions) for row in raw}
    return lines(raw)


def warm_run(w: Loaded, tally: Tally, **engine) -> tuple[float, float, object]:
    """``evaluate`` + ``answers()`` on the loaded database; returns the
    two times and the evaluation."""
    t0 = now()
    evaluation = w.opt.evaluate(w.db, **engine)
    t1 = now()
    raw = evaluation.answers()
    t2 = now()
    if tally.check(raw == w.verified
                   or printed_answers(w.opt, raw) == w.case.reference,
                   f"warm {w.case.name} {engine or ''}: {len(raw)} answers"):
        w.verified = raw
    return t1 - t0, t2 - t1, evaluation


def untraced(inputs: Inputs, paths: dict, seconds: float, floors: Floors,
             passes: int, tally: Tally) -> dict:
    """The end-to-end numbers of a query workload; no span is recorded."""
    cold = sample_until(
        lambda: calibrated(
            lambda: sum(cold_run(c, paths, tally) for c in inputs.cases)),
        0.6 * seconds, floors.cold)

    loaded = [load(c, paths) for c in inputs.cases]
    for w in loaded:
        warm_run(w, tally)  # fills the prepared LRU, kernels, indexes

    def warm_sample() -> float:
        # the two timed parts only: the comparison against the
        # reference inside warm_run is the benchmark's cost, not a user's
        total = 0.0
        for _ in range(passes):
            for w in loaded:
                fix, ans, _ = warm_run(w, tally)
                total += fix + ans
        return total / passes

    warm = sample_until(lambda: calibrated(warm_sample), 0.4 * seconds,
                        floors.warm)
    return {"cold_s": steady(cold), "warm_ms": steady(warm, 1e3)}


# ---------------------------------------------------------------------------
# the traced run

STAGES = ("datalog.parse_program", "datalog.parse_facts", "datalog.load",
          "analysis.lint", "core.optimize", "engine.evaluate",
          "engine.answers")

ABLATIONS = {
    "engine.fixpoint_tuple_s": {"use_columnar": False},
    "engine.fixpoint_noreplan_s": {"replan_rounds": 0},
    "engine.fixpoint_greedy_s": {"use_cost_planner": False},
    "engine.fixpoint_governed_s": {"deadline_s": 3600.0},
}


def reenact(case: Case, paths: dict, rec: Recorder, sample: int,
            tally: Tally) -> dict:
    """The path of ``run --optimize`` one stage at a time, each stage
    in its own span, from the same files and with the caches emptied."""
    from repro.analysis import lint_program
    from repro.core.pipeline import optimize
    from repro.datalog import Database, parse
    from repro.datalog.columnar import global_dictionary
    from repro.datalog.parser import split_facts
    from repro.engine import kernel_cache_stats

    program_path, facts_path = paths[case.name]
    clear_caches()
    with rec.span("datalog.parse_program", sample):
        with open(program_path) as f:
            program, _ = split_facts(parse(f.read()))
    with rec.span("datalog.parse_facts", sample):
        with open(facts_path) as f:
            parsed = parse(f.read())
    with rec.span("datalog.load", sample):
        _, facts = split_facts(parsed)
        db = Database.from_facts(facts)
    with rec.span("analysis.lint", sample):
        report = lint_program(program, edb=db.predicates(), source=program_path)
        for diag in (*report.errors, *report.warnings):
            diag.render(program_path)
    with rec.span("core.optimize", sample):
        opt = optimize(program)
    with rec.span("engine.evaluate", sample):
        evaluation = opt.evaluate(db)
    with rec.span("engine.answers", sample):
        raw = evaluation.answers()
    tally.check(printed_answers(opt, raw) == case.reference,
                f"re-enacted {case.name}: {len(raw)} answers")
    return {
        "diagnostics": len(report),
        "kernel_compiles": kernel_cache_stats()["compiles"],
        "dict_size": len(global_dictionary()),
        "rows": len(facts),
    }


def planner_probe(w: Loaded) -> tuple[float, float]:
    """``profile_database`` and an uncached ``prepare`` with the
    evaluator's own size convention."""
    from repro.engine import BoundCostModel, prepare, profile_database

    program = w.opt.program
    idb = program.idb_predicates()
    arities = program.arities()
    work = w.db.copy(mutating=idb)
    for pred in idb:
        work.ensure(pred, arities[pred])
    sizes = work.relation_sizes()
    largest = max(sizes.values(), default=0)
    for pred in idb:
        sizes[pred] = max(sizes.get(pred, 0), largest + 1)
    t0 = now()
    profiles = profile_database(work, sizes)
    t1 = now()
    prepare(program, sizes, cost_model=BoundCostModel(profiles), use_cache=False)
    return t1 - t0, now() - t1


def optimizer_probe(loaded: Sequence[Loaded], n: int) -> dict:
    """The optimizer's phases one by one, and what it did."""
    from repro.core.adornment import adorn
    from repro.core.components import split_components
    from repro.core.pipeline import optimize
    from repro.core.projection import push_projections

    t = dict.fromkeys(("adorn", "split", "project", "full", "nodelete"), 0.0)
    counts = dict.fromkeys(("rules_in", "rules_out", "rules_deleted",
                            "arity_in", "arity_out", "booleans_cut"), 0)
    for w in loaded:
        t["adorn"] += median_time(lambda: adorn(w.program), n)
        adorned = adorn(w.program)
        t["split"] += median_time(lambda: split_components(adorned), n)
        split = split_components(adorned).program
        t["project"] += median_time(lambda: push_projections(split), n)
        t["full"] += median_time(lambda: optimize(w.program), n)
        t["nodelete"] += median_time(
            lambda: optimize(w.program, deletion=None), n)
        before, after = w.program, w.opt.program
        counts["rules_in"] += len(before.rules)
        counts["rules_out"] += len(after.rules)
        counts["rules_deleted"] += w.opt.deleted_count + len(w.opt.subsumed)
        for prog, key in ((before, "arity_in"), (after, "arity_out")):
            arities = prog.arities()
            counts[key] += sum(arities[p] for p in prog.idb_predicates())
        counts["booleans_cut"] += len(w.opt.cut_predicates)
    out = {f"core.{k}": scalar(v) for k, v in counts.items()}
    out["core.adorn_s"] = scalar(t["adorn"])
    out["core.split_s"] = scalar(t["split"])
    out["core.project_s"] = scalar(t["project"])
    out["core.delete_s"] = scalar(t["full"] - t["nodelete"])
    return out


def reduced_probe(inputs: Inputs, workdir: str, n: int, tally: Tally) -> dict:
    """Unoptimized against optimized on the reduced instance: facts
    derived and warm evaluate time, each ratio with its base."""
    from repro.engine import EngineOptions, evaluate

    sub = os.path.join(workdir, "reduced")
    os.makedirs(sub, exist_ok=True)
    paths = write_inputs(inputs.reduced, sub)
    facts = {"plain": 0, "opt": 0}
    secs = {"plain": 0.0, "opt": 0.0}
    for c in inputs.reduced:
        w = load(c, paths)
        plain = evaluate(w.program, w.db, EngineOptions())
        _, _, optimized = warm_run(w, tally)
        facts["plain"] += plain.stats.facts_derived
        facts["opt"] += optimized.stats.facts_derived
        secs["plain"] += median_time(
            lambda: evaluate(w.program, w.db, EngineOptions()), n)
        secs["opt"] += median_time(lambda: w.opt.evaluate(w.db), n)
    return {
        "core.fact_ratio": {**scalar(facts["plain"] / max(1, facts["opt"])),
                            "base": facts["opt"]},
        "core.opt_speedup": {**scalar(secs["plain"] / secs["opt"]),
                             "base": secs["opt"]},
    }


def traced_samples(cases: Sequence[Case], paths: dict, seconds: float,
                   floors: Floors, tally: Tally, rec: Recorder) -> dict:
    """Per sample one real ``cli.run`` and one stage-by-stage
    re-enactment; the ``cli``, ``datalog``, ``analysis`` and ``core``
    stage metrics come from these spans."""
    m: dict = {}
    # the same cold run without any span around it, for the overhead
    plain = statistics.median(sample_until(
        lambda: sum(cold_run(c, paths, tally) for c in cases),
        0.15 * seconds, floors.traced))

    seen: dict = {}
    deadline = now() + 0.35 * seconds
    i = 0
    while i < floors.traced or now() < deadline:
        seen = dict.fromkeys(("diagnostics", "kernel_compiles", "dict_size",
                              "rows"), 0)
        with rec.span("sample", i):
            with rec.span("cli.run", i):
                for c in cases:
                    cold_run(c, paths, tally)
            with rec.span("stages", i):
                for c in cases:
                    for k, v in reenact(c, paths, rec, i, tally).items():
                        seen[k] += v
        i += 1

    run = rec.durations("cli.run")
    stage = {s: rec.durations(s) for s in STAGES}
    shares: dict = {layer: [] for layer in ("cli", "datalog", "analysis",
                                            "core", "engine")}
    overhead = []
    for i, whole in run.items():
        spent = dict.fromkeys(shares, 0.0)
        for s in STAGES:
            spent[s.split(".")[0]] += stage[s][i]
        spent["cli"] = whole - sum(spent.values())
        overhead.append(spent["cli"])
        for layer, v in spent.items():
            shares[layer].append(100.0 * v / whole)
    m["cli.run_s"] = summarize(list(run.values()))
    m["cli.overhead_s"] = summarize(overhead)
    m["trace_overhead_pct"] = {
        **scalar(100.0 * (m["cli.run_s"]["value"] / plain - 1)), "base": plain}
    for layer, values in shares.items():
        m[f"share.{layer}_pct"] = summarize(values)
    for name, s in (("datalog.parse_program_s", "datalog.parse_program"),
                    ("datalog.parse_facts_s", "datalog.parse_facts"),
                    ("datalog.load_s", "datalog.load"),
                    ("analysis.lint_s", "analysis.lint"),
                    ("core.optimize_s", "core.optimize")):
        m[name] = summarize(list(stage[s].values()))
    m["datalog.rows_loaded"] = scalar(seen["rows"])
    m["datalog.parse_facts_per_s"] = scalar(
        seen["rows"] / m["datalog.parse_facts_s"]["value"])
    m["datalog.dict_size"] = scalar(seen["dict_size"])
    m["analysis.diagnostics"] = scalar(seen["diagnostics"])
    m["engine.kernel_compiles"] = scalar(seen["kernel_compiles"])
    return m


def traced(inputs: Inputs, paths: dict, workdir: str, seconds: float,
           floors: Floors, passes: int, tally: Tally, rec: Recorder) -> dict:
    """Every per-layer metric of the query path, from spans and probes."""
    from repro.analysis import analyze_program
    from repro.engine import prepared_cache_stats

    cases = inputs.cases
    m = traced_samples(cases, paths, seconds, floors, tally, rec)
    first_evaluate = statistics.median(
        rec.durations("engine.evaluate").values())

    # probes: warm state, one layer at a time
    loaded = [load(c, paths) for c in cases]
    with rec.span("probe.planner", -1):
        profile_s = prepare_s = 0.0
        for w in loaded:
            a, b = planner_probe(w)
            profile_s += a
            prepare_s += b
    m["engine.profile_s"] = scalar(profile_s)
    m["engine.prepare_s"] = scalar(prepare_s)
    m["analysis.analyze_s"] = scalar(sum(
        median_time(lambda: analyze_program(w.program, w.db), floors.probe)
        for w in loaded))

    for w in loaded:
        warm_run(w, tally)
    cache_before = prepared_cache_stats()
    fix_samples: list = []
    ans_samples: list = []
    stats: list = []
    with rec.span("probe.warm", -1):
        deadline = now() + 0.25 * seconds
        while len(fix_samples) < floors.warm or now() < deadline:
            fix = ans = 0.0
            stats.clear()
            for _ in range(passes):
                for w in loaded:
                    f, a, evaluation = warm_run(w, tally)
                    fix += f
                    ans += a
                    stats.append(evaluation.stats)
            fix_samples.append(fix / passes)
            ans_samples.append(ans / passes)
    cache_after = prepared_cache_stats()
    lookups = sum(cache_after[k] - cache_before[k] for k in ("hits", "misses"))
    m["engine.prepared_hit_ratio"] = scalar(
        (cache_after["hits"] - cache_before["hits"]) / max(1, lookups))
    m["engine.fixpoint_s"] = summarize(fix_samples)
    m["engine.answers_s"] = summarize(ans_samples)
    m["engine.compile_s"] = scalar(first_evaluate - m["engine.fixpoint_s"]["value"])
    warm = [f + a for f, a in zip(fix_samples, ans_samples)]
    m["warm_tail_ms"] = tail(warm, 1e3)
    m["warm_ops_per_s"] = scalar(len(warm) / sum(warm))

    one_pass = stats[: len(loaded)]

    def total(attr: str) -> float:
        return sum(getattr(s, attr) for s in one_pass)

    derivations = total("facts_derived") + total("duplicates")
    m["engine.facts_derived"] = scalar(total("facts_derived"))
    m["engine.duplicates"] = scalar(total("duplicates"))
    m["engine.dup_ratio"] = scalar(total("duplicates") / max(1, derivations))
    m["engine.join_work"] = scalar(total("join_work"))
    m["engine.join_work_per_fact"] = scalar(
        total("join_work") / max(1, total("facts_derived")))
    m["engine.ns_per_derivation"] = scalar(
        1e9 * m["engine.fixpoint_s"]["value"] / max(1, derivations))
    for name in ("iterations", "index_builds", "kernel_launches", "batch_rows",
                 "columnar_fallbacks", "replans", "plans_costed"):
        m[f"engine.{name}"] = scalar(total(name))

    # rung ablations through public EngineOptions, each warmed first
    with rec.span("probe.ablations", -1):
        for name, engine in ABLATIONS.items():
            for w in loaded:
                warm_run(w, tally, **engine)
            m[name] = summarize([
                sum(warm_run(w, tally, **engine)[0] for w in loaded)
                for _ in range(floors.probe)])
    default = m["engine.fixpoint_s"]["value"]
    tuple_s = m["engine.fixpoint_tuple_s"]["value"]
    noreplan_s = m["engine.fixpoint_noreplan_s"]["value"]
    governed_s = m["engine.fixpoint_governed_s"]["value"]
    m["engine.columnar_speedup"] = {**scalar(tuple_s / default), "base": default}
    m["engine.replan_overhead"] = {**scalar(default / noreplan_s),
                                   "base": noreplan_s}
    m["engine.governor_overhead"] = {**scalar(governed_s / default),
                                     "base": default}

    with rec.span("probe.optimizer", -1):
        m.update(optimizer_probe(loaded, floors.probe))
    with rec.span("probe.reduced", -1):
        m.update(reduced_probe(inputs, workdir, floors.probe, tally))

    if inputs.workload == "family_mix":
        for c in cases:
            m[f"family.{c.name}.cold_s"] = summarize(
                [cold_run(c, paths, tally) for _ in range(floors.probe)])
        for w in loaded:
            m[f"family.{w.case.name}.warm_s"] = summarize(
                [sum(warm_run(w, tally)[:2]) for _ in range(floors.probe)])
    return m
