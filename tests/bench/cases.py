"""The work-counter gates, as one declared table.

The paper's performance claims are claims about *work* (facts derived,
duplicates eliminated, rows scanned), which ``EvalStats`` counts exactly
and deterministically.  A :class:`Case` names a few evaluations of one
workload and the inequalities between their counters that must hold: a
gate ``(lhs, counter, op, factor, rhs)`` reads ``lhs.counter × factor
op rhs.counter``.  Engine configurations are named by the labels of
``tests/oracle/harness.STRATEGIES``.  ``test_gates.py`` runs every row
once and asserts every gate; :func:`render` prints the same measurements
as the tables ``EXPERIMENTS.md`` embeds, and ``python -m tests.bench.cases``
(``make report``) rewrites that block — the only write path here, and a
no-op on a current tree.  Wall-clock belongs to ``benchmarks/e2e``.
"""

from __future__ import annotations

import functools
import operator
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core import AdornedProgram, OptimizationResult, adorn, delete_rules, optimize
from repro.core import push_projections
from repro.datalog import Database, parse
from repro.engine import DurabilityConfig, EngineOptions, EvalStats, IncrementalSession
from repro.engine import evaluate, recover
from repro.engine.topdown import evaluate_topdown
from repro.grammar import monadic_program_for
from repro.rewriting import counting, evaluate_counting, magic_sets
from repro.workloads.edb import random_edb
from repro.workloads.families import boolean_chain, guarded_items, reachability_with_payload
from repro.workloads.families import right_linear_tc, same_generation, sibling_components
from repro.workloads.graphs import chain, cycle, layered_dag, random_digraph, tree
from repro.workloads.paper_examples import adorned_from_text, example1_program
from repro.workloads.paper_examples import example5_adorned_text, example7_adorned
from repro.workloads.paper_examples import example12_original, example12_transformed

from ..oracle.harness import STRATEGIES

OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}
_SCC, _MONO, _SCAN = "scc-scheduler", "seminaive-monolithic", "seminaive-scan"
_GREEDY, _REPLAN = "greedy-planner", "eager-replan"


@dataclass(frozen=True, eq=False)
class Case:
    id: str  # "<group>-<size or shape>"; the group keys GROUPS
    runs: dict  # label -> thunk returning the run's EvalStats
    gates: tuple  # of (lhs label, counter, op, factor, rhs label)
    columns: tuple[str, ...]  # the counters render() prints for this row


def _db(**relations):
    """A factory of fresh databases: every run starts cold."""
    return lambda: Database.from_dict(relations)


def _run(program, db, label=_SCC):
    """A thunk evaluating *program* over ``db()`` under ``STRATEGIES[label]``;
    an ``OptimizationResult`` evaluates its program with its cut, an
    ``AdornedProgram`` with its boolean predicates as the cut."""
    if isinstance(program, OptimizationResult):
        return lambda: program.evaluate(db(), **STRATEGIES[label]).stats
    if isinstance(program, AdornedProgram):
        options = EngineOptions(cut_predicates=program.boolean_predicates, **STRATEGIES[label])
        return lambda: evaluate(program.to_program(), db(), options).stats
    options = EngineOptions(**STRATEGIES[label])
    return lambda: evaluate(program, db(), options).stats


def _over(db, programs, label=_SCC):
    return {name: _run(program, db, label) for name, program in programs.items()}


def _ask(program, query):
    return program.with_query(parse(f"?- {query}.").query)


def _path(n, base=0):
    """*n* edges ``base -> ... -> base + n`` (``graphs.chain`` counts nodes)."""
    return [(a + base, b + base) for a, b in chain(n + 1)]


def _dense(n, chords):
    """A cycle plus random chords: a binary closure over it is all of V x V."""
    return sorted(set(cycle(n)) | set(random_digraph(n, chords, seed=0)))


# -- programs and EDBs -----------------------------------------------------

TC = right_linear_tc()

# Example 2: an existence guard `path(U, V), big(V, W)` beside the answer
E2 = parse(
    """
    answer(X) :- item(X, Y), path(U, V), big(V, W).
    path(U, V) :- edge(U, V).
    path(U, V) :- edge(U, W), path(W, V).
    ?- answer(X).
    """
)
# the E2 rows measure section 3.1's split and cut, so they run the program
# as it stands after push_projections; the rest of the pipeline
# (monadic_chains, then unfolding) removes the recursion the cut retires
E2_SPLIT = optimize(E2, deletion=None).record("push_projections").program
E2_OPTIMIZED = optimize(E2)


E1 = example1_program()
_E3 = push_projections(adorn(E1))
E3_PROJECTED, E4_TRIMMED = _E3.to_program(), delete_rules(_E3).program.to_program()
_E5 = adorned_from_text(example5_adorned_text())
E5, E6_OPTIMIZED = _E5.to_program(), delete_rules(_E5, use_sagiv=False).program.to_program()
_E7 = example7_adorned()
E7 = _E7.to_program()
E7_REDUCED = delete_rules(
    _E7, method="lemma51", use_chase=False, use_sagiv=False
).program.to_program()


# Theorem 3.3: the right-linear language e* f asked for its first endpoint,
# binary vs its monadic program vs what optimize makes of it
T33 = parse("a(X, Y) :- e(X, Z), a(Z, Y).\na(X, Y) :- f(X, Y).\n?- a(X, _).")


def _p5_db(k):
    tags = {
        f"tag{i}": [(n, (n + i) % 6 + 100) for n in range(24)]
        + [(n, (n * 7 + i) % 6) for n in range(24)]
        for i in range(k)
    }
    return _db(edge=random_digraph(24, 72, seed=0), **tags)


P4 = _ask(reachability_with_payload(1), "reach(0, Y, _)")
P4_OPT = optimize(P4)
P4B = _ask(same_generation(), "sg(1, Y)")


def _p4_db(layers, width):
    edges = layered_dag(layers, width, fanout=3, seed=0)
    return _db(edge=edges, tag0=[(n, n % 12) for n in sorted({n for e in edges for n in e})])


def _p4b_db(n):
    down = tree(n, fanout=3)
    return _db(up=[(c, p) for p, c in down], down=down, flat=random_digraph(n, n // 2, seed=5))


def _td_db(n):
    """A chain plus forward-only chords (a DAG): the cone reachable from
    a late source is small — the regime goal direction pays off in."""
    forward = {(a, b) for a, b in random_digraph(n, n, seed=0) if a < b}
    return _db(edge=sorted(set(chain(n)) | forward))


# stratified negation: an existential version column inside the positive
# recursion, a negated waiver filter above it
NEG = parse(
    """
    exposed(S) :- uses(S, C, V), deprecated(C), not waived(S).
    uses(S, C, V) :- depends(S, C, V).
    uses(S, C, V) :- depends(S, M, W), uses(M, C, V).
    ?- exposed(S).
    """
)


def _neg_db(layers, width):
    edges = layered_dag(layers, width, fanout=3, seed=0)
    nodes = sorted({n for e in edges for n in e})
    return _db(
        depends=[(a, b, (a + b) % 6) for a, b in edges],
        deprecated=[(n,) for n in nodes[-width:]],
        waived=[(n,) for n in nodes if n % 5 == 0],
    )


#: scheduler shapes: name -> (program, EDB at size n).  Only the last
#: chain tuple satisfies `mark`, so no loop can shortcut a guard level.
SCHEDULER_SHAPES = {
    "sibling": (
        sibling_components(),
        lambda n: _db(edge1=_path(n), edge2=_path(n, 1000), edge3=_path(n, 2000)),
    ),
    "boolean-chain": (
        boolean_chain(),
        lambda n: _db(item=[(i,) for i in range(n)], c1=_path(n), c2=_path(n), c3=_path(n),
                      mark=[(n,)]),
    ),
    "guarded": (guarded_items(), lambda n: _db(item=_path(n), link=_path(n), mark=[(n,)])),
}

#: planner shapes: name -> (program, EDB factory).  `fanout-trap`: the
#: smallest relation (dim, 40 rows) points at one hub whose posting list
#: in mid is 4000 rows, while sel is functional.  `skew-star`: a is
#: smaller but fans out 20-fold per node, b is functional but padded
#: larger — size ranks a < b, degree ranks b < a.  `tc-parity`: the
#: control.  The cost planner, at the default and the most eager replan
#: cadence, must win >= 3x on the skewed two and stay within 1.1x here.
PLANNER_SHAPES = {
    "fanout-trap": (
        parse("q(X, W) :- dim(X, Y), mid(Y, Z), sel(Z, W).\n?- q(X, W)."),
        _db(
            dim=[(f"d{i}", "hub") for i in range(40)],
            mid=[("hub", f"z{j}") for j in range(4000)],
            sel=[(f"z{j}", f"w{j}") for j in range(60)],
        ),
    ),
    "skew-star": (
        parse(
            "grow(X, Y) :- seed(X, Y).\n"
            "grow(X, Z) :- grow(X, Y), a(Y, Z), b(Y, Z).\n?- grow(X, Y)."
        ),
        _db(
            seed=[(0, 1)],
            a=_path(60) + [(i, 10_000 + i * 20 + j) for i in range(60) for j in range(20)],
            b=_path(60) + [(100_000 + k, 200_000 + k) for k in range(2000)],
        ),
    ),
    "tc-parity": (TC, _db(edge=_path(80))),
}


def _hotcold(n, steps=0):
    """Four cold *n*-edge chains plus a hot one a tenth their length in
    one ``edge`` relation, so an update on the hot chain touches a sliver
    of the materialized closure.  Returns (edges, hot head, hot tip)."""
    spacing, hot = n + steps + 2, max(4, n // 10)
    edges = [e for j in range(4) for e in _path(n, j * spacing)]
    return edges + _path(hot, 4 * spacing), 4 * spacing, 4 * spacing + hot


def _applied(base, script):
    """*base* (pred -> rows) after the ``(kind, {pred: rows})`` batches."""
    rows = dict(base)
    for kind, batch in script:
        for pred, delta in batch.items():
            kept = [r for r in rows[pred] if r not in delta]
            rows[pred] = kept + delta if kind == "insert" else kept
    return rows


def _session(program, base, script, durable=False, recovered=False):
    """*script* applied to a materialized session — behind a WAL
    (fsync=batch, snapshots off) when *durable*.  *recovered*: checkpoint
    before the last batch, close, and return the session `recover` builds
    (snapshot load does no joins, so its counters are pure replay)."""
    with tempfile.TemporaryDirectory() as scratch:
        wal = DurabilityConfig(os.path.join(scratch, "wal"), snapshot_every=0)
        session = IncrementalSession(
            program, Database.from_dict(base), durable=wal if durable else None
        )
        for i, (kind, batch) in enumerate(script):
            if recovered and i == len(script) - 1:
                session.checkpoint()
            getattr(session, kind)(batch)
        session.close()
        if recovered:
            session, _ = recover(program, wal)
            session.close()
        return session


def _ivm(program, base, kind, batch):
    """One ~1 %-of-EDB batch: the batch's own counters vs a from-scratch
    evaluation of the updated EDB."""
    script = [(kind, batch)]
    return {
        "incremental": lambda: _session(program, base, script).last_stats,
        "scratch": _run(program, _db(**_applied(base, script))),
    }


def _ivm_shapes():
    """(name, program, base EDB, insert batch, retract batch): inserts
    extend the hot chain's tail, retractions sever its head."""
    for n in (120, 240):
        edges, head, tip = _hotcold(n)
        k = max(1, len(edges) // 100)
        yield f"tc-hotcold-n{n}", TC, {"edge": edges}, _path(k, tip), _path(k, head)
    base = {f"edge{i}": _path(120) for i in range(1, 5)}
    yield "siblings-4x120", sibling_components(4), base, _path(1, 120), _path(1)


def _dur(n, steps=24):
    """The hot/cold forest under a serve-shaped stream: the hot tip
    grows an edge per batch, every fourth batch retracts the freshest."""
    edges, _, tip = _hotcold(n, steps)
    script = []
    for step in range(steps):
        grow = step % 4 != 3
        edge = (tip, tip + 1) if grow else (tip - 1, tip)
        script.append(("insert" if grow else "retract", {"edge": [edge]}))
        tip += 1 if grow else -1
    base = {"edge": edges}
    return {
        "plain": lambda: _session(TC, base, script).stats,
        "durable": lambda: _session(TC, base, script, True).stats,
        "recover": lambda: _session(TC, base, script, True, recovered=True).stats,
        "scratch": _run(TC, _db(**_applied(base, script))),
    }


# -- the table -------------------------------------------------------------

#: group -> title, in the order EXPERIMENTS.md renders them
GROUPS = {
    "E2": "Example 2 / P3 — boolean subqueries and the cut (§3.1)",
    "E3": "Example 3 / P2 — projection pushed through the recursion (§3.2)",
    "IX": "hash indexes vs full scans (identical fixpoints)",
    "E4": "Examples 3a/4 — the projected recursive rule deleted (Sagiv)",
    "E6": "Examples 5/6 — uniform query equivalence leaves one rule of four",
    "E7": "Example 7 — summary-based deletions (Lemma 5.1 + cascade)",
    "E12": "Example 12 — the §6 transformation, recursive arity 3 → 2",
    "T33": "Theorem 3.3 — binary chain program vs its monadic equivalent and optimize",
    "P4": "Magic Sets × projection pushing, bound source over layered DAGs",
    "P4b": "Counting and Magic Sets, bound same-generation over fanout-3 trees",
    "TD": "goal direction — bottom-up vs Magic Sets vs tabled top-down",
    "P5": "arity sweep — reachability carrying k existential payload columns",
    "NEG": "stratified negation — projection below a negated filter",
    "SCHED": "SCC scheduling vs the monolithic stratum loop",
    "PLAN": "cost-based join ordering vs the greedy heuristic",
    "IVM": "incremental maintenance vs from-scratch (~1 % update batches)",
    "DUR": "WAL logging and crash recovery vs from-scratch (24 one-edge batches)",
}

CASES: list[Case] = [
    *(Case(f"E2-n{n}",
           {**_over(db, {"original": E2, "split": E2_SPLIT.to_program(), "split+cut": E2_SPLIT,
                         "optimized": E2_OPTIMIZED}),
            **_over(db, {"split (monolithic)": E2_SPLIT.to_program(),
                         "split+cut (monolithic)": E2_SPLIT}, _MONO)},
           (("split+cut", "rows_scanned", "<", 1, "original"),
            ("split+cut", "rows_scanned", "<=", 1, "split"),
            ("optimized", "rows_scanned", "<=", 1, "split+cut"),
            # under SCC scheduling the non-recursive guard unit runs once, so
            # the cut has nothing left to retire; the monolithic loop does
            ("split+cut (monolithic)", "rows_scanned", "<", 1, "split (monolithic)")),
           ("rows_scanned", "rules_retired"))
      for n in (20, 40)
      for db in [_db(item=_path(n), edge=chain(n),
                     big=[(v, w) for v in range(0, n, 2) for w in range(60)])]),
    *(Case(f"E3-V{n}",
           _over(_db(p=_dense(n, 2 * n)), {"original": E1, "projected": E3_PROJECTED}),
           (("projected", "facts_derived", "<", 4, "original"),
            ("projected", "duplicates", "<", 1, "original")),
           ("facts_derived", "duplicates", "rows_scanned"))
      for n in (40, 80, 160)),
    *(Case(f"IX-{name}",
           {lane: _run(program, db, lane) for lane in (_SCC, _SCAN)},
           ((_SCC, "rows_scanned", "<=", 5, _SCAN), (_SCC, "join_work", "<=", 5, _SCAN)),
           ("rows_scanned", "index_probes", "join_work"))
      for name, program, db in (("e3-V160", E1, _db(p=_dense(160, 320))),
                                ("p5-k2", reachability_with_payload(2), _p5_db(2)))),
    *(Case(f"E4-n{n}",
           _over(_db(p=sorted(set(chain(n)) | set(random_digraph(n, n, seed=0)))),
                 {"projected": E3_PROJECTED, "trimmed": E4_TRIMMED}),
           (("trimmed", "rule_firings", "<", 1, "projected"),
            ("trimmed", "rows_scanned", "<", 1, "projected"),
            ("trimmed", "duplicates", "<=", 1, "projected")),
           ("iterations", "rule_firings", "rows_scanned", "duplicates"))
      for n in (100, 400)),
    *(Case(f"E6-V{n}",
           _over(_db(p=_dense(n, 2 * n)), {"original": E5, "optimized": E6_OPTIMIZED}),
           (("optimized", "facts_derived", "<", 4, "original"),
            ("optimized", "iterations", "<", 1, "original")),
           ("facts_derived", "iterations"))
      for n in (40, 80, 160)),
    *(Case(f"E7-rows{rows}",
           _over(lambda r=rows, d=domain: random_edb(E7, rows=r, domain=d, seed=7),
                 {"original": E7, "reduced": E7_REDUCED}),
           (("reduced", "facts_derived", "<=", 1, "original"),
            ("reduced", "rule_firings", "<", 1, "original")),
           ("facts_derived", "rule_firings"))
      for rows, domain in ((200, 40), (800, 80))),
    *(Case(f"E12-h{h}-tags{tags}",
           _over(_db(up=chain(h), dn=[(b, a) for a, b in chain(h)], c=[(t,) for t in range(tags)],
                     b=[(i, i, t) for i in range(h) for t in range(tags)]),
                 {"original": example12_original(), "transformed": example12_transformed()}),
           (("transformed", "facts_derived", "<", 1, "original"),),
           ("facts_derived", "duplicates"))
      for h, tags in ((30, 10), (60, 20))),
    *(Case(f"T33-V{n}",
           _over(_db(e=_dense(n, n), f=random_digraph(n, n // 2, seed=1)),
                 {"binary": T33, "monadic": monadic_program_for(T33),
                  "optimized": optimize(T33)}),
           (("monadic", "facts_derived", "<", 1, "binary"),
            ("optimized", "facts_derived", "<=", 1, "monadic")),
           ("facts_derived", "duplicates"))
      for n in (40, 80)),
    *(Case(f"P4-{layers}x{width}",
           _over(_p4_db(layers, width),
                 {"original": P4, "existential": P4_OPT, "magic": magic_sets(P4).program,
                  "existential+magic": magic_sets(P4_OPT.program).program}),
           (("existential+magic", "facts_derived", "<=", 1, "existential"),
            ("existential+magic", "facts_derived", "<=", 1, "magic"),
            ("existential+magic", "facts_derived", "<", 1, "original")),
           ("facts_derived", "join_work"))
      for layers, width in ((8, 10), (10, 16))),
    *(Case(f"P4b-n{n}",
           {**_over(_p4b_db(n), {"original": P4B, "magic": magic_sets(P4B).program}),
            "counting": lambda n=n: evaluate_counting(
                counting(P4B), _p4b_db(n)(), max_depth=32).stats},
           (("counting", "facts_derived", "<", 1, "original"),
            ("magic", "facts_derived", "<", 1, "original")),
           ("facts_derived", "join_work"))
      for n in (200, 800)),
    *(Case(f"TD-n{n}",
           {**_over(_td_db(n), {"bottom-up": goal, "magic": magic_sets(goal).program}),
            "top-down": lambda n=n, goal=goal: evaluate_topdown(goal, _td_db(n)()).stats},
           (("top-down", "facts_derived", "<", 1, "bottom-up"),
            ("magic", "facts_derived", "<", 1, "bottom-up")),
           ("facts_derived", "join_work"))
      for n in (60, 150) for goal in [_ask(TC, f"tc({n - 10}, Y)")]),
    *(Case(f"P5-k{k}",
           _over(_p5_db(k), {"original": program, "optimized": optimize(program)}),
           (("optimized", "facts_derived", "<" if k else "<=", 1, "original"),),
           ("facts_derived", "duplicates", "join_work"))
      for k in (0, 1, 2) for program in [reachability_with_payload(k)]),
    *(Case(f"NEG-{layers}x{width}",
           _over(_neg_db(layers, width), {"original": NEG, "optimized": optimize(NEG)}),
           (("optimized", "facts_derived", "<", 1, "original"),
            ("optimized", "derivations", "<=", 1, "original")),
           ("facts_derived", "derivations"))
      for layers, width in ((8, 8), (10, 12))),
    *(Case(f"SCHED-{name}-n{n}",
           {lane: _run(program, db(n), lane) for lane in (_MONO, _SCC)},
           ((_SCC, "join_work", "<", 1, _MONO),)
           + (((_SCC, "iterations", "<", 1, _MONO),) if name == "boolean-chain" else ()),
           ("iterations", "join_work", "units_scheduled"))
      for name, (program, db) in SCHEDULER_SHAPES.items() for n in (30, 60)),
    *(Case(f"PLAN-{name}",
           {lane: _run(program, db, lane) for lane in (_GREEDY, _SCC, _REPLAN)},
           tuple((_GREEDY, "join_work", ">=", 1.1, lane) if name == "tc-parity"
                 else (lane, "join_work", "<=", 3, _GREEDY) for lane in (_SCC, _REPLAN)),
           ("join_work", "plans_costed", "replans"))
      for name, (program, db) in PLANNER_SHAPES.items()),
    *(Case(f"IVM-{name}-{kind}",
           _ivm(program, base, kind, {next(iter(base)): batch}),
           (("incremental", "join_work", "<=", 5, "scratch"),),
           ("join_work", "facts_derived", "facts_retracted", "units_reactivated"))
      for name, program, base, grow, sever in _ivm_shapes()
      for kind, batch in (("insert", grow), ("retract", sever))),
    Case("DUR-tc-serve-n120",
         _dur(120),
         (("durable", "join_work", "==", 1, "plain"),
          ("recover", "join_work", "<=", 5, "scratch")),
         ("join_work", "wal_appends", "wal_replays")),
]


# -- measuring and rendering -----------------------------------------------


@functools.cache
def measure(case: Case) -> dict[str, EvalStats]:
    """Every configuration of one row, run once per process."""
    return {label: thunk() for label, thunk in case.runs.items()}


def gate_text(gate: tuple) -> str:
    lhs, counter, op, factor, rhs = gate
    scaled = f" × {factor:g}" if factor != 1 else ""
    return f"`{lhs}.{counter}{scaled} {op} {rhs}.{counter}`"


def render() -> str:
    """The counter tables of EXPERIMENTS.md, one per group."""
    out = []
    for group, title in GROUPS.items():
        cases = [c for c in CASES if c.id.split("-")[0] == group]
        columns = cases[0].columns
        out += [f"**{group}** — {title}", "", "| case | config | " + " | ".join(columns) + " |"]
        out.append("|---|---|" + "--:|" * len(columns))
        gated: dict[str, list[str]] = {}
        for case in cases:
            for i, (label, stats) in enumerate(measure(case).items()):
                cells = [case.id if i == 0 else "", label]
                cells += [str(getattr(stats, c)) for c in columns]
                out.append("| " + " | ".join(cells) + " |")
            for gate in case.gates:
                gated.setdefault(gate_text(gate), []).append(case.id)
        gates = [  # a gate that only some rows of the group carry names them
            text + ("" if len(ids) == len(cases) else f" ({', '.join(ids)})")
            for text, ids in gated.items()
        ]
        out += ["", "Gates: " + "; ".join(gates) + ".", ""]
    return "\n".join(out)


EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BEGIN, END = "<!-- work-tables:begin -->\n", "<!-- work-tables:end -->"


def embedded(text: str) -> tuple[int, int]:
    """The span of the generated block inside *text*."""
    return text.index(BEGIN) + len(BEGIN), text.index(END)


if __name__ == "__main__":  # `make report`
    text = EXPERIMENTS.read_text()
    start, end = embedded(text)
    if text[start:end] != (fresh := render()):
        EXPERIMENTS.write_text(text[:start] + fresh + text[end:])
