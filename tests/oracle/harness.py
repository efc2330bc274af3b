"""The differential-testing oracle: one program, many evaluators.

Every engine in the repo claims to compute the same thing — the answer
set of a query over a database.  The oracle exploits that redundancy:
evaluate a program under every applicable strategy, before and after
the optimization pipeline, and assert the answer sets are identical.
Any single unsound component (an index that drops rows, a delta plan
that misses a derivation, a scheduler that runs a unit too early, a
pipeline pass that changes the query) breaks the agreement and is
reported with the strategy that diverged.

Strategies covered:

``naive``
    Bottom-up, full re-evaluation each round.
``scc-scheduler``
    The default production engine: SCC-condensation scheduling over
    delta-rule specialization, hash indexes, and compiled rule kernels.
``seminaive-monolithic``
    The same engine with scheduling disabled (``use_scc=False``, the
    CLI's ``--no-scc``): each stratum runs as one monolithic semi-naive
    fixpoint — the pre-scheduler engine, so unit scheduling is
    differentially tested against the loop it replaced.
``tuple-kernel``
    The scheduled engine with the columnar plane's vector kernel
    disabled (``use_columnar=False``, the CLI's ``--no-columnar``), so
    it is differentially tested against the tuple kernel below it.
``seminaive-interp``
    The scheduled engine on the plan interpreter (``use_kernels=False``,
    the CLI's ``--no-kernel``), so every generated kernel is
    differentially tested against the interpreter it replaced.
``seminaive-scan``
    The scheduled semi-naive loops forced onto full scans
    (``use_indexes=False``, the CLI's ``--no-index``), so index probe
    answering is differentially tested against plain filtering.
``seminaive-scan-interp``
    Scans and the interpreter together — the seed engine's behaviour
    plus scheduling, covering the scan-mode codegen as well.
``greedy-planner``
    The scheduled engine with the cost-based join planner disabled
    (``use_cost_planner=False``, the CLI's ``--no-cost-planner``), so
    every DP-chosen join order — and every adaptive inter-round
    replan — is differentially tested against the greedy orders it
    replaced.
``eager-replan``
    The cost planner with re-planning forced on every round
    (``replan_rounds=1``), stressing the delta-plan swap path as hard
    as the fixpoint allows.
``topdown``
    The tabled top-down (QSQR) evaluator — a completely independent
    implementation; skipped for programs with negation, which it does
    not support.

Each strategy also runs on the *optimized* program (answers projected
onto the original query's needed positions), so the pipeline is tested
against every engine, not just the default one.

The ``REPRO_ORACLE_BASE`` environment variable overlays base engine
options under every strategy (strategy-specific overrides win), e.g.
``REPRO_ORACLE_BASE=no-kernel,no-scc`` re-runs the whole oracle
suite with the interpreter under the monolithic loop, and
``REPRO_ORACLE_BASE=no-columnar`` sweeps it on the tuple kernels with
the columnar plane off.  CI uses this to sweep the engine flag matrix
without duplicating the suite.
"""

from __future__ import annotations

import os

from repro.core import optimize
from repro.datalog import Atom, Constant, Database, Program, Variable
from repro.engine import EngineOptions, evaluate
from repro.engine.topdown import evaluate_topdown

__all__ = [
    "STRATEGIES",
    "BASE_OVERRIDES",
    "engine_options",
    "update_script",
    "scan_answers",
    "strategy_answers",
    "assert_all_agree",
]

#: label -> EngineOptions overrides for the bottom-up engine
STRATEGIES: dict[str, dict] = {
    "naive": {"strategy": "naive"},
    "scc-scheduler": {},
    "seminaive-monolithic": {"use_scc": False},
    "tuple-kernel": {"use_columnar": False},
    "seminaive-interp": {"use_kernels": False},
    "seminaive-scan": {"use_indexes": False},
    "seminaive-scan-interp": {"use_indexes": False, "use_kernels": False},
    "greedy-planner": {"use_cost_planner": False},
    "eager-replan": {"replan_rounds": 1},
}


def _base_overrides() -> dict:
    """Parse ``REPRO_ORACLE_BASE`` (comma-joined flags) once at import."""
    out: dict = {}
    spec = os.environ.get("REPRO_ORACLE_BASE", "")
    for token in filter(None, (t.strip() for t in spec.split(","))):
        if token == "no-scc":
            out["use_scc"] = False
        elif token == "no-kernel":
            out["use_kernels"] = False
        elif token == "no-index":
            out["use_indexes"] = False
        elif token == "no-columnar":
            out["use_columnar"] = False
        elif token == "no-cost-planner":
            out["use_cost_planner"] = False
        else:
            raise ValueError(f"unknown REPRO_ORACLE_BASE token {token!r}")
    return out


BASE_OVERRIDES: dict = _base_overrides()


def engine_options(overrides: dict) -> EngineOptions:
    """Strategy overrides layered over the suite-wide base overrides."""
    return EngineOptions(**{**BASE_OVERRIDES, **overrides})


def update_script(program: Program, rng, domain: int, steps: int):
    """A deterministic random update script, shared by the IVM and
    recovery oracles: per step, one insert or retract batch of 1-3 rows
    on one predicate.  Batches go to a base predicate (any predicate when
    the program has none), except that about a quarter of the inserts go
    to a derived one, whose rows then count as given even when they are
    already derived."""
    arities = program.arities()
    preds = sorted(program.edb_predicates()) or sorted(arities)
    derived = sorted(program.idb_predicates())
    for _ in range(steps):
        kind = rng.choice(("insert", "retract"))
        pred = rng.choice(preds)
        if kind == "insert" and derived and rng.random() < 0.25:
            pred = rng.choice(derived)
        batch = {
            tuple(rng.randrange(domain) for _ in range(arities[pred]))
            for _ in range(rng.randint(1, 3))
        }
        yield kind, pred, batch


def scan_answers(rows, query: Atom) -> frozenset:
    """The answers of *query* over *rows* by the definition (paper,
    section 1.1): keep the rows that agree with the query's constants
    and repeated variables, list each distinct variable's value in
    first-occurrence order.  The reference the engine's selection
    primitive (``Relation.select``) is checked against."""
    first: dict = {}
    for p, arg in enumerate(query.args):
        if isinstance(arg, Variable):
            first.setdefault(arg, p)
    return frozenset(
        tuple(row[p] for p in first.values())
        for row in rows
        if all(
            row[p] == (arg.value if isinstance(arg, Constant) else row[first[arg]])
            for p, arg in enumerate(query.args)
        )
    )


def strategy_answers(program: Program, db: Database) -> dict[str, frozenset]:
    """Answer sets of *program* over *db* per evaluation strategy."""
    out = {
        label: evaluate(program, db, engine_options(overrides)).answers()
        for label, overrides in STRATEGIES.items()
    }
    if not program.has_negation():
        out["topdown"] = evaluate_topdown(program, db).answers
    return out


def _assert_agree(answers: dict[str, frozenset], context: str) -> None:
    baseline_label, baseline = next(iter(answers.items()))
    for label, got in answers.items():
        assert got == baseline, (
            f"{context}: strategy {label!r} computed {len(got)} answers "
            f"but {baseline_label!r} computed {len(baseline)}; "
            f"only-in-{label}={sorted(got - baseline)[:5]} "
            f"only-in-{baseline_label}={sorted(baseline - got)[:5]}"
        )


def assert_all_agree(program: Program, db: Database) -> frozenset:
    """The full differential check; returns the agreed answer set.

    1. every strategy agrees on the *original* program;
    2. every bottom-up strategy agrees on the *optimized* program;
    3. optimized answers equal the original answers projected onto the
       query's needed positions (``reference_answers``).
    """
    pre = strategy_answers(program, db)
    _assert_agree(pre, "pre-optimizer")

    # validate=True arms the pass-contract sanitizer: every differential
    # run also checks each pipeline pass against its published invariant.
    result = optimize(program, validate=True)
    post = {
        label: result.answers(db, **{**BASE_OVERRIDES, **overrides})
        for label, overrides in STRATEGIES.items()
    }
    _assert_agree(post, "post-optimizer")

    reference = result.reference_answers(db)
    assert post["scc-scheduler"] == reference, (
        f"optimizer changed the answers: optimized={len(post['scc-scheduler'])} "
        f"reference={len(reference)}"
    )
    return reference
