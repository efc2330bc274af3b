"""The benchmark's tables: workloads, metrics, and what moves what.

Everything the harness measures is declared here once.  ``run.py``
prints exactly these names, ``BENCHMARK.json`` at the repository root
is :func:`benchmark_json` of this module (the self-test compares the
two), and ``README.md`` explains the same table in prose.

Layers are this repository's modules: ``cli``, ``datalog``,
``analysis``, ``core``, ``engine`` (prepare/plan/codegen and fixpoint),
``engine.incremental``, ``engine.durability``, ``engine.recovery``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1988
RUN_SECONDS = 16

# ---------------------------------------------------------------------------
# workloads: why each exists, its generator parameters (full and smoke)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    smoke: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tc_cycle",
            "Right-linear TC over one directed cycle, query tc(X, X): "
            "nothing to optimize, so time is the engine's fixpoint (V "
            "narrow rounds) plus answers() over V*V rows.",
            {"nodes": 480, "reduced_nodes": 120},
            {"nodes": 60, "reduced_nodes": 30},
        ),
        Workload(
            "exist_reach",
            "Reachability with two existential payload columns behind a "
            "start-node query: core cuts arity 4 to 2, the engine runs "
            "wide duplicate-heavy rounds, and fact parsing is a "
            "visible share of the cold path.",
            {"layers": 24, "width": 36, "fanout": 2, "tags": 3, "starts": 8,
             "reduced_layers": 8, "reduced_width": 12},
            {"layers": 6, "width": 10, "fanout": 2, "tags": 2, "starts": 3,
             "reduced_layers": 4, "reduced_width": 6},
        ),
        Workload(
            "family_mix",
            "Seven program families (3-literal recursive join, "
            "non-linear TC, scan-collapsed query, boolean guard, negation, "
            "sibling SCC units, join skew): a gain for one engine path "
            "that costs another shows here.",
            {"sg_nodes": 447, "nonlinear_nodes": 60, "sources_nodes": 800,
             "items": 800, "links": 150, "move_nodes": 600,
             "sibling_chain": 80, "hub": 1500,
             "reduced": {"sg_nodes": 63, "nonlinear_nodes": 16,
                         "sources_nodes": 60, "items": 60, "links": 20,
                         "move_nodes": 60, "sibling_chain": 16, "hub": 200}},
            {"sg_nodes": 63, "nonlinear_nodes": 16, "sources_nodes": 100,
             "items": 100, "links": 20, "move_nodes": 100,
             "sibling_chain": 16, "hub": 200,
             "reduced": {"sg_nodes": 31, "nonlinear_nodes": 8,
                         "sources_nodes": 20, "items": 20, "links": 8,
                         "move_nodes": 20, "sibling_chain": 8, "hub": 80}},
        ),
        Workload(
            "rules_wide",
            "Eighteen programs over tiny EDBs: compile-bound, so time "
            "is parser, lint, optimize and the engine's plan/codegen; "
            "the warm number is evaluate's fixed per-call overhead.",
            {"boolean_chain": (8, 16, 24, 32),
             "sibling_components": (3, 4, 5, 6, 7, 8),
             "payload": (1, 2, 3), "rows": 30, "domain": 12},
            {"boolean_chain": (4, 8), "sibling_components": (3, 4),
             "payload": (1, 2), "rows": 12, "domain": 6},
        ),
        Workload(
            "serve_mixed",
            "A durable TC session over a forest under small "
            "insert/retract batches with point reads (fsync=batch, "
            "snapshot every 64), then SIGKILL and recover: the fixpoint "
            "as IVM/DRed, WAL in the foreground.",
            {"trees": 200, "tree_nodes": 20, "batches": 288,
             "insert_share": 0.7, "read_every": 4, "checkpoint_every": 96},
            {"trees": 12, "tree_nodes": 10, "batches": 96,
             "insert_share": 0.7, "read_every": 4, "checkpoint_every": 32},
        ),
    )
}

#: the durable session's flush policy, identical on both sides of any
#: comparison (``DurabilityConfig`` keywords)
DURABILITY = {"fsync": "batch", "snapshot_every": 64, "keep_snapshots": 2}

# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    #: regression bound (share of the parent's median); end-to-end only
    bound: Optional[float] = None
    #: the end-to-end metric this layer metric should move, and where
    moves: str = ""
    #: workloads that report it (None = all five, and listed in
    #: BENCHMARK.json; anything else is in the full report only)
    only: Optional[tuple] = None


def _m(name, unit, better, what, **kw) -> Metric:
    return Metric(name, unit, better, what, **kw)


END_TO_END = (
    _m("setup_s", "s", "lower",
       "import repro in a fresh interpreter + generate the inputs from the "
       "seed + compute the reference answers; calibrated median of 3 set-ups",
       bound=0.25),
    _m("cold_s", "s", "lower",
       "from files on disk to answers with every process-wide cache "
       "emptied: repro.cli.main(['run','--optimize',P,F]) summed over the "
       "workload's programs; on serve_mixed, recover() of the SIGKILLed "
       "session plus one point read; calibrated median",
       bound=0.20),
    _m("warm_ms", "ms", "lower",
       "one request on a warm process: OptimizationResult.evaluate(db) + "
       "EvalResult.answers() summed over the workload's programs; on "
       "serve_mixed, one IncrementalSession insert/retract batch; "
       "calibrated median",
       bound=0.20),
    _m("peak_rss_mb", "MB", "lower",
       "ru_maxrss of the workload's process (on serve_mixed the larger of "
       "the writer and the recovering process)",
       bound=0.05),
)

SERVE = ("serve_mixed",)
_Q = "cold_s"
_W = "warm_ms"

PER_LAYER = (
    # -- cli ---------------------------------------------------------------
    _m("cli.run_s", "s", "lower",
       "root span: one cold repro.cli.main run, summed over programs",
       moves=f"{_Q}, all workloads"),
    _m("cli.overhead_s", "s", "lower",
       "cli.run_s minus the re-enacted stages (second evaluation inside "
       "answers(), sort, print, argparse)", moves=f"{_Q}, all workloads"),
    _m("cli.import_s", "s", "lower",
       "import repro.cli in a fresh interpreter", moves="setup_s"),
    _m("share.cli_pct", "%", "lower",
       "cli.overhead_s as a share of cli.run_s"),
    _m("share.datalog_pct", "%", "lower",
       "parse + load stages as a share of cli.run_s"),
    _m("share.analysis_pct", "%", "lower",
       "lint stage as a share of cli.run_s"),
    _m("share.core_pct", "%", "lower",
       "optimize stage as a share of cli.run_s"),
    _m("share.engine_pct", "%", "lower",
       "evaluate + answers stages as a share of cli.run_s"),
    _m("trace_overhead_pct", "%", "lower",
       "traced cli.run_s median / untraced median of the same run - 1"),
    _m("warm_tail_ms", "ms", "lower",
       "highest percentile of the warm request with >= 10 samples beyond "
       "it (the maximum below 20 samples)", moves=_W),
    _m("warm_ops_per_s", "1/s", "higher",
       "warm requests completed per second of the closed loop (one "
       "client); on serve_mixed, update batches with reads in between",
       moves=_W),
    # -- datalog -----------------------------------------------------------
    _m("datalog.parse_program_s", "s", "lower",
       "read + parse + split_facts of the program files",
       moves=f"{_Q} on rules_wide"),
    _m("datalog.parse_facts_s", "s", "lower",
       "read + parse of the fact files",
       moves=f"{_Q} on exist_reach, family_mix"),
    _m("datalog.parse_facts_per_s", "1/s", "higher",
       "facts parsed per second"),
    _m("datalog.load_s", "s", "lower",
       "split_facts + Database.from_facts",
       moves=f"{_Q} on exist_reach, family_mix"),
    _m("datalog.rows_loaded", "count", "lower", "facts loaded"),
    _m("datalog.dict_size", "count", "lower",
       "constants in the global dictionary after a cold run"),
    # -- analysis ----------------------------------------------------------
    _m("analysis.lint_s", "s", "lower",
       "lint_program as run calls it (EDB schema known)",
       moves=f"{_Q} on rules_wide"),
    _m("analysis.diagnostics", "count", "lower", "diagnostics reported"),
    _m("analysis.analyze_s", "s", "lower",
       "analyze_program(program, db); not on the run path"),
    # -- core --------------------------------------------------------------
    _m("core.optimize_s", "s", "lower", "optimize(program)",
       moves=f"{_Q} on rules_wide"),
    _m("core.adorn_s", "s", "lower", "adorn"),
    _m("core.split_s", "s", "lower", "split_components"),
    _m("core.project_s", "s", "lower", "push_projections"),
    _m("core.delete_s", "s", "lower",
       "optimize minus optimize(deletion=None)"),
    _m("core.rules_in", "count", "lower", "rules before optimize"),
    _m("core.rules_out", "count", "lower", "rules after optimize"),
    _m("core.rules_deleted", "count", "higher",
       "rules removed by deletion and subsumption"),
    _m("core.arity_in", "count", "lower",
       "sum of derived-predicate arities before"),
    _m("core.arity_out", "count", "lower",
       "sum of derived-predicate arities after",
       moves=f"{_Q}, {_W} on exist_reach"),
    _m("core.booleans_cut", "count", "higher", "boolean cut predicates"),
    _m("core.fact_ratio", "x", "higher",
       "facts derived unoptimized / optimized, reduced EDB",
       moves=f"{_Q}, {_W} on exist_reach, family_mix"),
    _m("core.opt_speedup", "x", "higher",
       "warm evaluate unoptimized / optimized, reduced EDB"),
    # -- engine: prepare / plan / codegen ----------------------------------
    _m("engine.profile_s", "s", "lower", "profile_database",
       moves=f"{_Q} on rules_wide"),
    _m("engine.prepare_s", "s", "lower",
       "prepare(use_cache=False) under BoundCostModel",
       moves=f"{_Q} on rules_wide"),
    _m("engine.compile_s", "s", "lower",
       "first evaluate minus median warm evaluate",
       moves=f"{_Q} on rules_wide"),
    _m("engine.plans_costed", "count", "lower", "EvalStats.plans_costed"),
    _m("engine.prepared_hit_ratio", "ratio", "higher",
       "prepared-LRU hits / lookups over the warm loop",
       moves=f"{_W} on rules_wide"),
    _m("engine.kernel_compiles", "count", "lower",
       "kernels compiled by a cold run"),
    # -- engine: fixpoint --------------------------------------------------
    _m("engine.fixpoint_s", "s", "lower", "median warm evaluate",
       moves=f"{_Q}, {_W} on tc_cycle, exist_reach, family_mix"),
    _m("engine.answers_s", "s", "lower", "median EvalResult.answers()",
       moves=f"{_Q}, {_W} on tc_cycle"),
    _m("engine.ns_per_derivation", "ns", "lower",
       "fixpoint_s / (facts derived + duplicates)"),
    _m("engine.facts_derived", "count", "lower", "EvalStats.facts_derived"),
    _m("engine.duplicates", "count", "lower", "EvalStats.duplicates"),
    _m("engine.dup_ratio", "ratio", "lower", "duplicates / derivations"),
    _m("engine.join_work", "count", "lower", "EvalStats.join_work"),
    _m("engine.join_work_per_fact", "ratio", "lower",
       "join_work / facts_derived"),
    _m("engine.iterations", "count", "lower", "fixpoint rounds"),
    _m("engine.index_builds", "count", "lower", "indexes built, warm run"),
    _m("engine.kernel_launches", "count", "lower", "kernel launches"),
    _m("engine.batch_rows", "count", "lower", "rows through batch kernels"),
    _m("engine.columnar_fallbacks", "count", "lower",
       "rules that fell back from the batch path"),
    _m("engine.replans", "count", "lower", "adaptive replans"),
    _m("engine.fixpoint_tuple_s", "s", "lower",
       "warm evaluate, use_columnar=False"),
    _m("engine.fixpoint_noreplan_s", "s", "lower",
       "warm evaluate, replan_rounds=0"),
    _m("engine.fixpoint_greedy_s", "s", "lower",
       "warm evaluate, use_cost_planner=False"),
    _m("engine.fixpoint_governed_s", "s", "lower",
       "warm evaluate, deadline_s=3600"),
    _m("engine.columnar_speedup", "x", "higher",
       "fixpoint_tuple_s / fixpoint_s"),
    _m("engine.replan_overhead", "x", "lower",
       "fixpoint_s / fixpoint_noreplan_s"),
    _m("engine.governor_overhead", "x", "lower",
       "fixpoint_governed_s / fixpoint_s"),
    # -- session layers: counts and ratios (0 without a session) -----------
    _m("engine.incremental.units_reactivated_ratio", "ratio", "lower",
       "units_reactivated / units_scheduled over the script", moves=_W),
    _m("engine.incremental.rederive_ratio", "ratio", "lower",
       "facts_rederived / facts_retracted", moves=_W),
    _m("engine.incremental.join_work_per_update", "count", "lower",
       "join work per update batch", moves=_W),
    _m("engine.durability.wal_bytes_per_user_byte", "ratio", "lower",
       "WAL bytes appended / bytes of the update lines", moves=_W),
    _m("engine.durability.wal_appends", "count", "lower", "WAL records"),
    _m("engine.durability.snapshots_written", "count", "lower",
       "snapshots taken in the foreground", moves="warm_tail_ms"),
    _m("engine.durability.snapshot_bytes", "count", "lower",
       "size of the newest snapshot", moves=f"{_Q} on serve_mixed"),
    _m("engine.recovery.replayed_batches", "count", "lower",
       "WAL records replayed by recover", moves=f"{_Q} on serve_mixed"),
    _m("engine.recovery.recover_speedup", "x", "higher",
       "scratch_s / recover_s"),
    # -- session layers: times (serve_mixed's full report only) ------------
    _m("engine.incremental.materialize_s", "s", "lower",
       "IncrementalSession(program, edb) without durability", only=SERVE),
    _m("engine.incremental.insert_p50_ms", "ms", "lower",
       "median insert batch", only=SERVE, moves=_W),
    _m("engine.incremental.retract_p50_ms", "ms", "lower",
       "median retract batch", only=SERVE, moves=_W),
    _m("engine.incremental.insert_tail_ms", "ms", "lower",
       "insert tail percentile", only=SERVE, moves="warm_tail_ms"),
    _m("engine.incremental.retract_tail_ms", "ms", "lower",
       "retract tail percentile", only=SERVE, moves="warm_tail_ms"),
    _m("engine.incremental.read_p50_ms", "ms", "lower",
       "median point read answers(tc(c, Y))", only=SERVE,
       moves="warm_ops_per_s"),
    _m("engine.durability.wal_overhead_ms", "ms", "lower",
       "durable minus in-memory median batch, same script", only=SERVE,
       moves=_W),
    _m("engine.durability.checkpoint_s", "s", "lower",
       "one forced checkpoint()", only=SERVE),
    _m("engine.durability.snapshot_stall_ms", "ms", "lower",
       "median latency of the batches that wrote a snapshot", only=SERVE,
       moves="warm_tail_ms"),
    _m("engine.recovery.recover_s", "s", "lower",
       "recover(program, config) alone", only=SERVE, moves=_Q),
    _m("engine.recovery.read_wal_s", "s", "lower", "read_wal", only=SERVE,
       moves=_Q),
    _m("engine.recovery.load_snapshot_s", "s", "lower",
       "load_snapshot of the newest snapshot", only=SERVE, moves=_Q),
    _m("engine.recovery.scratch_s", "s", "lower",
       "IncrementalSession over the final EDB from scratch", only=SERVE),
)

FAMILY_MIX_CASES = ("same_generation", "nonlinear_tc", "tc_sources",
                    "guarded_items", "win_move", "sibling3", "fanout_trap")

FAMILY_ROWS = tuple(
    _m(f"family.{case}.{kind}", "s", "lower",
       f"{case}: {'cold run' if kind == 'cold_s' else 'warm evaluate+answers'}",
       only=("family_mix",))
    for case in FAMILY_MIX_CASES
    for kind in ("cold_s", "warm_s")
)

ALL_METRICS = {m.name: m for m in (*END_TO_END, *PER_LAYER, *FAMILY_ROWS)}


def per_layer_for(workload: str) -> list[Metric]:
    """Every traced metric *workload* reports."""
    return [m for m in (*PER_LAYER, *FAMILY_ROWS)
            if m.only is None or workload in m.only]


def benchmark_json() -> dict:
    """The contract file at the repository root."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER if m.only is None
        ],
    }
