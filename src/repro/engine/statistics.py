"""Counters collected during bottom-up evaluation.

The paper's performance claims are about *work*, not wall-clock time:
section 3.2 argues that projecting out existential arguments "not only
reduces the facts produced but also reduces the duplicate elimination
cost significantly", and section 3.1 that boolean rules can be "removed
from the fixpoint computation once the variable becomes true".  The
engine therefore counts facts, duplicate derivations, join probes, rule
firings and retired rules, so benchmarks can report the quantities the
paper reasons about alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["EvalStats"]


@dataclass
class EvalStats:
    """Mutable counters for one evaluation run."""

    iterations: int = 0
    #: Facts newly added to derived predicates.
    facts_derived: int = 0
    #: Head instantiations that produced an already-known fact — the
    #: duplicate-elimination work the paper's section 3.2 talks about.
    duplicates: int = 0
    #: Number of complete body matches (head instantiations attempted).
    rule_firings: int = 0
    #: Index/scan probes performed while matching body literals; a
    #: proxy for join work.
    join_probes: int = 0
    #: Rows enumerated from relations while matching body literals.
    rows_scanned: int = 0
    #: Probes answered by a hash index on the literal's bound positions
    #: (a subset of ``join_probes``).
    index_probes: int = 0
    #: Hash indexes materialized lazily during the run.
    index_builds: int = 0
    #: Probes that fell back to a full relation scan — either because
    #: no argument position was bound when the literal was reached, or
    #: because indexing was disabled (``EngineOptions.use_indexes``).
    scan_fallbacks: int = 0
    #: Boolean (cut) rules retired before the fixpoint finished.
    rules_retired: int = 0
    #: Compiled rule-kernel invocations (0 when the engine ran on the
    #: interpreter, either by option or by per-rule fallback).  This is
    #: the only counter allowed to differ between the kernel and
    #: interpreter paths — everything else is bit-identical.
    kernel_launches: int = 0
    #: Vector-kernel stages (frontier step, join step) executed with a
    #: non-empty batch (0 on the tuple-kernel and interpreter paths).
    #: Like ``kernel_launches`` this is engine-variant: it measures how
    #: much work ran columnar, not how much join work was done.
    batch_probes: int = 0
    #: Rows produced by vector-kernel stages (the columnar analogue of
    #: per-tuple loop iterations; engine-variant).
    batch_rows: int = 0
    #: Size of the process-wide constant dictionary after the run
    #: (merged with ``max``, not summed; 0 unless the columnar plane
    #: was active).
    dict_size: int = 0
    #: Firings a columnar run sent to the tuple kernel: the vector
    #: kernel declined the plan, or a ``columnar`` fault was injected
    #: (engine-variant).
    columnar_fallbacks: int = 0
    #: Rule bodies ordered by the cost model's DP search (0 with
    #: ``--no-cost-planner``, on a prepared-cache hit — the cached
    #: plans carry no new costing work — and for bodies the model
    #: declined to the greedy rung).  Engine-variant: it measures
    #: which planner ran, not how much join work was done.
    plans_costed: int = 0
    #: Adaptive replan events: a recursive fixpoint re-ranked its delta
    #: plans from observed round cardinalities
    #: (``EngineOptions.replan_rounds``; engine-variant).
    replans: int = 0
    #: Largest factor by which a decayed frontier-cardinality estimate
    #: exceeded the next observed frontier (1.0 = perfect prediction;
    #: 0.0 = no prediction was ever checked).  Merged with ``max``,
    #: engine-variant.
    bound_overestimate_max: float = 0.0
    #: Evaluation units run by the SCC scheduler (0 with ``--no-scc``).
    units_scheduled: int = 0
    #: Units terminated by the component-local cut: every head boolean
    #: of the unit fired, so the unit stopped before exhausting its
    #: pass or fixpoint.
    unit_early_exits: int = 0
    #: Fixpoint rounds per evaluation unit, keyed by the unit's label
    #: ("+"-joined sorted SCC members); ``iterations`` is their sum.
    unit_rounds: dict[str, int] = field(default_factory=dict)
    #: Facts per derived predicate at fixpoint.
    fact_counts: dict[str, int] = field(default_factory=dict)
    #: Incremental update batches applied by an
    #: :class:`~repro.engine.incremental.IncrementalSession` (each
    #: ``insert``/``retract`` call counts once; 0 for plain ``evaluate``
    #: runs).
    incremental_updates: int = 0
    #: Facts removed from relations by incremental retraction: the
    #: requested base deletions plus every derived fact the DRed
    #: overdeletion pass removed (rederived facts are counted removed
    #: here and re-added under ``facts_rederived``).
    facts_retracted: int = 0
    #: Facts re-added by the delete–rederive pass: overdeleted facts
    #: that turned out to still have a derivation from the surviving
    #: database (also counted in ``facts_derived``).
    facts_rederived: int = 0
    #: Evaluation units actually re-run by incremental maintenance — a
    #: subset of the units examined (``units_scheduled``): units whose
    #: inputs did not change are skipped, which is the point of
    #: maintaining through the SCC condensation.
    units_reactivated: int = 0
    #: Write-ahead-log records appended by a durable session (one per
    #: accepted update batch; 0 for non-durable sessions).
    wal_appends: int = 0
    #: WAL batches replayed through the seeded IVM path during
    #: :func:`~repro.engine.recovery.recover` (0 outside recovery).
    wal_replays: int = 0
    #: Columnar snapshots written (baseline, policy-triggered, and
    #: forced ``.checkpoint`` snapshots all count).
    snapshots_written: int = 0
    #: Wall-clock milliseconds spent inside :func:`recover` building
    #: this session (0 for sessions not born from recovery).
    recovery_ms: float = 0.0
    #: Governor checkpoints performed (0 unless a limit was set or a
    #: fault armed — the governor is free when idle).
    governor_checks: int = 0
    #: Faults fired by the run's :class:`~repro.engine.faults.FaultPlan`
    #: (0 on un-faulted runs).
    faults_injected: int = 0
    #: Degradation-ladder rungs taken, keyed by rung
    #: (``"kernel->interpreter"``, ``"index->scan"``,
    #: ``"scc->monolithic"``, and — during incremental maintenance —
    #: ``"incremental->recompute"``, the rung that recomputes the
    #: affected cone from its initial rows when the seeded maintenance
    #: scheduler faults).
    degradations: dict[str, int] = field(default_factory=dict)
    #: Why the run stopped early under ``on_limit="partial"`` (the
    #: governor's trip reason, e.g. ``"deadline"``); None when the run
    #: reached its fixpoint.  A set value flags the result — and its
    #: fact counts and answers — as a sound lower bound, not the
    #: complete least fixpoint.
    aborted_reason: Optional[str] = None

    @property
    def derivations(self) -> int:
        """Total head instantiations (new facts plus duplicates)."""
        return self.facts_derived + self.duplicates

    @property
    def join_work(self) -> int:
        """Rows enumerated plus index probes — the quantity the
        indexed-engine monotonicity regression bounds against the
        scanning baseline."""
        return self.rows_scanned + self.index_probes

    @property
    def probe_ratio(self) -> float:
        """Fraction of probes answered by an index (1.0 = no scans)."""
        total = self.index_probes + self.scan_fallbacks
        return self.index_probes / total if total else 0.0

    def merge(self, other: "EvalStats") -> None:
        """Accumulate another run's counters into this one."""
        self.iterations += other.iterations
        self.facts_derived += other.facts_derived
        self.duplicates += other.duplicates
        self.rule_firings += other.rule_firings
        self.join_probes += other.join_probes
        self.rows_scanned += other.rows_scanned
        self.index_probes += other.index_probes
        self.index_builds += other.index_builds
        self.scan_fallbacks += other.scan_fallbacks
        self.rules_retired += other.rules_retired
        self.kernel_launches += other.kernel_launches
        self.batch_probes += other.batch_probes
        self.batch_rows += other.batch_rows
        if other.dict_size > self.dict_size:
            self.dict_size = other.dict_size
        self.columnar_fallbacks += other.columnar_fallbacks
        self.plans_costed += other.plans_costed
        self.replans += other.replans
        if other.bound_overestimate_max > self.bound_overestimate_max:
            self.bound_overestimate_max = other.bound_overestimate_max
        self.units_scheduled += other.units_scheduled
        self.unit_early_exits += other.unit_early_exits
        self.incremental_updates += other.incremental_updates
        self.facts_retracted += other.facts_retracted
        self.facts_rederived += other.facts_rederived
        self.units_reactivated += other.units_reactivated
        self.wal_appends += other.wal_appends
        self.wal_replays += other.wal_replays
        self.snapshots_written += other.snapshots_written
        self.recovery_ms += other.recovery_ms
        self.governor_checks += other.governor_checks
        self.faults_injected += other.faults_injected
        for k, v in other.unit_rounds.items():
            self.unit_rounds[k] = self.unit_rounds.get(k, 0) + v
        for k, v in other.fact_counts.items():
            self.fact_counts[k] = self.fact_counts.get(k, 0) + v
        for k, v in other.degradations.items():
            self.degradations[k] = self.degradations.get(k, 0) + v
        if self.aborted_reason is None:
            self.aborted_reason = other.aborted_reason

    def as_dict(self, *, engine_invariant: bool = False) -> dict:
        """All counters as a plain dict (for JSON reports and the
        kernel/interpreter differential tests).

        With ``engine_invariant=True`` the counters that legitimately
        differ between the kernel and interpreter paths are dropped
        (``kernel_launches``), leaving exactly the quantities the two
        paths must agree on bit-for-bit.
        """
        out = {
            "iterations": self.iterations,
            "facts_derived": self.facts_derived,
            "duplicates": self.duplicates,
            "rule_firings": self.rule_firings,
            "join_probes": self.join_probes,
            "rows_scanned": self.rows_scanned,
            "index_probes": self.index_probes,
            "index_builds": self.index_builds,
            "scan_fallbacks": self.scan_fallbacks,
            "rules_retired": self.rules_retired,
            "kernel_launches": self.kernel_launches,
            "batch_probes": self.batch_probes,
            "batch_rows": self.batch_rows,
            "dict_size": self.dict_size,
            "columnar_fallbacks": self.columnar_fallbacks,
            "plans_costed": self.plans_costed,
            "replans": self.replans,
            "bound_overestimate_max": self.bound_overestimate_max,
            "units_scheduled": self.units_scheduled,
            "unit_early_exits": self.unit_early_exits,
            "incremental_updates": self.incremental_updates,
            "facts_retracted": self.facts_retracted,
            "facts_rederived": self.facts_rederived,
            "units_reactivated": self.units_reactivated,
            "wal_appends": self.wal_appends,
            "wal_replays": self.wal_replays,
            "snapshots_written": self.snapshots_written,
            "recovery_ms": self.recovery_ms,
            "unit_rounds": dict(self.unit_rounds),
            "fact_counts": dict(self.fact_counts),
            "governor_checks": self.governor_checks,
            "faults_injected": self.faults_injected,
            "degradations": dict(self.degradations),
            "aborted_reason": self.aborted_reason,
            "derivations": self.derivations,
            "join_work": self.join_work,
        }
        if engine_invariant:
            del out["kernel_launches"]
            # the columnar counters measure which path ran, not how
            # much join work was done, so they differ by construction
            del out["batch_probes"]
            del out["batch_rows"]
            del out["dict_size"]
            del out["columnar_fallbacks"]
            # the planner counters measure which planner ran (and how
            # often it re-ranked), not how much join work resulted;
            # prepared-cache hits alone make them configuration-variant
            del out["plans_costed"]
            del out["replans"]
            del out["bound_overestimate_max"]
            # faulted degradations name the rung actually taken, which
            # legitimately differs between engine configurations
            del out["degradations"]
            # durability is orthogonal to evaluation semantics: a
            # durable and a non-durable session over the same updates
            # must agree on every engine-invariant counter, while these
            # measure logging/snapshot/recovery work only
            del out["wal_appends"]
            del out["wal_replays"]
            del out["snapshots_written"]
            del out["recovery_ms"]
        return out

    def summary(self) -> str:
        """One-line human-readable summary used by benchmark output."""
        line = (
            f"iters={self.iterations} facts={self.facts_derived} "
            f"dups={self.duplicates} firings={self.rule_firings} "
            f"probes={self.join_probes} scanned={self.rows_scanned} "
            f"idx={self.index_probes} builds={self.index_builds} "
            f"fallbacks={self.scan_fallbacks} retired={self.rules_retired} "
            f"kernels={self.kernel_launches} units={self.units_scheduled} "
            f"unit_exits={self.unit_early_exits}"
        )
        if self.batch_probes or self.dict_size or self.columnar_fallbacks:
            line += (
                f" batches={self.batch_probes} batch_rows={self.batch_rows} "
                f"dict={self.dict_size} col_fallbacks={self.columnar_fallbacks}"
            )
        if self.plans_costed or self.replans:
            line += (
                f" plans_costed={self.plans_costed} replans={self.replans} "
                f"overest={self.bound_overestimate_max:.1f}"
            )
        if self.incremental_updates:
            line += (
                f" updates={self.incremental_updates} "
                f"retracted={self.facts_retracted} "
                f"rederived={self.facts_rederived} "
                f"reactivated={self.units_reactivated}"
            )
        if self.wal_appends or self.snapshots_written or self.wal_replays:
            line += (
                f" wal={self.wal_appends} snaps={self.snapshots_written} "
                f"replayed={self.wal_replays}"
            )
        if self.recovery_ms:
            line += f" recovery_ms={self.recovery_ms:.1f}"
        if self.faults_injected:
            rungs = ",".join(sorted(self.degradations))
            line += f" faults={self.faults_injected} degraded=[{rungs}]"
        if self.aborted_reason is not None:
            line += f" PARTIAL(aborted: {self.aborted_reason})"
        return line
