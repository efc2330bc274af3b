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

from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = ["EvalStats"]


def _counter(merge: str = "sum", *, variant: bool = False, **kw):
    """One counter's declaration: how :meth:`EvalStats.merge` combines
    it (``sum``, ``max``, per-key ``sum_keys``, ``first`` non-None) and
    whether it is engine-*variant* — measuring which path, planner or
    durability work ran instead of how much join work was done, so
    ``as_dict(engine_invariant=True)`` drops it."""
    if "default_factory" not in kw:
        kw.setdefault("default", 0)
    return field(metadata={"merge": merge, "variant": variant}, **kw)


@dataclass
class EvalStats:
    """Mutable counters for one evaluation run."""

    #: Fixpoint rounds started.  A round starts only after the previous
    #: one derived a fact, so this is at most ``facts_derived`` plus the
    #: number of SCCs: the governor's fact budget bounds it.
    iterations: int = _counter()
    #: Facts newly added to derived predicates.
    facts_derived: int = _counter()
    #: Head instantiations that produced an already-known fact — the
    #: duplicate-elimination work the paper's section 3.2 talks about.
    duplicates: int = _counter()
    #: Number of complete body matches (head instantiations attempted).
    rule_firings: int = _counter()
    #: Index/scan probes performed while matching body literals; a
    #: proxy for join work.
    join_probes: int = _counter()
    #: Rows enumerated from relations while matching body literals.
    rows_scanned: int = _counter()
    #: Probes answered by a hash index on the literal's bound positions
    #: (a subset of ``join_probes``).
    index_probes: int = _counter()
    #: Hash indexes materialized lazily during the run.
    index_builds: int = _counter()
    #: Probes that fell back to a full relation scan — either because
    #: no argument position was bound when the literal was reached, or
    #: because indexing was disabled (``EngineOptions.use_indexes``).
    scan_fallbacks: int = _counter()
    #: Boolean (cut) rules retired before the fixpoint finished.
    rules_retired: int = _counter()
    #: Compiled rule-kernel invocations (0 when the engine ran on the
    #: interpreter, ``use_kernels=False``).
    kernel_launches: int = _counter(variant=True)
    #: Vector-kernel stages (frontier step, join step) executed with a
    #: non-empty batch (0 on the tuple-kernel and interpreter paths).
    batch_probes: int = _counter(variant=True)
    #: Rows produced by vector-kernel stages (the columnar analogue of
    #: per-tuple loop iterations).
    batch_rows: int = _counter(variant=True)
    #: Size of the process-wide constant dictionary after the run
    #: (0 unless the columnar plane was active).
    dict_size: int = _counter("max", variant=True)
    #: Firings a columnar run sent to the tuple kernel: the vector
    #: kernel declined the plan or the launch.
    columnar_fallbacks: int = _counter(variant=True)
    #: Rule bodies ordered by the cost model's DP search (0 with
    #: ``--no-cost-planner``, on a prepared-cache hit — the cached
    #: plans carry no new costing work — and for bodies the model
    #: declined to the greedy rung).
    plans_costed: int = _counter(variant=True)
    #: Adaptive replan events: a recursive fixpoint re-ranked its delta
    #: plans from observed round cardinalities
    #: (``EngineOptions.replan_rounds``).
    replans: int = _counter(variant=True)
    #: Largest factor by which a decayed frontier-cardinality estimate
    #: exceeded the next observed frontier (1.0 = perfect prediction;
    #: 0.0 = no prediction was ever checked).
    bound_overestimate_max: float = _counter("max", variant=True, default=0.0)
    #: Evaluation units run by the SCC scheduler (0 with ``--no-scc``).
    units_scheduled: int = _counter()
    #: Units terminated by the component-local cut: every head boolean
    #: of the unit fired, so the unit stopped before exhausting its
    #: pass or fixpoint.
    unit_early_exits: int = _counter()
    #: Incremental update batches applied by an
    #: :class:`~repro.engine.incremental.IncrementalSession` (each
    #: ``insert``/``retract`` call counts once; 0 for plain ``evaluate``
    #: runs).
    incremental_updates: int = _counter()
    #: Facts removed from relations by incremental retraction: the
    #: requested base deletions plus every derived fact the DRed
    #: overdeletion pass removed (rederived facts are counted removed
    #: here and re-added under ``facts_rederived``).
    facts_retracted: int = _counter()
    #: Facts re-added by the delete–rederive pass: overdeleted facts
    #: that turned out to still have a derivation from the surviving
    #: database (also counted in ``facts_derived``).
    facts_rederived: int = _counter()
    #: Evaluation units actually re-run by incremental maintenance — a
    #: subset of the units examined (``units_scheduled``): units whose
    #: inputs did not change are skipped, which is the point of
    #: maintaining through the SCC condensation.
    units_reactivated: int = _counter()
    #: Write-ahead-log records appended by a durable session (one per
    #: accepted update batch; 0 for non-durable sessions).
    wal_appends: int = _counter(variant=True)
    #: IVM batches applied by :func:`~repro.engine.recovery.recover`'s
    #: replay rung: 1 for the WAL suffix's net delta, 0 when the suffix
    #: cancels out or outside recovery (``RecoveryReport.replayed_batches``
    #: counts the WAL records consumed).
    wal_replays: int = _counter(variant=True)
    #: Columnar snapshots written (baseline, policy-triggered, and
    #: forced ``.checkpoint`` snapshots all count).
    snapshots_written: int = _counter(variant=True)
    #: Wall-clock milliseconds spent inside :func:`recover` building
    #: this session (0 for sessions not born from recovery).
    recovery_ms: float = _counter(variant=True, default=0.0)
    #: Fixpoint rounds per evaluation unit, keyed by the unit's label
    #: ("+"-joined sorted SCC members); ``iterations`` is their sum.
    unit_rounds: dict[str, int] = _counter("sum_keys", default_factory=dict)
    #: Facts per derived predicate at fixpoint.
    fact_counts: dict[str, int] = _counter("sum_keys", default_factory=dict)
    #: Governor checkpoints performed (0 unless a limit was set or a
    #: fault armed — the governor is free when idle).
    governor_checks: int = _counter()
    #: Why the run stopped early under ``on_limit="partial"`` (the
    #: governor's trip reason, e.g. ``"deadline"``); None when the run
    #: reached its fixpoint.  A set value flags the result — and its
    #: fact counts and answers — as a sound lower bound, not the
    #: complete least fixpoint.
    aborted_reason: Optional[str] = _counter("first", default=None)

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
        """Accumulate another run's counters into this one, each by
        its declared rule."""
        for f in fields(self):
            rule = f.metadata["merge"]
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if rule == "sum":
                setattr(self, f.name, mine + theirs)
            elif rule == "max":
                if theirs > mine:
                    setattr(self, f.name, theirs)
            elif rule == "sum_keys":
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
            elif mine is None:  # "first": keep the earliest reason
                setattr(self, f.name, theirs)

    def as_dict(self, *, engine_invariant: bool = False) -> dict:
        """All counters as a plain dict (for JSON reports and the
        kernel/interpreter differential tests).

        With ``engine_invariant=True`` the counters declared
        engine-variant are dropped — which kernel, planner or rung ran,
        and the durability work, which is orthogonal to evaluation
        semantics — leaving exactly the quantities every engine
        configuration must agree on bit-for-bit.
        """
        out: dict = {}
        for f in fields(self):
            if engine_invariant and f.metadata["variant"]:
                continue
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        out["derivations"] = self.derivations
        out["join_work"] = self.join_work
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
        if self.aborted_reason is not None:
            line += f" PARTIAL(aborted: {self.aborted_reason})"
        return line
