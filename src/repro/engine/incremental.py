"""Incremental view maintenance: fixpoints that survive EDB updates.

Every other entry point in this package recomputes the least fixpoint
from scratch.  An :class:`IncrementalSession` instead *materializes* a
program's fixpoint once and then maintains it under
:meth:`~IncrementalSession.insert` / :meth:`~IncrementalSession.retract`
batches, keeping the database state bit-identical to what a from-scratch
re-evaluation over the updated EDB would produce — that equivalence is
the contract the differential IVM oracle (``tests/oracle/test_incremental.py``)
enforces across the whole engine flag matrix.

**Insertions** are the easy direction, because semi-naive deltas are
already the engine's native currency: new rows are inserted into their
relations and then handed to
:func:`~repro.engine.scheduler.run_seeded_unit` as the seed frontier of
each affected evaluation unit, walking the SCC condensation in
topological order.  Units whose input predicates did not change are
skipped entirely (``units_reactivated`` vs ``units_scheduled``).

**Retractions** follow the DRed delete–rederive discipline
(Gupta–Mumick–Subrahmanian), stated as its authors state it: two rule
rewrites, derived once per session and evaluated by the same seeded unit
walk insertion uses.  For every rule ``h(t̄) :- L1…Ln, B, ¬N``:

1. *Overdelete* — one rule per relational position *i*,
   ``Δh(t̄) :- L1…ΔLi…Ln, B, ¬N, ¬Πh(t̄)``, seeded with the base
   deletions (``Δp``) on a scratch database sharing every session
   relation by reference, so each non-Δ literal reads the
   **unmodified** state (removing rows eagerly would under-estimate
   when two body facts of one derivation die together).  ``Πh`` holds
   h's *protected* rows — program fact rules plus still-given initial
   IDB facts: their derivations are unconditional, so they never enter
   the closure.
2. *Delete* — discard every Δ row (copy-on-write: shared EDB relations
   are privatized first, so sibling sessions over the same database
   never observe the retraction).
3. *Rederive* — one rule per rule, ``h(t̄) :- ∇h(t̄), L1…Ln, B, ¬N``,
   with ``∇h`` the overdeleted rows of ``h``, writing straight into
   ``h``.  The ``∇`` literal binds every head variable first, so the
   body is answered by index probes; a recursive unit keeps iterating
   inside itself until every overdeleted fact that is still reachable
   is back.

The generated predicates are named with a ``#``, a character the parser
rejects, so no program's own predicate can collide with them.

Updates whose affected cone crosses a **negative** dependency edge are
non-monotone: the affected units are reset to their initial rows and
recomputed from scratch in topological order (still skipping everything
outside the cone).

The **governor** applies per update batch: each ``insert``/``retract``
constructs a fresh :class:`~repro.engine.governor.Governor` from the
session options, so deadlines and budgets bound each batch, not the
session lifetime.  A tripped batch leaves the database in a *sound
lower bound* state (documented per phase in the code below), flags the
session via :attr:`IncrementalSession.is_partial`, and either raises
:class:`~repro.engine.governor.ResourceExhausted` or returns partial
stats per ``on_limit``; :meth:`~IncrementalSession.refresh` restores
exactness by re-running the fixpoint from the current state.

Repeat sessions skip parse/analysis/planning/codegen through the
prepared-program cache (:mod:`repro.engine.prepared`), keyed by the
canonical program text and size signature.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace
from typing import Iterable, Optional, Union

from ..datalog.analysis import condensation, negative_dependencies
from ..datalog.ast import Atom, Program, Rule
from ..datalog.builtins import is_builtin
from ..datalog.database import Database
from ..datalog.errors import ArityError
from .evaluator import EngineOptions, EvalResult, evaluate
from .faults import FaultInjector
from .governor import BudgetExceeded, Governor, settle
from .plan import compile_rule
from .provenance import Justification
from .scheduler import (
    EvalUnit,
    build_units,
    evaluate_unit,
    run_seeded_unit,
    run_strata,
    run_unit,
)
from .statistics import EvalStats

__all__ = ["IncrementalSession", "Facts"]

#: accepted update-batch shapes: ``{"pred": [(1, 2), ...]}``, an
#: iterable of ground :class:`Atom` facts, or ``("pred", row)`` pairs
Facts = Union[
    Mapping[str, Iterable[tuple]],
    Iterable[Union[Atom, tuple]],
]

_EMPTY: frozenset = frozenset()


#: name prefixes of the predicates the DRed rewrites generate: ``Δp``
#: (deleted rows of p), ``∇p`` (its overdeleted rows, to rederive) and
#: ``Πp`` (its protected rows)
_DELETED, _REDERIVE, _PROTECTED = "del#", "rederive#", "protected#"


def _dred_units(unit: EvalUnit) -> tuple[EvalUnit, EvalUnit]:
    """The overdeletion and rederivation units of one evaluation unit —
    its rules rewritten as in the module docstring.  Both keep the
    unit's place in the walk and its recursion (Δ literals depend on one
    another exactly as the literals they shadow do), and every rewritten
    rule keeps its original rule index."""
    delete, rederive = [], []
    for cr in unit.rules:
        rule, head = cr.rule, cr.rule.head
        deleted_head = head.rename_predicate(_DELETED + head.predicate)
        unprotected = (*rule.negative, head.rename_predicate(_PROTECTED + head.predicate))
        for i, literal in enumerate(rule.body):
            if is_builtin(literal.predicate):
                continue
            body = list(rule.body)
            body[i] = literal.rename_predicate(_DELETED + literal.predicate)
            delete.append(compile_rule(
                Rule(deleted_head, tuple(body), unprotected), cr.rule_index
            ))
        overdeleted = head.rename_predicate(_REDERIVE + head.predicate)
        rederive.append(compile_rule(
            Rule(head, (overdeleted, *rule.body), rule.negative), cr.rule_index
        ))
    return (
        replace(
            unit,
            members=frozenset(_DELETED + p for p in unit.members),
            heads=frozenset(_DELETED + p for p in unit.heads),
            rules=tuple(delete),
        ),
        replace(unit, rules=tuple(rederive)),
    )


class IncrementalSession:
    """A materialized fixpoint maintained under insert/retract batches.

    >>> from repro.datalog import parse, Database
    >>> from repro.engine.incremental import IncrementalSession
    >>> program = parse('''
    ...     tc(X, Y) :- edge(X, Y).
    ...     tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ...     ?- tc(1, Y).
    ... ''')
    >>> db = Database.from_dict({"edge": [(1, 2), (2, 3)]})
    >>> session = IncrementalSession(program, db)
    >>> sorted(session.answers())
    [(2,), (3,)]
    >>> _ = session.insert({"edge": [(3, 4)]})
    >>> sorted(session.answers())
    [(2,), (3,), (4,)]
    >>> _ = session.retract({"edge": [(2, 3)]})
    >>> sorted(session.answers())
    [(2,)]

    The input database is never mutated: base relations are shared by
    reference until the session first writes one, at which point it is
    privatized (copy-on-write) — two sessions over one EDB stay fully
    independent.
    """

    def __init__(
        self,
        program: Program,
        edb: Database,
        options: Optional[EngineOptions] = None,
        *,
        durable=None,
    ):
        opts = options or EngineOptions()
        result = evaluate(program, edb, opts)
        self._wire(
            program, opts, result.prepared, result.db, result.provenance,
            result.stats,
            shared={
                p
                for p in edb.predicates()
                if result.db.relation(p) is edb.relation(p)
            },
            initial={p: edb.rows(p) for p in program.idb_predicates()},
            dirty=result.is_partial,
        )
        if durable is not None:
            from .durability import DurabilityConfig, DurableLog

            if isinstance(durable, (str, bytes)) or hasattr(durable, "__fspath__"):
                durable = DurabilityConfig(wal_path=str(durable))
            self._durable = DurableLog.create(durable, self)

    @classmethod
    def _restore(
        cls,
        program: Program,
        db: Database,
        initial: Mapping[str, Iterable[tuple]],
        options: Optional[EngineOptions] = None,
    ) -> "IncrementalSession":
        """Build a session directly over an already-materialized
        database — the recovery path: the fixpoint comes from a
        snapshot, so no evaluation runs here.  The caller owns *db*
        (nothing is shared copy-on-write) and vouches that it **is**
        the program's least fixpoint over its base facts; *initial* is
        the snapshot's given-IDB row map (the session ``_initial``)."""
        from .prepared import planning_inputs, prepare

        self = object.__new__(cls)
        opts = options or EngineOptions()
        # the same prepare() entry evaluate() uses, so the prepared
        # cache is shared and the plan shape matches a live session's
        sizes, cost_model = planning_inputs(program, db, opts.use_cost_planner)
        prepared = prepare(program, sizes, cost_model=cost_model)
        prepared.check_cut_predicates(opts.cut_predicates)
        stats = EvalStats()
        for pred in program.idb_predicates():
            rel = db.relation(pred)
            stats.fact_counts[pred] = len(rel) if rel is not None else 0
        self._wire(
            program, opts, prepared, db, {}, stats,
            shared=set(), initial=initial, dirty=False,
        )
        return self

    def _wire(
        self, program, opts, prepared, db, provenance, stats, *,
        shared: set, initial: Mapping[str, Iterable[tuple]], dirty: bool,
    ) -> None:
        """The one place a session's fields are assigned — a live
        session (fresh from ``evaluate``) and a recovered one (over a
        snapshot's database) differ only in the arguments."""
        self.program = program
        self.options = opts
        self.prepared = prepared
        self.db = db
        self.provenance = provenance
        #: cumulative counters across the session (init + every batch)
        self.stats = stats
        #: counters of the most recent operation (init, batch, refresh)
        self.last_stats = stats
        self._idb = program.idb_predicates()
        self._arities = dict(prepared.arities)
        #: base relations still shared by reference with the caller's
        #: EDB — privatized (copied) before the session's first write
        self._shared = shared
        #: given (retractable) facts of derived predicates: the initial
        #: IDB rows of the input database plus rows inserted into IDB
        #: predicates later — the uniform-equivalence input convention
        self._initial: dict[str, set] = {
            p: set(rows) for p, rows in initial.items() if rows
        }
        #: rows asserted by body-less program rules, per predicate;
        #: program-mandated, hence never retractable
        grouped: dict[str, set] = {}
        for _, pred, row in prepared.fact_rules:
            grouped.setdefault(pred, set()).add(row)
        self._fact_rows: dict[str, frozenset] = {
            p: frozenset(rows) for p, rows in grouped.items()
        }
        self._dirty = dirty
        #: the durability runtime (WAL + snapshots), None for the
        #: default in-memory session
        self._durable = None

        # The maintenance schedule: every evaluation unit of every
        # stratum, flattened in global topological order (stratum, then
        # condensation depth, then SCC index).  Maintenance always
        # walks units — ``use_scc`` only selects the *initial*
        # materialization engine — because unit granularity is what
        # lets unaffected components be skipped.
        info = prepared.info
        edges = condensation(info)
        component_of = {p: i for i, scc in enumerate(info.sccs) for p in scc}
        self._units: list[EvalUnit] = []
        for stratum_rules in prepared.strata:
            if stratum_rules:
                self._units.extend(
                    build_units(stratum_rules, info, edges, component_of)
                )
        #: the DRed rewrites of every unit, in the same order
        dred = [_dred_units(unit) for unit in self._units]
        self._delete_units = [d for d, _ in dred]
        self._rederive_units = [r for _, r in dred]
        #: per unit: the predicates its rule bodies read (the seed set)
        self._unit_inputs = {
            id(unit): frozenset(
                atom.predicate
                for cr in unit.rules
                for atom in cr.relational_body
            )
            for unit in (*self._units, *self._delete_units)
        }
        #: reverse dependency graph, for affected-cone computation
        self._rev: dict[str, set] = {}
        for head, deps in info.graph.items():
            for dep in deps:
                self._rev.setdefault(dep, set()).add(head)
        self._neg_edges = negative_dependencies(program)

    # -- queries ------------------------------------------------------------

    @property
    def is_partial(self) -> bool:
        """True iff a governed batch stopped early: the state is a
        sound lower bound until :meth:`refresh` completes."""
        return self._dirty

    def query(self, predicate: Union[str, Atom, None] = None) -> frozenset:
        """Current answers: for a predicate name, its rows; for a query
        atom, its selected bindings; default, the program query's
        answers."""
        if isinstance(predicate, str):
            return self.db.rows(predicate)
        return self.result().answers(predicate)

    def answers(self, query: Optional[Atom] = None) -> frozenset:
        return self.query(query)

    def facts(self, predicate: str) -> frozenset:
        return self.db.rows(predicate)

    def known_predicates(self) -> frozenset:
        """Every predicate the program or the current database defines
        — what front ends validate update batches against, so a typo'd
        predicate is rejected instead of silently creating a relation
        nothing ever reads."""
        return frozenset(self._arities) | self.db.predicates()

    def result(self) -> EvalResult:
        """A snapshot :class:`~repro.engine.evaluator.EvalResult` over
        the session's live database (not a copy)."""
        return EvalResult(
            self.program,
            self.db,
            self.stats,
            self.provenance,
            provenance_recorded=self.options.record_provenance,
            prepared=self.prepared,
        )

    # -- updates ------------------------------------------------------------

    def insert(self, facts: Facts) -> EvalStats:
        """Apply a batch of new base facts and propagate their
        consequences; returns the batch's counters."""
        return self._update(self._normalize(facts), {})

    def retract(self, facts: Facts) -> EvalStats:
        """Remove a batch of base facts and every derived fact that no
        longer has a derivation; returns the batch's counters."""
        return self._update({}, self._normalize(facts))

    def refresh(self) -> EvalStats:
        """Re-run the fixpoint from the current state, restoring
        exactness after a partial (governed) batch."""
        opts = self.options
        stats = EvalStats()
        builds_before = self.db.index_builds()
        governor = Governor(opts)
        try:
            run_strata(
                self.prepared.strata, self.prepared.info, self.db,
                stats, self.provenance, opts, governor,
            )
        except BudgetExceeded as trip:
            self._finalize(stats, builds_before)
            self._dirty = True
            try:
                settle(trip, stats, opts.on_limit)
            finally:
                self._absorb(stats)
            return stats
        self._dirty = False
        self._finalize(stats, builds_before)
        if self._durable is not None:
            # a snapshot deferred during a partial batch retries here,
            # now that exactness is restored
            self._durable.maybe_snapshot(self, stats)
        self._absorb(stats)
        return stats

    # -- update machinery ---------------------------------------------------

    def _normalize(self, facts: Facts) -> dict[str, set]:
        out: dict[str, set] = {}
        arities: dict[str, int] = {}

        def put(pred: str, row) -> None:
            row = tuple(row)
            known = self._arities.get(pred)
            if known is None:
                rel = self.db.relation(pred)
                # a new predicate's first row in the batch fixes its arity
                known = rel.arity if rel is not None else arities.setdefault(pred, len(row))
            if len(row) != known:
                raise ArityError(
                    f"row of length {len(row)} for predicate {pred!r} "
                    f"of arity {known}"
                )
            out.setdefault(pred, set()).add(row)

        if isinstance(facts, Mapping):
            for pred, rows in facts.items():
                for row in rows:
                    put(pred, row)
        else:
            for item in facts:
                if isinstance(item, Atom):
                    put(item.predicate, item.as_fact())
                else:
                    pred, row = item
                    put(pred, row)
        return out

    def _update(self, additions: dict, deletions: dict) -> EvalStats:
        opts = self.options
        stats = EvalStats()
        stats.incremental_updates = 1
        builds_before = self.db.index_builds()
        # Per-batch governor and injector: deadlines/budgets bound this
        # batch, and one-shot faults fire fresh each batch.
        injector = (
            FaultInjector(opts.fault_plan)
            if opts.fault_plan is not None and opts.fault_plan.any()
            else None
        )
        governor = Governor(opts, injector)
        if self._durable is not None and (additions or deletions):
            # Write-ahead: the batch is logged before the first byte of
            # in-memory state changes, so a crash at any later point
            # replays to exactly the accepted-batch boundary.  A
            # DurabilityError (unloggable value) is raised before any
            # bytes hit the log, leaving WAL and state both untouched.
            self._durable.append_batch(
                "insert" if additions else "retract",
                additions or deletions,
                stats,
                injector=injector,
            )
        try:
            if deletions:
                self._retract_batch(deletions, stats, opts, governor)
            if additions:
                self._insert_batch(additions, stats, opts, governor)
        except BudgetExceeded as trip:
            # Every trip handler below leaves the database a *sound
            # lower bound* of the updated fixpoint; refresh() restores
            # exactness.
            self._finalize(stats, builds_before)
            self._dirty = True
            try:
                settle(trip, stats, opts.on_limit)
            finally:
                self._absorb(stats)
            return stats
        self._finalize(stats, builds_before)
        if self._durable is not None:
            # after apply, before absorb: a snapshot failure can then
            # never un-apply the batch, and its counters land in stats
            self._durable.maybe_snapshot(self, stats, injector)
        self._absorb(stats)
        return stats

    # -- durability ---------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True iff this session writes a WAL and snapshots."""
        return self._durable is not None

    def checkpoint(self) -> int:
        """Force a snapshot of the current state (then compact the
        WAL); returns the snapshot's sequence number.  Requires a
        durable session."""
        from ..datalog.errors import DurabilityError

        if self._durable is None:
            raise DurabilityError(
                "checkpoint() requires a durable session "
                "(pass durable= to IncrementalSession)"
            )
        return self._durable.checkpoint(self, self.stats)

    def flush(self) -> None:
        """Hand the WAL's buffered records to the OS (no-op for
        in-memory sessions), so a recovery reading the log while this
        session stays open sees every accepted batch."""
        if self._durable is not None:
            self._durable.wal.flush()

    def close(self) -> None:
        """Flush and close the durability runtime (no-op for in-memory
        sessions); the session remains queryable but no longer durable."""
        if self._durable is not None:
            self._durable.close()
            self._durable = None

    def _finalize(self, stats: EvalStats, builds_before: int) -> None:
        for pred in self._idb:
            rel = self.db.relation(pred)
            # len(rel), not len(rows()): rows() snapshots a frozenset
            # copy, O(|relation|) per batch for a counter
            stats.fact_counts[pred] = len(rel) if rel is not None else 0
        # privatized copies restart their build counters, so the
        # session-wide total can shrink mid-batch; clamp at zero
        stats.index_builds += max(0, self.db.index_builds() - builds_before)

    def _absorb(self, batch: EvalStats) -> None:
        self.last_stats = batch
        self.stats.merge(batch)
        # cumulative fact counts are a snapshot, not a sum
        self.stats.fact_counts = dict(batch.fact_counts)
        self.stats.aborted_reason = batch.aborted_reason

    def _walk(self, units, stats, governor, select, run) -> None:
        """The one maintenance unit walk over *units* (a schedule in
        global topological order): every unit is examined
        (``units_scheduled``); those for which ``select(unit)`` returns
        work are re-run (``units_reactivated``) as
        ``run(unit, guard, work)`` under a guard of their own."""
        ordinal = 0
        for unit in units:
            stats.units_scheduled += 1
            work = select(unit)
            if not work:
                continue
            stats.units_reactivated += 1
            guard = governor.guard(unit=unit.label, ordinal=ordinal)
            ordinal += 1
            run_unit(unit, stats, guard, run, work)

    def _propagate(self, units, db, changed, stats, opts, governor, provenance) -> None:
        """Seeded propagation over *units* on *db*: each unit whose
        inputs appear in *changed* resumes its fixpoint from those rows,
        and every row it adds joins *changed* for the units after it."""

        def seeds_of(unit):
            inputs = self._unit_inputs[id(unit)]
            return {p: changed[p] for p in inputs if changed.get(p)}

        def propagate(unit, guard, seeds):
            out = run_seeded_unit(unit, db, stats, provenance, opts, guard, seeds)
            for p, rows in out.items():
                if rows:
                    changed.setdefault(p, set()).update(rows)

        self._walk(units, stats, governor, seeds_of, propagate)

    def _privatize(self, pred: str) -> None:
        if pred in self._shared:
            self.db.privatize(pred)
            self._shared.discard(pred)

    def _protected(self, pred: str) -> frozenset:
        """Rows of *pred* with an unconditional derivation: program
        fact rules plus (still-)initial given facts."""
        initial = self._initial.get(pred)
        facts = self._fact_rows.get(pred, _EMPTY)
        if not initial:
            return facts
        return facts | frozenset(initial)

    def _affected_idb(self, changed: Iterable[str]) -> frozenset[str]:
        """Derived predicates whose value may depend on *changed*."""
        seen: set[str] = set()
        stack = list(changed)
        while stack:
            pred = stack.pop()
            if pred in seen:
                continue
            seen.add(pred)
            stack.extend(self._rev.get(pred, ()))
        return frozenset(p for p in seen if p in self._idb)

    def _crosses_negation(
        self, affected: frozenset[str], changed: Iterable[str]
    ) -> bool:
        """True iff propagation through the affected cone would pass a
        rule whose *negated* predicate may itself change — seeded
        deltas and delete–rederive are only exact for monotone cones."""
        dirty = affected | set(changed)
        return any(
            head in affected and neg in dirty
            for head, neg in self._neg_edges
        )

    # -- insertion ----------------------------------------------------------

    def _insert_batch(self, additions, stats, opts, governor) -> None:
        changed: dict[str, set] = {}
        for pred in sorted(additions):
            rows = additions[pred]
            self._privatize(pred)
            arity = self._arities.get(pred)
            if arity is None:
                arity = len(next(iter(rows)))
            rel = self.db.ensure(pred, arity)
            if pred in self._idb:
                # given even when already derived: it must outlive the
                # loss of its derivations
                self._initial.setdefault(pred, set()).update(rows)
            fresh = {row for row in rows if rel.add(row)}
            if not fresh:
                continue
            stats.facts_derived += len(fresh)
            changed[pred] = set(fresh)
        if not changed:
            return
        affected = self._affected_idb(changed)
        if self._crosses_negation(affected, changed):
            self._recompute_affected(affected, stats, opts, governor)
            return

        # Monotone seeded propagation: walk units in topological order,
        # reseeding only those whose inputs changed.  A governor trip
        # mid-walk is already sound — bottom-up insertion only adds
        # true consequences.
        self._propagate(
            self._units, self.db, changed, stats, opts, governor, self.provenance
        )

    # -- retraction ---------------------------------------------------------

    def _retract_batch(self, deletions, stats, opts, governor) -> None:
        present: dict[str, set] = {}
        for pred in sorted(deletions):
            rows = deletions[pred]
            initial = self._initial.get(pred)
            if initial:
                initial.difference_update(rows)
            rel = self.db.relation(pred)
            if rel is None:
                continue
            protected = self._fact_rows.get(pred, _EMPTY)
            hits = {r for r in rows if r in rel and r not in protected}
            if hits:
                present[pred] = hits
        if not present:
            return
        affected = self._affected_idb(present)
        if self._crosses_negation(affected, present):
            self._discard_rows(present, stats)
            self._recompute_affected(affected, stats, opts, governor)
            return
        # Overdelete: the Δ rules over the unmodified session state.
        scratch = self.db.copy(mutating=())
        for pred in affected:
            arity = self._arities[pred]
            scratch.ensure(_DELETED + pred, arity)
            # an absent Πh reads as the empty relation it would be
            protected = self._protected(pred)
            if protected:
                scratch.ensure(_PROTECTED + pred, arity).update(protected)
        deleted: dict[str, set] = {}
        for pred, rows in present.items():
            scratch.ensure(_DELETED + pred, self.db.relation(pred).arity).update(rows)
            deleted[_DELETED + pred] = set(rows)
        try:
            self._propagate(
                self._delete_units, scratch, deleted, stats,
                replace(opts, record_provenance=False), governor, {},
            )
        except BudgetExceeded:
            # The Δ walk wrote only its scratch relations, so nothing is
            # applied yet; applying the base deletions and resetting the
            # whole affected cone to its initial rows is the cheapest
            # sound lower bound.
            self._discard_rows(present, stats)
            self._reset_affected(affected)
            raise
        overdeleted = {
            name[len(_DELETED):]: rows for name, rows in deleted.items()
        }
        self._discard_rows(overdeleted, stats)

        # Rederive: the ∇ rules, seeded with each unit's overdeleted
        # rows.  A trip here needs no cleanup: every fact not
        # overdeleted keeps a derivation avoiding the deleted facts,
        # and every rederived fact was re-added by a rule firing over
        # present facts — a sound lower bound wherever the walk stopped.
        # A fresh view: the first still holds the shared relations that
        # discarding privatized, deleted rows included.
        scratch = self.db.copy(mutating=())
        for pred, rows in overdeleted.items():
            if pred in self._idb:
                scratch.ensure(_REDERIVE + pred, self._arities[pred]).update(rows)
        derived_before = stats.facts_derived
        try:
            self._walk(
                self._rederive_units, stats, governor,
                lambda unit: {
                    _REDERIVE + p: overdeleted[p]
                    for p in unit.heads
                    if overdeleted.get(p)
                },
                lambda unit, guard, seeds: run_seeded_unit(
                    unit, scratch, stats, self.provenance, opts, guard, seeds
                ),
            )
        finally:
            stats.facts_rederived += stats.facts_derived - derived_before
            if opts.record_provenance:
                # a rederived fact's justification is its original
                # rule's: drop the ∇ literal's row (body position 0)
                for pred, rows in overdeleted.items():
                    for row in rows:
                        just = self.provenance.get((pred, row))
                        if just is not None:
                            self.provenance[(pred, row)] = Justification(
                                just.rule_index, just.body[1:]
                            )

    def _discard_rows(self, rows_by_pred, stats) -> None:
        for pred in sorted(rows_by_pred):
            rows = rows_by_pred[pred]
            if not rows:
                continue
            self._privatize(pred)
            rel = self.db.relation(pred)
            if rel is None:
                continue
            for row in rows:
                if rel.discard(row):
                    stats.facts_retracted += 1
                    self.provenance.pop((pred, row), None)

    # -- the non-monotone / degraded path -----------------------------------

    def _reset_unit_rows(self, unit) -> None:
        """Reset the unit's head relations to their unconditional rows
        (initial IDB facts plus program fact rules)."""
        for pred in sorted(unit.heads):
            self._privatize(pred)
            rel = self.db.relation(pred)
            if rel is None:
                continue
            keep = self._protected(pred)
            for row in [r for r in rel.rows() if r not in keep]:
                rel.discard(row)
            for row in keep:
                rel.add(row)

    def _reset_affected(self, affected) -> bool:
        """Reset every unit heading an affected predicate to its
        unconditional rows, dropping their provenance; False iff there
        was no such unit."""
        targets = [u for u in self._units if u.heads & affected]
        preds = {p for u in targets for p in u.heads}
        for key in [k for k in self.provenance if k[0] in preds]:
            del self.provenance[key]
        for unit in targets:
            self._reset_unit_rows(unit)
        return bool(targets)

    def _recompute_affected(self, affected, stats, opts, governor) -> None:
        """Reset every affected unit to its initial rows, then re-run
        them in topological order.  All resets happen up front, so a
        governor trip mid-walk leaves untouched initial state (a sound
        lower bound) in every not-yet-recomputed unit."""
        if not self._reset_affected(affected):
            return
        self._walk(
            self._units, stats, governor,
            lambda unit: unit.heads & affected,
            lambda unit, guard, _: evaluate_unit(
                unit, guard, self.db, stats, self.provenance, opts
            ),
        )
