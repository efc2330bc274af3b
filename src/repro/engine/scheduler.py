"""Fixpoint loops and the SCC-condensation component scheduler.

The paper's Phase 1 (section 3.1, Lemma 3.1) splits rule bodies into
connected components because disconnected boolean subqueries are
*independent* computations: each can be retired the moment it fires.
The evaluation-side counterpart implemented here applies the same idea
to the predicate dependency graph.  Instead of running every
negation-stratum as one monolithic semi-naive fixpoint — where a cheap
non-recursive rule keeps re-entering rounds alongside the most
expensive recursive predicate of its stratum — the stratum's rules are
partitioned into **evaluation units**, one per strongly connected
component of the dependency graph, and the units are scheduled over
the SCC condensation DAG in topological order:

- a **non-recursive** unit (a single predicate that does not depend on
  itself) runs as a single naive pass: all its inputs are complete by
  the time it is scheduled, so one pass reaches its fixpoint;
- a **recursive** unit runs its own semi-naive fixpoint over only its
  member rules, with delta specialization restricted to the unit's own
  predicates (everything else is frozen input);
- units at the same condensation depth have no dependency path between
  them, so any topological order is correct; the scheduler uses the
  deterministic one (depth, then SCC index).  Each unit writes only its
  own head relations and reads lower units' relations that no longer
  change;
- **component-local retirement** generalizes the boolean cut: when a
  unit's head predicates are all cut predicates and each has fired,
  the whole unit — not just individual rules — terminates, including
  mid-fixpoint with deltas still pending.

Every path runs one semi-naive driver, :func:`_fixpoint`: a unit from
scratch (:func:`evaluate_unit`), a unit resumed from an incremental seed
frontier (:func:`run_seeded_unit`), and :func:`run_strata` without
``use_scc`` (the CLI's ``--no-scc``) — one all-heads unit per stratum
with no unit boundary and no component-local cut, kept as the
scheduler's differential oracle.  ``strategy="naive"`` swaps in the
small reference loop.  Rule firing is a two-rung ladder
(:func:`_fire`): vector kernel → tuple kernel, which compiles every
rule; ``use_kernels=False`` runs the interpreter instead, through the
tuple kernel's call.  All three execute one lowered plan and agree on
every engine-invariant counter.

The drivers are *governed*: they accept a
:class:`~repro.engine.governor.Governor` whose cooperative checkpoints
run at iteration boundaries, per-unit boundaries, and between rule
firings.  With no limits configured the governor is disabled and every
checkpoint is a single attribute test, keeping the ungoverned hot path
unchanged.  Evaluation has one thread of control and every unit writes
the run's one :class:`~repro.engine.statistics.EvalStats` and
provenance dict directly, so a unit that raises — a tripped budget, an
injected fault, or a genuine bug — simply propagates, original
exception intact, with everything it and the units before it counted
already in ``stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..datalog.analysis import (
    DependencyInfo,
    component_depths,
    condensation,
    is_recursive_component,
)
from ..datalog.columnar import load_numpy
from ..datalog.database import Database
from .batch_kernel import vector_rule_kernel
from .cost import AdaptiveReplanner
from .governor import BudgetExceeded, Governor, Guard
from .kernel import rule_kernel
from .plan import CompiledRule, DeltaIndex, interpret, replan_delta_plans
from .statistics import EvalStats

__all__ = [
    "EvalUnit",
    "build_units",
    "evaluate_unit",
    "run_seeded_unit",
    "run_strata",
    "run_unit",
]


# ---------------------------------------------------------------------------
# rule firing (shared by every loop)
# ---------------------------------------------------------------------------


def _fire(
    cr: CompiledRule,
    plan_id: Optional[int],
    db: Database,
    stats: EvalStats,
    provenance: dict,
    opts,
    added: dict[str, set],
    delta: Optional[DeltaIndex] = None,
    guard: Optional[Guard] = None,
) -> None:
    """Run one plan of one rule, inserting new head facts.

    *plan_id* selects the naive plan (``None``) or the delta plan
    starting at relational literal *plan_id*.  Executors of the plan's
    one lowering (:meth:`CompiledRule.lowered`): the vector kernel
    (``opts.use_columnar``; it declines every naive plan, every lowered
    pattern but a ``delta`` step followed by a chain of one-register
    ``lookup`` steps, and every firing whose frontier is below its
    fitted crossover, ``batch_kernel.CROSSOVER_ROWS``, before touching
    a counter), then
    the compiled tuple kernel — or, with ``opts.use_kernels`` off, the
    lowered-plan interpreter, the differential oracle.  Either is one row-at-a-time
    call that absorbs its own rows into the round's frontier.

    *guard* is the governor's per-unit view: its checkpoint here is
    the between-rules boundary, where the deadline and the fact budget
    are tested and an injected unit error fires.
    """
    head_pred = cr.rule.head.predicate
    rel = db.relation(head_pred)
    assert rel is not None
    if guard is not None:
        guard.checkpoint(stats)
    if opts.use_kernels and opts.use_columnar and not opts.record_provenance:
        vkernel = vector_rule_kernel(cr, plan_id, use_indexes=opts.use_indexes)
        packed = vkernel(db, stats, delta) if vkernel is not None else None
        if packed is not None:
            stats.kernel_launches += 1
            if len(packed):
                _absorb_packed(rel, head_pred, packed, stats, added)
            return
        stats.columnar_fallbacks += 1  # this firing runs on the tuple kernel
    if opts.use_kernels:
        stats.kernel_launches += 1
        run = rule_kernel(
            cr, plan_id, use_indexes=opts.use_indexes, record_rows=opts.record_provenance
        )
    else:
        run = partial(interpret, cr.lowered(plan_id, opts.use_indexes))
    new = _raw_frontier(added, head_pred)
    frontier = set() if new is None else new
    run(db, stats, delta, rel, frontier, provenance if opts.record_provenance else None)
    if new is None and frontier:
        added[head_pred] = frontier


def _raw_frontier(added: dict, head_pred: str) -> Optional[set]:
    """This round's frontier of *head_pred* for a row-at-a-time tier to
    extend (None if empty so far): a packed frontier a sibling rule's
    vectorized absorb left this round is materialized once."""
    cur = added.get(head_pred)
    if type(cur) is PackedDelta:
        added[head_pred] = cur = set(cur)
    return cur


def _absorb_rows(rel, head_pred, rows, stats, added) -> None:
    """Insert head rows one at a time, in order: the decoded rows of a
    packed batch whose relation has no packed runs."""
    new = _raw_frontier(added, head_pred)
    for values in rows:
        if rel.add(values):
            stats.facts_derived += 1
            if new is None:
                new = added.setdefault(head_pred, set())
            new.add(values)
        else:
            stats.duplicates += 1


class PackedDelta:
    """One predicate's round frontier kept packed (int64 per row).

    The vectorized absorb path appends each rule's fresh chunk in
    derivation order; the next round's :meth:`DeltaIndex.from_packed`
    consumes the concatenation directly, so a fully vectorized fixpoint
    never materializes frontier tuples.  Iteration decodes — the escape
    hatch for raw consumers (seeded-unit propagation, mixed-tier
    rounds).
    """

    __slots__ = ("relation", "chunks")

    def __init__(self, relation):
        self.relation = relation
        self.chunks: list = []

    def __len__(self) -> int:
        return sum(len(c) for c in self.chunks)

    def __iter__(self):
        return iter(self.relation.decode_packed(self.packed()))

    def packed(self):
        chunks = self.chunks
        return chunks[0] if len(chunks) == 1 else load_numpy().concatenate(chunks)


def _frontier(rows) -> DeltaIndex:
    """Wrap one predicate's round frontier as a DeltaIndex, keeping a
    packed frontier packed."""
    if type(rows) is PackedDelta:
        return DeltaIndex.from_packed(rows.packed(), rows.relation)
    return DeltaIndex(rows)


def _absorb_packed(rel, head_pred, produced, stats, added) -> None:
    """Insert a vectorized kernel's packed head rows.

    :func:`_absorb_rows` in id space, with no per-row python: one sort
    finds in-batch repeats, and only when there are some does an
    (unstable) argsort give each distinct row its first occurrence —
    the minimum original index per group of equal sorted rows — which
    restores production order, the tuple kernel's insert order.
    Membership is one precise probe of each of the relation's (at
    most two) sorted packed runs
    (:meth:`Relation.packed_novel_mask`), and the fresh rows enter
    the relation deferred (:meth:`Relation.add_packed_deferred`) and
    the frontier packed (:class:`PackedDelta`).  When runs are
    unavailable (the relation holds a constant id past the packing
    bound), the rows are decoded and absorbed one at a time.
    """
    if rel.packed_runs() is None:
        _absorb_rows(rel, head_pred, rel.decode_packed(produced), stats, added)
        return
    np = load_numpy()
    n = len(produced)
    uniq = np.sort(produced)
    first = None
    step = uniq[1:] != uniq[:-1]
    if not step.all():
        # in-batch duplicates: keep each group's first occurrence
        starts = np.flatnonzero(np.concatenate(([True], step)))
        first = np.minimum.reduceat(produced.argsort(), starts)
        uniq = uniq[starts]
    mask = rel.packed_novel_mask(uniq)
    k = int(mask.sum())
    stats.duplicates += n - k
    if not k:
        return
    stats.facts_derived += k
    fresh_sorted = uniq[mask]
    if k == n:
        fresh_ordered = produced
    elif first is None:
        # no in-batch dups: order within the round is production order,
        # so dropping the already-known rows keeps it
        fresh_ordered = produced[mask[uniq.searchsorted(produced)]]
    else:
        fresh_ordered = produced[np.sort(first[mask])]
    rel.add_packed_deferred(fresh_ordered, fresh_sorted)
    cur = added.get(head_pred)
    if cur is None:
        added[head_pred] = cur = PackedDelta(rel)
        cur.chunks.append(fresh_ordered)
    elif type(cur) is PackedDelta:
        cur.chunks.append(fresh_ordered)
    else:
        # a row-at-a-time tier already left a raw frontier set for this
        # predicate this round; join it
        cur.update(rel.decode_packed(fresh_ordered))


def _nonempty(db: Database, predicate: str) -> bool:
    """True iff *predicate* holds a row — by count, so deferred packed
    rows stay packed and nothing is copied."""
    rel = db.relation(predicate)
    return rel is not None and len(rel) > 0


class _Retirer:
    """Removes satisfied boolean (cut) rules from the active set.

    Constructed per stratum by the monolithic loop and per *unit* by
    the scheduler.  With *unit_heads* given and all of them cut
    predicates, :meth:`unit_satisfied` reports when the whole unit is
    complete (every head boolean has fired) — the component-local
    generalization of rule retirement.  Rule retirements are counted at
    most once per rule, so mid-loop filtering and end-of-unit
    retirement compose without double counting.
    """

    def __init__(
        self,
        cut_predicates: frozenset[str],
        stats: EvalStats,
        unit_heads: Optional[frozenset[str]] = None,
    ):
        self._cut = cut_predicates
        self._stats = stats
        self._retired_ids: set[int] = set()
        self._unit_heads = unit_heads
        self._unit_cut = bool(unit_heads) and unit_heads <= cut_predicates

    def filter(self, rules: list[CompiledRule], db: Database) -> list[CompiledRule]:
        if not self._cut:
            return rules
        keep = []
        for cr in rules:
            head = cr.rule.head.predicate
            if head in self._cut and _nonempty(db, head):
                self._mark(cr)
            else:
                keep.append(cr)
        return keep

    def unit_satisfied(self, db: Database) -> bool:
        """True iff this retirer guards a unit whose head predicates are
        all cut predicates and every one of them has fired — the unit's
        relations are then complete and the unit can stop mid-fixpoint."""
        if not self._unit_cut:
            return False
        return all(_nonempty(db, h) for h in self._unit_heads)

    def retire_all(self, rules) -> None:
        """Mark every rule of a satisfied cut unit as retired (idempotent)."""
        for cr in rules:
            self._mark(cr)

    def _mark(self, cr: CompiledRule) -> None:
        if id(cr) not in self._retired_ids:
            self._retired_ids.add(id(cr))
            self._stats.rules_retired += 1


# ---------------------------------------------------------------------------
# fixpoint drivers
# ---------------------------------------------------------------------------


def _naive_loop(active, db, stats, provenance, opts, retire, guard) -> None:
    """``strategy="naive"``: every round re-fires every naive plan — the
    reference for the semi-naive driver, sharing only :func:`_fire`."""
    while True:
        guard.iteration(stats)
        added: dict[str, set] = {}
        for cr in active:
            _fire(cr, None, db, stats, provenance, opts, added, guard=guard)
        active = retire.filter(active, db)
        if not any(added.values()):
            return
        if retire.unit_satisfied(db):
            # component-local cut: the unit's booleans are all true, so
            # its relations are complete even though the last round
            # still derived facts
            stats.unit_early_exits += 1
            return


def _fire_deltas(active, literals, frontiers, db, stats, provenance, opts, delta, guard):
    """One semi-naive round: each live rule's delta plans (*literals*,
    by rule id) whose frontier literal changed last round."""
    for cr in active:
        for i, predicate in literals[id(cr)]:
            frontier = frontiers.get(predicate)
            if frontier is not None:
                _fire(cr, i, db, stats, provenance, opts, delta, delta=frontier, guard=guard)


def _fixpoint(
    active, members, db, stats, provenance, opts, retire, guard,
    seeds: Optional[dict[str, set]] = None,
    out: Optional[dict[str, set]] = None,
    replan_rounds: int = 0,
) -> None:
    """Run *active* (already filtered by *retire*, non-empty) to its
    semi-naive fixpoint — the one loop under every evaluation path.

    *members* (a frozenset) are the predicates that can still change
    while the loop runs; each rule is specialized once per body literal
    over them.  The monolithic stratum loop passes every head of the
    stratum (including boolean cut rules that may retire later: their
    facts still arrive as deltas); the scheduler passes the unit's own
    SCC, so literals over sibling components — frozen inputs here —
    never seed a delta body.  With no members every input is complete
    and no head occurs in a body, so one naive pass *is* the fixpoint:
    no delta rounds, no ``iterations`` charge, and a cut unit stops
    between rules once every head boolean has fired.

    The first round is naive (it also accounts for initial IDB facts,
    which uniform-equivalence inputs may contain) unless *seeds* — rows
    already in *db* but not yet propagated through these rules — is
    given; then it fires the delta plans over the seeded predicates.
    Rows added to head relations are folded into *out* if given.
    """
    delta: dict[str, set] = {}
    if not members:
        for fired, cr in enumerate(active):
            if fired and retire.unit_satisfied(db):
                stats.unit_early_exits += 1
                return
            _fire(cr, None, db, stats, provenance, opts, delta, guard=guard)
        return

    literals = {id(cr): cr.delta_literals(members) for cr in active}
    replanner = replan_scope = None
    if replan_rounds:
        replanner = AdaptiveReplanner(replan_rounds, members)
        # everything this loop's replans price: its own writes plus
        # the frozen inputs its bodies read — no other unit's relations
        replan_scope = members | {a.predicate for cr in active for a in cr.relational_body}

    guard.iteration(stats)
    if seeds is None:
        for cr in active:
            _fire(cr, None, db, stats, provenance, opts, delta, guard=guard)
    else:
        # full relations already contain the seeded rows, so old-new
        # and new-new combinations are both covered
        changed = members.union(p for p, rows in seeds.items() if rows)
        _fire_deltas(
            active, {id(cr): cr.delta_literals(changed) for cr in active},
            {p: _frontier(rows) for p, rows in seeds.items() if rows},
            db, stats, provenance, opts, delta, guard,
        )
    while True:
        if out is not None:
            for p, rows in delta.items():
                if rows:
                    out.setdefault(p, set()).update(rows)
        active = retire.filter(active, db)
        if not any(delta.values()):
            return
        if retire.unit_satisfied(db):
            # component-local cut: deltas are pending but every head
            # boolean of the unit has fired, so further rounds can only
            # rediscover facts nobody will read
            stats.unit_early_exits += 1
            return
        guard.iteration(stats)
        # One shared DeltaIndex per changed predicate: every rule
        # specialization probing that frontier this round reuses the
        # same lazily built position groupings.
        previous = {p: _frontier(rows) for p, rows in delta.items() if rows}
        if replanner is not None:
            # Adaptive replanning: fold this round's true frontier
            # cardinalities into the decayed estimates; every
            # `replan_rounds` rounds, re-rank the delta plans from the
            # grown relations' sizes.  Frontier sizes and relation
            # lengths are bit-identical across every execution tier,
            # so all tiers replan identically; join order changes
            # work counters only, never answers or fact counts.
            replanner.observe({p: len(f) for p, f in previous.items()})
            if replanner.overestimate_max > stats.bound_overestimate_max:
                stats.bound_overestimate_max = replanner.overestimate_max
            # None = not due, or every size is still in its last
            # bucket so the DP would reproduce the current orders; the
            # skip is tier-invariant (sizes only), so counters agree
            model = replanner.model_for(db, replan_scope)
            if model is not None:
                stats.replans += 1
                renewed = [replan_delta_plans(cr, model) for cr in active]
                stats.plans_costed += model.plans_costed
                if any(new is not old for new, old in zip(renewed, active)):
                    active = renewed
                    literals = {id(cr): cr.delta_literals(members) for cr in active}
        delta = {}
        _fire_deltas(active, literals, previous, db, stats, provenance, opts, delta, guard)


def evaluate_unit(
    unit: "EvalUnit", guard: Guard, db, stats, provenance, opts,
    seeds=None, out=None, replan_rounds: int = 0,
) -> None:
    """One unit to its local fixpoint, from scratch or from *seeds*.

    The unit-isolation contract every caller relies on: the unit writes
    only the relations of its own head predicates, and every other
    relation it reads is complete before it starts."""
    retire = _Retirer(opts.cut_predicates, stats, unit_heads=unit.heads)
    guard.unit_boundary(stats)
    active = retire.filter(list(unit.rules), db)
    if active:
        if seeds is None and unit.recursive and opts.strategy == "naive":
            _naive_loop(active, db, stats, provenance, opts, retire, guard)
        else:
            # from scratch, nothing changes under a non-recursive unit
            single_pass = seeds is None and not unit.recursive
            _fixpoint(
                active, frozenset() if single_pass else unit.members,
                db, stats, provenance, opts, retire, guard, seeds, out, replan_rounds,
            )
    if retire.unit_satisfied(db):
        retire.retire_all(unit.rules)


def run_unit(unit: "EvalUnit", stats: EvalStats, guard: Guard, step, *args, **kwargs) -> None:
    """One scheduled unit execution — the step every unit walk shares
    (:func:`run_strata` and incremental maintenance's): run
    ``step(unit, guard, ...)`` and book the rounds it took under the
    unit's label, whether it finished, tripped a limit or raised."""
    try:
        step(unit, guard, *args, **kwargs)
    finally:
        rounds = stats.unit_rounds
        rounds[unit.label] = rounds.get(unit.label, 0) + guard.rounds


def run_seeded_unit(
    unit: "EvalUnit",
    db: Database,
    stats: EvalStats,
    provenance: dict,
    opts,
    guard: Guard,
    seeds: dict[str, set],
    out: Optional[dict[str, set]] = None,
) -> dict[str, set]:
    """Resume one evaluation unit's fixpoint from a seed frontier.

    This is incremental maintenance's entry point into the semi-naive
    machinery (:mod:`repro.engine.incremental`): *seeds* maps
    predicates to rows that are **already inserted** into *db* but have
    not yet been propagated through this unit's rules.  The first round
    fires every delta specialization whose literal predicate is seeded;
    subsequent rounds are the unit's ordinary member-delta fixpoint.  A
    non-recursive unit simply has nothing to do after the seeded round.

    Every row added to a head relation is folded into *out* (created if
    None) and returned — the caller's frontier for downstream units.
    Passing the same *out* again, with the rows it already holds merged
    back into *seeds*, completes an interrupted pass (re-derivations
    are duplicates, and the rows added before re-enter the frontier).

    Seeded runs never replan adaptively: maintenance frontiers are
    typically tiny, and keeping the session's prepared plans fixed
    keeps repeat maintenance passes byte-comparable — the cost planner
    still ordered the plans at prepare time.
    """
    if out is None:
        out = {}
    evaluate_unit(unit, guard, db, stats, provenance, opts, seeds, out)
    return out


# ---------------------------------------------------------------------------
# the SCC-condensation scheduler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalUnit:
    """One schedulable evaluation unit: the rules of one SCC.

    ``members`` are the SCC's predicates (the delta-specialization set
    for recursive units); ``heads`` the subset actually heading rules
    in this stratum; ``depth`` the unit's layer in the condensation of
    its stratum — units sharing a depth have no dependency path between
    them, so their relative order is free.
    """

    index: int
    depth: int
    members: frozenset[str]
    heads: frozenset[str]
    rules: tuple[CompiledRule, ...]
    recursive: bool

    @property
    def label(self) -> str:
        return "+".join(sorted(self.members))


def build_units(stratum_rules, info: DependencyInfo, edges, component_of) -> list[EvalUnit]:
    """Partition one stratum's compiled rules into topologically
    ordered evaluation units (deterministic: depth, then SCC index)."""
    groups: dict[int, list[CompiledRule]] = {}
    for cr in stratum_rules:
        groups.setdefault(component_of[cr.rule.head.predicate], []).append(cr)
    depths = component_depths(edges, groups)
    units = []
    for ci in sorted(groups, key=lambda c: (depths[c], c)):
        rules = tuple(groups[ci])
        scc = info.sccs[ci]
        units.append(
            EvalUnit(
                index=ci,
                depth=depths[ci],
                members=scc,
                heads=frozenset(cr.rule.head.predicate for cr in rules),
                rules=rules,
                recursive=is_recursive_component(scc, info.graph),
            )
        )
    return units


def run_strata(
    strata, info: DependencyInfo, db, stats, provenance, opts, governor=None,
    replan_rounds: int = 0,
) -> None:
    """Evaluate every stratum, in order, the one way both
    :func:`~repro.engine.evaluator.run_prepared` and a session's
    ``refresh`` run a program.

    With ``opts.use_scc`` each stratum is a topologically scheduled DAG
    of units, one after another in :func:`build_units` order; a unit
    counts as scheduled (``units_scheduled``, ``unit_rounds``) once it
    starts, so after a trip or an error ``stats`` lists exactly the
    units that ran.  Without it (``--no-scc``) each stratum is one
    fixpoint over all its rules: the unit driver over one unit whose
    members are all the stratum's heads, with a unit-less retirer (rules
    retire, the stratum never exits early) and no unit boundary — the
    scheduler's differential oracle.  The whole run is then one "unit"
    to the governor, which tests the same deadline and fact budget at
    the same kinds of boundary.  A tripped budget is stamped with the
    stratum it tripped in.
    """
    governor = governor if governor is not None else Governor(opts)
    if opts.use_scc:
        edges = condensation(info)
        component_of = {p: i for i, scc in enumerate(info.sccs) for p in scc}
        ordinal = 0  # unit executions across the whole run, scheduling order
    else:
        run_guard = governor.guard()
        retire = _Retirer(opts.cut_predicates, stats)
    for stratum_index, stratum_rules in enumerate(strata):
        try:
            if opts.use_scc:
                for unit in build_units(stratum_rules, info, edges, component_of):
                    stats.units_scheduled += 1
                    guard = governor.guard(unit=unit.label, ordinal=ordinal)
                    ordinal += 1
                    run_unit(
                        unit, stats, guard, evaluate_unit, db, stats, provenance, opts,
                        replan_rounds=replan_rounds,
                    )
                continue
            active = retire.filter(stratum_rules, db)
            if not active:
                continue
            if opts.strategy == "naive":
                _naive_loop(active, db, stats, provenance, opts, retire, run_guard)
            else:
                heads = frozenset(cr.rule.head.predicate for cr in active)
                _fixpoint(active, heads, db, stats, provenance, opts, retire, run_guard,
                          replan_rounds=replan_rounds)
        except BudgetExceeded as exc:
            if exc.stratum is None:
                exc.stratum = stratum_index
            raise
