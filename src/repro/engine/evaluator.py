"""Bottom-up fixpoint evaluation: naive and semi-naive strategies.

This is the computation model the paper assumes (section 1.1): start
from the database relations with empty derived predicates and apply the
rules in stages until the least fixpoint is reached; the answer is the
appropriate selection over the query predicate's relation.

Two features beyond the textbook algorithm support the paper's
optimizations:

- **Boolean cut** (section 3.1): predicates named in
  ``EngineOptions.cut_predicates`` (the ``B_i`` introduced by the
  connected-component rewriting) have arity 0, so their relation is
  complete as soon as it is non-empty; their defining rules are then
  *retired* from the fixpoint loop.  This "captures some aspects of
  Prolog's cut appropriate to the bottom-up model".
- **Initial IDB facts**: the input database may already contain facts
  for derived predicates.  This is required by the *uniform* notions of
  equivalence (section 4), whose inputs are arbitrary DB instances.

The fixpoint loops themselves live in :mod:`repro.engine.scheduler`:
by default each stratum is decomposed into its SCC-condensation DAG and
evaluated unit by unit (non-recursive units in a single pass, recursive
units in component-local fixpoints); ``use_scc=False`` keeps the
previous monolithic per-stratum loop, counter-for-counter identical to
earlier releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Optional, Sequence

from ..datalog.ast import Atom, Program
from ..datalog.columnar import global_dictionary
from ..datalog.database import Database
from ..datalog.errors import ArityError, EvaluationError, ValidationError
from ..datalog.terms import Constant, Variable
from .faults import FaultInjector, FaultPlan
from .governor import BudgetExceeded, Governor, settle
from .prepared import PreparedProgram, planning_inputs, prepare
from .provenance import DerivationTree, derivation_tree
from .scheduler import run_strata
from .statistics import EvalStats

__all__ = [
    "EngineOptions",
    "EvalResult",
    "evaluate",
    "run_prepared",
    "working_database",
    "answers_of",
]


@dataclass(frozen=True)
class EngineOptions:
    """Evaluation configuration.

    strategy
        ``"seminaive"`` (default) or ``"naive"``.
    cut_predicates
        Arity-0 predicates whose rules are retired once the predicate
        becomes true (the boolean subqueries of section 3.1).  A
        predicate the program defines at arity > 0 is rejected with a
        :class:`~repro.datalog.errors.ValidationError` when the run
        starts: retiring its rules would truncate its fixpoint.
    use_indexes
        Answer bound-position probes with lazily built hash indexes
        (default).  ``False`` forces every probe back to a full
        relation scan plus filter — the ``--no-index`` baseline the
        work-monotonicity regression measures against.  Answers are
        identical either way; only the work counters differ.
    use_kernels
        Evaluate rule bodies with compiled kernels (default): each
        join plan is code-generated once into a flat loop nest with
        slot-based registers (:mod:`repro.engine.kernel`) instead of
        the recursive plan interpreter.  ``False`` (the CLI's
        ``--no-kernel``) keeps the interpreter, which is retained as
        the differential oracle — answers, provenance, and every work
        counter except ``kernel_launches`` are bit-identical.
    use_columnar
        Run linear-recursion delta plans on the dictionary-encoded
        **vector kernel** (default; requires ``use_kernels``, numpy and
        indexes): the whole semi-naive frontier joins as packed int64
        arrays (:mod:`repro.engine.batch_kernel`) instead of per-tuple
        loops, with the tuple kernels as the rung below for every
        other plan shape and for provenance-recording runs.  ``False``
        (the CLI's ``--no-columnar``) pins every rule to the tuple
        kernels — the vector kernel's differential oracle; answers,
        fact counts and every engine-invariant counter are
        bit-identical.  Without numpy the flag changes nothing.
    use_cost_planner
        Order rule bodies with the bound-driven cost model (default):
        relations are profiled into log-bucketed sizes and per-position
        maximum degrees, and a DP search picks the join order with the
        smallest summed intermediate-result bound
        (:mod:`repro.engine.cost`).  ``False`` (the CLI's
        ``--no-cost-planner``) keeps the size-greedy heuristic — the
        planner's differential oracle.  Join order never changes
        answers or fact counts, only the work counters.
    replan_rounds
        Under the cost planner, re-rank a recursive fixpoint's delta
        plans from observed round cardinalities every N rounds
        (adaptive re-planning; ``stats.replans``).  ``0`` disables
        replanning; the default re-plans every 4 rounds.  Ignored with
        ``use_cost_planner=False``.
    use_scc
        Schedule each stratum as a topologically ordered DAG of
        SCC evaluation units (default; see
        :mod:`repro.engine.scheduler`).  ``False`` (the CLI's
        ``--no-scc``) runs each stratum as one monolithic fixpoint over
        all its rules — the pre-scheduler engine, kept bit-identical as
        the scheduler's differential oracle.
    record_provenance
        Record a first justification per derived fact, enabling
        :meth:`EvalResult.derivation`.
    deadline_s
        Wall-clock budget in seconds for the fixpoint, counted from
        the end of preparation (which cancellation cannot interrupt)
        and enforced by cooperative cancellation at every iteration,
        per-unit, and between-rule boundary (see
        :mod:`repro.engine.governor`).
    max_facts
        Derivation budget: total facts derived, tested at every
        governor checkpoint against the exact count, so a run
        overshoots by at most the one in-flight rule firing.  Trip
        points are deterministic.  Every row entering a semi-naive
        delta frontier is a derived fact, and a round starts only after
        the previous one derived one, so this one budget also bounds
        the frontiers and the rounds (``stats.iterations`` is at most
        ``stats.facts_derived`` plus the number of SCCs).
    on_limit
        What a tripped limit does: ``"raise"`` (default) raises
        :class:`ResourceExhausted` carrying the partial stats and the
        offending unit/stratum; ``"partial"`` returns a best-effort
        :class:`EvalResult` with ``stats.aborted_reason`` set, whose
        answers are a sound lower bound.
    fault_plan
        A :class:`~repro.engine.faults.FaultPlan` of deterministic
        failures no flag can produce: a genuine error inside a unit, a
        slow unit, a simulated crash at a durability crash point.  The
        executor tiers themselves are reached through the ``use_*``
        flags above.  None (default) injects nothing.
    """

    strategy: str = "seminaive"
    cut_predicates: frozenset[str] = frozenset()
    use_indexes: bool = True
    use_kernels: bool = True
    use_columnar: bool = True
    use_cost_planner: bool = True
    replan_rounds: int = 4
    use_scc: bool = True
    record_provenance: bool = False
    deadline_s: Optional[float] = None
    max_facts: Optional[int] = None
    on_limit: str = "raise"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.strategy not in ("seminaive", "naive"):
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.on_limit not in ("raise", "partial"):
            raise ValidationError(
                f"on_limit must be 'raise' or 'partial', got {self.on_limit!r}"
            )
        if self.replan_rounds < 0:
            raise ValidationError(
                f"replan_rounds must be >= 0, got {self.replan_rounds}"
            )
        if self.max_facts is not None and self.max_facts < 0:
            raise ValidationError(f"max_facts must be >= 0, got {self.max_facts}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValidationError(f"deadline_s must be >= 0, got {self.deadline_s}")
        object.__setattr__(self, "cut_predicates", frozenset(self.cut_predicates))


@dataclass
class EvalResult:
    """The fixpoint database plus run metadata.

    A result may be **partial**: under ``on_limit="partial"`` a run
    that tripped a governor limit returns with
    ``stats.aborted_reason`` set (and :attr:`is_partial` True).  Every
    fact in a partial result is a true consequence of the program —
    bottom-up evaluation only adds sound facts — but the fixpoint was
    not reached, so facts and answers are a *lower bound*: absent
    tuples are unknown, not false.
    """

    program: Program
    db: Database
    stats: EvalStats
    provenance: dict = field(default_factory=dict)
    #: whether the run recorded provenance (``record_provenance=True``);
    #: distinguishes "no justification recorded" from "not derived"
    provenance_recorded: bool = False
    #: the (cached) compiled artifacts this run evaluated — reusable by
    #: an :class:`~repro.engine.incremental.IncrementalSession` or a
    #: repeat evaluation over the same program and size profile
    prepared: Optional[PreparedProgram] = None

    @property
    def is_partial(self) -> bool:
        """True iff the run stopped at a resource limit before the
        fixpoint; answers are then a sound lower bound."""
        return self.stats.aborted_reason is not None

    def facts(self, predicate: str) -> frozenset[tuple]:
        """All rows of *predicate* at fixpoint (a lower bound if
        :attr:`is_partial`)."""
        return self.db.rows(predicate)

    def answers(self, query: Optional[Atom] = None) -> frozenset[tuple]:
        """Bindings for the query's variables (paper, section 1.1).

        Constants in the query act as selections; the result tuples
        list the values of the query's distinct variables in order of
        first occurrence.  Defaults to the program's query atom.  If
        :attr:`is_partial`, the set is a sound lower bound of the true
        answer set.
        """
        return answers_of(self.db, self._query(query))

    def has_answer(self) -> bool:
        """True iff the program's query has an answer (an existence
        test: it stops at the first matching row)."""
        return bool(answers_of(self.db, self._query(None), keep=()))

    def _query(self, query: Optional[Atom]) -> Atom:
        q = query if query is not None else self.program.query
        if q is None:
            raise ValidationError("program has no query and none was supplied")
        return q

    def derivation(self, predicate: str, row: tuple) -> DerivationTree:
        """The recorded derivation tree of ``predicate(row)``.

        Requires ``record_provenance=True`` at evaluation time; asking
        for a derived fact's tree without it is an
        :class:`~repro.datalog.errors.EvaluationError` ("provenance
        not recorded"), not a silently empty tree.
        """
        if (predicate, row) not in self.provenance:
            rel = self.db.relation(predicate)
            if rel is None or row not in rel:
                raise EvaluationError(f"fact {predicate}{row!r} was not derived")
            if not self.provenance_recorded:
                raise EvaluationError(
                    f"provenance not recorded: evaluate with "
                    f"record_provenance=True to explain {predicate}{row!r}"
                )
        return derivation_tree(self.provenance, predicate, row)


def answers_of(
    db: Database, query: Atom, keep: Optional[Sequence[int]] = None
) -> frozenset[tuple]:
    """Apply the selection/projection a query atom denotes to *db*.

    Constants become bound positions, a repeated variable an equality
    between its occurrences, and the answer columns are the first
    occurrences of the distinct variables — all of them, or with
    *keep* the ones at those indexes, in that order.  The relation
    does the rest (:meth:`~repro.datalog.database.Relation.select`).
    """
    rel = db.relation(query.predicate)
    if rel is None:
        return frozenset()
    if rel.arity != query.arity:
        raise ArityError(
            f"query {query} has arity {query.arity}, relation "
            f"{query.predicate} has arity {rel.arity}"
        )
    bound: dict[int, object] = {}
    equal: list[tuple[int, int]] = []
    first: dict[Variable, int] = {}
    for p, arg in enumerate(query.args):
        if isinstance(arg, Constant):
            bound[p] = arg.value
        elif arg in first:
            equal.append((first[arg], p))
        else:
            first[arg] = p
    columns = list(first.values())
    if keep is not None:
        columns = [columns[i] for i in keep]
    return frozenset(rel.select(bound, equal, columns))


def evaluate(
    program: Program,
    edb: Database,
    options: Optional[EngineOptions] = None,
    *,
    analysis=None,
) -> EvalResult:
    """Compute the least fixpoint of *program* over *edb*.

    The input database is not modified by evaluation; derived facts
    accumulate in a working database that *shares* the relations of
    predicates no rule can write (base relations) and copies the rest.
    Sharing means hash indexes built lazily over base relations stay
    materialized on *edb* itself, so a second ``evaluate`` over the
    same database starts warm instead of rebuilding every index from
    scratch.  Facts already present for derived predicates are kept
    (the uniform-equivalence input convention).

    *analysis* (an :class:`repro.analysis.absint.AnalysisResult`)
    overlays the analyzer's propagated profiles onto the cost
    planner's: derived predicates are planned with their estimated
    fixpoint sizes and degrees instead of the worst-case "larger than
    anything stored" default.  The profile signatures flow into the
    model's :meth:`~repro.engine.cost.BoundCostModel.signature` and
    therefore into the prepared-program cache key, so analysis-fed
    and default plans never collide in the cache.  Join order never
    changes answers or fact counts — only work counters move.
    """
    opts = options or EngineOptions()
    db = working_database(program, edb)
    # Rules compile against the input relation sizes, derived relations
    # sized past every stored one (:func:`planning_inputs`).  The
    # compiled artifacts (plans, analysis, stratification) come from
    # the prepared-program cache: a hit skips planning and codegen
    # entirely and is bit-identical to a fresh compile because the size
    # profile is part of the cache key.
    sizes, cost_model = planning_inputs(
        program, db, opts.use_cost_planner,
        analysis.sketches() if analysis is not None else None,
    )
    return run_prepared(prepare(program, sizes, cost_model=cost_model), db, opts)


def working_database(program: Program, edb: Database) -> Database:
    """The database one evaluation of *program* over *edb* writes:
    *edb*'s base relations shared, its derived ones copied, and a
    relation for every derived predicate, so that empty results are
    observable and plans never miss a relation."""
    idb = program.idb_predicates()
    db = edb.copy(mutating=idb)
    arities = program.arities()
    for pred in idb:
        db.ensure(pred, arities[pred])
    return db


def run_prepared(
    prepared: PreparedProgram,
    db: Database,
    opts: EngineOptions,
    skip: AbstractSet[int] = frozenset(),
) -> EvalResult:
    """Run *prepared* to its least fixpoint over the working database
    *db* (see :func:`working_database`), which it extends in place.

    *skip* masks rules out by their index in ``prepared.program``: a
    masked rule never fires and a masked fact rule seeds nothing, so
    the run computes the fixpoint of the program without those rules.
    The preparation's strata and SCC condensation stay a correct
    schedule for any subset of its rules (a sub-program's dependency
    graph is a subgraph), only a coarser one, and join order never
    changes a fixpoint — so one preparation serves every rule mask.
    """
    prepared.check_cut_predicates(opts.cut_predicates)
    program = prepared.program
    builds_before = db.index_builds()
    stats = EvalStats()
    provenance: dict = {}

    # The governor owns every runtime limit and the fault plan; with
    # neither configured it is disabled and costs one attribute test
    # per checkpoint.  The injector is per-run state, so a reused
    # EngineOptions sees its one-shot faults fresh each evaluation.
    injector = (
        FaultInjector(opts.fault_plan)
        if opts.fault_plan is not None and opts.fault_plan.any()
        else None
    )
    governor = Governor(opts, injector)

    # recorded on the preparation, not the call, so a prepared-cache
    # hit reports exactly the counters of the cold build it reuses
    stats.plans_costed += prepared.plans_costed

    # Seed fact rules (ground, body-less); the paper keeps facts in the
    # EDB but the parser tolerates them in programs.
    for index, pred, row in prepared.fact_rules:
        if index not in skip and db.ensure(pred, len(row)).add(row):
            stats.facts_derived += 1

    # Stratified evaluation (section-6 extension): rules run stratum by
    # stratum, so a negated literal always refers to a fully computed
    # lower-stratum relation.  Pure Datalog yields a single stratum.
    strata = prepared.strata
    if skip:
        strata = tuple(
            tuple(cr for cr in stratum if cr.rule_index not in skip)
            for stratum in strata
        )

    def finalize() -> None:
        for pred in program.idb_predicates():
            # count via the relation, not a materialized snapshot:
            # deferred packed rows stay packed until something reads
            # actual tuples
            rel = db.relation(pred)
            stats.fact_counts[pred] = len(rel) if rel is not None else 0
        # Shared base relations may carry builds from earlier runs
        # (that is the point of sharing them); only builds during this
        # run count.
        stats.index_builds = db.index_builds() - builds_before
        if opts.use_columnar and opts.use_kernels and not opts.record_provenance:
            stats.dict_size = len(global_dictionary())

    # Adaptive replanning rides on the cost planner: recursive
    # fixpoints re-rank their delta plans every `replan_rounds` rounds
    # from observed frontier cardinalities.  Replans are a pure
    # join-order change, so answers and fact counts are untouched.
    replan = (
        opts.replan_rounds
        if opts.use_cost_planner and opts.strategy == "seminaive"
        else 0
    )
    trip = None
    try:
        run_strata(strata, prepared.info, db, stats, provenance, opts, governor, replan)
    except BudgetExceeded as exc:
        trip = exc

    finalize()
    if trip is not None:
        settle(trip, stats, opts.on_limit)
    return EvalResult(
        program, db, stats, provenance,
        provenance_recorded=opts.record_provenance,
        prepared=prepared,
    )
