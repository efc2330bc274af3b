"""Rule compilation, lowering, and the reference evaluator.

A rule body is evaluated as a left-deep nested-loop join over hash
indexes.  :func:`order_body` picks a join order greedily by a
selectivity heuristic — at each step the literal with the most
already-bound argument positions is chosen (ties broken by smaller
relation size when the planner is given sizes, then by original body
order), so index lookups replace scans wherever possible.
:class:`CompiledRule` caches, per literal, which positions will be
bound when the literal is reached, so evaluation does no per-tuple
planning.

:func:`lower` turns one plan of a compiled rule into the form all
three executors consume (:class:`Lowered`): numbered registers instead
of variables, one access kind per step, the existential first-match
cut, and what each step does when its relation is absent.  It runs
lazily, on a plan's first firing, and is memoized on the compiled rule
(:meth:`CompiledRule.lowered`).  :func:`interpret` evaluates the
lowered steps over a register list and absorbs its own head rows, with
a tuple kernel's call contract — the reference the tuple kernels
(:mod:`repro.engine.kernel`) and the vector kernel
(:mod:`repro.engine.batch_kernel`) are generated from and checked
against.

Each probe of a stored relation is counted in exactly one of two ways:
an **index probe** when the literal has bound positions and indexing is
enabled (the relation's lazily built hash index on those positions
answers the probe), or a **scan fallback** when no position is bound or
``use_indexes=False`` forces the engine back to the seed behaviour of
enumerating the whole relation and filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Optional, Sequence

from ..datalog.ast import Atom, Rule
from ..datalog.builtins import BUILTINS, is_builtin
from ..datalog.columnar import global_dictionary, pack_rows
from ..datalog.database import Database, Relation, post_rows
from ..datalog.errors import ValidationError
from ..datalog.terms import Constant, Variable
from .provenance import Justification
from .statistics import EvalStats

__all__ = [
    "CompiledRule",
    "DeltaIndex",
    "LiteralPlan",
    "Lowered",
    "Step",
    "order_body",
    "compile_rule",
    "interpret",
    "lower",
    "replan_delta_plans",
]


@dataclass(frozen=True, slots=True)
class LiteralPlan:
    """One body literal with its precomputed binding pattern.

    ``bound_positions`` are argument indexes whose value is known when
    this literal is matched (constants, or variables bound by earlier
    literals); an index on exactly those positions is used for lookup.
    ``free_positions`` maps the remaining indexes to their variables
    (with repeated free variables appearing at each of their positions;
    consistency is enforced during binding).
    """

    atom: Atom
    body_index: int  # position in the original rule body
    bound_positions: tuple[int, ...]
    free_positions: tuple[tuple[int, Variable], ...]


_PACK_FAIL = object()  # memoized "frontier cannot be packed" sentinel
_NO_ROWS: list = []


class DeltaIndex:
    """The semi-naive delta frontier with lazy position groupings.

    The frontier is shared by every rule specialization probing the
    same predicate in a round, so grouping its rows by a literal's
    bound positions happens once per ``(round, positions)`` instead of
    re-scanning the frontier linearly on every probe.  Probing the
    frontier is the semi-naive discipline itself, so it is charged as a
    ``join_probe`` but never as an index probe or scan fallback, and
    only delivered rows count toward ``rows_scanned`` — exactly the
    accounting of the previous linear filter.
    """

    __slots__ = ("_rows", "_groups", "_packed", "_relation")

    def __init__(self, rows):
        self._rows: Optional[list] = list(rows)
        self._groups: dict[tuple[int, ...], dict[tuple, list]] = {}
        self._packed = None
        self._relation = None

    @classmethod
    def from_packed(cls, packed, relation) -> "DeltaIndex":
        """A frontier born packed (the vectorized absorb path kept the
        round's fresh rows as one int64 per row).  The raw view
        materializes lazily — a round handled entirely by the
        vectorized kernels never pays for it."""
        self = cls.__new__(cls)
        self._rows = None
        self._groups = {}
        self._packed = packed
        self._relation = relation
        return self

    def all_rows(self) -> list:
        rows = self._rows
        if rows is None:
            rows = self._rows = self._relation.decode_packed(self._packed)
        return rows

    def packed_rows(self):
        """The frontier as one packed int64 per row, in ``all_rows``
        order (the vectorized kernels' delta feed), or None when
        packing is unavailable (no numpy, arity > 3, id overflow).

        A frontier the vectorized absorb path left is born packed
        (:meth:`from_packed`), so only tuple-path contributions
        (typically the naive round) are interned here.  Cached per
        frontier — shared by every rule probing it this round.
        """
        cached = self._packed
        if cached is not None:
            return None if cached is _PACK_FAIL else cached
        rows = self._rows
        arr = pack_rows(rows, len(rows[0]), global_dictionary()) if rows else None
        self._packed = arr if arr is not None else _PACK_FAIL
        return arr

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else len(self._packed)

    def lookup(self, positions: tuple[int, ...], key: tuple) -> list:
        """Frontier rows whose values at *positions* equal *key*."""
        if not positions:
            return self.all_rows()
        group = self._groups.get(positions)
        if group is None:
            group = {}
            post_rows(group, positions, self.all_rows())
            self._groups[positions] = group
        return group.get(tuple(key), _NO_ROWS)


def _plan_literal(atom: Atom, body_index: int, bound_vars: set[Variable]) -> LiteralPlan:
    bound_positions = []
    free_positions = []
    for p, arg in enumerate(atom.args):
        if isinstance(arg, Constant) or arg in bound_vars:
            bound_positions.append(p)
        else:
            free_positions.append((p, arg))
    return LiteralPlan(atom, body_index, tuple(bound_positions), tuple(free_positions))


def order_body(
    body: Sequence[Atom],
    first: Optional[int] = None,
    sizes: Optional[Mapping[str, int]] = None,
    cost_model=None,
    needed: frozenset = frozenset(),
) -> tuple[LiteralPlan, ...]:
    """Choose a join order and compute binding patterns.

    *first*, when given, forces that body index to the front — used by
    the semi-naive evaluator to start from the delta literal.  When
    *cost_model* is given (a :class:`repro.engine.cost.BoundCostModel`), the
    rest of the order comes from its bound-driven DP search over the
    remaining literals (*needed* is the rule's always-live variable
    set, which the model uses for the existential d-position cap); a
    model that declines — wide bodies past its DP limit — falls
    through to the greedy heuristic below, the planner's fallback rung.

    The greedy heuristic orders by most bound argument positions
    first, ties broken by smaller relation size (when *sizes* gives an
    estimate for the predicate; unknown predicates sort as largest).

    **Deterministic tie-break contract:** candidates equal on both
    criteria are taken in original body order.  The selection key ends
    in ``-i`` under ``max``, so the smallest body index always wins an
    exact tie; cost-model orders break exact-cost ties the same way
    (lexicographically smallest index sequence).  This is pinned by
    tests — cost-vs-greedy differentials rely on both planners being
    exactly reproducible, never on hash or insertion order.
    """
    remaining = list(range(len(body)))
    plans: list[LiteralPlan] = []
    bound_vars: set[Variable] = set()
    unknown = (max(sizes.values(), default=0) + 1) if sizes else 0

    def size_of(atom: Atom) -> int:
        if not sizes:
            return 0
        return sizes.get(atom.predicate, unknown)

    def take(i: int) -> None:
        remaining.remove(i)
        plan = _plan_literal(body[i], i, bound_vars)
        plans.append(plan)
        bound_vars.update(v for _, v in plan.free_positions)

    if first is not None:
        take(first)
    if cost_model is not None and remaining:
        order = cost_model.order_remaining(
            body, tuple(remaining), frozenset(bound_vars), needed
        )
        if order is not None:
            for i in order:
                take(i)
            return tuple(plans)
    while remaining:
        best = max(
            remaining,
            key=lambda i: (
                sum(
                    1
                    for arg in body[i].args
                    if isinstance(arg, Constant) or arg in bound_vars
                ),
                -size_of(body[i]),
                -i,
            ),
        )
        take(best)
    return tuple(plans)


@dataclass(frozen=True, slots=True)
class CompiledRule:
    """A rule together with its join plans.

    ``plan`` is the default (naive) plan; ``delta_plans[i]`` is the plan
    that starts from *relational* body literal *i*, used when that
    literal is matched against a delta relation during semi-naive
    evaluation.  Built-in comparison literals are split out into
    ``builtins`` and evaluated as filters once a match is complete
    (safety guarantees their variables are bound by then).
    """

    rule: Rule
    rule_index: int
    #: the body literals that denote stored relations, in body order
    relational_body: tuple[Atom, ...]
    #: evaluable comparison literals (lt/le/gt/ge/eq/neq)
    builtins: tuple[Atom, ...]
    plan: tuple[LiteralPlan, ...]
    delta_plans: tuple[tuple[LiteralPlan, ...], ...]
    #: the one memo: each plan's lowering and the executors generated
    #: from it, filled on first firing; a replanned clone starts empty
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def memoized(self, key: tuple, build):
        """``build()``, computed once per *key* for this rule."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def lowered(self, plan_id: Optional[int], use_indexes: bool = True) -> "Lowered":
        """The memoized :func:`lower` of one plan (``None``: naive)."""
        return self.memoized((plan_id, use_indexes), lambda: lower(self, plan_id, use_indexes))

    def delta_literals(self, recursive) -> tuple[tuple[int, str], ...]:
        """The relational body positions whose predicate is in
        *recursive* — i.e. can still change while the current fixpoint
        runs, so their delta plan must be fired each round.  The
        monolithic loop passes the stratum's head predicates; the
        component scheduler passes the unit's own SCC members, which is
        typically a much smaller set and prunes delta firings over
        frozen sibling components."""
        return tuple(
            (i, literal.predicate)
            for i, literal in enumerate(self.relational_body)
            if literal.predicate in recursive
        )


def _always_needed(rule: Rule, builtins: tuple[Atom, ...]) -> frozenset[Variable]:
    """Variables no plan step may treat as dead: the head's, the
    built-in filters', and the negated literals'."""
    return frozenset(
        a
        for atom in (rule.head, *builtins, *rule.negative)
        for a in atom.args
        if isinstance(a, Variable)
    )


def compile_rule(
    rule: Rule,
    rule_index: int,
    sizes: Optional[Mapping[str, int]] = None,
    cost_model=None,
) -> CompiledRule:
    """Compile *rule*: one naive plan plus one delta plan per
    relational literal; built-ins become post-match filters.  *sizes*
    (relation row counts) feeds the join-order selectivity heuristic;
    *cost_model*, when given, orders bodies by bound-driven DP search
    instead (:mod:`repro.engine.cost`), with the greedy heuristic as
    its fallback rung."""
    relational = tuple(a for a in rule.body if not is_builtin(a.predicate))
    builtins = tuple(a for a in rule.body if is_builtin(a.predicate))
    always_needed = _always_needed(rule, builtins)
    plan = order_body(relational, sizes=sizes, cost_model=cost_model, needed=always_needed)
    delta_plans = tuple(
        order_body(relational, first=i, sizes=sizes, cost_model=cost_model,
                   needed=always_needed)
        for i in range(len(relational))
    )
    return CompiledRule(rule, rule_index, relational, builtins, plan, delta_plans)


def replan_delta_plans(cr: CompiledRule, cost_model) -> CompiledRule:
    """*cr* with every delta plan re-ordered by *cost_model*.

    The adaptive replanner calls this between fixpoint rounds with a
    model built from observed cardinalities.  The naive plan is left
    untouched (it already ran); only the delta plans — the per-round
    hot path — are re-ranked.  Returns *cr* itself when every order is
    unchanged, so kernels memoized on the object survive no-op
    replans; otherwise a fresh :class:`CompiledRule` whose kernels are
    re-generated on demand (amortized by the process-wide source-text
    cache in :mod:`repro.engine.kernel`).
    """
    always_needed = _always_needed(cr.rule, cr.builtins)
    delta_plans = tuple(
        order_body(cr.relational_body, first=i, cost_model=cost_model, needed=always_needed)
        for i in range(len(cr.relational_body))
    )
    if delta_plans == cr.delta_plans:
        return cr
    return replace(cr, delta_plans=delta_plans)


# ---------------------------------------------------------------------------
# lowering: the one form every executor consumes
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    """How one body literal is read, in plan order.

    ``kind`` is the access method:

    - ``delta``: the semi-naive frontier (a delta plan's first step);
    - ``member``: a fully bound literal with indexes on — the key *is*
      the candidate row, so the row set answers the probe and no
      whole-relation index is built to return at most one row;
    - ``lookup``: the relation's hash index on ``positions``;
    - ``scan``: no position bound, so enumerate the whole relation;
    - ``filter``: bound positions under ``use_indexes=False`` (the
      ``--no-index`` baseline): enumerate the whole relation and
      compare each row's ``positions`` with ``key``.

    ``key`` holds one term per bound position: a register number, or a
    :class:`Constant`.  ``binds`` assign registers from a row's free
    positions; ``checks`` compare a repeated free variable's later
    positions with the register its first position bound.  ``cut`` is
    the existential first-match cut (see :func:`lower`).  ``fail`` is
    what a kernel does when the step's relation is absent: abandon the
    candidate of the innermost open loop — ``continue`` it, ``break``
    it when that loop is a cut, ``return`` when none is open.
    """

    kind: str
    predicate: str
    body_index: int
    positions: tuple[int, ...]
    key: tuple
    binds: tuple[tuple[int, int], ...]
    checks: tuple[tuple[int, int], ...]
    cut: bool
    fail: str


class Lowered(NamedTuple):
    """One plan of one compiled rule, lowered: the steps, then the
    post-match filters and the head, all over numbered registers, and
    what a justification of a derived fact names."""

    steps: tuple[Step, ...]
    #: register number -> the variable it holds, in first-binding order
    registers: tuple[Variable, ...]
    #: ``(built-in name, term, term)`` comparison filters
    builtins: tuple[tuple, ...]
    #: ``(predicate, key terms)`` of each negated literal
    negated: tuple[tuple[str, tuple], ...]
    head: tuple
    #: the ``fail`` action of a failed built-in or negation check
    fail: str
    #: the head's predicate and the rule's index, as a justification names them
    head_predicate: str
    rule_index: int


def lower(cr: CompiledRule, plan_id: Optional[int], use_indexes: bool = True) -> Lowered:
    """Lower the naive plan (``plan_id=None``) or delta plan *plan_id*
    of *cr* — the one place that decides the register map, each step's
    access method, the existential cut and the absent-relation action.

    Registers are numbered in first-binding order across the steps.  A
    step is a cut when every variable it newly binds is dead — unused
    by later steps, the head, built-ins and negated literals — so any
    one matching row produces the same downstream work and the first
    is enough.  This keeps dead existential variables (the hallmark of
    the paper's queries, and a frequent by-product of unfolding) from
    cross-multiplying into duplicate rule firings.
    """
    plans = cr.plan if plan_id is None else cr.delta_plans[plan_id]
    registers: dict[Variable, int] = {}

    def term(t):
        if isinstance(t, Constant):
            return t
        r = registers.get(t)
        if r is None:
            raise ValidationError(f"variable {t} is never bound by a plan of {cr.rule}")
        return r

    shapes = []  # per step: (key, binds, checks)
    for plan in plans:
        key = tuple(term(plan.atom.args[p]) for p in plan.bound_positions)
        binds, checks = [], []
        for p, var in plan.free_positions:
            n = len(registers)
            r = registers.setdefault(var, n)
            (binds if r == n else checks).append((p, r))
        shapes.append((key, tuple(binds), tuple(checks)))
    builtins = tuple((a.predicate, *map(term, a.args)) for a in cr.builtins)
    negated = tuple((a.predicate, tuple(map(term, a.args))) for a in cr.rule.negative)
    head = tuple(map(term, cr.rule.head.args))

    # the cut, scanning backwards over what later steps still read
    reads = [*head, *(t for b in builtins for t in b[1:]), *(t for n in negated for t in n[1])]
    needed = {t for t in reads if type(t) is int}
    cuts = []
    for key, binds, _ in reversed(shapes):
        cuts.append(bool(binds) and needed.isdisjoint(r for _, r in binds))
        needed.update(r for _, r in binds)
        needed.update(t for t in key if type(t) is int)
    cuts.reverse()

    steps = []
    fail = "return"
    for i, (plan, (key, binds, checks), cut) in enumerate(zip(plans, shapes, cuts)):
        if i == 0 and plan_id is not None:
            kind = "delta"
        elif not plan.bound_positions:
            kind = "scan"
        elif not use_indexes:
            kind = "filter"
        elif binds:
            kind = "lookup"
        else:
            kind = "member"
        steps.append(Step(kind, plan.atom.predicate, plan.body_index,
                          plan.bound_positions, key, binds, checks, cut, fail))
        if kind != "member":  # a membership probe opens no loop
            fail = "break" if cut else "continue"
    return Lowered(tuple(steps), tuple(registers), builtins, negated, head, fail,
                   cr.rule.head.predicate, cr.rule_index)


def interpret(
    low: Lowered,
    db: Database,
    stats: EvalStats,
    delta: Optional[DeltaIndex],
    head: Relation,
    new: set,
    provenance: Optional[dict],
) -> None:
    """Evaluate *low* over one register list: the reference executor
    (``use_kernels=False`` / ``--no-kernel``), called like a tuple
    kernel, which every generated kernel matches on answers, derivation
    order and counters.

    Each rule firing's head row is absorbed at once: a row already in
    the relation *head* counts as a duplicate, a new one goes into
    *head* and the frontier set *new* and, when *provenance* is a dict,
    its first justification is recorded there, body rows in relational
    body order.  Each insert is visible to the enumeration still
    running (a lookup on the rule's own head walks the live posting
    list).  An absent relation ends its step before any probe is
    charged; a cut step stops after its first matching row, whether or
    not anything downstream fired.
    """
    steps = low.steps
    regs: list = [None] * len(low.registers)
    rows: list = [None] * len(steps)
    body: list = [None] * len(steps)  # predicates, in relational body order
    for step in steps:
        body[step.body_index] = step.predicate
    rels = [db.relation(s.predicate) for s in steps]
    negated = [(db.relation(p), key) for p, key in low.negated]

    def values(terms) -> tuple:
        return tuple([regs[t] if t.__class__ is int else t.value for t in terms])

    def match(i: int) -> None:
        if i == len(steps):
            for name, a, b in low.builtins:
                if not BUILTINS[name](*values((a, b))):
                    return
            for rel, key in negated:
                stats.join_probes += 1
                if rel is not None and values(key) in rel:
                    return
            stats.rule_firings += 1
            h = values(low.head)
            if not head.add(h):
                stats.duplicates += 1
                return
            stats.facts_derived += 1
            new.add(h)
            if provenance is not None:
                provenance[(low.head_predicate, h)] = Justification(
                    low.rule_index, tuple(zip(body, rows))
                )
            return
        s = steps[i]
        kind, rel = s.kind, rels[i]
        key = values(s.key)
        if kind == "delta":
            stats.join_probes += 1
            candidates = delta.lookup(s.positions, key)
        elif rel is None:
            return
        else:
            stats.join_probes += 1
            if kind == "lookup":
                stats.index_probes += 1
                candidates = rel.lookup(s.positions, key)
            elif kind == "member":
                stats.index_probes += 1
                candidates = (key,) if key in rel else ()
            else:
                stats.scan_fallbacks += 1
                candidates = list(rel)
        filtered = kind == "filter"
        for row in candidates:
            stats.rows_scanned += 1
            if filtered and tuple([row[p] for p in s.positions]) != key:
                continue
            for p, r in s.binds:
                regs[r] = row[p]
            if s.checks and any(row[p] != regs[r] for p, r in s.checks):
                continue
            rows[s.body_index] = row
            match(i + 1)
            if s.cut:
                return

    match(0)
