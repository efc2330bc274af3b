"""Bound-driven cost-based join ordering (the ROADMAP's planner item).

The paper's adornment machinery (Size Bound-Adorned Datalog in the
related work; PostBOUND for the modern discipline) gives each adorned
literal a **cardinality upper bound** over the EDB: a literal probed
with some positions bound can never deliver more rows per probe than
the largest posting list on those positions.  The greedy heuristic in
:func:`repro.engine.plan.order_body` only sees *relation sizes*, so it
loses badly on skewed inputs where a small relation fans out — the
classic trap is a tiny dimension table whose join key always hits the
fact table's hub key.

:class:`BoundCostModel` replaces that heuristic with true upper-bound
propagation:

- every stored relation is profiled (:func:`profile_database`; one
  counting pass per content version, memoized on the relation) into
  its size and, per argument position, the **maximum degree** — the
  largest number of rows sharing one value at that position;
- a literal reached with bound positions ``B`` contributes at most
  ``min(size, min(degree[p] for p in B))`` rows per binding (and at
  most one row when *every* position is bound: the probe is a
  membership test).  Constants count as bound positions, and a
  variable bound earlier binds **all** of its occurrences — repeated
  variables inside one literal (the adornment literature's same-side
  hidden links) therefore tighten the bound to the smallest degree
  over all linked positions;
- a literal whose newly bound variables are all *dead* — unused by the
  head, built-ins, negation, and every remaining literal — is an
  existential (``d``-position) step: the engine's first-match cut
  stops at one witness, so its contribution is capped at **1 per
  binding** regardless of degree;
- the join order is chosen by a bottom-up dynamic program over literal
  subsets (Held–Karp over variable bitsets: every subset is visited,
  nothing is pruned, and the variables a subset binds are one int)
  that minimizes the **summed intermediate-result bound**; exact ties
  are broken by the lexicographically smallest order, i.e. original
  body order, so plans are fully deterministic.

Profiles are **log-bucketed** (:func:`bucket_size`) before the model
ever sees them: two databases whose relations fall in the same buckets
produce byte-identical plans, which is what lets the prepared-program
cache key on :meth:`BoundCostModel.signature` instead of exact sizes.

:class:`RelationProfile` is the one cardinality abstraction — the
engine plans from it, the analyzer's cardinality domain propagates it,
DL017 / DL021 price rules with it — and
:meth:`BoundCostModel.bound_walk` the one place a body is priced.

The greedy path stays as the fallback rung: the model declines bodies
longer than :data:`DP_LITERAL_LIMIT` (returning ``None``), and
``EngineOptions.use_cost_planner=False`` (the CLI's
``--no-cost-planner``) disables the model entirely — the differential
oracle for the planner itself.  Join order never changes *answers*:
semi-naive rounds insert into set-semantics relations, so answers and
per-predicate fact counts are bit-identical under every order; only
the work counters move.

:class:`AdaptiveReplanner` adds the inter-round feedback loop: between
fixpoint rounds of a recursive unit it folds the observed delta
cardinalities into exponentially-decayed per-relation estimates and,
when a relation's size bucket moved, re-ranks every delta plan through
the same DP (``stats.replans``; the prediction error it observes on
the way is ``stats.bound_overestimate_max``) without counting a row
(:meth:`AdaptiveReplanner.model_for`).  Replanned rules re-enter kernel
codegen through the process-wide source-text caches, so a re-ranked
plan whose order was seen before costs no recompilation.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from ..datalog.analysis import anchored, body_components
from ..datalog.ast import Atom, Rule
from ..datalog.builtins import is_builtin
from ..datalog.database import Database
from ..datalog.terms import Constant, Variable

__all__ = [
    "BoundCostModel",
    "AdaptiveReplanner",
    "RelationProfile",
    "profile_database",
    "bucket_size",
    "rule_model",
    "rule_intermediate_bound",
    "DP_LITERAL_LIMIT",
    "DEFAULT_SIZE",
    "DEFAULT_FANOUT",
]


#: bodies with more relational literals than this skip the exact DP and
#: fall back to the greedy heuristic (2^n subset states)
DP_LITERAL_LIMIT = 10

#: rows a relation nobody counted is assumed to hold (the no-EDB bound
#: of lint DL017 and of the analyzer's cardinality domain)
DEFAULT_SIZE = 1000

#: per-key fanout assumed with it: a bound position is assumed to
#: deliver at most this many rows per probe (a mildly skewed relation)
DEFAULT_FANOUT = 4

_INF = float("inf")


def bucket_size(n: int) -> int:
    """*n* rounded up to its power-of-two bucket representative.

    Buckets are ``[2^(k-1), 2^k)`` by bit length; the representative is
    the bucket's inclusive maximum ``2^k - 1`` (0 for an empty
    relation), so the representative is always an upper bound of the
    true count and bucketing preserves order up to ties.
    """
    return (1 << n.bit_length()) - 1 if n > 0 else 0


class RelationProfile:
    """One relation's bound statistics: size and per-position max degree.

    ``degree[p]`` bounds the rows any single value can match at
    position *p*; counted values are stored log-bucketed
    (:func:`bucket_size`) so profiles — and the plans derived from
    them — are stable under small EDB growth.  ``measured`` is ``True``
    only when every input the value was computed from was counted on
    real rows (and no saturation occurred) — assumed relations and
    saturated recursive estimates are not, and DL021 / DL022 only ever
    fire on measured profiles.  ``raw_size`` / ``raw_degree`` keep the
    exact pre-bucket counts of a counted relation (0 / () otherwise);
    like ``measured`` they never reach the planner's
    :meth:`signature`, and they do not participate in equality.
    """

    __slots__ = ("size", "degree", "measured", "raw_size", "raw_degree")

    def __init__(
        self,
        size: int,
        degree: tuple[int, ...],
        measured: bool = False,
        raw_size: int = 0,
        raw_degree: tuple[int, ...] = (),
    ):
        self.size = size
        self.degree = degree
        self.measured = measured
        self.raw_size = raw_size
        self.raw_degree = raw_degree

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationProfile)
            and self.size == other.size
            and self.degree == other.degree
            and self.measured == other.measured
        )

    def __hash__(self) -> int:
        return hash((self.size, self.degree, self.measured))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "measured" if self.measured else "assumed"
        return f"RelationProfile({self.size}, {self.degree}, {tag})"

    def signature(self) -> tuple:
        return (self.size, self.degree)

    @classmethod
    def from_counts(cls, size: int, degrees: Sequence[int]) -> "RelationProfile":
        """A measured profile from exact (row count, max degree) counts —
        the shape :meth:`Relation.degree_profile` returns."""
        return cls(
            bucket_size(size),
            tuple(bucket_size(d) for d in degrees),
            measured=True,
            raw_size=size,
            raw_degree=tuple(degrees),
        )

    @classmethod
    def assumed(
        cls, arity: int, size: int = DEFAULT_SIZE, degree: int = DEFAULT_FANOUT
    ) -> "RelationProfile":
        """A relation nobody counted: *size* rows, every position's max
        degree *degree*.  The defaults are the no-EDB assumption;
        worst-case callers (an IDB relation before or during its
        fixpoint) pass ``degree=size`` — any value may repeat up to the
        full assumed size."""
        return cls(size, (degree,) * arity)

    def join(self, other: "RelationProfile") -> "RelationProfile":
        """Pointwise max — the bound of whichever relation is larger."""
        degree = tuple(max(a, b) for a, b in zip(self.degree, other.degree))
        if len(self.degree) != len(other.degree):
            longer = max((self.degree, other.degree), key=len)
            degree = degree + longer[len(degree):]
        return RelationProfile(
            max(self.size, other.size), degree,
            self.measured and other.measured,
        )

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "degree": list(self.degree),
            "measured": self.measured,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RelationProfile":
        return cls(
            int(data["size"]),
            tuple(int(d) for d in data["degree"]),
            bool(data.get("measured", False)),
        )


def profile_database(
    db: Database, sizes: Optional[Mapping[str, int]] = None
) -> dict[str, RelationProfile]:
    """Profile every stored relation of *db*.

    *sizes* overrides the row count used for a predicate's size bucket
    (:func:`~repro.engine.prepared.planning_inputs` passes its
    IDB-bumped size map so empty derived relations are treated as
    large, exactly like the greedy heuristic); the per-position
    degrees always come from the rows actually stored.
    """
    out: dict[str, RelationProfile] = {}
    for pred in db.predicates():
        rel = db.relation(pred)
        profile = RelationProfile.from_counts(*rel.degree_profile())
        n = (sizes or {}).get(pred, profile.raw_size)
        if n != profile.raw_size:
            # an assumed size is no measurement; with nothing stored
            # yet (typically an IDB predicate before the fixpoint) the
            # degrees are assumed too — worst case
            size = bucket_size(n)
            profile = (
                RelationProfile(size, profile.degree)
                if profile.raw_size
                else RelationProfile.assumed(rel.arity, size, size)
            )
        out[pred] = profile
    return out


class BoundCostModel:
    """Upper-bound propagation + DP order search over profiled relations.

    :func:`repro.engine.plan.order_body` calls :meth:`order_remaining`;
    :meth:`signature` captures every input the ordering depends on — it
    becomes part of the prepared-program cache key, and two models with
    equal signatures order every body identically.
    """

    name = "bound"
    version = 1

    def __init__(self, profiles: Mapping[str, RelationProfile]):
        self.profiles = dict(profiles)
        # never-profiled predicates plan as "bigger than anything
        # stored", worst degree — mirroring the greedy heuristic
        self._unknown = RelationProfile.assumed(
            0, max((p.size for p in self.profiles.values()), default=0) + 1
        )
        #: bodies this instance actually ordered (read back into
        #: ``stats.plans_costed`` by the evaluator / replanner)
        self.plans_costed = 0

    def signature(self) -> tuple:
        return (
            self.name,
            self.version,
            tuple(
                (pred, self.profiles[pred].signature())
                for pred in sorted(self.profiles)
            ),
        )

    # -- bound propagation --------------------------------------------------

    def literal_bound(self, atom: Atom, bound_vars, later) -> float:
        """Upper bound on rows one probe of *atom* delivers when the
        variables in *bound_vars* (plus constants) are bound and
        *later* holds every variable something downstream still reads
        (the head, built-ins, negation, the literals not yet placed)."""
        profile = self.profiles.get(atom.predicate, self._unknown)
        bound = float(profile.size)
        live = False
        for p, arg in enumerate(atom.args):
            if isinstance(arg, Constant) or arg in bound_vars:
                if p < len(profile.degree):
                    d = float(profile.degree[p])
                    if d < bound:
                        bound = d
            elif arg in later:
                live = True
        if live:
            return bound
        # no free position (a membership test), or free positions
        # nothing reads (an existential ``d``-position step: the
        # first-match cut stops at one witness): one row per binding
        return min(bound, 1.0)

    # -- DP order search ----------------------------------------------------

    def order_remaining(
        self,
        body: Sequence[Atom],
        remaining: Sequence[int],
        bound_vars: frozenset,
        needed: frozenset,
    ) -> Optional[tuple[int, ...]]:
        """The cheapest order of the *remaining* indexes of *body*,
        given the variables already bound (by a forced-first delta
        literal, if any) and the *needed* variable set (head,
        built-ins, negation) — or ``None`` to decline, and the caller
        runs the greedy heuristic (the fallback rung)."""
        k = len(remaining)
        if k > DP_LITERAL_LIMIT:
            return None
        self.plans_costed += 1
        if k <= 1:
            return tuple(remaining)

        # one bit per variable of the remaining literals; per literal
        # j: its variable mask, the bound its size and constants give,
        # and (variable bit, smallest degree at that variable's
        # positions) pairs — literal_bound taken apart once
        bit_of: dict[Variable, int] = {}
        var_mask: list[int] = []
        base: list[float] = []
        var_degree: list[tuple[tuple[int, float], ...]] = []
        for i in remaining:
            profile = self.profiles.get(body[i].predicate, self._unknown)
            degree = profile.degree
            low = float(profile.size)
            per_var: dict[int, float] = {}
            for p, arg in enumerate(body[i].args):
                d = float(degree[p]) if p < len(degree) else _INF
                if isinstance(arg, Constant):
                    low = min(low, d)
                else:
                    bit = bit_of.setdefault(arg, 1 << len(bit_of))
                    per_var[bit] = min(per_var.get(bit, _INF), d)
            var_mask.append(sum(per_var))
            base.append(low)
            var_degree.append(tuple(per_var.items()))
        # the bound literal j delivers depends only on which of its
        # variables are bound: memo[j][bound & var_mask[j]]
        memo: list[dict[int, float]] = [{} for _ in range(k)]

        full = (1 << k) - 1
        # vars_of[mask]: variables bound once the literals in *mask*
        # (plus any forced-first literal) have been placed
        vars_of = [0] * (full + 1)
        vars_of[0] = sum(b for v, b in bit_of.items() if v in bound_vars)
        for mask in range(1, full + 1):
            low_bit = mask & -mask
            vars_of[mask] = vars_of[mask ^ low_bit] | var_mask[low_bit.bit_length() - 1]
        needed_bits = sum(b for v, b in bit_of.items() if v in needed)

        # ascending masks visit every submask before its supersets; the
        # order tuples are compared only on an exact cost tie, so the
        # winner is the (cost, order)-smallest candidate
        best_cost = [0.0] * (full + 1)
        best_card = [1.0] * (full + 1)
        best_order: list[tuple[int, ...]] = [()] * (full + 1)
        for mask in range(1, full + 1):
            # variables that keep new bindings alive when the literals
            # *not yet placed* are exactly the complement of mask — the
            # DP analogue of the lowering's backward cut scan
            later = needed_bits | vars_of[full ^ mask]
            choice_prev = choice_j = -1
            choice_cost = choice_card = 0.0
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = bit.bit_length() - 1
                prev = mask ^ bit
                bound = vars_of[prev]
                vm = var_mask[j]
                key = bound & vm
                lb = memo[j].get(key)
                if lb is None:
                    lb = base[j]
                    for vbit, d in var_degree[j]:
                        if key & vbit and d < lb:
                            lb = d
                    memo[j][key] = lb
                if not vm & ~bound & later:
                    # a membership test or an existential step: one
                    # row per binding
                    lb = min(lb, 1.0)
                new_card = best_card[prev] * lb
                cost = best_cost[prev] + new_card
                # on a tie the orders placed before the last literal
                # decide: they cover different sets, so they differ
                if (
                    choice_j < 0
                    or cost < choice_cost
                    or (cost == choice_cost and best_order[prev] < best_order[choice_prev])
                ):
                    choice_prev, choice_j, choice_cost = prev, j, cost
                    choice_card = new_card
            best_cost[mask] = choice_cost
            best_card[mask] = choice_card
            best_order[mask] = best_order[choice_prev] + (remaining[choice_j],)
        return best_order[full]

    def bound_walk(
        self,
        body: Sequence[Atom],
        needed: Iterable[Variable],
        bound: frozenset = frozenset(),
    ) -> tuple[tuple[int, ...], float, float]:
        """Price *body* — the one walk DL017, DL021 and the cardinality
        domain all read: ``(order, final, worst)``.

        Body components (:func:`~repro.datalog.analysis.body_components`)
        that reach no *needed* variable are purely existential — the
        Lemma 3.1 cut evaluates each once as a boolean subquery before
        the join ever runs — so they are dropped; the rest is ordered by
        the DP (body order past :data:`DP_LITERAL_LIMIT`) starting from
        the *bound* variables, and the per-literal bounds are multiplied
        along it: *order* indexes the priced literals in *body*, *final*
        bounds the distinct *needed* bindings the body delivers, *worst*
        is the largest intermediate cardinality on the way.  A body with
        nothing left to price is one boolean test: ``((), 1.0, 1.0)``.
        """
        needed = frozenset(needed)
        live = tuple(sorted(
            i
            for comp in body_components(body)
            if anchored(body, comp, needed)
            for i in comp
        ))
        if not live:
            return (), 1.0, 1.0
        order = self.order_remaining(body, live, bound, needed) or live
        bound_vars = set(bound)
        card, worst = 1.0, 0.0
        for pos, i in enumerate(order):
            later = needed.union(*(body[j].variables() for j in order[pos + 1:]))
            card *= self.literal_bound(body[i], bound_vars, later)
            worst = max(worst, card)
            bound_vars.update(body[i].variables())
        return order, card, worst


def rule_model(
    rule: Rule,
    needed: Optional[Iterable[Variable]] = None,
    profiles: Optional[Mapping[str, RelationProfile]] = None,
) -> tuple[list[Atom], frozenset, BoundCostModel]:
    """What :meth:`BoundCostModel.bound_walk` needs to price *rule*:
    its relational literals, the variables a result row must carry,
    and a model over the body's predicates.

    The carried variables are *needed* (default: the head's variables;
    callers pricing an **adorned** rule pass the variables at the
    head's ``n`` positions, so ``d``-position components are priced as
    the cut the optimizer will apply) plus those of negated literals
    and built-ins.  Each body predicate is priced from *profiles* —
    looked up by the literal's name, then by its unmangled base name so
    adorned rules find their EDB literals' measured profiles — and as a
    :meth:`RelationProfile.assumed` relation when it has none.
    """
    from ..core.adornment import split_adorned

    body = [a for a in rule.body if not is_builtin(a.predicate)]
    live = set(rule.head.variables() if needed is None else needed)
    for atom in rule.negative:
        live.update(atom.variables())
    for atom in rule.body:
        if is_builtin(atom.predicate):
            live.update(atom.variables())
    known = profiles or {}
    model = BoundCostModel({
        a.predicate: known.get(a.predicate)
        or known.get(split_adorned(a.predicate)[0])
        or RelationProfile.assumed(len(a.args))
        for a in body
    })
    return body, frozenset(live), model


def rule_intermediate_bound(
    rule: Rule, needed: Optional[Iterable[Variable]] = None
) -> float:
    """The static intermediate-result bound of *rule* under the
    synthetic profile: the **largest intermediate cardinality along the
    best order** the DP finds (:meth:`BoundCostModel.bound_walk` over
    :func:`rule_model`), the walk lint DL017 prices with.

    Chains stay near the relation size (each step multiplies by the
    fanout at most), purely existential components collapse to 1, and
    bodies that force a *needed* Cartesian product blow up
    multiplicatively, which is exactly what lint DL017 flags.
    """
    body, live, model = rule_model(rule, needed)
    return model.bound_walk(body, live)[2] if body else 0.0


class AdaptiveReplanner:
    """Inter-round delta-plan re-ranking from observed cardinalities.

    One instance serves one semi-naive fixpoint (a recursive evaluation
    unit, or one monolithic stratum loop) and is never shared across
    threads.  Each round the loop reports the frontier sizes it is
    about to consume (:meth:`observe`); every *every* rounds
    (``EngineOptions.replan_rounds``) the replanner folds the
    exponentially-decayed frontier estimates into the member
    predicates' effective sizes and, if a size bucket moved, asks the
    cost model's DP for fresh delta plans (:meth:`model_for`).

    Replan decisions are functions of frontier sizes, relation lengths
    and the loop's frozen inputs only — all bit-identical across the
    vector/kernel/interpreter tiers — so every tier replans identically
    and the engine-invariant counters stay comparable.  Join order
    never changes which facts a round derives, so answers and fact
    counts are unaffected by construction.
    """

    #: exponential-decay factor for the per-relation frontier estimate
    DECAY = 0.5

    def __init__(self, every: int, members: frozenset[str]):
        self.every = max(1, int(every))
        self.members = members
        self.estimates: dict[str, float] = {}
        self.rounds = 0
        #: worst predicted/observed frontier ratio seen (>= 1.0 once
        #: any prediction existed; the planner counter)
        self.overestimate_max = 0.0
        #: bucketed effective sizes at the last model build — when a
        #: due replan finds them unchanged, the DP would see the same
        #: inputs and produce the same orders
        self._last_buckets: Optional[dict] = None

    def observe(self, frontier_sizes: Mapping[str, int]) -> None:
        """Fold one round's true delta cardinalities into the decayed
        estimates, recording the prediction error first."""
        self.rounds += 1
        for pred, observed in frontier_sizes.items():
            predicted = self.estimates.get(pred)
            if predicted is not None and observed > 0:
                ratio = max(predicted, 1.0) / float(observed)
                if ratio > self.overestimate_max:
                    self.overestimate_max = ratio
            old = self.estimates.get(pred, float(observed))
            self.estimates[pred] = (
                self.DECAY * old + (1.0 - self.DECAY) * float(observed)
            )

    def model_for(
        self, db: Database, predicates: Iterable[str]
    ) -> Optional[BoundCostModel]:
        """A fresh cost model over the relations in *predicates* (the
        calling fixpoint's own reads and writes — never sibling units'
        relations, which may be mid-write), or ``None`` when no replan
        is due this round or every effective size is still in the
        bucket it was at the last build: planning consumes bucket
        representatives, so the DP would reproduce the previous orders.

        No row is counted here.  A member predicate — still growing —
        is priced exactly as ``evaluate`` prices an empty IDB relation:
        its length raised by its expected frontier (anticipated growth
        keeps recursive relations planned large), worst-case degree.
        Everything else is a frozen input (EDB, or a completed lower
        unit's relation — neither can change while the loop runs) read
        through :meth:`Relation.degree_profile`'s memo."""
        if self.rounds % self.every:
            return None
        buckets: dict[str, int] = {}
        for pred in predicates:
            rel = db.relation(pred)
            if rel is not None:
                n = len(rel)
                if pred in self.members:
                    n += int(self.estimates.get(pred, 0.0))
                buckets[pred] = bucket_size(n)
        if buckets == self._last_buckets:
            return None
        self._last_buckets = buckets
        profiles = {}
        for pred, size in buckets.items():
            rel = db.relation(pred)
            profiles[pred] = (
                RelationProfile.assumed(rel.arity, size, size)
                if pred in self.members
                else RelationProfile.from_counts(*rel.degree_profile())
            )
        return BoundCostModel(profiles)
