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

- every stored relation is profiled once per evaluation
  (:func:`profile_database`) into its size and, per argument position,
  the **maximum degree** — the largest number of rows sharing one
  value at that position;
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
  subsets (Held–Karp over the body, branch-and-bound pruned) that
  minimizes the **summed intermediate-result bound**; exact ties are
  broken by the lexicographically smallest order, i.e. original body
  order, so plans are fully deterministic.

Profiles are **log-bucketed** (:func:`bucket_size`) before the model
ever sees them: two databases whose relations fall in the same buckets
produce byte-identical plans, which is what lets the prepared-program
cache key on :meth:`BoundCostModel.signature` instead of exact sizes.

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
cardinalities into exponentially-decayed per-relation estimates,
re-profiles the unit's grown relations, and re-ranks every delta plan
through the same DP (``stats.replans``; the prediction error it
observes on the way is ``stats.bound_overestimate_max``).  Replanned
rules re-enter kernel codegen through the process-wide source-text
caches, so a re-ranked plan whose order was seen before costs no
recompilation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..datalog.ast import Atom, Rule
from ..datalog.database import Database
from ..datalog.terms import Constant, Variable

__all__ = [
    "CostModel",
    "BoundCostModel",
    "AdaptiveReplanner",
    "RelationProfile",
    "profile_database",
    "bucket_size",
    "rule_intermediate_bound",
    "DP_LITERAL_LIMIT",
    "DEFAULT_SIZE",
    "DEFAULT_FANOUT",
]


#: bodies with more relational literals than this skip the exact DP and
#: fall back to the greedy heuristic (2^n subset states)
DP_LITERAL_LIMIT = 10

#: synthetic relation size assumed by the static (no-EDB) bound used by
#: lint DL017
DEFAULT_SIZE = 1000

#: synthetic per-key fanout assumed by the static bound: a bound
#: position is assumed to deliver at most this many rows per probe
DEFAULT_FANOUT = 4


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
    position *p*; both it and ``size`` are stored log-bucketed
    (:func:`bucket_size`) so profiles — and the plans derived from
    them — are stable under small EDB growth.
    """

    __slots__ = ("size", "degree")

    def __init__(self, size: int, degree: tuple[int, ...]):
        self.size = size
        self.degree = degree

    def signature(self) -> tuple:
        return (self.size, self.degree)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], arity: int, size: int) -> "RelationProfile":
        counts: list[dict] = [{} for _ in range(arity)]
        for row in rows:
            for p in range(arity):
                c = counts[p]
                v = row[p]
                c[v] = c.get(v, 0) + 1
        degree = tuple(
            bucket_size(max(c.values(), default=0)) for c in counts
        )
        return cls(bucket_size(size), degree)


def profile_database(
    db: Database,
    sizes: Optional[Mapping[str, int]] = None,
    predicates: Optional[Iterable[str]] = None,
) -> dict[str, RelationProfile]:
    """Profile every stored relation of *db* (or just *predicates*).

    *sizes* overrides the row count used for a predicate's size bucket
    (the evaluator passes its IDB-bumped size map so empty derived
    relations are treated as large, exactly like the greedy
    heuristic); the per-position degrees always come from the rows
    actually stored.
    """
    out: dict[str, RelationProfile] = {}
    names = predicates if predicates is not None else db.predicates()
    for pred in names:
        rel = db.relation(pred)
        if rel is None:
            continue
        count, degrees = rel.degree_profile()
        n = (sizes or {}).get(pred, count)
        if count:
            profile = RelationProfile(
                bucket_size(n), tuple(bucket_size(d) for d in degrees)
            )
        else:
            # nothing stored yet (typically an IDB predicate before the
            # fixpoint): assume the worst degree — any value may repeat
            # up to the full assumed size
            size = bucket_size(n)
            profile = RelationProfile(
                size, tuple(size for _ in range(rel.arity))
            )
        out[pred] = profile
    return out


class CostModel:
    """The planner contract :func:`repro.engine.plan.order_body` calls.

    ``order_remaining`` receives the body, the not-yet-placed literal
    indexes, the variables already bound (by a forced-first delta
    literal, if any), and the *needed* variable set (head, built-ins,
    negation).  It returns the chosen order of the remaining indexes,
    or ``None`` to decline — the caller then runs the greedy heuristic
    (the fallback rung).  ``signature`` must capture every input the
    ordering depends on: it becomes part of the prepared-program cache
    key, and two models with equal signatures must order every body
    identically.
    """

    def signature(self) -> tuple:
        raise NotImplementedError

    def order_remaining(
        self,
        body: Sequence[Atom],
        remaining: Sequence[int],
        bound_vars: frozenset,
        needed: frozenset,
    ) -> Optional[tuple[int, ...]]:
        raise NotImplementedError


class BoundCostModel(CostModel):
    """Upper-bound propagation + DP order search over profiled relations."""

    name = "bound"
    version = 1

    def __init__(self, profiles: Mapping[str, RelationProfile]):
        self.profiles = dict(profiles)
        # largest profiled size + 1: unknown predicates plan as "bigger
        # than anything stored", mirroring the greedy heuristic
        self._unknown = max(
            (p.size for p in self.profiles.values()), default=0
        ) + 1
        #: bodies this instance actually ordered (read back into
        #: ``stats.plans_costed`` by the evaluator / replanner)
        self.plans_costed = 0

    @classmethod
    def from_database(
        cls,
        db: Database,
        sizes: Optional[Mapping[str, int]] = None,
        predicates: Optional[Iterable[str]] = None,
    ) -> "BoundCostModel":
        return cls(profile_database(db, sizes, predicates))

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

    def _profile(self, predicate: str) -> RelationProfile:
        profile = self.profiles.get(predicate)
        if profile is None:
            # never-profiled predicate: size-only pessimism, worst degree
            profile = RelationProfile(self._unknown, ())
        return profile

    def literal_bound(self, atom: Atom, bound_vars: frozenset) -> float:
        """Upper bound on rows one probe of *atom* delivers when the
        variables in *bound_vars* (plus constants) are bound."""
        profile = self._profile(atom.predicate)
        bound = float(profile.size)
        free = 0
        for p, arg in enumerate(atom.args):
            if isinstance(arg, Constant) or arg in bound_vars:
                if p < len(profile.degree):
                    d = float(profile.degree[p])
                    if d < bound:
                        bound = d
            else:
                free += 1
        if not free:
            # fully bound: the probe is a membership test
            return min(bound, 1.0)
        return bound

    # -- DP order search ----------------------------------------------------

    def order_remaining(
        self,
        body: Sequence[Atom],
        remaining: Sequence[int],
        bound_vars: frozenset,
        needed: frozenset,
    ) -> Optional[tuple[int, ...]]:
        k = len(remaining)
        if k > DP_LITERAL_LIMIT:
            return None  # fallback rung: greedy handles wide bodies
        self.plans_costed += 1
        if k <= 1:
            return tuple(remaining)

        items = list(remaining)
        item_vars = [
            frozenset(v for v in body[i].args if isinstance(v, Variable))
            for i in items
        ]
        full = (1 << k) - 1
        base_needed = frozenset(needed)
        # vars_of[mask]: variables bound once the literals in *mask*
        # (plus any forced-first literal) have been placed
        vars_of: list[frozenset] = [frozenset()] * (full + 1)
        vars_of[0] = frozenset(bound_vars)
        for mask in range(1, full + 1):
            low = mask & -mask
            vars_of[mask] = vars_of[mask ^ low] | item_vars[low.bit_length() - 1]
        # later_of[mask]: variables that keep new bindings alive when
        # the literals *not yet placed* are exactly the complement of
        # mask — the DP analogue of _mark_existential's backward scan
        later_of = [base_needed | vars_of[full ^ mask] for mask in range(full + 1)]

        # best[mask] = (cost, card, order); ascending masks visit every
        # submask before its supersets
        best: list[Optional[tuple[float, float, tuple[int, ...]]]] = (
            [None] * (full + 1)
        )
        best[0] = (0.0, 1.0, ())
        for mask in range(1, full + 1):
            choice: Optional[tuple[float, float, tuple[int, ...]]] = None
            for j in range(k):
                bit = 1 << j
                if not mask & bit:
                    continue
                prev = best[mask ^ bit]
                if prev is None:
                    continue
                cost, card, order = prev
                bv = vars_of[mask ^ bit]
                matches = self.literal_bound(body[items[j]], bv)
                new_vars = item_vars[j] - bv
                if new_vars and not (new_vars & later_of[mask]):
                    # existential step: the first-match cut delivers one
                    # witness per binding (the d-position cap)
                    matches = min(matches, 1.0)
                new_card = card * matches
                cand = (cost + new_card, new_card, order + (items[j],))
                if choice is None or (cand[0], cand[2]) < (choice[0], choice[2]):
                    choice = cand
            best[mask] = choice
        assert best[full] is not None
        return best[full][2]


def _component_vars(atom: Atom, relational: Sequence[Atom]) -> frozenset:
    """Variables of *atom*'s weakly-connected body component: the
    closure of variable sharing among *relational*.  A component whose
    closure misses every needed variable is a pure existential
    subquery — the Lemma 3.1 cut evaluates it once as a boolean."""
    vars_of = [
        frozenset(v for v in a.args if isinstance(v, Variable))
        for a in relational
    ]
    seed = frozenset(v for v in atom.args if isinstance(v, Variable))
    component = set(seed)
    changed = True
    while changed:
        changed = False
        for vs in vars_of:
            if vs & component and not vs <= component:
                component |= vs
                changed = True
    return frozenset(component)


def rule_intermediate_bound(
    rule: Rule,
    needed: Optional[Iterable[Variable]] = None,
    profiles: Optional[Mapping[str, RelationProfile]] = None,
) -> float:
    """The static intermediate-result bound of *rule*.

    *needed*, when given, replaces the head variables as the set a
    result row must carry (callers pricing an **adorned** rule pass
    the variables at the head's ``n`` positions, so ``d``-position
    components are priced as the cut the optimizer will apply);
    variables of negated literals and builtins are always added.

    Without *profiles* every body predicate is assumed to hold
    :data:`DEFAULT_SIZE` rows with per-position degree
    :data:`DEFAULT_FANOUT` (a mildly skewed relation).  *profiles*
    (predicate → :class:`RelationProfile`, looked up by the literal's
    name and then by its unmangled base name so adorned rules price
    their EDB literals) replaces the synthetic default with
    **measured** statistics for the predicates it covers — the DL017
    lint passes the loaded EDB's profile when one is available.

    The bound reported is the **largest intermediate cardinality along
    the best order** the DP finds.  Chains stay near the relation
    size (each step multiplies by the fanout at most), purely
    existential components collapse to 1 — the Lemma 3.1 cut retires
    them as boolean subqueries before the join ever runs, so they are
    dropped from the priced body outright — and bodies that force a
    *needed* Cartesian product blow up multiplicatively, which is
    exactly what lints DL017/DL021 flag.
    """
    from ..datalog.builtins import is_builtin

    relational = [a for a in rule.body if not is_builtin(a.predicate)]
    if not relational:
        return 0.0
    head_vars = (
        frozenset(needed)
        if needed is not None
        else frozenset(v for v in rule.head.args if isinstance(v, Variable))
    )
    needed_seed = head_vars | frozenset(
        v
        for atom in (*rule.negative,
                     *(a for a in rule.body if is_builtin(a.predicate)))
        for v in atom.args
        if isinstance(v, Variable)
    )
    relational = [
        a for a in relational
        if _component_vars(a, relational) & needed_seed
    ]
    if not relational:
        # the whole body is existential: one boolean membership test
        return 1.0

    def profile_for(a: Atom) -> RelationProfile:
        if profiles:
            found = profiles.get(a.predicate)
            if found is None:
                # adorned literals carry mangled base@ad names; the
                # measured profile lives under the base name
                from ..core.adornment import split_adorned

                found = profiles.get(split_adorned(a.predicate)[0])
            if found is not None:
                return found
        return RelationProfile(
            DEFAULT_SIZE, tuple(DEFAULT_FANOUT for _ in a.args)
        )

    model = BoundCostModel({a.predicate: profile_for(a) for a in relational})
    order = model.order_remaining(
        relational, tuple(range(len(relational))), frozenset(), needed_seed
    )
    if order is None:  # body too wide for the DP: greedy body order
        order = tuple(range(len(relational)))
    bound_vars: set = set()
    card = 1.0
    worst = 0.0
    for pos, i in enumerate(order):
        atom = relational[i]
        matches = model.literal_bound(atom, frozenset(bound_vars))
        new_vars = {v for v in atom.args if isinstance(v, Variable)} - bound_vars
        if new_vars:
            later = set(needed_seed)
            for j in order[pos + 1:]:
                later.update(
                    v for v in relational[j].args if isinstance(v, Variable)
                )
            if not (new_vars & later):
                matches = min(matches, 1.0)
        card *= matches
        worst = max(worst, card)
        bound_vars |= new_vars
    return worst


class AdaptiveReplanner:
    """Inter-round delta-plan re-ranking from observed cardinalities.

    One instance serves one semi-naive fixpoint (a recursive evaluation
    unit, or one monolithic stratum loop) and is never shared across
    threads.  Each round the loop reports the frontier sizes it is
    about to consume (:meth:`observe`); every *every* rounds
    (``EngineOptions.replan_rounds``) the replanner re-profiles the
    loop's grown relations, folds the exponentially-decayed frontier
    estimates into the member predicates' effective sizes, and asks
    the cost model's DP for fresh delta plans (:meth:`replan`).

    Replan decisions are functions of frontier sizes and stored facts
    only — both bit-identical across the vector/kernel/interpreter
    tiers — so every tier replans identically and the engine-invariant
    counters stay comparable.  Join order never changes which facts a
    round derives, so answers and fact counts are unaffected by
    construction.
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
        #: inputs and produce the same orders, so profiling is skipped
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

    def due(self) -> bool:
        return self.rounds % self.every == 0

    def model_for(
        self, db: Database, predicates: Iterable[str]
    ) -> Optional[BoundCostModel]:
        """A fresh cost model over the *current* stored relations in
        *predicates* (the calling fixpoint's own reads and writes —
        never sibling units' relations, which may be mid-write), with
        each member predicate's size raised by its expected frontier
        (anticipated growth keeps recursive relations planned large).

        Returns ``None`` when every effective size is still in the
        bucket it was at the last build: planning consumes bucket
        representatives, so the DP would reproduce the previous orders
        and the O(rows) profiling pass is pure overhead.  (A relation
        whose max degree grows within an unchanged size bucket is
        deliberately not re-profiled — sizes are cheap to read every
        round, degrees are not.)  Skips are decided from relation
        lengths and frontier history only, both bit-identical across
        execution tiers, so all tiers skip identically."""
        sizes: dict[str, int] = {}
        names: list[str] = []
        for pred in predicates:
            rel = db.relation(pred)
            if rel is None:
                continue
            names.append(pred)
            n = len(rel)
            if pred in self.members:
                n += int(self.estimates.get(pred, 0.0))
            sizes[pred] = n
        buckets = {p: bucket_size(n) for p, n in sizes.items()}
        if buckets == self._last_buckets:
            return None
        self._last_buckets = buckets
        return BoundCostModel.from_database(db, sizes, names)
