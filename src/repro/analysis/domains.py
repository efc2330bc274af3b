"""Abstract domains for the monotone-framework analyzer.

Three domains ship with the framework (:mod:`repro.analysis.absint`),
each a small lattice with a monotone rule transfer function:

- :class:`SortDomain` — per-argument-position *sorts*: a finite set of
  constants (up to :data:`MAX_SORT_CONSTANTS`, overflowing to a set of
  Python type names) under subset order with ``TOP`` = "any value".
  Seeded from stored EDB rows and in-program ground facts; the meet of
  the sorts a variable joins proves joins statically empty (DL018),
  unifications ill-typed (DL019), and head columns constant (DL020).
- :class:`CardinalityDomain` — the planner's own
  :class:`~repro.engine.cost.RelationProfile` values: a relation's
  log-bucketed size plus, per position, the log-bucketed **max degree**
  (most rows any one value matches there).  EDB profiles are *measured*
  (:meth:`repro.datalog.database.Relation.degree_profile`); IDB
  profiles are propagated through rule bodies by
  :meth:`repro.engine.cost.BoundCostModel.bound_walk` — the walk DL017
  prices with, Lemma 3.1 existential-component drop included (the
  components of :func:`repro.datalog.analysis.body_components`).
  Findings: DL021 (measured bound blowup) and DL022 (hub-key skew).
  Profiles persist as JSON (:func:`save_profiles` /
  :func:`load_profiles`).
- :class:`BoundednessDomain` — a two-point derivability lattice
  (``False`` = provably empty) plus structural bounded-recursion
  detection.  Findings: DL023 (bounded recursion — the fixpoint closes
  in a constant number of rounds) and DL024 (a recursive component
  with no derivable base case).

Every domain implements the :class:`AbstractDomain` contract; values
must be comparable with ``==`` so the fixpoint driver can detect
stabilization, and ``join`` must be monotone with ``bottom`` as its
identity.  ``top`` is the sound escape hatch the driver widens to if a
component fails to stabilize within its iteration budget.
"""

from __future__ import annotations

import json
from functools import reduce
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from ..datalog.builtins import is_builtin
from ..datalog.terms import Constant, Variable
from ..engine.cost import RelationProfile, bucket_size, rule_model
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.database import Relation
    from .absint import AnalysisContext, RuleView

__all__ = [
    "TOP",
    "MAX_SORT_CONSTANTS",
    "sort_of_values",
    "sort_join",
    "sort_meet",
    "sort_types",
    "render_sort",
    "CARD_CAP",
    "SKEW_MIN_SIZE",
    "save_profiles",
    "load_profiles",
    "PROFILE_FORMAT_VERSION",
    "AbstractDomain",
    "SortDomain",
    "CardinalityDomain",
    "BoundednessDomain",
]


# ---------------------------------------------------------------------------
# the sort lattice
# ---------------------------------------------------------------------------

#: a finite sort wider than this many distinct constants collapses to
#: the set of the constants' type names
MAX_SORT_CONSTANTS = 16


class _Top:
    """The lattice top: any value may occur at the position."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

#: a sort is ``TOP`` or a frozenset of ``("const", value)`` /
#: ``("type", typename)`` items; the empty frozenset is bottom
Sort = Any


def _type_name(value: Any) -> str:
    return type(value).__name__


def _normalize(items: Iterable[tuple[str, Any]]) -> frozenset:
    """Drop constants covered by a type item; collapse overflowing
    constant sets to their types."""
    out = set(items)
    types = {val for kind, val in out if kind == "type"}
    if types:
        out = {
            it for it in out
            if it[0] == "type" or _type_name(it[1]) not in types
        }
    consts = [it for it in out if it[0] == "const"]
    if len(consts) > MAX_SORT_CONSTANTS:
        for it in consts:
            out.discard(it)
            out.add(("type", _type_name(it[1])))
    return frozenset(out)


def sort_of_values(values: Iterable[Any]) -> Sort:
    """The tightest sort covering *values* (bottom for no values)."""
    items: set[tuple[str, Any]] = set()
    types: set[str] = set()
    for v in values:
        if types:
            types.add(_type_name(v))
            continue
        items.add(("const", v))
        if len(items) > MAX_SORT_CONSTANTS:
            types = {_type_name(it[1]) for it in items}
    if types:
        return frozenset(("type", t) for t in types)
    return frozenset(items)


def sort_join(a: Sort, b: Sort) -> Sort:
    if a is TOP or b is TOP:
        return TOP
    return _normalize(a | b)


def sort_meet(a: Sort, b: Sort) -> Sort:
    """Greatest lower bound: the values both sorts admit."""
    if a is TOP:
        return b
    if b is TOP:
        return a
    out = set()
    b_types = {val for kind, val in b if kind == "type"}
    a_types = {val for kind, val in a if kind == "type"}
    for kind, val in a:
        if kind == "const":
            if ("const", val) in b or _type_name(val) in b_types:
                out.add((kind, val))
        else:
            if val in b_types:
                out.add((kind, val))
            else:
                out.update(
                    it for it in b
                    if it[0] == "const" and _type_name(it[1]) == val
                )
    return frozenset(out)


def sort_types(s: Sort) -> Optional[frozenset[str]]:
    """The Python type names a sort admits (``None`` for TOP = all)."""
    if s is TOP:
        return None
    return frozenset(
        val if kind == "type" else _type_name(val) for kind, val in s
    )


def render_sort(s: Sort) -> str:
    if s is TOP:
        return "any"
    if not s:
        return "empty"
    consts = sorted(
        (repr(val) for kind, val in s if kind == "const"), key=str
    )
    types = sorted(val for kind, val in s if kind == "type")
    return "{" + ", ".join(types + consts) + "}"


# ---------------------------------------------------------------------------
# cardinality constants and profile persistence
# ---------------------------------------------------------------------------

#: propagated cardinalities saturate here, so recursive profile
#: iteration climbs at most ~40 buckets per position before stabilizing
CARD_CAP = float(1 << 40)


def _capped_bucket(n: float) -> int:
    """*n* saturated at :data:`CARD_CAP`, as its bucket representative."""
    return bucket_size(int(min(n, CARD_CAP)))


#: relations smaller than this are never reported as skewed (DL022)
SKEW_MIN_SIZE = 16

#: on-disk profile format version (see docs/api.md "Program analysis")
PROFILE_FORMAT_VERSION = 1


def save_profiles(path: str, sketches: Mapping[str, RelationProfile]) -> None:
    """Persist *sketches* as JSON (format in docs/api.md)."""
    payload = {
        "version": PROFILE_FORMAT_VERSION,
        "sketches": {
            pred: sketches[pred].to_dict() for pred in sorted(sketches)
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def load_profiles(path: str) -> dict[str, RelationProfile]:
    """Load sketches persisted by :func:`save_profiles`."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    version = payload.get("version")
    if version != PROFILE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format version {version!r} "
            f"(expected {PROFILE_FORMAT_VERSION})"
        )
    return {
        pred: RelationProfile.from_dict(data)
        for pred, data in payload.get("sketches", {}).items()
    }


# ---------------------------------------------------------------------------
# the domain contract
# ---------------------------------------------------------------------------


class AbstractDomain:
    """One pluggable analysis: a lattice plus a rule transfer function.

    The driver seeds every EDB predicate (:meth:`seed`), starts every
    IDB predicate at :meth:`bottom`, and Kleene-iterates
    :meth:`transfer` over each SCC of the adorned program's
    condensation, joining each pass's :meth:`union` of a head's rule
    contributions into the head's value until the environment
    stabilizes (widening to :meth:`top` past the iteration budget).
    :meth:`diagnostics` then reads the final environment off the
    :class:`AnalysisContext`.
    """

    #: the key this domain's values live under in the environment
    name: str = "domain"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> Any:
        """The EDB value: measured from *relation* when stored,
        an unknown-but-sound default when ``None``."""
        raise NotImplementedError

    def bottom(self, predicate: str, arity: int) -> Any:
        raise NotImplementedError

    def top(self, predicate: str, arity: int) -> Any:
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer(self, view: "RuleView", env: Mapping[str, Any]) -> Any:
        """The head value this rule contributes under *env*."""
        raise NotImplementedError

    def union(self, values: Sequence[Any]) -> Any:
        """The head value of one pass, from the (non-empty) transfers
        of all the head's rules — a predicate holds the *union* of its
        rules' outputs.  The lattice join by default; a domain whose
        join is not additive (cardinality) overrides it."""
        return reduce(self.join, values)

    def settle(self, predicate: str, value: Any, arity: int,
               recursive: bool, adom: Optional[int]) -> Any:
        """Post-stabilization adjustment for one component member.

        *recursive* marks members of recursive components; *adom* is
        the size of the active domain (distinct EDB constants plus
        program constants) when an EDB was loaded, else ``None``.  The
        default keeps the fixpoint value unchanged."""
        return value

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        return []


# ---------------------------------------------------------------------------
# sort inference
# ---------------------------------------------------------------------------

#: rows sampled per relation when seeding sorts; beyond the cap the
#: constant sets have long collapsed to type sets anyway
SORT_SEED_ROW_LIMIT = 4096


class SortDomain(AbstractDomain):
    """Per-position constant/type sorts; DL018 / DL019 / DL020."""

    name = "sorts"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> tuple:
        if relation is None:
            return tuple(TOP for _ in range(arity))
        columns: list[set] = [set() for _ in range(arity)]
        for i, row in enumerate(relation):
            if i >= SORT_SEED_ROW_LIMIT:
                break
            for p in range(arity):
                columns[p].add(row[p])
        if len(relation) > SORT_SEED_ROW_LIMIT:
            # sampled: keep only the (closed) type information
            return tuple(
                frozenset(("type", t) for t in {_type_name(v) for v in col})
                for col in columns
            )
        return tuple(sort_of_values(col) for col in columns)

    def bottom(self, predicate: str, arity: int) -> tuple:
        return tuple(frozenset() for _ in range(arity))

    def top(self, predicate: str, arity: int) -> tuple:
        return tuple(TOP for _ in range(arity))

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(sort_join(x, y) for x, y in zip(a, b))

    # -- propagation --------------------------------------------------------

    def transfer(
        self,
        view: "RuleView",
        env: Mapping[str, Any],
        findings: Optional[list] = None,
        is_idb=None,
    ) -> tuple:
        """One pass over *view*'s body: returns the head sort tuple,
        optionally appending ``(kind, atom, position, detail)`` finding
        candidates (kinds: ``const``, ``unify``, ``empty``)."""
        rule = view.rule
        var_sorts: dict[Variable, Sort] = {}
        empty = False
        for atom in rule.body:
            if is_builtin(atom.predicate):
                continue
            sorts = env.get(atom.predicate)
            if sorts is None:
                sorts = self.top(atom.predicate, len(atom.args))
            for p, arg in enumerate(atom.args):
                pos_sort = sorts[p] if p < len(sorts) else TOP
                if pos_sort is not TOP and not pos_sort:
                    # the position admits no value at all
                    empty = True
                    if findings is not None and not (
                        is_idb and is_idb(atom.predicate)
                    ):
                        findings.append(("empty", atom, p, pos_sort))
                    continue
                if isinstance(arg, Constant):
                    met = sort_meet(
                        frozenset({("const", arg.value)}), pos_sort
                    )
                    if not met and met is not TOP:
                        empty = True
                        if findings is not None:
                            findings.append(("const", atom, p, pos_sort))
                else:
                    old = var_sorts.get(arg, TOP)
                    met = sort_meet(old, pos_sort)
                    if (
                        met is not TOP
                        and not met
                        and (old is TOP or old)
                        and pos_sort
                    ):
                        empty = True
                        if findings is not None:
                            findings.append(("unify", atom, p, old))
                    var_sorts[arg] = met
        if empty:
            return self.bottom(rule.head.predicate, len(rule.head.args))
        head = []
        for arg in rule.head.args:
            if isinstance(arg, Constant):
                head.append(frozenset({("const", arg.value)}))
            else:
                head.append(var_sorts.get(arg, TOP))
        return tuple(head)

    # -- findings -----------------------------------------------------------

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        for view in ctx.views:
            findings: list = []
            self.transfer(view, env, findings, is_idb=ctx.is_idb)
            for kind, atom, p, detail in findings:
                base = ctx.base_of(atom.predicate)
                if kind == "const":
                    const = atom.args[p]
                    out.append(Diagnostic(
                        "DL018", Severity.WARNING,
                        f"constant {const} never occurs at position {p} "
                        f"of {base} (inferred sort "
                        f"{render_sort(detail)}); the rule cannot fire",
                        predicate=ctx.base_of(view.base),
                        rule_index=view.index,
                        span=view.span,
                        hint="drop the rule or fix the constant",
                    ))
                elif kind == "empty":
                    out.append(Diagnostic(
                        "DL018", Severity.WARNING,
                        f"position {p} of {base} admits no value (the "
                        f"stored relation is empty there); the rule "
                        f"cannot fire",
                        predicate=ctx.base_of(view.base),
                        rule_index=view.index,
                        span=view.span,
                        hint="load facts for the predicate or drop "
                             "the rule",
                    ))
                else:
                    var = atom.args[p]
                    pos_sort = env.get(atom.predicate)
                    pos_sort = (
                        pos_sort[p]
                        if pos_sort is not None and p < len(pos_sort)
                        else TOP
                    )
                    types_a = sort_types(detail)
                    types_b = sort_types(pos_sort)
                    disjoint_types = (
                        types_a is not None
                        and types_b is not None
                        and not (types_a & types_b)
                    )
                    if disjoint_types:
                        out.append(Diagnostic(
                            "DL019", Severity.WARNING,
                            f"variable {var} unifies type-disjoint "
                            f"sorts {render_sort(detail)} and "
                            f"{render_sort(pos_sort)} at position {p} "
                            f"of {base}; the join always fails",
                            predicate=ctx.base_of(view.base),
                            rule_index=view.index,
                            span=view.span,
                            hint="the joined columns hold different "
                                 "types of values; check the rule",
                        ))
                    else:
                        out.append(Diagnostic(
                            "DL018", Severity.WARNING,
                            f"variable {var} joins value-disjoint "
                            f"sorts {render_sort(detail)} and "
                            f"{render_sort(pos_sort)} at position {p} "
                            f"of {base}; the join is statically empty",
                            predicate=ctx.base_of(view.base),
                            rule_index=view.index,
                            span=view.span,
                            hint="no value occurs in both joined "
                                 "columns",
                        ))
        # DL020: constant head columns of derived predicates (fact-only
        # predicates are EDB-in-disguise — DL015's territory, and a
        # single fact would always "pin" its columns)
        for base, sorts in sorted(ctx.merged(self.name).items()):
            if not ctx.is_idb_base(base) or ctx.fact_only(base):
                continue
            for p, s in enumerate(sorts):
                if s is TOP or len(s) != 1:
                    continue
                (kind, val), = s
                if kind != "const":
                    continue
                view = ctx.first_view(base)
                out.append(Diagnostic(
                    "DL020", Severity.INFO,
                    f"every {base} fact carries the constant {val!r} "
                    f"at position {p}; a selection could specialize "
                    f"the column away",
                    predicate=base,
                    rule_index=view.index if view else None,
                    span=view.span if view else None,
                ))
        return out


# ---------------------------------------------------------------------------
# cardinality sketches
# ---------------------------------------------------------------------------

#: a rule blows up when its best-order intermediate bound exceeds this
#: multiple of its largest input relation (the measured analogue of
#: lints.BOUND_BLOWUP_FACTOR over DEFAULT_SIZE)
MEASURED_BLOWUP_FACTOR = 100


class CardinalityDomain(AbstractDomain):
    """Measured/propagated :class:`RelationProfile` values; DL021 / DL022."""

    name = "cardinality"

    def __init__(self,
                 preloaded: Optional[Mapping[str, RelationProfile]] = None):
        self.preloaded = dict(preloaded or {})

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> RelationProfile:
        loaded = self.preloaded.get(predicate)
        if loaded is not None:
            return loaded
        if relation is None:
            return RelationProfile.assumed(arity)
        return RelationProfile.from_counts(*relation.degree_profile())

    def bottom(self, predicate: str, arity: int) -> RelationProfile:
        return RelationProfile(0, (0,) * arity, measured=True)

    def top(self, predicate: str, arity: int) -> RelationProfile:
        cap = int(CARD_CAP)
        return RelationProfile(cap, (cap,) * arity, measured=False)

    def join(self, a: RelationProfile, b: RelationProfile) -> RelationProfile:
        return a.join(b)

    def union(self, values: Sequence[RelationProfile]) -> RelationProfile:
        """A predicate holds the union of its rules' outputs, so sizes
        and degrees **add** (saturating at :data:`CARD_CAP`)."""
        return RelationProfile(
            _capped_bucket(sum(v.size for v in values)),
            tuple(
                _capped_bucket(sum(ds))
                for ds in zip(*(v.degree for v in values))
            ),
            all(v.measured for v in values),
        )

    # -- propagation --------------------------------------------------------

    def transfer(self, view: "RuleView",
                 env: Mapping[str, Any]) -> RelationProfile:
        head = view.rule.head
        body, needed, model = rule_model(view.rule, view.needed_vars, env)
        order, final, _ = model.bound_walk(body, needed)
        if not order:
            # a fact rule, or a body retired entirely by the Lemma 3.1
            # cut: at most one row per evaluation
            return RelationProfile(1, (1,) * len(head.args), measured=True)
        measured = all(
            model.profiles[body[i].predicate].measured for i in order
        )
        size = _capped_bucket(final)
        degree = []
        for arg in head.args:
            if isinstance(arg, Variable) and any(
                arg in body[i].args for i in order
            ):
                _, fixed, _ = model.bound_walk(body, needed, frozenset({arg}))
                degree.append(min(size, _capped_bucket(fixed)))
            else:
                # a constant column (every row shares it) or an unsafe
                # head variable: the degree is the full size
                degree.append(size)
        return RelationProfile(
            size, tuple(degree),
            measured=measured and final < CARD_CAP,
        )

    def settle(self, predicate: str, value: RelationProfile, arity: int,
               recursive: bool, adom: Optional[int]) -> RelationProfile:
        """Recursive members accumulate rows across rounds, so the
        per-round transfer bound does not bound their fixpoint.  What
        *does* bound it is the active domain: a derived fact's
        constants all come from the EDB and the program, so at most
        ``adom ** arity`` distinct rows exist (``adom ** (arity - 1)``
        per fixed value at one position).  With a loaded EDB the
        profile is clamped there — still a measured quantity; without
        one the value keeps its (assumed-seeded, unmeasured)
        per-round estimate."""
        if not recursive:
            return value
        if adom is None:
            return RelationProfile(value.size, value.degree, measured=False)
        size = _capped_bucket(float(adom) ** arity)
        per_key = _capped_bucket(float(adom) ** max(arity - 1, 0))
        return RelationProfile(
            max(value.size, size),
            tuple(min(max(value.size, size), max(d, per_key))
                  for d in value.degree),
            measured=value.measured,
        )

    # -- findings -----------------------------------------------------------

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        # DL021: measured bound blowup per rule
        for view in ctx.views:
            body, needed, model = rule_model(view.rule, view.needed_vars, env)
            order, _, worst = model.bound_walk(body, needed)
            priced = [model.profiles[body[i].predicate] for i in order]
            if not priced or not all(p.measured for p in priced):
                continue
            worst = min(worst, CARD_CAP)
            largest = max(p.size for p in priced)
            threshold = MEASURED_BLOWUP_FACTOR * max(1, largest)
            if worst > threshold:
                out.append(Diagnostic(
                    "DL021", Severity.WARNING,
                    f"measured intermediate bound {int(worst)} exceeds "
                    f"{MEASURED_BLOWUP_FACTOR}x the largest input "
                    f"relation ({largest} rows) even under the best "
                    f"join order",
                    predicate=ctx.base_of(view.base),
                    rule_index=view.index,
                    span=view.span,
                    hint="the rule multiplies its inputs on this EDB; "
                         "add a join condition or shrink the inputs",
                ))
        # DL022: hub-key skew in measured EDB relations
        for pred in sorted(ctx.edb_predicates()):
            sketch = env.get(pred)
            if sketch is None or not sketch.measured:
                continue
            if sketch.raw_size < SKEW_MIN_SIZE:
                continue
            for p, d in enumerate(sketch.raw_degree):
                if d > 1 and 2 * d >= sketch.raw_size:
                    out.append(Diagnostic(
                        "DL022", Severity.INFO,
                        f"position {p} of {pred} is dominated by a hub "
                        f"key: one value matches {d} of "
                        f"{sketch.raw_size} rows",
                        predicate=pred,
                    ))
        return out


# ---------------------------------------------------------------------------
# boundedness / derivability
# ---------------------------------------------------------------------------


class BoundednessDomain(AbstractDomain):
    """Two-point derivability lattice; DL023 / DL024."""

    name = "boundedness"

    def seed(self, predicate: str, arity: int,
             relation: Optional["Relation"]) -> bool:
        # an unknown EDB is assumed nonempty; a *loaded* empty relation
        # is known-empty
        return relation is None or len(relation) > 0

    def bottom(self, predicate: str, arity: int) -> bool:
        return False

    def top(self, predicate: str, arity: int) -> bool:
        return True

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(self, view: "RuleView", env: Mapping[str, Any]) -> bool:
        # negation over an empty relation is true, so negative literals
        # never block derivability; builtins are assumed satisfiable
        return all(
            env.get(a.predicate, True)
            for a in view.rule.body
            if not is_builtin(a.predicate)
        )

    def diagnostics(self, ctx: "AnalysisContext") -> list[Diagnostic]:
        out: list[Diagnostic] = []
        env = ctx.env[self.name]
        for scc in ctx.recursive_components():
            members = sorted(scc)
            views = [v for v in ctx.views
                     if v.rule.head.predicate in scc]
            if not views:
                continue
            bases = sorted({ctx.base_of(m) for m in members})
            label = ", ".join(bases)
            if not any(env.get(m, False) for m in members):
                anchor = views[0]
                out.append(Diagnostic(
                    "DL024", Severity.WARNING,
                    f"recursive component {{{label}}} has no derivable "
                    f"non-recursive rule; its least fixpoint is empty "
                    f"on every EDB",
                    predicate=ctx.base_of(anchor.base),
                    rule_index=anchor.index,
                    span=anchor.span,
                    hint="add a base-case rule (or facts for the "
                         "predicates it depends on)",
                ))
                continue
            bounded = True
            anchor = None
            for view in views:
                recursive = [
                    a for a in view.rule.body
                    if a.predicate in scc
                ]
                if not recursive:
                    continue
                anchor = anchor or view
                head_vars = set(view.rule.head.variables())
                frontier = {
                    v
                    for a in recursive
                    for v in a.args
                    if isinstance(v, Variable) and v not in head_vars
                }
                if frontier:
                    bounded = False
                    break
            if bounded and anchor is not None:
                out.append(Diagnostic(
                    "DL023", Severity.INFO,
                    f"recursive component {{{label}}} consumes only "
                    f"bindings its heads already expose; the fixpoint "
                    f"is bounded and a nonrecursive unrolling exists",
                    predicate=ctx.base_of(anchor.base),
                    rule_index=anchor.index,
                    span=anchor.span,
                ))
        return out
