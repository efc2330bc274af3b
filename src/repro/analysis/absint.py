"""The monotone analysis framework: fixpoints of abstract domains.

A classic abstract-interpretation driver specialized to Datalog: the
concrete semantics is the least fixpoint of the immediate-consequence
operator, so every abstract domain (:class:`~.domains.AbstractDomain`)
gets its own least fixpoint computed the same way the engine computes
the real one — over the **SCC condensation** of the (adorned) program,
components in dependency order, Kleene-iterating only within recursive
components (:func:`repro.datalog.analysis.analyze` supplies the
condensation exactly as it does for the scheduler).

The program is analyzed in **adorned** form when the query adorns
(:func:`repro.core.adornment.adorn`): each derived predicate splits
into its ``base@adornment`` variants, so a domain sees which head
positions are existential (``d``) and its transfer functions can apply
the Lemma 3.1 / Lemma 2.2 cuts the optimizer will apply — the
cardinality domain prices existential components as the boolean cut,
not as a join.  When the program cannot be adorned (no query, or a
precondition fails) the raw program is analyzed with every head
position treated as needed; the analysis is then merely less precise,
never wrong.

:func:`analyze_program` is the front door (CLI ``repro analyze``,
shell ``.analyze``); it returns an :class:`AnalysisResult` — the
DL018–DL024 findings as a standard :class:`~.diagnostics.LintReport`
plus the final abstract values.  :meth:`AnalysisResult.sketches` are
the cardinality domain's values, each a
:class:`repro.engine.cost.RelationProfile` (``repro analyze
--save-profiles`` persists them); the engine's planner does not read
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..core.adornment import adorn, split_adorned
from ..datalog.analysis import DependencyInfo, is_recursive_component
from ..datalog.analysis import analyze as dependency_analyze
from ..datalog.ast import Program, Rule, Span
from ..datalog.builtins import is_builtin
from ..datalog.database import Database
from ..datalog.errors import ReproError
from ..datalog.terms import Variable
from ..engine.cost import RelationProfile
from .diagnostics import Diagnostic, LintReport
from .domains import (
    AbstractDomain,
    BoundednessDomain,
    CardinalityDomain,
    SortDomain,
    render_sort,
)

__all__ = [
    "RuleView",
    "AnalysisContext",
    "AnalysisResult",
    "analyze_program",
    "default_domains",
    "ITERATION_CAP",
]

#: Kleene iterations per component before the driver gives up and
#: widens the component's values to the domain's top (sound, never
#: reached by the shipped domains on finite-height paths)
ITERATION_CAP = 100


@dataclass(frozen=True)
class RuleView:
    """One analyzed rule plus the context domains need to price it."""

    #: the rule over analyzed (possibly adorned/mangled) names
    rule: Rule
    #: index in the analyzed program
    index: int
    #: analyzed head predicate name (``base@ad`` when adorned)
    base: str
    #: head variables at needed (``n``) positions — all head variables
    #: when the program is analyzed unadorned
    needed_vars: frozenset
    span: Optional[Span]


def _build_views(program: Program) -> tuple[tuple[RuleView, ...], Program, bool]:
    """The analyzed rule views: adorned when possible, raw otherwise.

    Returns ``(views, analyzed_program, adorned?)``.
    """
    try:
        adorned = adorn(program)
    except ReproError:
        views = tuple(
            RuleView(
                rule=r,
                index=i,
                base=r.head.predicate,
                needed_vars=frozenset(
                    v for v in r.head.args if isinstance(v, Variable)
                ),
                span=r.span if r.span is not None else r.head.span,
            )
            for i, r in enumerate(program.rules)
        )
        return views, program, False
    views = []
    for i, ar in enumerate(adorned.rules):
        rule = ar.to_rule()
        ad = ar.head.adornment
        needed = frozenset(
            arg
            for p, arg in enumerate(rule.head.args)
            if isinstance(arg, Variable)
            and (p >= len(ad) or ad[p] == "n")
        )
        views.append(RuleView(
            rule=rule,
            index=i,
            base=rule.head.predicate,
            needed_vars=needed,
            span=rule.head.span,
        ))
    return tuple(views), adorned.to_program(), True


def default_domains(
    sketches: Optional[Mapping[str, RelationProfile]] = None,
) -> tuple[AbstractDomain, ...]:
    """The three shipped domains (*sketches* pre-seeds cardinality)."""
    return (
        SortDomain(),
        CardinalityDomain(preloaded=sketches),
        BoundednessDomain(),
    )


@dataclass
class AnalysisContext:
    """What a domain's diagnostics pass can see: the final environment
    of every domain plus the dependency structure."""

    views: tuple[RuleView, ...]
    env: dict[str, dict[str, Any]]
    info: DependencyInfo
    analyzed: Program
    arities: dict[str, int]
    #: True when a loaded EDB backed the seeds (measured analysis)
    measured: bool
    domains: tuple[AbstractDomain, ...]
    _idb_bases: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self._idb_bases = frozenset(
            self.base_of(p) for p in self.info.idb
        )

    @staticmethod
    def base_of(name: str) -> str:
        return split_adorned(name)[0]

    def is_idb(self, name: str) -> bool:
        return name in self.info.idb

    def is_idb_base(self, base: str) -> bool:
        return base in self._idb_bases

    def edb_predicates(self) -> frozenset[str]:
        return frozenset(
            p for p in self.analyzed.predicates()
            if p not in self.info.idb and not is_builtin(p)
        )

    def recursive_components(self) -> list[frozenset[str]]:
        return [
            scc for scc in self.info.sccs
            if is_recursive_component(scc, self.info.graph)
        ]

    def fact_only(self, base: str) -> bool:
        """True when every defining rule of *base* is a ground fact."""
        views = [v for v in self.views if self.base_of(v.base) == base]
        return bool(views) and all(v.rule.is_fact() for v in views)

    def first_view(self, base: str) -> Optional[RuleView]:
        for view in self.views:
            if self.base_of(view.base) == base:
                return view
        return None

    def merged(self, domain_name: str) -> dict[str, Any]:
        """The domain's environment folded back onto base predicate
        names (adorned variants joined)."""
        domain = next(d for d in self.domains if d.name == domain_name)
        out: dict[str, Any] = {}
        for name, value in self.env[domain_name].items():
            base = self.base_of(name)
            out[base] = (
                value if base not in out else domain.join(out[base], value)
            )
        return out


def _active_domain_size(db: Database, program: Program) -> int:
    """The active domain: distinct constants stored in *db* plus the
    program's own constants — every derived fact draws from it, so
    ``adom ** arity`` bounds any IDB relation.  Falls back to the
    total-cell upper bound instead of an exact count on huge EDBs."""
    values: set = set()
    for r in program.rules:
        for atom in (r.head, *r.body, *r.negative):
            values.update(c.value for c in atom.constants())
    budget = 500_000
    for pred in sorted(db.predicates()):
        rel = db.relation(pred)
        if rel is None:
            continue
        budget -= len(rel)
        if budget < 0:
            return len(values) + sum(
                len(db.relation(p)) * max(db.relation(p).arity, 1)
                for p in db.predicates()
                if db.relation(p) is not None
            )
        for row in rel:
            values.update(row)
    return len(values)


def _run_fixpoint(
    views: Sequence[RuleView],
    analyzed: Program,
    info: DependencyInfo,
    arities: Mapping[str, int],
    domains: Sequence[AbstractDomain],
    db: Optional[Database],
) -> dict[str, dict[str, Any]]:
    """Seed, then iterate each condensation component to stability."""
    env: dict[str, dict[str, Any]] = {d.name: {} for d in domains}
    for pred in sorted(analyzed.predicates()):
        if is_builtin(pred):
            continue
        arity = arities.get(pred, 0)
        for d in domains:
            if pred in info.idb:
                env[d.name][pred] = d.bottom(pred, arity)
            else:
                rel = db.relation(pred) if db is not None else None
                env[d.name][pred] = d.seed(pred, arity, rel)
    by_head: dict[str, list[RuleView]] = {}
    for view in views:
        by_head.setdefault(view.rule.head.predicate, []).append(view)
    adom = _active_domain_size(db, analyzed) if db is not None else None
    # info.sccs is in reverse topological order: dependencies first
    for scc in info.sccs:
        heads = [p for p in sorted(scc) if p in by_head]
        if not heads:
            continue
        for _ in range(ITERATION_CAP):
            changed = False
            for d in domains:
                e = env[d.name]
                for head in heads:
                    # one pass's rules combine by union (cardinalities
                    # add); across passes the values join
                    new = d.join(e[head], d.union(
                        [d.transfer(view, e) for view in by_head[head]]
                    ))
                    if new != e[head]:
                        e[head] = new
                        changed = True
            if not changed:
                break
        else:  # pragma: no cover - widening backstop
            for d in domains:
                for p in scc:
                    if p in env[d.name] and p in info.idb:
                        env[d.name][p] = d.top(p, arities.get(p, 0))
        recursive = is_recursive_component(scc, info.graph)
        for d in domains:
            e = env[d.name]
            for p in sorted(scc):
                if p in e and p in info.idb:
                    e[p] = d.settle(
                        p, e[p], arities.get(p, 0), recursive, adom
                    )
    return env


def _dedup(diagnostics: Sequence[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Drop the duplicates adorned variants of one source rule produce.

    DL018/DL019 keep distinct messages (one rule can have several
    empty positions); the other codes collapse to one finding per
    (code, predicate, source span)."""
    seen = set()
    out = []
    for d in diagnostics:
        span = (d.span.line, d.span.column) if d.span is not None else None
        key = (
            d.code, d.predicate, span,
            d.message if d.code in ("DL018", "DL019") else "",
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analysis run produced.

    ``report`` carries the DL018–DL024 findings through the standard
    :class:`LintReport` renderers; the accessor methods fold the final
    abstract environments back onto base predicate names so the
    planner and callers never see mangled adorned names.
    """

    program: Program
    report: LintReport
    context: AnalysisContext
    source: str = "<program>"

    @property
    def adorned(self) -> bool:
        return self.context.analyzed is not self.program

    @property
    def measured(self) -> bool:
        return self.context.measured

    def sorts(self) -> dict[str, tuple]:
        return self.context.merged(SortDomain.name)

    def sketches(self) -> dict[str, RelationProfile]:
        """The cardinality profiles by base predicate."""
        return self.context.merged(CardinalityDomain.name)

    def derivable(self) -> dict[str, bool]:
        return self.context.merged(BoundednessDomain.name)

    def bounded_predicates(self) -> frozenset[str]:
        """Base predicates of components flagged DL023."""
        return frozenset(
            d.predicate
            for d in self.report
            if d.code == "DL023" and d.predicate is not None
        )

    def to_dict(self) -> dict:
        sketches = self.sketches()
        return {
            "source": self.source,
            "adorned": self.adorned,
            "measured": self.measured,
            "report": self.report.to_dict(),
            "domains": {
                "sorts": {
                    pred: [render_sort(s) for s in sorts]
                    for pred, sorts in sorted(self.sorts().items())
                },
                "cardinality": {
                    pred: sketch.to_dict()
                    for pred, sketch in sorted(sketches.items())
                },
                "boundedness": {
                    pred: {
                        "derivable": derivable,
                        "bounded": pred in self.bounded_predicates(),
                    }
                    for pred, derivable in sorted(self.derivable().items())
                },
            },
        }

    def render_text(self) -> str:
        sketches = self.sketches()
        measured = sum(1 for s in sketches.values() if s.measured)
        lines = [self.report.render_text()]
        lines.append(
            f"domains: {len(self.sorts())} predicate(s) sorted, "
            f"{len(sketches)} sketch(es) ({measured} measured), "
            f"{len(self.bounded_predicates())} bounded component(s)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2)


def analyze_program(
    program: Program,
    db: Optional[Database] = None,
    *,
    sketches: Optional[Mapping[str, RelationProfile]] = None,
    source: str = "<program>",
) -> AnalysisResult:
    """Run the abstract-interpretation framework over *program*.

    *db* (when given) seeds every domain from the stored EDB — sorts
    from the actual constants, cardinality sketches **measured** from
    the columnar degree profiles.  *sketches* pre-seeds the
    cardinality domain (e.g. loaded from a persisted profile file) and
    wins over both the database and the synthetic defaults.
    """
    views, analyzed, _ = _build_views(program)
    info = dependency_analyze(analyzed)
    arities = analyzed.arities()
    doms = default_domains(sketches)
    env = _run_fixpoint(views, analyzed, info, arities, doms, db)
    ctx = AnalysisContext(
        views=views,
        env=env,
        info=info,
        analyzed=analyzed,
        arities=arities,
        measured=db is not None,
        domains=doms,
    )
    findings: list[Diagnostic] = []
    for d in doms:
        findings.extend(d.diagnostics(ctx))
    report = LintReport(_dedup(findings), source=source)
    return AnalysisResult(
        program=program, report=report, context=ctx, source=source
    )
