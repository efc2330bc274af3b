"""Prepared programs: analyze/stratify/compile once, evaluate many times.

Every ``evaluate()`` call used to re-derive the same artifacts from the
program text: the dependency analysis, the stratification, and one
:class:`~repro.engine.plan.CompiledRule` (with its naive and delta join
plans) per rule.  For one-shot queries that cost is noise; for an
always-on :class:`~repro.engine.incremental.IncrementalSession` — or a
benchmark loop re-running the same program shape — it is pure overhead
on every invocation.

:func:`prepare` bundles those artifacts into an immutable
:class:`PreparedProgram` and caches it in a bounded process-wide LRU,
keyed by the **canonical program text** (``str(program)`` — rules in
order, negation rendered, query included, and for adorned programs the
adornment is part of every predicate name) together with the
**log-bucketed size signature** the join-order heuristic consumed and
the **cost-model signature** when a cost-based planner ordered the
plans.  Two calls with the same key are guaranteed byte-identical
plans, so a cache hit changes no counter of any evaluation — it only
skips the planning work.  The signatures are part of the key precisely
because plans *depend* on them: caching across different profiles
would silently change join orders mid-differential-test.

Sizes are bucketed (:func:`repro.engine.cost.bucket_size`: powers of
two, representative = bucket maximum) *before* both keying and
planning: the greedy heuristic and the cost model only ever see the
representatives, so two EDBs in the same buckets share one cache entry
*and* provably identical plans.  This is what keeps an always-on serve
session from evicting its prepared plans every time a relation grows
by a handful of rows.

Compiled kernels need no second cache here: they are memoized on each
``CompiledRule`` and globally by generated source text
(:mod:`repro.engine.kernel`), so sharing the compiled rules across
evaluations shares their kernels too — a prepared-cache hit skips
parse-product analysis, planning *and* codegen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional

from ..datalog.analysis import DependencyInfo, analyze, stratify
from ..datalog.ast import Program
from ..datalog.database import Database
from ..datalog.errors import ValidationError
from .cost import BoundCostModel, RelationProfile, bucket_size, profile_database
from .plan import CompiledRule, compile_rule

__all__ = [
    "PreparedProgram",
    "planning_inputs",
    "prepare",
    "prepared_cache_stats",
    "clear_prepared_cache",
]


@dataclass(frozen=True)
class PreparedProgram:
    """The reusable evaluation artifacts of one program + size profile.

    Everything here is immutable or treated as such; one instance may
    be shared by concurrent evaluations (compiled-rule kernel
    memoization is the only interior mutation and is idempotent).
    """

    program: Program
    #: the cache key this instance was prepared under
    key: tuple
    #: ground facts asserted by body-less program rules, as
    #: ``(rule_index, predicate, row)`` triples in rule order — seeded
    #: into the working database before the fixpoint (and after any
    #: reset)
    fact_rules: tuple[tuple[int, str, tuple], ...]
    #: compiled non-fact rules, in program order
    compiled: tuple[CompiledRule, ...]
    info: DependencyInfo
    #: compiled rules grouped by stratum, bottom-up (a single stratum
    #: for negation-free programs)
    strata: tuple[tuple[CompiledRule, ...], ...]
    #: head arities of every predicate occurring in the program
    arities: Mapping[str, int]
    #: rule bodies the cost model's DP search ordered while building
    #: this preparation (0 under the greedy planner).  Recorded here —
    #: not on the run — so a cache hit reports the same
    #: ``stats.plans_costed`` as the cold build it reuses: hits are
    #: bit-identical in every counter.
    plans_costed: int = 0

    def idb_predicates(self) -> frozenset[str]:
        return self.info.idb

    def check_cut_predicates(self, cut: AbstractSet[str]) -> None:
        """Reject a cut predicate this program defines at arity > 0.

        Rule retirement stops a cut predicate's rules once it holds one
        row, which completes an arity-0 (boolean) predicate and
        truncates any other: its fixpoint would silently lose rows."""
        for pred in sorted(cut & self.info.idb):
            if self.arities[pred] > 0:
                raise ValidationError(
                    f"cut predicate {pred!r} has arity {self.arities[pred]}; "
                    f"only arity-0 (boolean) predicates can be cut"
                )


def bucketed_sizes(sizes: Optional[Mapping[str, int]]) -> Optional[dict]:
    """*sizes* with every count replaced by its bucket representative —
    the only size view planning (greedy or cost-based) ever consumes."""
    if sizes is None:
        return None
    return {p: bucket_size(n) for p, n in sizes.items()}


def program_key(
    program: Program,
    sizes: Optional[Mapping[str, int]],
    cost_signature: tuple = (),
) -> tuple:
    """The cache key: canonical text, log-bucketed size signature, and
    the planner's cost-model signature (``()`` for pure greedy)."""
    size_sig = (
        tuple(sorted((p, bucket_size(n)) for p, n in sizes.items()))
        if sizes
        else ()
    )
    return (str(program), size_sig, cost_signature)


_CACHE: "OrderedDict[tuple, PreparedProgram]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 256
_HITS = 0
_MISSES = 0


def _build(
    program: Program,
    sizes: Optional[Mapping[str, int]],
    key: tuple,
    cost_model: Optional[BoundCostModel] = None,
) -> PreparedProgram:
    # validated once per build: a cache hit's text was validated when
    # its entry was built, and a safe body-less rule has a ground head
    program.validate()
    fact_rules: list[tuple[int, str, tuple]] = []
    compiled: list[CompiledRule] = []
    rep_sizes = bucketed_sizes(sizes)
    for i, r in enumerate(program.rules):
        if not r.body:
            fact_rules.append((i, r.head.predicate, r.head.as_fact()))
            continue
        compiled.append(compile_rule(r, i, sizes=rep_sizes, cost_model=cost_model))
    info = analyze(program)
    if program.has_negation():
        layers = stratify(program, info)
        index = {p: i for i, layer in enumerate(layers) for p in layer}
        grouped: dict[int, list[CompiledRule]] = {}
        for cr in compiled:
            grouped.setdefault(index[cr.rule.head.predicate], []).append(cr)
        strata = tuple(
            tuple(grouped.get(i, [])) for i in range(len(layers))
        )
    else:
        strata = (tuple(compiled),) if compiled else ()
    return PreparedProgram(
        program=program,
        key=key,
        fact_rules=tuple(fact_rules),
        compiled=tuple(compiled),
        info=info,
        strata=strata,
        arities=dict(program.arities()),
        plans_costed=cost_model.plans_costed if cost_model is not None else 0,
    )


def planning_inputs(
    program: Program,
    db: Database,
    use_cost_planner: bool,
    derived: Optional[Mapping[str, RelationProfile]] = None,
) -> tuple[dict[str, int], Optional[BoundCostModel]]:
    """The ``(sizes, cost_model)`` pair :func:`prepare` plans *program*
    over *db* from — shared by ``evaluate`` and session restore so both
    land on the same prepared-cache entry.

    Derived relations are empty (or nearly so) before the fixpoint but
    typically grow past the base relations, so each is sized larger
    than any stored relation, worst-case degree.  *derived* replaces
    that worst case for the derived predicates it covers (the
    analyzer's propagated profiles); the counted profiles of stored
    base relations stay authoritative."""
    sizes = db.relation_sizes()
    largest = max(sizes.values(), default=0)
    idb = program.idb_predicates()
    for pred in idb:
        sizes[pred] = max(sizes.get(pred, 0), largest + 1)
    if not use_cost_planner:
        return sizes, None
    profiles = profile_database(db, sizes)
    for pred, profile in (derived or {}).items():
        if pred in idb:
            profiles[pred] = profile
    return sizes, BoundCostModel(profiles)


def prepare(
    program: Program,
    sizes: Optional[Mapping[str, int]] = None,
    *,
    cost_model: Optional[BoundCostModel] = None,
    use_cache: bool = True,
) -> PreparedProgram:
    """Return the (possibly cached) :class:`PreparedProgram`; a build
    validates *program* first (:meth:`~repro.datalog.ast.Program.validate`).

    *sizes* is the relation-size profile fed to the join-order
    heuristic, exactly as :func:`~repro.engine.evaluator.evaluate`
    computes it (IDB predicates bumped past the largest stored
    relation); planning consumes its bucket representatives, never the
    exact counts.  *cost_model*, when given, orders rule bodies
    (:mod:`repro.engine.cost`) and contributes its signature — which
    captures every profile the model plans from — to the cache key.  A
    hit returns plans identical to a fresh compile under the same key,
    so cached and uncached evaluations are bit-identical in every
    counter.
    """
    cost_sig = cost_model.signature() if cost_model is not None else ()
    key = program_key(program, sizes, cost_sig)
    global _HITS, _MISSES
    if use_cache:
        with _CACHE_LOCK:
            cached = _CACHE.get(key)
            if cached is not None:
                _CACHE.move_to_end(key)
                _HITS += 1
                return cached
    prepared = _build(program, sizes, key, cost_model=cost_model)
    if use_cache:
        with _CACHE_LOCK:
            if key in _CACHE:
                # a concurrent prepare won the race; keep its instance
                # so kernel memoization accumulates on one object
                _HITS += 1
                return _CACHE[key]
            _MISSES += 1
            _CACHE[key] = prepared
            while len(_CACHE) > _CACHE_MAX:
                _CACHE.popitem(last=False)
    return prepared


def prepared_cache_stats() -> dict:
    """Cache occupancy and hit/miss counters (for tests and benches)."""
    with _CACHE_LOCK:
        return {"entries": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_prepared_cache() -> None:
    """Drop every cached preparation and reset the counters."""
    global _HITS, _MISSES
    with _CACHE_LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
