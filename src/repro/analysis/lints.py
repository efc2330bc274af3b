"""Layer 1 — program lints: what does the optimizer see?

Each lint inspects the parsed (and, where meaningful, the adorned)
program and reports a :class:`~repro.analysis.diagnostics.Diagnostic`
instead of crashing or silently missing a rewrite:

- *errors* are the pipeline's preconditions (safety, arity coherence,
  stratification, a defined query predicate) surfaced with spans and
  hints rather than bare exceptions;
- *warnings* are almost-certainly-unintended constructs (undefined body
  predicates that evaluate as empty relations, unreachable rules,
  duplicate rules, repeated literals, Cartesian-product bodies,
  negation of an empty predicate);
- *infos* describe the paper's optimizations as they will apply:
  existential (``d``) positions the adornment algorithm finds
  (Lemma 2.2) and the arity savings of projection pushing (Lemma 3.2),
  boolean subqueries the component split will extract (Lemma 3.1), and
  the Theorem 3.3 monadic rewrite when the program is a chain program
  with a regular grammar.

The entry point is :func:`lint_program`; pass the known EDB predicate
names (e.g. ``db.predicates()``) to enable the checks that need to
distinguish "stored relation" from "never defined anywhere".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from ..datalog.analysis import anchored, body_components, is_chain_program, reachable_predicates
from ..datalog.ast import Atom, Program
from ..datalog.builtins import is_builtin
from ..datalog.errors import ReproError, ValidationError
from .diagnostics import CODES, Diagnostic, LintReport, Severity

if TYPE_CHECKING:
    from ..core.adornment import AdornedProgram
    from ..engine.cost import RelationProfile

__all__ = ["lint_program"]


def _diag(code: str, message: str, **kw) -> Diagnostic:
    return Diagnostic(code, CODES[code].severity, message, **kw)


def _check_arities(program: Program, diags: list) -> bool:
    """DL002 — every predicate used at one arity; returns coherence."""
    first: dict[str, tuple[int, Optional[Atom]]] = {}
    coherent = True

    def record(a: Atom) -> None:
        nonlocal coherent
        prev = first.setdefault(a.predicate, (a.arity, a))
        if prev[0] != a.arity:
            coherent = False
            diags.append(
                _diag(
                    "DL002",
                    f"predicate '{a.predicate}' is used with arities "
                    f"{prev[0]} and {a.arity}",
                    predicate=a.predicate,
                    span=a.span,
                    hint="every occurrence of a predicate must have the same "
                    "number of arguments",
                )
            )

    for r in program.rules:
        for a in (r.head, *r.body, *r.negative):
            record(a)
    if program.query is not None:
        record(program.query)
    return coherent


def _check_safety(program: Program, diags: list) -> bool:
    """DL001 — range restriction, per rule; returns overall safety."""
    safe = True
    for i, r in enumerate(program.rules):
        if r.is_safe():
            continue
        safe = False
        exposed = set(r.head.variables()) | {
            v for a in r.negative for v in a.variables()
        }
        names = ", ".join(sorted(v.name for v in exposed - r.body_variables()))
        diags.append(
            _diag(
                "DL001",
                f"variables {names} of rule {r} are not bound by the "
                f"positive body",
                predicate=r.head.predicate,
                rule_index=i,
                span=r.span,
                hint="every head variable and every variable of a negated "
                "literal must occur in a positive body literal",
            )
        )
    return safe


def _check_stratification(program: Program, diags: list) -> None:
    """DL003 — no recursion through negation."""
    if not program.has_negation():
        return
    from ..datalog.analysis import stratify

    try:
        stratify(program)
    except ValidationError as exc:
        diags.append(
            _diag(
                "DL003",
                str(exc),
                hint="break the cycle so every negative dependency points "
                "strictly downward (stratified semantics, section 6)",
            )
        )


def _check_duplicates(program: Program, diags: list) -> None:
    """DL008 — rules identical up to variable renaming."""
    seen: dict[tuple, int] = {}
    for i, r in enumerate(program.rules):
        key = r.canonical_key()
        if key in seen:
            diags.append(
                _diag(
                    "DL008",
                    f"rule {r} duplicates rule #{seen[key]} "
                    f"({program.rules[seen[key]]})",
                    predicate=r.head.predicate,
                    rule_index=i,
                    span=r.span,
                    hint="delete one copy; duplicate rules derive the same "
                    "facts twice",
                )
            )
        else:
            seen[key] = i


def _check_redundant_literals(program: Program, diags: list) -> None:
    """DL009 — a body literal repeated verbatim in one body."""
    for i, r in enumerate(program.rules):
        seen: set[Atom] = set()
        for a in r.body:
            if a in seen:
                diags.append(
                    _diag(
                        "DL009",
                        f"literal {a} occurs twice in the body of rule {r}",
                        predicate=r.head.predicate,
                        rule_index=i,
                        span=a.span or r.span,
                        hint="drop the duplicate; conjunctive-query "
                        "minimization would remove it anyway",
                    )
                )
                break
            seen.add(a)


def _check_cross_products(
    program: Program, adorned: Optional["AdornedProgram"], diags: list
) -> None:
    """DL012 — ≥2 variable-disjoint body components each binding head
    variables the query actually *needs*: the engine joins them as a
    Cartesian product and Lemma 3.1 cannot cut any of them.

    The check is adornment-aware: a component anchored only to
    existential head positions is the Lemma 3.1 boolean-subquery case
    (reported as DL011 info), not a product the optimizer is stuck
    with.  When the program cannot be adorned (*adorned* is None: no
    query, earlier errors) the plain head-variable anchoring is used
    instead."""
    if adorned is not None:
        anchored_rules = [
            (
                r.head.atom.predicate.partition("@")[0],
                r.to_rule(),
                r.head.needed_variables(),
                r.head.atom.span,
            )
            for r in adorned.rules
        ]
    else:
        anchored_rules = [
            (r.head.predicate, r, set(r.head.variables()), r.span)
            for r in program.rules
        ]
    seen: set[tuple] = set()
    for predicate, r, anchor_vars, span in anchored_rules:
        if len(r.body) < 2:
            continue
        bound = sum(
            anchored(r.body, comp, anchor_vars)
            for comp in body_components(r.body, r.negative)
        )
        key = (predicate, span, bound)
        if bound >= 2 and key not in seen:
            seen.add(key)
            diags.append(
                _diag(
                    "DL012",
                    f"the body of rule {r} is a Cartesian product of "
                    f"{bound} variable-disjoint components, each bound "
                    f"to needed head positions",
                    predicate=predicate,
                    span=span,
                    hint="if the product is unintended, connect the "
                    "components with a shared variable; the join cost is "
                    "the product of their sizes",
                )
            )


def _check_query(
    program: Program, edb: Optional[frozenset[str]], diags: list
) -> None:
    """DL004 / DL005 / DL007 — query presence, definedness, reachability."""
    if program.query is None:
        if program.rules:
            diags.append(
                _diag(
                    "DL004",
                    "the program has no ?- query",
                    hint="the optimization pipeline adorns from the query "
                    "(section 2); add one, e.g. '?- q(X).'",
                )
            )
        return
    qp = program.query.predicate
    idb = program.idb_predicates()
    if qp not in idb and not (edb is not None and qp in edb):
        diags.append(
            _diag(
                "DL005",
                f"query predicate '{qp}' has no defining rules"
                + ("" if edb is None else " and no facts"),
                predicate=qp,
                span=program.query.span,
                hint="define the predicate with at least one rule, or query "
                "a stored relation that has facts",
            )
        )
    reachable = reachable_predicates(program, [qp])
    for i, r in enumerate(program.rules):
        if r.head.predicate not in reachable:
            diags.append(
                _diag(
                    "DL007",
                    f"rule {r} defines '{r.head.predicate}', which the query "
                    f"'?- {program.query}' never reaches",
                    predicate=r.head.predicate,
                    rule_index=i,
                    span=r.span,
                    hint="dead code: the cascade cleanup (section 5, "
                    "Examples 7/8) would delete this rule",
                )
            )


def _check_undefined_predicates(
    program: Program, edb: Optional[frozenset[str]], diags: list
) -> None:
    """DL006 / DL014 — body / negated predicates defined nowhere."""
    if edb is None:
        return  # without EDB knowledge every undefined name may be stored
    idb = program.idb_predicates()
    seen_positive: set[str] = set()
    seen_negative: set[str] = set()
    for i, r in enumerate(program.rules):
        for a in r.body:
            p = a.predicate
            if p in idb or p in edb or is_builtin(p) or p in seen_positive:
                continue
            seen_positive.add(p)
            diags.append(
                _diag(
                    "DL006",
                    f"body predicate '{p}' has no defining rules and no "
                    f"facts; it evaluates as an empty relation, so rule "
                    f"{r} can never fire",
                    predicate=p,
                    rule_index=i,
                    span=a.span,
                    hint="add facts or rules for the predicate, or remove "
                    "the dead literal",
                )
            )
        for a in r.negative:
            p = a.predicate
            if p in idb or p in edb or p in seen_negative:
                continue
            seen_negative.add(p)
            diags.append(
                _diag(
                    "DL014",
                    f"negated predicate '{p}' has no defining rules and no "
                    f"facts; 'not {a}' is always true",
                    predicate=p,
                    rule_index=i,
                    span=a.span,
                    hint="the literal is a no-op; drop it or define the "
                    "predicate",
                )
            )


def _check_facts(program: Program, diags: list) -> None:
    """DL015 — ground facts mixed into the rule set."""
    for i, r in enumerate(program.rules):
        if r.is_fact():
            diags.append(
                _diag(
                    "DL015",
                    f"ground fact {r} appears among the rules",
                    predicate=r.head.predicate,
                    rule_index=i,
                    span=r.span,
                    hint="the paper's convention (section 1.1) stores all "
                    "facts in the EDB; move it to the facts file",
                )
            )


#: distinct in-program constants above which the columnar dictionary's
#: interning work cannot amortize over a boolean query's one-bit answer
DICTIONARY_OVERHEAD_THRESHOLD = 16


def _check_dictionary_overhead(program: Program, diags: list) -> None:
    """DL016 — boolean query over a large in-program constant universe.

    A zero-arity query produces at most one fact, so every constant the
    columnar plane interns is pure overhead unless the EDB re-uses it
    heavily; with many distinct constants written into the rules
    themselves, the dictionary is guaranteed to be large before the
    first batch probe runs.
    """
    query = program.query
    if query is None or query.arity != 0:
        return
    consts = {
        c.value
        for rule in program.rules
        for atom in (rule.head, *rule.body, *rule.negative)
        for c in atom.constants()
    }
    if len(consts) <= DICTIONARY_OVERHEAD_THRESHOLD:
        return
    diags.append(
        _diag(
            "DL016",
            f"boolean query {query} over {len(consts)} distinct "
            f"in-program constants (threshold "
            f"{DICTIONARY_OVERHEAD_THRESHOLD}): dictionary encoding "
            f"cannot amortize over a one-bit answer",
            predicate=query.predicate,
            span=query.span,
            hint="run with --no-columnar, or move the constants into "
            "EDB facts so only live values are interned",
        )
    )


def _check_adornment_opportunities(
    adorned: Optional["AdornedProgram"], diags: list
) -> None:
    """DL010 / DL011 — what the adornment algorithm and the component
    split will find (Lemma 2.2 / Lemma 3.1)."""
    from ..core.adornment import split_adorned

    if adorned is None:
        return  # earlier diagnostics already explain why adornment fails

    reported: set[str] = set()
    for rule in adorned.rules:
        name = rule.head.atom.predicate
        base, ad = split_adorned(name)
        if ad is None or name in reported:
            continue
        reported.add(name)
        saved = len(ad.existential_positions)
        if saved:
            diags.append(
                _diag(
                    "DL010",
                    f"adorned version {name} has {saved} existential "
                    f"position(s); projection pushing reduces the arity of "
                    f"'{base}' from {len(ad)} to {len(ad) - saved} here",
                    predicate=base,
                    span=rule.head.atom.span,
                    hint="positions adorned d are dropped by Lemma 3.2; "
                    "this is the paper's headline work reduction",
                )
            )

    for rule in adorned.rules:
        head = rule.head
        if head.atom.arity == 0:
            continue
        plain, anchor = rule.to_rule(), head.needed_variables()
        for comp in body_components(plain.body, plain.negative):
            if anchored(plain.body, comp, anchor):
                continue
            comp_lits = [rule.body[i] for i in comp]
            if len(comp_lits) == 1 and comp_lits[0].atom.arity == 0:
                continue
            lits = ", ".join(str(lit.atom) for lit in comp_lits)
            diags.append(
                _diag(
                    "DL011",
                    f"in rule {rule}, the body component {{{lits}}} shares "
                    f"no variable with a needed head position; it is an "
                    f"existential subquery",
                    predicate=split_adorned(head.atom.predicate)[0],
                    span=comp_lits[0].atom.span or head.atom.span,
                    hint="the optimizer extracts it as a boolean predicate "
                    "evaluated once and retired (Lemma 3.1 cut)",
                )
            )


#: multiple of the synthetic per-relation size past which a rule's best
#: achievable intermediate bound counts as a blowup — crossed only by
#: needed cross products and very long weakly-joined chains, never by
#: the paper's chain/TC/same-generation shapes
BOUND_BLOWUP_FACTOR = 100


def _check_bound_blowup(
    program: Program,
    adorned: Optional["AdornedProgram"],
    diags: list,
    profiles: Optional[Mapping[str, "RelationProfile"]] = None,
) -> None:
    """DL017 — a rule whose *best* join order still blows up.

    :func:`repro.engine.cost.rule_intermediate_bound` prices every body
    under a synthetic EDB profile (``DEFAULT_SIZE`` rows, mild per-
    position fanout) and reports the largest intermediate cardinality
    along the cheapest order its DP finds.  When even that optimum
    exceeds ``BOUND_BLOWUP_FACTOR ×  DEFAULT_SIZE``, no planner can
    save the rule: the body itself forces a huge intermediate result
    (a cross product every component of which feeds the head, or a
    chain so long the fanout compounds past the threshold).  Purely
    existential body components are exempt by construction: the bound
    prices them at one row, because the Lemma 3.1 cut retires them as
    boolean subqueries (reported separately as DL011) before the join
    ever enumerates them.  When the program adorns (it has a query the
    pipeline accepts), the **adorned** rules are priced — a head
    position the adornment marks ``d`` no longer anchors its body
    component, exactly as projection pushing will evaluate it; without
    a usable adornment the raw rules are priced instead.

    *profiles* (predicate → :class:`RelationProfile`) replaces the
    synthetic defaults with **measured** statistics for the predicates
    it covers (``repro lint`` passes the loaded EDB's profile); the
    threshold then scales with the largest measured relation instead
    of ``DEFAULT_SIZE``.
    """
    from ..core.adornment import split_adorned
    from ..engine.cost import DEFAULT_SIZE, rule_intermediate_bound

    if profiles:
        base_size = max(
            max((p.size for p in profiles.values()), default=0), 1
        )
        basis = "largest measured relation"
    else:
        base_size = DEFAULT_SIZE
        basis = "synthetic relation size"
    threshold = BOUND_BLOWUP_FACTOR * base_size
    # (plain rule to price, needed override, anchor predicate, span)
    if adorned is not None:
        priced = [
            (
                rule.to_rule(),
                rule.head.needed_variables(),
                split_adorned(rule.head.atom.predicate)[0],
                rule.head.atom.span,
            )
            for rule in adorned.rules
        ]
    else:
        priced = [
            (rule, None, rule.head.predicate, rule.head.span)
            for rule in program.rules
        ]

    seen: set[tuple] = set()
    for rule, anchor, predicate, span in priced:
        if len(rule.body) < 2:
            continue
        bound = rule_intermediate_bound(rule, needed=anchor, profiles=profiles)
        if bound <= threshold:
            continue
        if (predicate, span) in seen:
            continue  # one report per source rule, not per adornment
        seen.add((predicate, span))
        diags.append(
            _diag(
                "DL017",
                f"best-order intermediate bound {bound:.0f} exceeds "
                f"{threshold} (= {BOUND_BLOWUP_FACTOR}x the {basis}): "
                f"every join order materializes a blown-up "
                f"intermediate result",
                predicate=predicate,
                span=span,
                hint="split the body into rules sharing more variables, "
                "or drop head variables so the existential cut applies",
            )
        )


def _check_chain_regularity(program: Program, diags: list) -> None:
    """DL013 — Theorem 3.3: chain program with a regular grammar."""
    if program.query is None or not program.rules:
        return
    if not is_chain_program(program):
        return
    from ..grammar import (
        is_right_linear,
        is_self_embedding,
        monadic_program_for,
        program_to_grammar,
    )

    try:
        grammar = program_to_grammar(program)
    except ReproError:
        return
    monadic = None
    try:
        monadic = monadic_program_for(program)
    except ReproError:
        monadic = None
    if monadic is not None:
        diags.append(
            _diag(
                "DL013",
                "chain program with a right-linear (regular) grammar: the "
                "query is answerable by an equivalent monadic recursion",
                predicate=program.query.predicate,
                span=program.query.span,
                hint="run 'repro grammar' to print the Theorem 3.3 monadic "
                "program",
            )
        )
    elif is_right_linear(grammar) or not is_self_embedding(grammar):
        diags.append(
            _diag(
                "DL013",
                "chain program whose grammar is not self-embedding, hence "
                "regular: an equivalent monadic program exists",
                predicate=program.query.predicate,
                span=program.query.span,
                hint="Theorem 3.3; see 'repro grammar' for the CFG view",
            )
        )


def lint_program(
    program: Program,
    edb: Optional[Iterable[str]] = None,
    source: str = "<program>",
    profiles: Optional[Mapping[str, "RelationProfile"]] = None,
) -> LintReport:
    """Run every lint over *program* and return the report.

    *edb*, when given, names the predicates with stored facts (e.g.
    ``db.predicates()``); it enables the undefined-predicate checks
    (DL005 sharpening, DL006, DL014), which are unanswerable from the
    program text alone because never-defined predicates are by
    convention assumed to be EDB relations.

    *profiles* (predicate → :class:`~repro.engine.cost.RelationProfile`,
    e.g. from :func:`repro.engine.cost.profile_database` over the
    loaded EDB) makes DL017 price rules with **measured** degree
    sketches instead of the synthetic defaults.
    """
    from ..core.adornment import adorn

    edb_set = frozenset(edb) if edb is not None else None
    diags: list[Diagnostic] = []
    try:
        adorned = adorn(program)
    except ReproError:
        adorned = None

    _check_arities(program, diags)
    _check_safety(program, diags)
    _check_stratification(program, diags)
    _check_duplicates(program, diags)
    _check_redundant_literals(program, diags)
    _check_cross_products(program, adorned, diags)
    _check_query(program, edb_set, diags)
    _check_undefined_predicates(program, edb_set, diags)
    _check_facts(program, diags)
    _check_dictionary_overhead(program, diags)
    if not any(d.severity is Severity.ERROR for d in diags):
        # optimization-opportunity lints need a program the pipeline
        # accepts; with errors present the story is already told above
        _check_adornment_opportunities(adorned, diags)
        _check_chain_regularity(program, diags)
        _check_bound_blowup(program, adorned, diags, profiles)
    return LintReport(tuple(diags), source=source)
