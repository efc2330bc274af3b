"""Phase 3 — discarding rules under uniform query equivalence
(sections 3.3 and 5).

Deleting an arbitrary rule while preserving (query) equivalence is
undecidable (Theorem 3.4), and remains undecidable under the paper's
*uniform query equivalence* (Lemma 4.2).  This module implements the
paper's sufficient conditions:

- :func:`lemma51_deletable` — the single-unit-rule summary test
  (Lemma 5.1 / Algorithm 5.2): an occurrence ``p.n`` whose every
  query-rooted composite-projection summary equals the projection of a
  unit rule ``q :- p.k`` lets us delete the rule containing ``p.n``.
- :func:`lemma53_deletable` — the multi-unit-rule generalization
  (Lemma 5.3): the summaries must each equal *some* summary generated
  (Algorithm 5.1) from the set of all unit-rule projections.
- :func:`chase_deletable` — the uniform-query-equivalence chase
  demonstrated in Example 6: to delete a rule ``r`` with head predicate
  ``p``, characterize (via query-rooted summaries) how ``p``-facts can
  contribute to query facts, freeze ``r``'s body into a canonical
  database, and check that the remaining program already derives every
  query fact the frozen head could contribute.  This is the test the
  paper applies verbatim ("we test to see if the program without this
  rule, running on the ground instance of the body as input, produces
  ``a^nd(x)`` rather than ``a^nn(x,y)``"); the summary side-condition
  makes the replacement argument of Lemma 5.1's proof sketch go through
  for non-unit rules.
- :func:`cascade` — the clean-ups the paper applies after deletions
  (Examples 7 and 8): drop rules whose body uses a derived predicate
  with no remaining defining rule, and rules defining predicates
  unreachable from the query.

:func:`delete_rules` drives the tests to a fixpoint.  All functions
require a *projected* adorned program (the paper: "Henceforth, we will
assume that this has been done").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.ast import Rule
from ..datalog.errors import TransformError
from ..datalog.terms import Term, Variable
from .adornment import AdornedProgram, AdornedRule
from .argument_projection import (
    ArgumentProjection,
    QueryRootedSummaries,
    head_body_projection,
    identity_projection,
    query_rooted_summaries,
    summary_closure,
)
from .uniform_equivalence import frozen_chase, rule_deletable_uniform
from .unit_rules import is_unit_rule

__all__ = [
    "Deletion",
    "DeletionReport",
    "lemma51_deletable",
    "lemma53_deletable",
    "chase_deletable",
    "cascade",
    "delete_rules",
]


@dataclass(frozen=True)
class Deletion:
    """One deleted rule and the justification used."""

    rule: AdornedRule
    reason: str

    def __str__(self) -> str:
        return f"{self.rule}   [{self.reason}]"


@dataclass(frozen=True)
class DeletionReport:
    """The trimmed program plus the deletion log."""

    program: AdornedProgram
    deleted: tuple[Deletion, ...]

    @property
    def count(self) -> int:
        return len(self.deleted)


def _require_projected(program: AdornedProgram) -> None:
    if not program.projected:
        raise TransformError(
            "rule deletion operates on projected programs (apply Lemma 3.2 first)"
        )


def _require_positive(program: AdornedProgram) -> None:
    """The deletion tests' replacement arguments assume monotone
    programs over stored relations; with negation, removing a rule can
    *add* answers through a negated dependency, and comparison
    built-ins cannot be evaluated over the frozen-body chase's skolem
    constants — in either case the tests refuse."""
    from ..datalog.builtins import is_builtin

    if any(r.negative for r in program.rules):
        raise TransformError(
            "rule deletion under uniform (query) equivalence is not supported "
            "for programs with negation (non-monotonic); see section 6"
        )
    if any(
        is_builtin(lit.atom.predicate) for r in program.rules for lit in r.body
    ):
        raise TransformError(
            "rule deletion under uniform (query) equivalence is not supported "
            "for programs with comparison built-ins; see section 6"
        )


def _unit_candidates(
    program: AdornedProgram,
    body_pred: str,
    exclude_rule: int,
    head_pred: Optional[str] = None,
) -> list[ArgumentProjection]:
    """Projections of unit rules ``head_pred :- body_pred`` (all heads
    when *head_pred* is None), excluding rule *exclude_rule*."""
    out = []
    for ui, urule in enumerate(program.rules):
        if ui == exclude_rule or not is_unit_rule(urule):
            continue
        if head_pred is not None and urule.head.atom.predicate != head_pred:
            continue
        if urule.body[0].atom.predicate != body_pred:
            continue
        out.append(head_body_projection(urule, 0))
    return out


def lemma51_deletable(
    program: AdornedProgram,
    rule_index: int,
    summaries: Optional[QueryRootedSummaries] = None,
) -> Optional[str]:
    """Lemma 5.1: return a reason string if the rule can be deleted.

    The rule is deletable if it contains a derived occurrence ``p.n``
    such that there is a unit rule ``q(t) :- p.k(tk)`` (or the trivial
    identity when ``p`` is the query predicate) whose projection equals
    every summary of composite projections ``(q, ...), ..., (..., p.n)``.
    The unit rule must not be the rule under deletion (the replacement
    tree of the proof sketch must survive the deletion).
    """
    _require_projected(program)
    _require_positive(program)
    if summaries is None:
        summaries = query_rooted_summaries(program)
    query_pred = program.query.atom.predicate
    rule = program.rules[rule_index]
    for bi, lit in enumerate(rule.body):
        if not lit.derived:
            continue
        pred = lit.atom.predicate
        candidates = _unit_candidates(program, pred, rule_index, head_pred=query_pred)
        if pred == query_pred:
            candidates.append(identity_projection(pred, program.query.atom.arity))
        occ_sums = summaries.by_occurrence.get((rule_index, bi), frozenset())
        for unit_proj in candidates:
            if all(s == unit_proj for s in occ_sums):
                return f"lemma5.1 occurrence ({rule_index},{bi}) of {pred}"
    return None


def lemma53_deletable(
    program: AdornedProgram,
    rule_index: int,
    summaries: Optional[QueryRootedSummaries] = None,
) -> Optional[str]:
    """Lemma 5.3: the multi-unit-rule generalization of Lemma 5.1.

    ``S1`` is the set of projections of all unit rules in the program
    (other than the rule under deletion) together with the identity on
    the query predicate; ``S2`` its Algorithm-5.1 summary closure.  The
    rule is deletable if it contains a derived occurrence whose every
    query-rooted summary is identical to some member of ``S2``.
    """
    _require_projected(program)
    _require_positive(program)
    if summaries is None:
        summaries = query_rooted_summaries(program)
    return _lemma53(program, rule_index, summaries, _unit_closure(program, rule_index))


def _unit_closure(
    program: AdornedProgram, rule_index: Optional[int]
) -> frozenset[ArgumentProjection]:
    """``S2`` of Lemma 5.3: the summary closure of ``S1``, the
    projections of every unit rule but rule *rule_index* plus the
    identity on the query predicate.  Only a unit rule's own projection
    is ever excluded, so every non-unit candidate of a program shares
    the closure ``_unit_closure(program, None)``."""
    query = program.query.atom
    s1 = [
        head_body_projection(urule, 0)
        for ui, urule in enumerate(program.rules)
        if ui != rule_index and is_unit_rule(urule)
    ]
    s1.append(identity_projection(query.predicate, query.arity))
    return summary_closure(s1)


def _lemma53(
    program: AdornedProgram,
    rule_index: int,
    summaries: QueryRootedSummaries,
    s2: frozenset[ArgumentProjection],
) -> Optional[str]:
    """Lemma 5.3 for rule *rule_index* against a precomputed closure
    *s2* (:func:`_unit_closure`)."""
    rule = program.rules[rule_index]
    for bi, lit in enumerate(rule.body):
        if not lit.derived:
            continue
        occ_sums = summaries.by_occurrence.get((rule_index, bi), frozenset())
        if not occ_sums:
            continue  # unreachable occurrences are the cascade's job
        if all(s in s2 for s in occ_sums):
            return f"lemma5.3 occurrence ({rule_index},{bi}) of {lit.atom.predicate}"
    return None


def _contribution_substitution(
    rule: Rule, sigma: ArgumentProjection, query_arity: int
) -> Optional[tuple[dict, tuple[int, ...]]]:
    """For the chase test: the substitution that makes *rule*'s head
    satisfy the equality constraints of summary *sigma*, plus one
    representative head position per query position.

    Returns ``None`` when some query position is not covered by
    *sigma* (the contributed query fact is then underdetermined and the
    rule cannot be deleted via this summary); raises
    :class:`_Unrealizable` when the constraints conflict with the
    head's constants (no instance contributes through *sigma*, so it
    imposes no obligation).
    """
    subst: dict[Variable, Term] = {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Variable) and t in subst:
            t = subst[t]
        return t

    representatives = []
    for i in range(query_arity):
        js = sorted(sigma.maps_position(i))
        if not js:
            return None
        t0 = resolve(rule.head.args[js[0]])
        for j in js[1:]:
            tj = resolve(rule.head.args[j])
            if t0 == tj:
                continue
            if isinstance(t0, Variable):
                subst[t0] = tj
                t0 = tj
            elif isinstance(tj, Variable):
                subst[tj] = t0
            else:
                raise _Unrealizable()
        representatives.append(js[0])
    flat = {v: resolve(t) for v, t in subst.items()}
    return flat, tuple(representatives)


class _Unrealizable(Exception):
    """A summary's equality constraints conflict with the rule head's
    constants; no instance of the rule contributes through it."""


def chase_deletable(
    program: AdornedProgram,
    rule_index: int,
    summaries: Optional[QueryRootedSummaries] = None,
) -> Optional[str]:
    """The Example-6 uniform-query-equivalence chase test.

    Let ``r`` be the candidate rule and ``p`` its head predicate.  The
    query-rooted summaries ending at occurrences of ``p`` (plus the
    identity when ``p`` is the query itself) characterize every way a
    ``p``-fact can determine a query fact.  For each such summary
    ``σ``:

    1. if some query position is not connected by ``σ``, fail — the
       contribution is underdetermined;
    2. apply the equality constraints ``σ`` imposes on the head
       arguments (conflicting constants mean ``σ`` contributes nothing
       for this rule and is skipped);
    3. freeze the constrained rule's body into a canonical database and
       require the program *without* ``r`` to derive the query fact the
       frozen head determines through ``σ``.

    If every summary passes, deleting ``r`` preserves uniform query
    equivalence: in any derivation, the subtree rooted at an application
    of ``r`` can be replaced — by the homomorphic image of the chase
    derivation — without changing the query fact at the root.
    """
    _require_projected(program)
    _require_positive(program)
    if summaries is None:
        summaries = query_rooted_summaries(program)
    query_pred = program.query.atom.predicate
    query_arity = program.query.atom.arity
    rule = program.rules[rule_index]
    head_pred = rule.head.atom.predicate
    if not rule.body:
        return None  # fact rules are data, not deletable by this test

    sigma_set: set[ArgumentProjection] = set()
    for occ, proj in summaries.projections.items():
        if proj.right == head_pred:
            sigma_set.update(summaries.by_occurrence.get(occ, frozenset()))
    if head_pred == query_pred:
        sigma_set.add(identity_projection(query_pred, query_arity))
    if not sigma_set:
        return None  # unreachable; the cascade removes it more cheaply

    plain = program.to_program()
    plain_rule = rule.to_rule()

    for sigma in sigma_set:
        try:
            constrained = _contribution_substitution(plain_rule, sigma, query_arity)
        except _Unrealizable:
            continue
        if constrained is None:
            return None
        subst, representatives = constrained
        ground_head, fixpoint = frozen_chase(
            plain, plain_rule.substitute(subst), {rule_index}
        )
        frozen = ground_head.as_fact()
        answers = fixpoint.relation(query_pred)
        if answers is None or tuple(frozen[j] for j in representatives) not in answers:
            return None
    return f"uniform-query-equivalence chase (head {head_pred}, {len(sigma_set)} summaries)"


def cascade(program: AdornedProgram) -> DeletionReport:
    """Post-deletion clean-up (Examples 7 and 8).

    Repeatedly drop (a) rules whose body mentions an *unproductive*
    derived predicate — one that can never hold a fact because it has
    no defining rules (Example 7: "there are now no rules defining
    p1") or only rules that recurse through unproductive predicates
    (Example 8: "the fourth rule can now be dropped since there is no
    exit rule") — and (b) rules whose head predicate is not reachable
    from the query.

    Note on equivalence strength: unlike the Lemma 5.1/5.3 deletions,
    the cascade assumes derived predicates start *empty*, so it
    preserves (plain) query equivalence, the section-2 notion the
    optimizer's end-to-end guarantee is stated in — not uniform
    equivalence, whose inputs may pre-populate IDB predicates.
    """
    rules = list(program.rules)
    query_pred = program.query.atom.predicate
    deleted: list[Deletion] = []
    changed = True
    while changed:
        changed = False
        # Productive predicates: least fixpoint of "some rule's derived
        # body literals are all productive" (base literals can always
        # be satisfied by some EDB).
        productive: set[str] = set()
        grew = True
        while grew:
            grew = False
            for r in rules:
                head = r.head.atom.predicate
                if head in productive:
                    continue
                if all(
                    (not lit.derived) or lit.atom.predicate in productive
                    for lit in r.body
                ):
                    productive.add(head)
                    grew = True
        kept: list[AdornedRule] = []
        for r in rules:
            dead = next(
                (
                    lit.atom.predicate
                    for lit in r.body
                    if lit.derived and lit.atom.predicate not in productive
                ),
                None,
            )
            if dead is not None:
                deleted.append(Deletion(r, f"unproductive predicate {dead}"))
                changed = True
            else:
                kept.append(r)
        rules = kept

        reachable = {query_pred}
        frontier = [query_pred]
        by_head: dict[str, list[AdornedRule]] = {}
        for r in rules:
            by_head.setdefault(r.head.atom.predicate, []).append(r)
        while frontier:
            pred = frontier.pop()
            for r in by_head.get(pred, ()):
                for lit in (*r.body, *r.negative):
                    if lit.derived and lit.atom.predicate not in reachable:
                        reachable.add(lit.atom.predicate)
                        frontier.append(lit.atom.predicate)
        kept = []
        for r in rules:
            if r.head.atom.predicate not in reachable:
                deleted.append(Deletion(r, "unreachable from query"))
                changed = True
            else:
                kept.append(r)
        rules = kept
    return DeletionReport(program.with_rules(rules), tuple(deleted))


def delete_rules(
    program: AdornedProgram,
    method: str = "lemma53",
    use_chase: bool = True,
    use_sagiv: bool = True,
) -> DeletionReport:
    """Drive the deletion tests to a fixpoint (Algorithm 5.2 + chase).

    *method* selects the summary test: ``"lemma51"`` or ``"lemma53"``
    (the default; it subsumes 5.1).  Per candidate rule the tests run
    cheapest-first: Sagiv's uniform-equivalence chase (*use_sagiv*,
    Example 4 — the paper notes its algorithm "complements Sagiv's"),
    then the summary test, then the Example-6 uniform-query-equivalence
    chase (*use_chase*).  After every deletion the cascade clean-up runs
    and all summaries are recomputed.

    A rule whose Sagiv chase failed is not chased again after a
    restart: the program only shrinks, and a positive sub-program
    derives less, so the verdict cannot flip.  The summary test and the
    Example-6 chase are not monotone and re-run on every pass.
    """
    _require_projected(program)
    _require_positive(program)
    if method not in ("lemma51", "lemma53"):
        raise TransformError(f"unknown deletion method {method!r}")

    deleted: list[Deletion] = []
    report = cascade(program)
    deleted.extend(report.deleted)
    program = report.program
    # id() of every rule whose Sagiv chase failed; each stays alive in
    # the program or in the deletion log, so no id is reused
    sagiv_failed: set[int] = set()

    progress = True
    while progress:
        progress = False
        summaries = query_rooted_summaries(program)
        plain = program.to_program()
        shared_s2 = None  # the Lemma 5.3 closure of this pass's non-unit rules
        for ri, rule in enumerate(program.rules):
            reason = None
            if use_sagiv and rule.body and id(rule) not in sagiv_failed:
                if rule_deletable_uniform(plain, ri):
                    reason = "sagiv uniform equivalence"
                else:
                    sagiv_failed.add(id(rule))
            if reason is None and method == "lemma51":
                reason = lemma51_deletable(program, ri, summaries)
            elif reason is None:
                if is_unit_rule(rule):
                    s2 = _unit_closure(program, ri)
                else:
                    if shared_s2 is None:
                        shared_s2 = _unit_closure(program, None)
                    s2 = shared_s2
                reason = _lemma53(program, ri, summaries, s2)
            if reason is None and use_chase:
                reason = chase_deletable(program, ri, summaries)
            if reason is not None:
                deleted.append(Deletion(rule, reason))
                program = program.without_rules([ri])
                report = cascade(program)
                deleted.extend(report.deleted)
                program = report.program
                progress = True
                break
    return DeletionReport(program, tuple(deleted))
