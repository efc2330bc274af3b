"""Rule subsumption and body minimization — one homomorphism search.

The paper closes with: "the problem is to devise techniques to detect
subsumption of a rule by other rules.  Whereas we have restricted our
attention to the case of subsumption by a set of (unit) rules, the
generalization to the case where a rule is subsumed by a set of
(arbitrary) rules is an interesting open question."

Its decidable core is the Chandra–Merlin containment mapping: a
homomorphism from one list of atoms into another that maps constants
to themselves.  :func:`homomorphism` is the one backtracking search for
it, and the optimizer's three syntactic tests are calls to it:

- **θ-subsumption** (:func:`theta_subsumes`): rule ``r1`` subsumes rule
  ``r2`` iff some ``θ`` maps ``head(r1)`` onto ``head(r2)``, the
  positive body of ``r1`` into that of ``r2`` and the negated literals
  of ``r1`` into those of ``r2``.  A subsumed rule derives only facts
  its subsumer also derives — from the *same* body facts — so deleting
  it preserves the fixpoint on every input: uniform equivalence, hence
  also uniform query equivalence and query equivalence.  It is the
  cheap syntactic special case of Sagiv's chase and directly captures
  single-rule redundancy like Example 9's fourth rule being covered by
  the first.  :func:`delete_subsumed` removes every rule θ-subsumed by
  another rule of the program.
- **Body minimization** (:func:`minimize_rule_bodies`): unfolding (and,
  less often, projection pushing) can leave a body with literals that
  constrain nothing, e.g. ``f(_U2), e(_U2, X), f(_U3), e(_U3, X)``; the
  engine pays the cross product of their matches.  A relational body
  literal ``L`` is dropped when the relational body maps into
  ``body − {L}`` by a homomorphism that is the identity on every head,
  negated-literal and built-in variable.  Dropping literals greedily to
  a fixpoint leaves the rule's core.
- **Folding** (:mod:`repro.core.folding`): a view body embeds into a
  rule body by an injective homomorphism.

``optimistic._match_optimistic`` stays separate: it matches under the
★ wildcard of Theorem 5.2, which is not a homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..datalog.ast import Atom, Program, Rule
from ..datalog.builtins import is_builtin
from ..datalog.terms import Constant, Term, Variable
from .adornment import AdornedProgram, AdornedRule

__all__ = [
    "homomorphism",
    "homomorphisms",
    "theta_subsumes",
    "subsumed_by_some",
    "delete_subsumed",
    "MinimizationReport",
    "minimize_rule_bodies",
]

Match = tuple[dict[Variable, Term], tuple[int, ...]]


def homomorphisms(
    source: Sequence[Atom],
    target: Sequence[Atom],
    fixed: Mapping[Variable, Term],
    distinct: bool = False,
) -> Iterator[Match]:
    """Every homomorphism from the atoms *source* into the atoms
    *target* that extends *fixed*.

    Constants map only to themselves; *target*'s terms are only
    compared, never substituted, so the two lists may share variable
    names.  Each result is the substitution and, per source atom, the
    index of its image in *target*.  With ``distinct=True`` no two
    source atoms share an image.  Source atoms are tried in their given
    order, each against the target atoms of its predicate and arity.
    """
    candidates = []
    for atom in source:
        options = [
            i
            for i, image in enumerate(target)
            if image.predicate == atom.predicate and image.arity == atom.arity
        ]
        if not options:
            return
        candidates.append(options)
    subst = dict(fixed)
    used: list[int] = []

    def extend(k: int) -> Iterator[Match]:
        if k == len(source):
            yield dict(subst), tuple(used)
            return
        for i in candidates[k]:
            if distinct and i in used:
                continue
            bound: list[Variable] = []
            for term, image in zip(source[k].args, target[i].args):
                if isinstance(term, Constant):
                    if term != image:
                        break
                elif term not in subst:
                    subst[term] = image
                    bound.append(term)
                elif subst[term] != image:
                    break
            else:
                used.append(i)
                yield from extend(k + 1)
                used.pop()
            for term in bound:
                del subst[term]

    yield from extend(0)


def homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    fixed: Mapping[Variable, Term],
    distinct: bool = False,
) -> Optional[Match]:
    """The first of :func:`homomorphisms`, or ``None``."""
    return next(homomorphisms(source, target, fixed, distinct), None)


def theta_subsumes(r1: Rule, r2: Rule) -> bool:
    """Does *r1* θ-subsume *r2*?

    ∃θ with ``head(r1)θ == head(r2)``, every positive literal of
    ``body(r1)θ`` in ``body(r2)`` and every negated literal of ``r1``
    among r2's negated literals (r2 checks at least the negations r1
    does, so it fires no more often).  r2 is frozen — its terms are
    only compared — so no renaming apart is needed.
    """
    head = homomorphism((r1.head,), (r2.head,), {})
    if head is None:
        return False
    return any(
        homomorphism(r1.negative, r2.negative, subst) is not None
        for subst, _ in homomorphisms(r1.body, r2.body, head[0])
    )


def subsumed_by_some(
    rule: Rule, others: Iterable[Rule]
) -> Optional[Rule]:
    """The first rule of *others* that properly θ-subsumes *rule*."""
    for candidate in others:
        if candidate is rule:
            continue
        if theta_subsumes(candidate, rule):
            return candidate
    return None


def delete_subsumed(program: Program) -> tuple[Program, list[tuple[Rule, Rule]]]:
    """Remove every rule θ-subsumed by another rule of the program.

    Returns the trimmed program and the list of
    ``(deleted_rule, subsuming_rule)`` pairs.  When two rules subsume
    each other (they are variants), the later one is deleted.  Sound
    for uniform equivalence, hence for every weaker notion.
    """
    kept: list[Rule] = []
    deleted: list[tuple[Rule, Rule]] = []
    for rule in program.rules:
        # a rule may be subsumed by an already-kept rule or by a
        # not-yet-processed one; checking against kept + remaining
        # while breaking variant ties by order:
        winner = subsumed_by_some(rule, kept)
        if winner is None:
            later = [
                r
                for r in program.rules
                if r is not rule and r not in kept
            ]
            for candidate in later:
                if theta_subsumes(candidate, rule) and not theta_subsumes(
                    rule, candidate
                ):
                    winner = candidate
                    break
        if winner is not None:
            deleted.append((rule, winner))
        else:
            kept.append(rule)
    return program.with_rules(kept), deleted


@dataclass(frozen=True)
class MinimizationReport:
    """The minimized program plus ``(before, after)`` per changed rule."""

    program: AdornedProgram
    changed: tuple[tuple[AdornedRule, AdornedRule], ...]

    @property
    def removed_literals(self) -> int:
        return sum(
            len(before.body) - len(after.body) for before, after in self.changed
        )


def _core(rule: AdornedRule) -> AdornedRule:
    """Drop relational body literals, lowest index first, while the
    relational body maps into the rest of itself fixing every head,
    negated-literal and built-in variable.

    Sound on every database: the homomorphism turns any match of the
    shorter body into a match of the longer one that agrees on every
    variable the head, the negations and the built-ins observe.
    """
    observed = [rule.head, *rule.negative]
    observed += [lit for lit in rule.body if is_builtin(lit.atom.predicate)]
    fixed = {v: v for lit in observed for v in lit.atom.variables()}
    while True:
        relational = [
            i for i, lit in enumerate(rule.body) if not is_builtin(lit.atom.predicate)
        ]
        atoms = [rule.body[i].atom for i in relational]
        for k, drop in enumerate(relational):
            if homomorphism(atoms, atoms[:k] + atoms[k + 1 :], fixed) is not None:
                body = rule.body[:drop] + rule.body[drop + 1 :]
                rule = AdornedRule(rule.head, body, rule.negative)
                break
        else:
            return rule


def minimize_rule_bodies(program: AdornedProgram) -> MinimizationReport:
    """Replace every rule body of *program* by its core."""
    changed: list[tuple[AdornedRule, AdornedRule]] = []
    rules: list[AdornedRule] = []
    for rule in program.rules:
        minimized = _core(rule)
        if minimized is not rule:
            changed.append((rule, minimized))
        rules.append(minimized)
    if not changed:
        return MinimizationReport(program, ())
    return MinimizationReport(program.with_rules(rules), tuple(changed))
