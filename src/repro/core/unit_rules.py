"""Unit rules and the *covers* relation (section 5, preliminaries).

A *unit rule* is a rule of the form ``p^a(t) :- p1^a1(t1)`` — a single
derived literal as the whole body.  The rule-deletion optimization
exploits unit rules: Lemma 5.1 uses one, Lemma 5.3 a set of them.

``q^a1`` *covers* ``q^a`` if both adornments have the same length and
each ``n`` of ``a`` corresponds to an ``n`` of ``a1`` (so don't-care
positions of ``a`` may be needed in ``a1``).  Intuitively every tuple
of ``q^a1`` is also a tuple of ``q^a`` (after dropping the extra
columns), so the unit rule ``q^a(t) :- q^a1(t1)`` may always be added —
the paper notes that with such rules added, the deletion algorithm
"often captures the essence of pushing projections" (it is what lets
Example 6's recursive rules be discarded).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.ast import Atom
from ..datalog.errors import TransformError
from ..datalog.terms import Variable
from .adornment import (
    Adornment,
    AdornedLiteral,
    AdornedProgram,
    AdornedRule,
    split_adorned,
)

__all__ = [
    "is_unit_rule",
    "covering_unit_rule",
    "add_covering_unit_rules",
    "UnitRuleReport",
]


def is_unit_rule(rule: AdornedRule) -> bool:
    """True iff the rule body is a single derived literal (and no
    negated literals)."""
    return len(rule.body) == 1 and rule.body[0].derived and not rule.negative


def covering_unit_rule(
    target: str, target_ad: Adornment, source: str, source_ad: Adornment
) -> AdornedRule:
    """Build the unit rule ``target@a(t) :- source@a1(t1)`` in projected
    form, where ``a1`` covers ``a`` and both adorned predicates share a
    base predicate.

    Shared needed positions use the same variable; positions needed in
    the source but existential in the target become fresh distinct
    variables on the source side only (they are projected away by the
    head).
    """
    if not source_ad.covers(target_ad):
        raise TransformError(f"{source_ad} does not cover {target_ad}")
    names = {i: Variable(f"V{i+1}") for i in source_ad.needed_positions}
    head_args = tuple(names[i] for i in target_ad.needed_positions)
    body_args = tuple(names[i] for i in source_ad.needed_positions)
    head = AdornedLiteral(Atom(target, head_args), target_ad, derived=True)
    body = AdornedLiteral(Atom(source, body_args), source_ad, derived=True)
    return AdornedRule(head, (body,))


@dataclass(frozen=True)
class UnitRuleReport:
    """Result of :func:`add_covering_unit_rules`."""

    program: AdornedProgram
    added: tuple[AdornedRule, ...]


def add_covering_unit_rules(
    adorned: AdornedProgram, only_query: bool = False
) -> UnitRuleReport:
    """Add every missing covering unit rule between adorned versions of
    the same base predicate (projected programs only).

    With ``only_query=True``, only unit rules *defining the query
    predicate* are added — the form Lemma 5.1 consumes.  The default
    adds all covering pairs, which is what Lemma 5.3 can exploit.

    Unit rules that are already present (up to variable renaming, which
    the canonical construction makes syntactic) are not duplicated, and
    a predicate never gets the trivial rule ``p :- p``.
    """
    if not adorned.projected:
        raise TransformError("add unit rules after projection pushing (Lemma 3.2)")

    # Collect the adorned versions present, grouped by base predicate.
    versions: dict[str, dict[str, Adornment]] = {}

    def note(lit: AdornedLiteral) -> None:
        if lit.derived:
            base, ad = split_adorned(lit.atom.predicate)
            if ad is not None:
                versions.setdefault(base, {})[lit.atom.predicate] = ad

    for r in adorned.rules:
        note(r.head)
        for lit in r.body:
            note(lit)
    note(adorned.query)

    existing = {r.to_rule().canonical_key() for r in adorned.rules}
    query_pred = adorned.query.atom.predicate
    added: list[AdornedRule] = []
    for base, preds in versions.items():
        for target, target_ad in preds.items():
            if only_query and target != query_pred:
                continue
            for source, source_ad in preds.items():
                if source == target:
                    continue
                if not source_ad.covers(target_ad):
                    continue
                unit = covering_unit_rule(target, target_ad, source, source_ad)
                key = unit.to_rule().canonical_key()
                if key not in existing:
                    existing.add(key)
                    added.append(unit)

    if not added:
        return UnitRuleReport(adorned, ())
    return UnitRuleReport(adorned.with_rules(adorned.rules + tuple(added)), tuple(added))
