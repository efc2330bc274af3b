"""Folding: the "guessed rewrite" of Example 11 (and section 6).

The summary-based deletion tests only reason through *unit* rules.  The
paper's Example 11 shows the workaround for a rule like::

    p@nd(X) :- p@nn(X, Y), g3(Y, Z, U).

— introduce a new predicate for the body and rewrite other rule bodies
that contain an instance of it::

    p@nd(X)            :- qq@nnnn(X, Y, Z, U).        (now a unit rule)
    qq@nnnn(X, Y, Z, U) :- p@nn(X, Y), g3(Y, Z, U).

after which Lemma 5.1 applies where it previously could not.  The paper
calls the choice of what to fold "essentially a guess"; this module
provides the mechanical part: :func:`define_view` introduces the view
predicate, and :func:`fold_program` replaces embeddings of the view
body in other rules.

The fold is the classic Tamaki–Sato-style fold in its safe case: the
view exports every variable of its body, so it has no local variables,
and any injective homomorphism of the view body into a rule body folds
— unfolding the view atom gives back exactly the matched literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..datalog.ast import Atom
from ..datalog.errors import TransformError
from ..datalog.terms import Variable
from .adornment import Adornment, AdornedLiteral, AdornedProgram, AdornedRule
from .subsumption import homomorphism

__all__ = ["FoldResult", "define_view", "fold_program"]


@dataclass(frozen=True)
class FoldResult:
    """Program after folding, plus what was done."""

    program: AdornedProgram
    view_rule: AdornedRule
    folded_rules: tuple[int, ...]  # indexes (in the input program) of rewritten rules


def define_view(
    program: AdornedProgram,
    rule_index: int,
    body_indexes: Sequence[int],
    view_name: str,
) -> tuple[AdornedRule, AdornedLiteral]:
    """Build the view rule for a subset of one rule's body.

    The view head collects, in order of first occurrence, every
    variable of the selected literals; its adornment is all-``n``
    (every argument is exported).  Returns the view's defining rule and
    the literal that replaces the selected body literals in the source
    rule.
    """
    if not program.projected:
        raise TransformError("folding operates on projected programs")
    rule = program.rules[rule_index]
    if not body_indexes:
        raise TransformError("cannot fold an empty literal set")
    chosen = [rule.body[i] for i in body_indexes]
    head_vars: dict[Variable, None] = {}
    for lit in chosen:
        for v in lit.atom.variables():
            head_vars.setdefault(v)
    args = tuple(head_vars)
    adornment = Adornment("n" * len(args))
    head = AdornedLiteral(Atom(view_name, args), adornment, derived=True)
    view_rule = AdornedRule(head, tuple(chosen))
    return view_rule, head


def fold_program(
    program: AdornedProgram,
    rule_index: int,
    body_indexes: Sequence[int],
    view_name: Optional[str] = None,
) -> FoldResult:
    """Introduce a view for part of one rule's body and fold every rule
    whose body embeds it (including the source rule).

    The result is query-equivalent to the input: unfolding the view in
    every folded rule gives back a variable-renamed original.
    """
    if view_name is None:
        base = "view"
        taken = {r.head.atom.predicate for r in program.rules}
        k = 1
        while f"{base}{k}" in taken:
            k += 1
        view_name = f"{base}{k}"
    if any(r.head.atom.predicate == view_name for r in program.rules):
        raise TransformError(f"predicate {view_name!r} already defined")

    view_rule, _view_head = define_view(program, rule_index, body_indexes, view_name)
    view_body = [lit.atom for lit in view_rule.body]

    new_rules: list[AdornedRule] = []
    folded: list[int] = []
    for ri, rule in enumerate(program.rules):
        found = homomorphism(
            view_body, [lit.atom for lit in rule.body], {}, distinct=True
        )
        if found is None:
            new_rules.append(rule)
            continue
        subst, assignment = found
        matched = set(assignment)
        replacement_atom = view_rule.head.atom.substitute(subst)
        replacement = AdornedLiteral(
            replacement_atom, view_rule.head.adornment, derived=True
        )
        body = [lit for ti, lit in enumerate(rule.body) if ti not in matched]
        insert_at = min(matched)
        kept_before = sum(1 for ti in range(insert_at) if ti not in matched)
        body.insert(kept_before, replacement)
        new_rules.append(AdornedRule(rule.head, tuple(body), rule.negative))
        folded.append(ri)

    new_rules.append(view_rule)
    return FoldResult(
        program.with_rules(new_rules), view_rule, tuple(folded)
    )
