"""Phase 1 — connected components and boolean subqueries (section 3.1).

Within an adorned rule body, two variables are *connected* if they occur
in the same predicate occurrence (extended transitively), and two
predicate occurrences are connected if they share a pair of connected
variables — with the constraint that a connection through the *head*
only counts via variables at needed (``n``) head positions.

The body therefore splits into connected components.  Components that do
not contain the head are existential subqueries solved independently of
any head bindings; each such component ``C_i`` is replaced by an arity-0
*boolean* literal ``B_i`` and a new rule ``B_i :- C_i`` is added
(Lemma 3.1: the transformation preserves query equivalence, and
afterwards every rule has a single connected component).

At run time, a boolean rule is retired from the fixpoint as soon as it
fires once — the bottom-up analogue of Prolog's cut; see
``EngineOptions.cut_predicates``.

Components are anchored only by *needed* head variables, exactly as in
the paper's Example 2.  A head variable at an existential (``d``)
position whose component is extracted loses its binding and is
replaced by a fresh variable (the paper writes ``_``); the resulting
rule is *unsafe* at that head position and only becomes a valid
Datalog program after projection pushing drops the position, which
the pipeline always runs next.

The partition and the anchoring test are
:func:`repro.datalog.analysis.body_components` and
:func:`repro.datalog.analysis.anchored`, shared with the lints, the
planner's pricing and the pass validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..datalog.analysis import anchored, body_components
from ..datalog.ast import Atom
from ..datalog.terms import FreshVariables, Variable
from .adornment import Adornment, AdornedLiteral, AdornedProgram, AdornedRule

__all__ = ["ComponentSplit", "split_components"]


@dataclass(frozen=True)
class ComponentSplit:
    """Result of the phase-1 rewriting."""

    program: AdornedProgram
    #: Boolean predicate names introduced (pass to the engine as cut
    #: predicates).
    booleans: frozenset[str]
    #: Number of source rules whose body was actually split.
    rules_split: int


def split_components(adorned: AdornedProgram) -> ComponentSplit:
    """Apply the section-3.1 rewriting to every rule of *adorned*."""
    from .adornment import split_adorned

    existing: set[str] = set()
    for r in adorned.rules:
        for lit in (r.head, *r.body):
            existing.add(lit.atom.predicate)
            existing.add(split_adorned(lit.atom.predicate)[0])
    counter = 1

    def fresh_boolean() -> str:
        nonlocal counter
        while True:
            name = f"bool{counter}"
            counter += 1
            if name not in existing:
                existing.add(name)
                return name

    new_rules: list[AdornedRule] = []
    boolean_rules: list[AdornedRule] = []
    booleans: set[str] = set(adorned.boolean_predicates)
    rules_split = 0

    for rule in adorned.rules:
        head = rule.head
        if head.atom.arity == 0:
            # Boolean heads (including previously generated B_i rules):
            # the whole body already computes a single existence check,
            # so re-splitting would only wrap booleans in booleans.
            new_rules.append(rule)
            continue
        plain, anchor = rule.to_rule(), head.needed_variables()
        kept: set[int] = set()
        extracted: list[list[int]] = []
        for comp in body_components(plain.body, plain.negative):
            if anchored(plain.body, comp, anchor):
                kept.update(comp)
            elif len(comp) == 1 and plain.body[comp[0]].arity == 0:
                # An arity-0 literal is already a boolean guard.
                kept.update(comp)
            else:
                extracted.append(comp)

        if not extracted:
            new_rules.append(rule)
            continue
        rules_split += 1

        extracted_vars: set[Variable] = set()
        new_body: list[AdornedLiteral] = [
            lit for i, lit in enumerate(rule.body) if i in kept
        ]
        moved_negatives: set = set()
        for comp in extracted:
            name = fresh_boolean()
            booleans.add(name)
            comp_lits = tuple(rule.body[i] for i in comp)
            comp_vars = {v for lit in comp_lits for v in lit.atom.variables()}
            # negated literals whose variables live in this component
            # (safety puts every negated variable in some positive
            # literal); ground negations stay in the main rule
            comp_negs = tuple(
                lit
                for lit in rule.negative
                if lit.atom.variables() and comp_vars.issuperset(lit.atom.variables())
            )
            moved_negatives.update(comp_negs)
            extracted_vars.update(comp_vars)
            boolean = AdornedLiteral(Atom(name, ()), Adornment(""), derived=True)
            boolean_rules.append(AdornedRule(boolean, comp_lits, comp_negs))
            new_body.append(boolean)
        remaining_negatives = tuple(
            lit for lit in rule.negative if lit not in moved_negatives
        )

        # A head variable at a d position may have lost its binding to
        # an extracted component; replace it by a fresh variable (the
        # paper's "_").  The resulting head position is unsafe until
        # projection pushing removes it.
        new_head = head
        lost = extracted_vars - {
            v for lit in new_body for v in lit.atom.variables()
        }
        if lost:
            fresh = FreshVariables(avoid=plain.variables())
            new_args = tuple(
                fresh.take() if isinstance(a, Variable) and a in lost else a
                for a in head.atom.args
            )
            new_head = AdornedLiteral(
                Atom(head.atom.predicate, new_args), head.adornment, head.derived
            )
        new_rules.append(AdornedRule(new_head, tuple(new_body), remaining_negatives))

    program = AdornedProgram(
        tuple(new_rules + boolean_rules),
        adorned.query,
        projected=adorned.projected,
        boolean_predicates=frozenset(booleans),
    )
    return ComponentSplit(program, frozenset(booleans), rules_split)
