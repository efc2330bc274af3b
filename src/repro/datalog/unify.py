"""Substitutions, unification and skolemization over function-free atoms.

Because Datalog terms are flat (no function symbols), unification never
needs an occurs check and substitutions map variables to variables or
constants only.  Two operations live here:

- :func:`unify` — two-way unification of atoms, used by unfolding.
- :func:`skolemize` — freeze a rule's variables into fresh constants,
  producing the canonical database used by chase-style equivalence
  tests (Sagiv's uniform-equivalence test, the paper's Example 4/6).

One-way matching of atom lists is the optimizer's homomorphism search,
:func:`repro.core.subsumption.homomorphism`.
"""

from __future__ import annotations

from typing import Optional

from .ast import Atom, Rule
from .terms import Constant, Term, Variable

__all__ = [
    "Substitution",
    "unify",
    "skolemize",
    "skolem_constant",
]

Substitution = dict[Variable, Term]


def unify(a: Atom, b: Atom, subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Most general unifier of two atoms (flat terms, no occurs check).

    The returned substitution is idempotent: looking a variable up once
    yields its final value.
    """
    if a.predicate != b.predicate or a.arity != b.arity:
        return None
    out: Substitution = dict(subst) if subst else {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Variable) and t in out:
            t = out[t]
        return t

    for x, y in zip(a.args, b.args):
        x, y = resolve(x), resolve(y)
        if x == y:
            continue
        if isinstance(x, Variable):
            out[x] = y
        elif isinstance(y, Variable):
            out[y] = x
        else:  # two distinct constants
            return None
    # Flatten chains so the substitution is idempotent.
    return {v: resolve(t) for v, t in out.items()}


def skolem_constant(v: Variable) -> Constant:
    """The canonical frozen constant for variable *v*.

    The name is chosen so skolem constants cannot collide with ordinary
    constants appearing in test programs.
    """
    return Constant(f"$sk_{v.name}")


def skolemize(r: Rule) -> tuple[Atom, tuple[Atom, ...], Substitution]:
    """Freeze rule *r*: replace each variable by a fresh constant.

    Returns ``(ground_head, ground_body, substitution)``.  This is the
    "ground instance of the rule" used throughout section 3.3 and
    section 5 of the paper: to decide whether a rule is redundant, its
    frozen body becomes the input database and one asks whether the
    remaining rules can re-derive the frozen head (Sagiv's test) or the
    query-relevant image of the frozen head (the paper's uniform query
    equivalence test).
    """
    subst: Substitution = {v: skolem_constant(v) for v in r.variables()}
    ground = r.substitute(subst)
    return ground.head, ground.body, subst
