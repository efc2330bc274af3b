"""Optimistic derivations and the Theorem 5.2 test (section 5).

The paper defines an *optimistic derivation*: starting from the EDB, a
rule may fire as soon as **one** body literal is instantiated to a
known fact — the remaining literals are assumed.  The *optimistic
answer* is the set of query facts derivable this way.  Theorem 5.2:
with ``EDB_r`` the frozen body of a candidate rule ``r`` and
``IDB2 ⊆ IDB1 - {r}``, if the optimistic answer of
``(Q, EDB_r, IDB1)`` is contained in the ordinary answer of
``(Q, EDB_r, IDB2)``, then deleting ``r`` preserves uniform query
equivalence.

**Finite abstraction.**  A literal optimistic fixpoint ranges over all
ground instances of the assumed variables, which is unbounded.  We
follow the standard abstraction: every unconstrained variable is
instantiated to a single *wildcard* value ``★`` that unifies with
anything (a labelled "any value" null).  This over-approximates the
optimistic fact set (it forgets correlations between two wildcards and
widens repeated-variable matches), so the containment test remains a
*sound* sufficient condition — merely more conservative than the
theorem's ideal.  In particular an optimistic query fact containing
``★`` can never be contained in a concrete answer, so it fails the
test, which is exactly the conservative behaviour we want.

The test is noticeably weaker than the summary+chase combination in
:mod:`repro.core.deletion` (e.g. it rejects Example 6's deletions
because the recursive query rule optimistically fires from its EDB
literal alone, producing a wildcard answer); it is provided because the
paper states it, and serves as a comparison point in the benchmarks.
"""

from __future__ import annotations

from typing import Optional

from ..datalog.ast import Atom, Program, Rule
from ..datalog.database import Database
from ..datalog.errors import TransformError
from ..datalog.terms import Constant, Variable
from .uniform_equivalence import freeze, frozen_chase

__all__ = ["WILDCARD", "optimistic_fixpoint", "optimistic_answer", "theorem52_deletable"]


class _Wildcard:
    """The ``★`` value: matches any constant during optimistic firing."""

    _instance: Optional["_Wildcard"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "★"


WILDCARD = _Wildcard()


def _match_optimistic(literal: Atom, row: tuple) -> Optional[dict]:
    """Match one body literal against a known (possibly wildcarded)
    fact; ``★`` in the fact unifies with anything.

    Repeated variables: a variable first bound to ``★`` is refined by a
    later concrete position; a concrete binding absorbs a later ``★``.
    """
    if literal.arity != len(row):
        return None
    subst: dict[Variable, object] = {}
    for term_, value in zip(literal.args, row):
        if isinstance(term_, Constant):
            if value is not WILDCARD and value != term_.value:
                return None
        else:
            bound = subst.get(term_, _UNSET)
            if bound is _UNSET or bound is WILDCARD:
                subst[term_] = value
            elif value is not WILDCARD and bound != value:
                return None
    return subst


_UNSET = object()


def optimistic_fixpoint(
    program: Program, edb: Database, max_facts: int = 200_000
) -> dict[str, frozenset[tuple]]:
    """All optimistically derivable facts, per predicate.

    Facts live over the input's active domain extended with ``★``; the
    fixpoint is therefore finite.  *max_facts* is a defensive cap.
    """
    known: dict[str, set[tuple]] = {}
    for pred, row in edb.facts():
        known.setdefault(pred, set()).add(tuple(row))

    def head_fact(rule: Rule, subst: dict) -> tuple:
        return tuple(
            a.value
            if isinstance(a, Constant)
            else subst.get(a, WILDCARD)
            for a in rule.head.args
        )

    total = sum(len(s) for s in known.values())
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if not rule.body:
                fact = head_fact(rule, {})
                bucket = known.setdefault(rule.head.predicate, set())
                if fact not in bucket:
                    bucket.add(fact)
                    total += 1
                    changed = True
                continue
            for literal in rule.body:
                for row in list(known.get(literal.predicate, ())):
                    subst = _match_optimistic(literal, row)
                    if subst is None:
                        continue
                    fact = head_fact(rule, subst)
                    bucket = known.setdefault(rule.head.predicate, set())
                    if fact not in bucket:
                        bucket.add(fact)
                        total += 1
                        if total > max_facts:
                            raise TransformError("optimistic fixpoint exceeded cap")
                        changed = True
    return {p: frozenset(s) for p, s in known.items()}


def optimistic_answer(program: Program, edb: Database) -> frozenset[tuple]:
    """The optimistic answer for the program's query.

    Returns the full fact set of the query predicate (selections from
    constants in the query atom are applied; a ``★`` position matches a
    query constant, conservatively).
    """
    if program.query is None:
        raise TransformError("program has no query")
    facts = optimistic_fixpoint(program, edb).get(program.query.predicate, frozenset())
    q = program.query
    out = set()
    for row in facts:
        ok = True
        for term_, value in zip(q.args, row):
            if isinstance(term_, Constant) and value is not WILDCARD and value != term_.value:
                ok = False
                break
        if ok:
            out.add(row)
    return frozenset(out)


def theorem52_deletable(
    program: Program,
    rule_index: int,
    idb2_indexes: Optional[frozenset[int]] = None,
) -> bool:
    """The Theorem 5.2 sufficient condition (wildcard abstraction).

    *idb2_indexes* selects the subset ``IDB2 ⊆ IDB1 - {r}`` used for
    the concrete evaluation; by default the whole remainder.  Returns
    True when the (abstracted) optimistic answer over the frozen body
    of the candidate rule is contained in the concrete answer of the
    remainder — deleting the rule then preserves uniform query
    equivalence.
    """
    if program.query is None:
        raise TransformError("theorem 5.2 requires a query")
    rule = program.rules[rule_index]
    if not rule.body:
        return False
    _, frozen_body = freeze(rule)
    optimistic = optimistic_answer(program, frozen_body)
    if any(WILDCARD in row for row in optimistic):
        return False

    if idb2_indexes is None:
        skip = {rule_index}
    else:
        if rule_index in idb2_indexes:
            raise TransformError("IDB2 must not contain the candidate rule")
        skip = set(range(len(program.rules))) - idb2_indexes
    _, fixpoint = frozen_chase(program, rule, skip)
    return optimistic <= fixpoint.rows(program.query.predicate)
