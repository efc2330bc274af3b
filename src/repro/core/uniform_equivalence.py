"""Sagiv's decidable uniform-equivalence tests (section 3.3, Example 4).

Two programs are *uniformly equivalent* when they compute the same
least fixpoint over every input database instance — where, unlike plain
equivalence, the input may already contain facts for derived (IDB)
predicates (section 4).  Sagiv [Sagiv 87] showed uniform equivalence is
decidable and gave the chase-style test implemented here:

    A rule ``r`` may be deleted from program ``P`` iff ``P - {r}``,
    evaluated on the *frozen* body of ``r`` (each variable replaced by
    a distinct fresh constant) as the input database, derives the
    frozen head of ``r``.

Deleting under this test preserves uniform equivalence, hence also
uniform *query* equivalence and plain query equivalence.  The paper
uses it in Example 4 (the recursive rule of the projected
transitive-closure program is redundant) and shows its limitation in
Example 5 (the left-linear variant admits no uniform-equivalence
deletion at all — that takes the uniform-query-equivalence machinery of
:mod:`repro.core.deletion`).

The same frozen-body chase also yields a decision procedure for uniform
*containment* and hence uniform equivalence of two programs, and the
literal-deletion test of Sagiv's minimization algorithm.
"""

from __future__ import annotations

from typing import AbstractSet

from ..datalog.analysis import firable_rules
from ..datalog.ast import Atom, Program, Rule
from ..datalog.database import Database
from ..datalog.errors import TransformError
from ..datalog.unify import skolemize
from ..engine.evaluator import EngineOptions, run_prepared, working_database
from ..engine.prepared import prepare

__all__ = [
    "freeze",
    "frozen_chase",
    "rule_deletable_uniform",
    "literal_deletable_uniform",
    "uniformly_contains",
    "uniformly_equivalent",
    "minimize_uniform",
]

#: Every chase runs on the plan interpreter, the reference evaluator:
#: a frozen body is a handful of facts, so pricing join orders and
#: generating kernels for it costs more than its fixpoint.
_REFERENCE_ENGINE = EngineOptions(
    use_kernels=False,
    use_columnar=False,
    use_cost_planner=False,
    use_scc=False,
)


def freeze(rule: Rule) -> tuple[Atom, Database]:
    """The frozen head of *rule* and its frozen body as a database; the
    head's relation exists even when nothing defines it."""
    ground_head, ground_body, _ = skolemize(rule)
    edb = Database.from_facts(ground_body)
    edb.ensure(ground_head.predicate, ground_head.arity)
    return ground_head, edb


def frozen_chase(
    program: Program, rule: Rule, skip: AbstractSet[int] = frozenset()
) -> tuple[Atom, Database]:
    """The frozen head of *rule* (or of a rule instance) and the least
    fixpoint of *program* without the rules at the indexes in *skip*
    over its frozen body: the one chase behind Sagiv's test, the
    Example-6 chase and Theorem 5.2.

    The chase prepares the whole *program* with no size profile, so the
    greedy planner orders bodies by bound positions and body order
    alone and every chase over one program shares one preparation; the
    rules in *skip* are masked out at run time
    (:func:`~repro.engine.evaluator.run_prepared`).  The mask cannot
    change a verdict: a masked rule never fires, join order never
    changes a fixpoint, and the strata and SCC condensation of
    *program* are a correct, coarser schedule for any of its subsets.

    When no rule of *program* without *skip* can fire from the frozen
    body's non-empty predicates (:func:`~repro.datalog.analysis.firable_rules`),
    the frozen body is returned as the fixpoint and nothing is prepared
    or run: the chase is monotone, so a rule that cannot fire never
    fires.
    """
    ground_head, edb = freeze(rule)
    present = [p for p in edb if edb.relation(p)]
    if not firable_rules(program, present, skip):
        return ground_head, edb
    prepared = prepare(program.with_query(None))
    db = working_database(prepared.program, edb)
    return ground_head, run_prepared(prepared, db, _REFERENCE_ENGINE, skip).db


def _derives_frozen_head(
    program: Program, rule: Rule, skip: AbstractSet[int] = frozenset()
) -> bool:
    """Does *program* without the rules in *skip*, run on the frozen
    body of *rule*, derive the frozen head?  The core of every test in
    this module."""
    from ..datalog.builtins import has_builtins, is_builtin

    if program.has_negation() or rule.negative:
        raise TransformError(
            "uniform-equivalence chase tests require negation-free programs"
        )
    if has_builtins(program) or any(is_builtin(a.predicate) for a in rule.body):
        raise TransformError(
            "uniform-equivalence chase tests cannot evaluate comparison "
            "built-ins over frozen (skolem) constants"
        )
    ground_head, fixpoint = frozen_chase(program, rule, skip)
    return ground_head.as_fact() in fixpoint.relation(ground_head.predicate)


def rule_deletable_uniform(program: Program, rule_index: int) -> bool:
    """Sagiv's test: can rule *rule_index* be deleted while preserving
    uniform equivalence?

    Example 4 of the paper walks this test through the projected
    transitive-closure program: the frozen body of
    ``a@nd(x) :- p(x, z), a@nd(z)`` is ``{p(x, z), a@nd(z)}``, and the
    exit rule re-derives ``a@nd(x)`` from ``p(x, z)``.
    """
    return _derives_frozen_head(program, program.rules[rule_index], {rule_index})


def literal_deletable_uniform(
    program: Program, rule_index: int, body_index: int
) -> bool:
    """Can a body literal be deleted while preserving uniform
    equivalence?

    Removing a literal makes the rule fire more often, so the direction
    to check is that the *original* program subsumes the generalized
    rule: the original program, on the frozen body of the shortened
    rule, must derive the frozen head.
    """
    rule = program.rules[rule_index]
    if not (0 <= body_index < len(rule.body)):
        raise TransformError(f"rule {rule_index} has no body literal {body_index}")
    shortened = Rule(
        rule.head, rule.body[:body_index] + rule.body[body_index + 1 :]
    )
    if not shortened.is_safe():
        return False
    return _derives_frozen_head(program, shortened)


def uniformly_contains(p1: Program, p2: Program) -> bool:
    """True iff the fixpoint of *p1* contains the fixpoint of *p2* on
    every input database instance.

    By Sagiv's characterization this holds iff *p1* derives the frozen
    head of every rule of *p2* from that rule's frozen body.
    """
    return all(_derives_frozen_head(p1, r) for r in p2.rules)


def uniformly_equivalent(p1: Program, p2: Program) -> bool:
    """Decidable uniform equivalence (section 4, third notion)."""
    return uniformly_contains(p1, p2) and uniformly_contains(p2, p1)


def minimize_uniform(program: Program, drop_literals: bool = True) -> Program:
    """Sagiv's minimization: greedily delete rules (and optionally body
    literals) while the program stays uniformly equivalent to itself.

    The result depends on deletion order (minimization is not unique);
    rules are tried first, in index order, then literals.
    """
    changed = True
    while changed:
        changed = False
        for ri in range(len(program.rules)):
            if rule_deletable_uniform(program, ri):
                program = program.without_rule(ri)
                changed = True
                break
        if changed or not drop_literals:
            continue
        for ri, rule in enumerate(program.rules):
            for bi in range(len(rule.body)):
                if literal_deletable_uniform(program, ri, bi):
                    shortened = Rule(
                        rule.head, rule.body[:bi] + rule.body[bi + 1 :]
                    )
                    rules = list(program.rules)
                    rules[ri] = shortened
                    program = program.with_rules(rules)
                    changed = True
                    break
            if changed:
                break
    return program
