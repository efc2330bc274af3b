"""Body minimization and θ-subsumption on the one homomorphism search.

Unit cases pin what a body's core keeps and drops; the properties check
both syntactic tests against the reference frozen-body chase.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.subsumption import minimize_rule_bodies, theta_subsumes
from repro.core.uniform_equivalence import freeze, frozen_chase, uniformly_equivalent
from repro.datalog import Program, Rule, Variable
from repro.workloads.paper_examples import adorned_from_text

from tests.property.strategies import random_rules


def minimized(text: str) -> list[str]:
    report = minimize_rule_bodies(adorned_from_text(text))
    return [str(r) for r in report.program.rules]


class TestCore:
    def test_redundant_pair_dropped(self):
        # what unfolding the duplicated r literal of the work-bound
        # falsifier leaves behind: _U2 -> _U3 maps the first pair away
        assert minimized(
            "q@nd(X) :- f(_U2), e(_U2, X), f(_U3), e(_U3, X), e(X, Y).\n"
            "?- q@nd(X)."
        ) == ["q@nd(X) :- f(_U3), e(_U3, X), e(X, Y)."]

    def test_head_variable_not_moved(self):
        text = "p@nn(X, Z) :- e(X, Y), e(Z, Y).\n?- p@nn(X, Z)."
        assert minimized(text) == ["p@nn(X, Z) :- e(X, Y), e(Z, Y)."]

    def test_negated_variable_not_moved(self):
        # e(X, Z) could only map onto e(X, Y) by moving Z, which the
        # negation observes; e(X, Y) maps onto e(X, Z) instead
        text = "p@n(X) :- e(X, Z), e(X, Y), not f(Z).\n?- p@n(X)."
        assert minimized(text) == ["p@n(X) :- e(X, Z), not f(Z)."]

    def test_builtin_variable_not_moved(self):
        text = "p@n(X) :- e(X, Z), e(X, Y), lt(Z, 3).\n?- p@n(X)."
        assert minimized(text) == ["p@n(X) :- e(X, Z), lt(Z, 3)."]

    def test_constants_match_only_themselves(self):
        assert minimized("p@n(X) :- e(X, Y), e(X, 1).\n?- p@n(X).") == [
            "p@n(X) :- e(X, 1)."
        ]
        text = "p@n(X) :- e(X, 1), e(X, 2).\n?- p@n(X)."
        assert minimized(text) == ["p@n(X) :- e(X, 1), e(X, 2)."]

    def test_builtins_never_dropped(self):
        text = "p@n(X) :- e(X, Y), lt(Y, 3), lt(Y, 3).\n?- p@n(X)."
        assert minimized(text) == ["p@n(X) :- e(X, Y), lt(Y, 3), lt(Y, 3)."]

    def test_minimizing_twice_changes_nothing(self):
        program = adorned_from_text(
            "q@nd(X) :- f(_U2), e(_U2, X), f(_U3), e(_U3, X), e(X, Y).\n"
            "r@n(X) :- e(X, Y), e(X, Z), e(Z, W).\n"
            "?- q@nd(X)."
        )
        once = minimize_rule_bodies(program)
        assert once.removed_literals == 3
        twice = minimize_rule_bodies(once.program)
        assert twice.changed == () and twice.program is once.program


def _with_redundant_copy(rule):
    """*rule* plus a copy of its body whose body-only variables are
    renamed apart — a body whose core is at most the original."""
    head_vars = set(rule.head.variables())
    renamed = {
        v: Variable(v.name + "2") for v in rule.variables() if v not in head_vars
    }
    return Rule(
        rule.head, rule.body + tuple(a.substitute(renamed) for a in rule.body)
    )


rules = st.one_of(random_rules(), random_rules().map(_with_redundant_copy))


def _derives_frozen_head(subsumer, rule):
    head, fixpoint = frozen_chase(Program((subsumer,)), rule)
    return head.as_fact() in fixpoint.relation(head.predicate)


@given(random_rules(), random_rules())
@settings(max_examples=300, deadline=None)
def test_theta_subsumption_agrees_with_the_chase(r1, r2):
    """θ-subsumption implies Sagiv's chase test; for a non-recursive
    subsumer (one chase step) the two coincide."""
    frozen_head, frozen_body = freeze(r2)
    assume(frozen_head.as_fact() not in frozen_body.relation(frozen_head.predicate))
    derives = _derives_frozen_head(r1, r2)
    if theta_subsumes(r1, r2):
        assert derives
    if r1.head.predicate not in {a.predicate for a in r1.body}:
        assert theta_subsumes(r1, r2) == derives


@given(rules)
@settings(max_examples=200, deadline=None)
def test_minimized_rules_are_uniformly_equivalent(rule):
    program = adorned_from_text(f"{rule}\n?- {rule.head}.")
    for before, after in minimize_rule_bodies(program).changed:
        assert uniformly_equivalent(
            Program((before.to_rule(),)), Program((after.to_rule(),))
        )
