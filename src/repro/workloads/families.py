"""Parameterized program families for tests and benchmarks.

Each factory returns a fresh :class:`~repro.datalog.ast.Program` with a
query; together they cover the structural space the paper's
optimizations care about: linearity (left/right/non-linear recursion),
where the existential argument sits (never / crosses the recursion /
needed inside it), guard components, payload arity, bound constants,
and stratified negation.  The differential test suite sweeps all of
them through the pipeline.
"""

from __future__ import annotations

from ..datalog.ast import Program
from ..datalog.parser import parse

__all__ = [
    "right_linear_tc",
    "left_linear_tc",
    "nonlinear_tc",
    "tc_sources",
    "same_generation",
    "same_generation_sources",
    "reachability_with_payload",
    "guarded_items",
    "bill_of_materials",
    "win_move_stratified",
    "bounded_source_tc",
    "two_level_chain",
    "boolean_chain",
    "sibling_components",
    "all_families",
]


def right_linear_tc() -> Program:
    """Binary transitive closure, right-linear recursion, full query."""
    return parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        ?- tc(X, Y).
        """
    )


def left_linear_tc() -> Program:
    """Examples 5/6: left-linear TC with an existential target."""
    return parse(
        """
        tc(X, Y) :- tc(X, Z), edge(Z, Y).
        tc(X, Y) :- edge(X, Y).
        ?- tc(X, _).
        """
    )


def nonlinear_tc() -> Program:
    """Quadratic (non-linear) TC with an existential target."""
    return parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ?- tc(X, _).
        """
    )


def tc_sources() -> Program:
    """Example 1: which nodes reach something?"""
    return parse(
        """
        query(X) :- tc(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        tc(X, Y) :- edge(X, Y).
        ?- query(X).
        """
    )


def same_generation() -> Program:
    """Classic same-generation, full binary query."""
    return parse(
        """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ?- sg(X, Y).
        """
    )


def same_generation_sources() -> Program:
    """Same-generation with an existential partner — the boundary case
    where the existential argument is needed *inside* the recursion."""
    return parse(
        """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        ?- sg(X, _).
        """
    )


def reachability_with_payload(columns: int = 1) -> Program:
    """Reachability carrying *columns* existential payload columns —
    the P5 arity-sweep family."""
    pay = [f"T{i}" for i in range(columns)]
    head = ", ".join(["X", "Y", *pay])
    tags = ", ".join(f"tag{i}(Y, {v})" for i, v in enumerate(pay))
    exit_rule = f"reach({head}) :- edge(X, Y){', ' + tags if tags else ''}."
    rec = f"reach({head}) :- edge(X, Z), reach({', '.join(['Z', 'Y', *pay])})."
    query = ", ".join(["X", "Y"] + ["_"] * columns)
    return parse(f"{exit_rule}\n{rec}\n?- reach({query}).")


def guarded_items() -> Program:
    """Example-2 shape: a disconnected existence guard over a recursion."""
    return parse(
        """
        q(X) :- item(X, Y), witness(U, V), mark(V).
        witness(U, V) :- link(U, V).
        witness(U, V) :- link(U, W), witness(W, V).
        ?- q(X).
        """
    )


def bill_of_materials() -> Program:
    """Part-containment with a certification witness (existential)."""
    return parse(
        """
        buildable(P) :- assembly(P), has_part(P, C).
        has_part(P, C) :- part_of(C, P).
        has_part(P, C) :- part_of(S, P), has_part(S, C).
        ?- buildable(P).
        """
    )


def win_move_stratified() -> Program:
    """A stratified negation family: nodes with no outgoing move are
    stuck; a node is safe if it is not stuck and moves only to stuck
    nodes... simplified to two strata to stay stratified."""
    return parse(
        """
        has_move(X) :- move(X, Y).
        stuck(X) :- position(X), not has_move(X).
        escape(X) :- move(X, Y), not stuck(X).
        ?- escape(X).
        """
    )


def bounded_source_tc(source: int = 0) -> Program:
    """TC queried from a constant source — the magic-sets family."""
    return parse(
        f"""
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        ?- tc({source}, _).
        """
    )


def two_level_chain() -> Program:
    """Recursion below a non-recursive wrapper with an existential."""
    return parse(
        """
        q(X) :- r(X, Y).
        r(X, Y) :- s(X, Z), r(Z, Y).
        r(X, Y) :- s(X, Y).
        s(X, Y) :- base(X, Y).
        ?- q(X).
        """
    )


def boolean_chain(k: int = 3) -> Program:
    """A chain of *k* non-recursive boolean guards below a query — the
    multi-component boolean family of section 3.1.

    The query rule is listed *first*, so the monolithic stratum loop
    needs one round per chain level before ``q`` can fire (k+2 rounds
    total); the SCC scheduler orders the chain topologically and fires
    every rule exactly once.
    """
    rules = [f"q(X) :- item(X), b{k}()."]
    for i in range(k, 1, -1):
        rules.append(f"b{i}() :- c{i}(U, V), b{i - 1}().")
    rules.append("b1() :- c1(U, V), mark(V).")
    rules.append("?- q(X).")
    return parse("\n".join(rules))


def sibling_components(k: int = 3) -> Program:
    """*k* independent transitive closures feeding one query — ≥3
    sibling SCC units at the same condensation depth: their rounds
    *sum* under SCC scheduling where the monolithic loop overlaps them.
    """
    rules = []
    for i in range(1, k + 1):
        rules.append(f"tc{i}(X, Y) :- edge{i}(X, Y).")
        rules.append(f"tc{i}(X, Y) :- edge{i}(X, Z), tc{i}(Z, Y).")
    body = ", ".join(f"tc{i}(X, A{i})" for i in range(1, k + 1))
    rules.append(f"q(X) :- {body}.")
    rules.append("?- q(X).")
    return parse("\n".join(rules))


def all_families() -> dict[str, Program]:
    """Every family at default parameters, keyed by name."""
    return {
        "right_linear_tc": right_linear_tc(),
        "left_linear_tc": left_linear_tc(),
        "nonlinear_tc": nonlinear_tc(),
        "tc_sources": tc_sources(),
        "same_generation": same_generation(),
        "same_generation_sources": same_generation_sources(),
        "payload1": reachability_with_payload(1),
        "payload2": reachability_with_payload(2),
        "guarded_items": guarded_items(),
        "bill_of_materials": bill_of_materials(),
        "win_move_stratified": win_move_stratified(),
        "bounded_source_tc": bounded_source_tc(),
        "two_level_chain": two_level_chain(),
        "boolean_chain": boolean_chain(),
        "sibling_components": sibling_components(),
    }
