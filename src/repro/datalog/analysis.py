"""Static analysis of Datalog programs.

Provides the structural facts every optimizer phase relies on:

- the predicate *dependency graph* (head depends on body predicates);
- strongly connected components and the set of *recursive* predicates;
- reachability from the query (used by the cascade cleanup of
  section 5: rules defining predicates unreachable from the query can
  be discarded — Examples 7 and 8);
- predicates that are used but never defined (after rule deletion, a
  rule whose body mentions such a predicate can never fire and is
  itself discarded);
- chain-program detection (section 1.1), which underpins the grammar
  correspondence of Lemma 4.1 and Theorem 3.3;
- the connected components of a rule body and whether a component
  reaches a given set of variables (Lemma 3.1): the component split,
  the planner's pricing, the lints and the pass validator all ask this
  one question here;
- which rules can fire at all from a given set of non-empty predicates,
  which lets a frozen-body chase (section 3.3) skip an evaluation that
  cannot derive anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .ast import Atom, Program, Rule
from .builtins import is_builtin
from .terms import Variable

__all__ = [
    "dependency_graph",
    "negative_dependencies",
    "stratify",
    "is_stratified",
    "strongly_connected_components",
    "recursive_predicates",
    "is_recursive_rule",
    "is_recursive_component",
    "condensation",
    "component_depths",
    "reachable_predicates",
    "undefined_body_predicates",
    "firable_rules",
    "is_chain_rule",
    "is_chain_program",
    "UnionFind",
    "body_components",
    "anchored",
    "DependencyInfo",
    "analyze",
]


def dependency_graph(program: Program) -> dict[str, frozenset[str]]:
    """Map each derived predicate to the set of predicates it depends on
    directly (occurring positively or negatively in one of its rules)."""
    graph: dict[str, set[str]] = {}
    for r in program.rules:
        deps = graph.setdefault(r.head.predicate, set())
        deps.update(a.predicate for a in r.body)
        deps.update(a.predicate for a in r.negative)
    return {k: frozenset(v) for k, v in graph.items()}


def negative_dependencies(program: Program) -> frozenset[tuple[str, str]]:
    """Edges ``(head, p)`` where some rule for *head* negates *p*."""
    return frozenset(
        (r.head.predicate, a.predicate)
        for r in program.rules
        for a in r.negative
    )


def stratify(
    program: Program, info: Optional["DependencyInfo"] = None
) -> list[frozenset[str]]:
    """Partition the derived predicates into strata such that every
    positive dependency stays within or below a predicate's stratum and
    every *negative* dependency points strictly below.

    Raises :class:`~repro.datalog.errors.ValidationError` when no such
    partition exists (recursion through negation) — the program is then
    not stratified and has no least-fixpoint semantics here.

    The returned list orders strata bottom-up; base (EDB) predicates
    implicitly occupy stratum -1 and are not listed.

    Pass the program's :class:`DependencyInfo` (from :func:`analyze`)
    to reuse its dependency graph and SCCs instead of recomputing both
    from scratch.
    """
    from .errors import ValidationError

    if info is None:
        info = analyze(program)
    graph = info.graph
    negative = negative_dependencies(program)
    sccs = info.sccs
    idb = info.idb

    component_of: dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for p in scc:
            component_of[p] = i

    for head, p in negative:
        if p in idb and component_of.get(head) == component_of.get(p):
            raise ValidationError(
                f"program is not stratified: {head} recurses through "
                f"negation of {p}"
            )

    # Longest-path layering over the condensation: a component's
    # stratum is the maximum over (dep stratum [+1 if negative]).
    strata_of_component: dict[int, int] = {}
    for i, scc in enumerate(sccs):  # reverse topological: deps first
        level = 0
        for p in scc:
            for dep in graph.get(p, ()):
                if dep not in idb:
                    continue
                dep_component = component_of[dep]
                if dep_component == i:
                    continue
                bump = 1 if (p, dep) in negative else 0
                level = max(level, strata_of_component[dep_component] + bump)
        strata_of_component[i] = level

    out: dict[int, set[str]] = {}
    for i, scc in enumerate(sccs):
        members = {p for p in scc if p in idb}
        if members:
            out.setdefault(strata_of_component[i], set()).update(members)
    return [frozenset(out[k]) for k in sorted(out)]


def is_stratified(program: Program) -> bool:
    """True iff :func:`stratify` succeeds."""
    from .errors import ValidationError

    try:
        stratify(program)
    except ValidationError:
        return False
    return True


def strongly_connected_components(graph: dict[str, frozenset[str]]) -> list[frozenset[str]]:
    """Tarjan's algorithm, iterative; returns SCCs in reverse
    topological order (callees before callers)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[frozenset[str]] = []
    counter = 0

    nodes = set(graph)
    for deps in graph.values():
        nodes.update(deps)

    for root in sorted(nodes):
        if root in index:
            continue
        # Iterative Tarjan: work items are (node, child-iterator).
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == node:
                        break
                result.append(frozenset(component))
    return result


def recursive_predicates(program: Program) -> frozenset[str]:
    """Predicates involved in recursion: members of a multi-node SCC of
    the dependency graph, or with a self-loop."""
    graph = dependency_graph(program)
    recursive: set[str] = set()
    for component in strongly_connected_components(graph):
        if is_recursive_component(component, graph):
            recursive.update(component)
    return frozenset(recursive)


def is_recursive_component(component: frozenset[str], graph: Mapping[str, frozenset[str]]) -> bool:
    """True iff *component* (an SCC of *graph*) contains a cycle: more
    than one member, or a single member with a self-loop."""
    if len(component) > 1:
        return True
    (node,) = component
    return node in graph.get(node, frozenset())


def condensation(info: "DependencyInfo") -> dict[int, frozenset[int]]:
    """Dependency edges of the SCC condensation DAG.

    Maps each component index (into ``info.sccs``) to the indexes of
    the components it depends on (self-edges dropped).  Components are
    already in reverse topological order, so ``edges[i]`` only contains
    indexes ``j < i``.
    """
    component_of = {p: i for i, scc in enumerate(info.sccs) for p in scc}
    edges: dict[int, set[int]] = {i: set() for i in range(len(info.sccs))}
    for i, scc in enumerate(info.sccs):
        for p in scc:
            for dep in info.graph.get(p, ()):
                j = component_of[dep]
                if j != i:
                    edges[i].add(j)
    return {i: frozenset(deps) for i, deps in edges.items()}


def component_depths(
    edges: Mapping[int, frozenset[int]], within: Iterable[int]
) -> dict[int, int]:
    """Longest-path depth of each component of *within* over the
    condensation *edges*, counting only edges between members of
    *within* (dependencies outside the set — lower strata, EDB — sit at
    an implicit depth below 0).

    Components at equal depth have no dependency path between them, so
    they are safe to evaluate concurrently once every lower depth has
    been retired.
    """
    members = set(within)
    depths: dict[int, int] = {}

    def depth(i: int) -> int:
        d = depths.get(i)
        if d is None:
            # edges point at strictly smaller indexes (reverse
            # topological numbering), so this recursion terminates
            d = max(
                (depth(j) + 1 for j in edges.get(i, ()) if j in members),
                default=0,
            )
            depths[i] = d
        return d

    for i in members:
        depth(i)
    return depths


def is_recursive_rule(rule: Rule, recursive: frozenset[str]) -> bool:
    """True iff the rule's head is recursive and its body mentions a
    predicate of the head's recursive component (conservatively: any
    recursive predicate; exact per-SCC classification is available by
    passing that SCC as *recursive*)."""
    if rule.head.predicate not in recursive:
        return False
    return any(a.predicate in recursive for a in rule.body)


def reachable_predicates(program: Program, roots: Iterable[str]) -> frozenset[str]:
    """Predicates reachable from *roots* in the dependency graph."""
    graph = dependency_graph(program)
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return frozenset(seen)


def undefined_body_predicates(program: Program, edb: Iterable[str] = ()) -> frozenset[str]:
    """Derived-looking predicates that occur in rule bodies but have no
    defining rule and are not declared EDB.

    After rule deletions, a body literal over such a predicate can never
    be satisfied, so its rule is dead (paper, Examples 7 and 8).  Because
    programs do not declare their EDB schema, callers pass the known EDB
    names; by default every never-defined predicate is assumed to be EDB
    and this function is only useful with an explicit *edb* or within an
    adorned program, where derived predicates are syntactically marked.
    """
    defined = program.idb_predicates()
    edb_set = set(edb)
    used = set()
    for r in program.rules:
        used.update(a.predicate for a in r.body)
        used.update(a.predicate for a in r.negative)
    return frozenset(p for p in used if p not in defined and p not in edb_set)


def firable_rules(
    program: Program,
    present: Iterable[str],
    skip: AbstractSet[int] = frozenset(),
) -> frozenset[int]:
    """Indexes of the rules of *program* without those in *skip* that
    can fire once the predicates in *present* are non-empty.

    A fixpoint over predicate names: a rule can fire when every
    predicate of its positive, non-built-in body is present (so a fact
    rule always can), and the head of a rule that can fire becomes
    present.  Negated and built-in literals never block.  The answer
    over-approximates: a rule outside it fires on no instance whose
    non-empty predicates are *present*.
    """
    nonempty = set(present)
    pending = {i: r for i, r in enumerate(program.rules) if i not in skip}
    fired: set[int] = set()
    while True:
        new = [
            i
            for i, r in pending.items()
            if all(a.predicate in nonempty or is_builtin(a.predicate) for a in r.body)
        ]
        if not new:
            return frozenset(fired)
        for i in new:
            fired.add(i)
            nonempty.add(pending.pop(i).head.predicate)


def is_chain_rule(rule: Rule) -> bool:
    """True iff the rule has the binary chain shape of section 1.1::

        p(X, Y) :- q1(X, Z1), q2(Z1, Z2), ..., qn(Zn-1, Y).

    with all predicates binary, consecutive literals linked by a shared
    variable, the head's first variable opening the chain and its second
    variable closing it, and all chain variables distinct.
    """
    if rule.head.arity != 2:
        return False
    x, y = rule.head.args
    if not isinstance(x, Variable) or not isinstance(y, Variable) or x == y:
        return False
    if not rule.body:
        return False
    chain_vars = [x]
    for literal in rule.body:
        if literal.arity != 2:
            return False
        a, b = literal.args
        if a != chain_vars[-1] or not isinstance(b, Variable):
            return False
        if b in chain_vars and b != y:
            return False
        chain_vars.append(b)
    return chain_vars[-1] == y and y not in chain_vars[:-1]


def is_chain_program(program: Program) -> bool:
    """True iff every rule is a binary chain rule (section 1.1)."""
    return all(is_chain_rule(r) for r in program.rules)


class UnionFind:
    """Minimal union-find over hashable nodes."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self._parent[rx] = ry

    def connected(self, x, y) -> bool:
        return self.find(x) == self.find(y)


def body_components(
    body: Sequence[Atom], negative: Sequence[Atom] = ()
) -> list[list[int]]:
    """Partition the indexes of *body* into connected components: two
    literals are connected when they share a variable, transitively
    (section 3.1, Lemma 3.1).

    Components are listed in order of their first literal.  Literals
    with no variables (ground or arity-0) are each their own component,
    listed last.  *negative* literals contribute to connectivity (their
    bindings come from the positive literals around them) but are not
    listed: a negated literal belongs with the component its variables
    fall in.
    """
    uf = UnionFind()
    for atom in (*body, *negative):
        vars_ = atom.variables()
        for v in vars_[1:]:
            uf.union(vars_[0], v)
    groups: dict = {}
    singles: list[list[int]] = []
    for i, atom in enumerate(body):
        vars_ = atom.variables()
        if not vars_:
            singles.append([i])
        else:
            groups.setdefault(uf.find(vars_[0]), []).append(i)
    return list(groups.values()) + singles


def anchored(
    body: Sequence[Atom], component: Iterable[int], anchor: AbstractSet[Variable]
) -> bool:
    """True iff a literal of *component* (indexes into *body*) shares a
    variable with *anchor*.  Anchored by the needed head variables, a
    component carries result bindings; otherwise it is an existential
    subquery that Lemma 3.1 evaluates once as a boolean."""
    return any(not anchor.isdisjoint(body[i].variables()) for i in component)


@dataclass(frozen=True)
class DependencyInfo:
    """A bundle of the static facts used by the optimizer phases."""

    graph: dict[str, frozenset[str]]
    sccs: tuple[frozenset[str], ...]
    recursive: frozenset[str]
    idb: frozenset[str]
    edb: frozenset[str]
    reachable_from_query: frozenset[str]

    def is_derived(self, predicate: str) -> bool:
        return predicate in self.idb


def analyze(program: Program) -> DependencyInfo:
    """Run all static analyses once and bundle the results.

    The dependency graph and its SCCs are computed exactly once here;
    the recursive set and query reachability are derived from them
    rather than recomputed (and :func:`stratify` accepts the bundle for
    the same reason).
    """
    graph = dependency_graph(program)
    sccs = tuple(strongly_connected_components(graph))
    recursive: set[str] = set()
    for component in sccs:
        if is_recursive_component(component, graph):
            recursive.update(component)
    seen: set[str] = set()
    stack = [program.query.predicate] if program.query is not None else []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return DependencyInfo(
        graph=graph,
        sccs=sccs,
        recursive=frozenset(recursive),
        idb=program.idb_predicates(),
        edb=program.edb_predicates(),
        reachable_from_query=frozenset(seen),
    )
