"""Argument projections and summaries (section 5).

An *argument projection* ``(p^a, p1^a1)`` is an undirected bipartite
graph whose nodes are the needed (``n``) argument positions of the two
adorned literals, with an edge ``(i, j)`` whenever the same variable
occurs at the i-th needed position of ``p^a`` and the j-th needed
position of ``p1^a1``.  For every rule there is one projection from the
head to each derived body-literal occurrence.

Projections compose by merging the shared middle literal's nodes; the
*summary* of a composite keeps an edge between two end nodes iff a path
connects them in the composite.  Because the positions of each predicate
are finite, the set of possible summaries is finite even when the
program is recursive — this is what makes the deletion tests of
Lemma 5.1/5.3 effective (Algorithm 5.1 saturates the summary set).

Everything here operates on *projected* adorned programs (Lemma 3.2
applied), so the argument positions of every atom are exactly its
needed positions; the position indexes below are therefore plain
``0..arity-1`` indexes of the projected atoms, matching the paper's
convention of "ignoring the d's" when indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from ..datalog.analysis import UnionFind
from ..datalog.errors import TransformError
from ..datalog.terms import Variable
from .adornment import AdornedProgram, AdornedRule

__all__ = [
    "ArgumentProjection",
    "Occurrence",
    "identity_projection",
    "head_body_projection",
    "program_projections",
    "summary_closure",
    "QueryRootedSummaries",
    "query_rooted_summaries",
]

#: A body-literal occurrence: (rule index, body index).  This is the
#: paper's "occurrence number" ``p.n`` in positional form.
Occurrence = tuple[int, int]


def _endpoint_summary(
    uf: UnionFind, left_nodes: set, right_nodes: set
) -> tuple[frozenset, frozenset, frozenset]:
    """Summarize a composite's connectivity onto its end literals.

    Returns ``(edges, left_links, right_links)``: the left–right
    connected pairs, plus the *hidden* same-side connected pairs — pairs
    the bipartite edge graph alone does not reconnect (their only paths
    run through middle nodes no end node reaches).  Hidden links are
    exactly what pairwise summarization used to lose; storing only the
    hidden ones keeps the representation canonical (a pure function of
    the composite's end-to-end connectivity).
    """
    edges = frozenset(
        (i, k)
        for i in left_nodes
        for k in right_nodes
        if uf.connected(("L", i), ("R", k))
    )
    implied = UnionFind()
    for i, k in edges:
        implied.union(("L", i), ("R", k))

    def hidden(nodes: set, tag: str) -> frozenset:
        ordered = sorted(nodes)
        return frozenset(
            (a, b)
            for x, a in enumerate(ordered)
            for b in ordered[x + 1 :]
            if uf.connected((tag, a), (tag, b))
            and not implied.connected((tag, a), (tag, b))
        )

    return edges, hidden(left_nodes, "L"), hidden(right_nodes, "R")


@dataclass(frozen=True, slots=True)
class ArgumentProjection:
    """An argument projection between two adorned predicate names.

    ``edges`` relates argument positions of ``left`` to positions of
    ``right`` (0-based, over projected atoms).  The occurrence numbers
    the paper attaches to literals are kept *outside* the projection
    (see :func:`program_projections`), matching the remark that
    numbering "does not affect the way argument projections are
    composed".

    ``left_links`` / ``right_links`` record *hidden* same-side
    connectivity: pairs of left (resp. right) positions that the
    underlying composite connects, but only through middle nodes that
    reach no node of the opposite end — so the bipartite ``edges``
    alone cannot reconstruct the connection.  Without them, summarizing
    a prefix of a composition chain would forget that two middle
    positions were merged, and a later factor could silently lose
    end-to-end edges (summaries would no longer be lossless for
    connectivity).  Pairs already implied by ``edges`` (two positions
    sharing a partner on the other side) are never stored, keeping the
    representation canonical and the common no-hidden-links case
    identical to the plain bipartite form.
    """

    left: str
    right: str
    edges: frozenset[tuple[int, int]]
    left_links: frozenset[tuple[int, int]] = frozenset()
    right_links: frozenset[tuple[int, int]] = frozenset()

    def left_nodes(self) -> set:
        return {i for i, _ in self.edges} | {a for pair in self.left_links for a in pair}

    def right_nodes(self) -> set:
        return {k for _, k in self.edges} | {a for pair in self.right_links for a in pair}

    def compose(self, other: "ArgumentProjection") -> "ArgumentProjection":
        """The summary of the composite ``self ∘ other``.

        Requires ``self.right == other.left``.  The composite identifies
        the middle literal's nodes; the summary has an edge ``(i, k)``
        iff a path connects left node *i* to right node *k* — note paths
        may zig-zag (left–mid–left–mid–right), so this is genuine graph
        connectivity, not relational composition.  Hidden same-side
        links of both factors participate in (and are reproduced by)
        the connectivity computation, which is what makes pairwise
        composition agree with merging a whole chain at once.
        """
        if self.right != other.left:
            raise TransformError(
                f"cannot compose ({self.left},{self.right}) with "
                f"({other.left},{other.right})"
            )
        # Union-find over nodes tagged L/M/R.
        uf = UnionFind()
        for i, j in self.edges:
            uf.union(("L", i), ("M", j))
        for a, b in self.left_links:
            uf.union(("L", a), ("L", b))
        for a, b in self.right_links:
            uf.union(("M", a), ("M", b))
        for j, k in other.edges:
            uf.union(("M", j), ("R", k))
        for a, b in other.left_links:
            uf.union(("M", a), ("M", b))
        for a, b in other.right_links:
            uf.union(("R", a), ("R", b))
        # End nodes of the composite are self's left side (tag L) and
        # other's right side (tag R) — exactly the tags the union-find
        # above used, so the summary reads connectivity off directly.
        edges, left_links, right_links = _endpoint_summary(
            uf, self.left_nodes(), other.right_nodes()
        )
        return ArgumentProjection(
            self.left, other.right, edges, left_links, right_links
        )

    def maps_position(self, i: int) -> frozenset[int]:
        """Right positions connected to left position *i*."""
        return frozenset(k for left, k in self.edges if left == i)

    def __str__(self) -> str:
        pairs = ", ".join(f"{i}~{j}" for i, j in sorted(self.edges))
        return f"({self.left} -> {self.right}: {pairs})"


def identity_projection(predicate: str, arity: int) -> ArgumentProjection:
    """The identity projection of a predicate onto itself.

    Corresponds to the paper's "trivial rule p(X) :- p(X)" used in
    Example 7 and to the empty composition chain.
    """
    return ArgumentProjection(
        predicate, predicate, frozenset((i, i) for i in range(arity))
    )


def head_body_projection(rule: AdornedRule, body_index: int) -> ArgumentProjection:
    """The projection from the rule head to one derived body literal.

    Besides the cross edges (same variable at a head and a body
    position), a variable repeated within one atom but absent from the
    other contributes a hidden same-side link: the positions are merged
    by the variable, yet no edge records it — precisely the information
    pairwise summarization needs to stay lossless (see
    :class:`ArgumentProjection`).
    """
    head, lit = rule.head, rule.body[body_index]
    uf = UnionFind()
    left_nodes: set[int] = set()
    right_nodes: set[int] = set()
    by_var: dict[Variable, list] = {}
    for i, harg in enumerate(head.atom.args):
        if isinstance(harg, Variable):
            by_var.setdefault(harg, []).append(("L", i))
            left_nodes.add(i)
    for j, barg in enumerate(lit.atom.args):
        if isinstance(barg, Variable):
            by_var.setdefault(barg, []).append(("R", j))
            right_nodes.add(j)
    for nodes in by_var.values():
        for node in nodes[1:]:
            uf.union(nodes[0], node)
    edges, left_links, right_links = _endpoint_summary(uf, left_nodes, right_nodes)
    return ArgumentProjection(
        head.atom.predicate, lit.atom.predicate, edges, left_links, right_links
    )


def program_projections(
    program: AdornedProgram,
) -> dict[Occurrence, ArgumentProjection]:
    """One projection per derived body-literal occurrence.

    Requires the program to be projected (all positions needed).
    """
    if not program.projected:
        raise TransformError("argument projections require a projected program")
    out: dict[Occurrence, ArgumentProjection] = {}
    for ri, rule in enumerate(program.rules):
        for bi, lit in enumerate(rule.body):
            if lit.derived:
                out[(ri, bi)] = head_body_projection(rule, bi)
    return out


def summary_closure(
    projections: Iterable[ArgumentProjection],
    max_summaries: int = 100_000,
) -> frozenset[ArgumentProjection]:
    """Algorithm 5.1: the set of all summaries of composite argument
    projections generated from *projections*.

    1. every argument projection is a summary;
    2. the summary of a composition of summaries is a summary;
    until no new summaries can be generated.  Termination is guaranteed
    because summaries over a finite set of predicates/positions form a
    finite set; *max_summaries* is a defensive cap.
    """
    summaries: set[ArgumentProjection] = set(projections)
    by_left: dict[str, set[ArgumentProjection]] = {}
    for s in summaries:
        by_left.setdefault(s.left, set()).add(s)
    worklist = list(summaries)
    while worklist:
        s = worklist.pop()
        for t in list(by_left.get(s.right, ())):
            c = s.compose(t)
            if c not in summaries:
                summaries.add(c)
                by_left.setdefault(c.left, set()).add(c)
                worklist.append(c)
                if len(summaries) > max_summaries:
                    raise TransformError("summary closure exceeded cap")
        # compositions where s is the right factor
        for t in list(summaries):
            if t.right == s.left:
                c = t.compose(s)
                if c not in summaries:
                    summaries.add(c)
                    by_left.setdefault(c.left, set()).add(c)
                    worklist.append(c)
                    if len(summaries) > max_summaries:
                        raise TransformError("summary closure exceeded cap")
    return frozenset(summaries)


@dataclass(frozen=True)
class QueryRootedSummaries:
    """All summaries of composite projections that start at the query.

    ``by_predicate[p]`` are the summaries of chains ``(q, ..., p)`` over
    any occurrences; ``by_occurrence[o]`` are the summaries of chains
    whose *last* factor is the projection into occurrence *o* — the set
    Lemma 5.1 quantifies over ("every composite argument projection
    ``(q^a, ...), ..., (..., p.n^c)``").  For occurrences of the query
    predicate itself, the empty chain contributes the identity to
    ``by_predicate`` but not to ``by_occurrence`` (a chain ending *at*
    an occurrence has at least one factor).  ``projections``: the
    :func:`program_projections` they were built from.
    """

    query: str
    by_predicate: Mapping[str, frozenset[ArgumentProjection]]
    by_occurrence: Mapping[Occurrence, frozenset[ArgumentProjection]]
    projections: Mapping[Occurrence, ArgumentProjection]


def query_rooted_summaries(
    program: AdornedProgram,
    projections: Optional[dict[Occurrence, ArgumentProjection]] = None,
) -> QueryRootedSummaries:
    """Compute the query-rooted summary sets by fixpoint.

    Start with the identity on the query predicate; repeatedly extend
    every known summary ``(q, H)`` by each projection ``(H, P)`` of an
    occurrence in a rule whose head is ``H``.
    """
    if projections is None:
        projections = program_projections(program)
    query_pred = program.query.atom.predicate
    by_pred: dict[str, set[ArgumentProjection]] = {
        query_pred: {identity_projection(query_pred, program.query.atom.arity)}
    }
    by_occ: dict[Occurrence, set[ArgumentProjection]] = {o: set() for o in projections}

    changed = True
    while changed:
        changed = False
        for occ, proj in projections.items():
            head_pred = proj.left
            for sigma in list(by_pred.get(head_pred, ())):
                ext = sigma.compose(proj)
                if ext not in by_occ[occ]:
                    by_occ[occ].add(ext)
                    changed = True
                if ext not in by_pred.setdefault(proj.right, set()):
                    by_pred[proj.right].add(ext)
                    changed = True
    return QueryRootedSummaries(
        query=query_pred,
        by_predicate={p: frozenset(s) for p, s in by_pred.items()},
        by_occurrence={o: frozenset(s) for o, s in by_occ.items()},
        projections=projections,
    )
