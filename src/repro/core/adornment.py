"""Existential adornments — section 2 of the paper.

An *adornment* is a string of ``n`` (needed) and ``d`` (don't-care /
existential) characters, one per argument position.  ``p@nd`` denotes
the query form of ``p`` in which all first-argument values are needed
and the second argument is existential: only the existence of a value
matters.

Detecting existential arguments exactly is undecidable (Lemma 2.1), so
the paper gives a syntactic sufficient test, the *adornment algorithm*:

    In choosing an adornment for a literal in the body, an argument is
    existential (d) if the variable in it does not occur anywhere else
    in the rule, except possibly in an existential argument of the head
    predicate.  All other arguments are adorned as n.

Starting from the query's adornment, the algorithm generates adorned
versions of every reachable derived predicate (several per predicate if
different query forms arise) until no unmarked adorned predicate
remains; termination is guaranteed because the number of adorned
versions is finite.  Lemma 2.2: the algorithm adorns an argument ``d``
only if it really is existential.

The adorned program is represented by :class:`AdornedProgram`; derived
predicates are renamed ``base@adornment`` so the adorned program is
itself an ordinary Datalog program (evaluable, analyzable), while the
adornment metadata stays available to the later phases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional

from ..datalog.ast import Atom, Program, Rule
from ..datalog.errors import TransformError, ValidationError
from ..datalog.terms import Constant, Variable

__all__ = [
    "ADORN_SEP",
    "Adornment",
    "AdornedLiteral",
    "AdornedRule",
    "AdornedProgram",
    "adorned_name",
    "split_adorned",
    "query_adornment",
    "adorn",
]

ADORN_SEP = "@"


@dataclass(frozen=True, slots=True)
class Adornment:
    """An ``n``/``d`` string, e.g. ``Adornment("nd")``."""

    text: str

    def __post_init__(self):
        if not set(self.text) <= {"n", "d"}:
            raise ValidationError(f"invalid adornment {self.text!r}")

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.text)

    def __getitem__(self, i: int) -> str:
        return self.text[i]

    @classmethod
    def all_needed(cls, arity: int) -> "Adornment":
        return cls("n" * arity)

    @property
    def needed_positions(self) -> tuple[int, ...]:
        """Positions adorned ``n``, in order."""
        return tuple(i for i, c in enumerate(self.text) if c == "n")

    @property
    def existential_positions(self) -> tuple[int, ...]:
        """Positions adorned ``d``, in order."""
        return tuple(i for i, c in enumerate(self.text) if c == "d")

    @property
    def is_all_needed(self) -> bool:
        return "d" not in self.text

    def covers(self, other: "Adornment") -> bool:
        """The *covers* relation of section 5: ``a1.covers(a)`` iff they
        have the same arity and every ``n`` in *a* (other) is ``n`` in
        *a1* (self).  Intuitively any tuple of ``q^a1`` is also a tuple
        of ``q^a``, so a unit rule ``q^a :- q^a1`` may be added.
        """
        if len(self.text) != len(other.text):
            return False
        return all(c1 == "n" for c1, c in zip(self.text, other.text) if c == "n")


def adorned_name(base: str, adornment: Adornment) -> str:
    """The mangled predicate name of an adorned version, e.g. ``a@nd``."""
    return f"{base}{ADORN_SEP}{adornment}"


def split_adorned(name: str) -> tuple[str, Optional[Adornment]]:
    """Invert :func:`adorned_name`; returns ``(name, None)`` for plain names."""
    base, sep, suffix = name.rpartition(ADORN_SEP)
    if not sep or not suffix or not set(suffix) <= {"n", "d"}:
        return name, None
    return base, Adornment(suffix)


@dataclass(frozen=True, slots=True)
class AdornedLiteral:
    """An atom plus the adornment of its predicate occurrence.

    ``atom.predicate`` is the mangled ``base@adornment`` name for
    derived predicates and the plain base name for EDB predicates; in
    both cases the adornment of the occurrence is stored.  Before
    projection pushing, ``len(adornment) == atom.arity``; afterwards the
    atom retains only the ``n`` positions (and
    :attr:`AdornedProgram.projected` is True).
    """

    atom: Atom
    adornment: Adornment
    derived: bool

    @property
    def base(self) -> str:
        return split_adorned(self.atom.predicate)[0]

    def needed_variables(self) -> frozenset[Variable]:
        """The variables at the occurrence's needed (``n``) positions —
        for a rule head, the anchor of Lemma 3.1's component split."""
        args = self.atom.args
        return frozenset(
            args[i]
            for i in self.adornment.needed_positions
            if i < len(args) and isinstance(args[i], Variable)
        )

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True, slots=True)
class AdornedRule:
    """A rule whose head and body occurrences carry adornments.

    ``negative`` holds negated literals (section-6 extension).  They
    are always adorned all-``n``: projecting a column out of a negated
    occurrence would change which tuples the negation excludes, so the
    optimizer treats every negated argument as needed.
    """

    head: AdornedLiteral
    body: tuple[AdornedLiteral, ...]
    negative: tuple[AdornedLiteral, ...] = ()

    def to_rule(self) -> Rule:
        return Rule(
            self.head.atom,
            tuple(lit.atom for lit in self.body),
            tuple(lit.atom for lit in self.negative),
        )

    def __str__(self) -> str:
        return str(self.to_rule())


@dataclass(frozen=True)
class AdornedProgram:
    """The adorned program ``P^e,ad`` of section 2.

    ``projected`` records whether phase 2 (Lemma 3.2) has dropped the
    existential argument positions; several phase-3 operations require
    the projected form.  ``boolean_predicates`` names the arity-0
    predicates introduced by the phase-1 component rewriting; the engine
    retires their rules once satisfied (the bottom-up cut).
    """

    rules: tuple[AdornedRule, ...]
    query: AdornedLiteral
    projected: bool = False
    boolean_predicates: frozenset[str] = frozenset()

    def to_program(self) -> Program:
        """The plain Datalog program (engine-ready)."""
        return Program(tuple(r.to_rule() for r in self.rules), self.query.atom)

    def adornment_of(self, predicate: str) -> Optional[Adornment]:
        """The adornment of an adorned (mangled) predicate name."""
        return split_adorned(predicate)[1]

    def derived_predicates(self) -> frozenset[str]:
        return frozenset(r.head.atom.predicate for r in self.rules)

    def rules_for(self, predicate: str) -> tuple[AdornedRule, ...]:
        return tuple(r for r in self.rules if r.head.atom.predicate == predicate)

    def with_rules(self, rules: Iterable[AdornedRule]) -> "AdornedProgram":
        return replace(self, rules=tuple(rules))

    def without_rules(self, indexes: Iterable[int]) -> "AdornedProgram":
        drop = set(indexes)
        return replace(
            self, rules=tuple(r for i, r in enumerate(self.rules) if i not in drop)
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[AdornedRule]:
        return iter(self.rules)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        lines.append(f"?- {self.query}.")
        return "\n".join(lines)


def query_adornment(query: Atom) -> Adornment:
    """The adornment the user's query atom denotes.

    Constants and named variables are needed (``n``); anonymous
    variables (parser-generated ``_``-prefixed names) are existential
    (``d``) — asking ``?- q(X, _)`` means "all X such that some second
    value exists".
    """
    chars = []
    for arg in query.args:
        if isinstance(arg, Variable) and arg.name.startswith("_"):
            chars.append("d")
        else:
            chars.append("n")
    return Adornment("".join(chars))


def _adorn_body_literal(
    literal: Atom,
    body_counts: Mapping[Variable, int],
    head_needed: frozenset[Variable],
) -> Adornment:
    """Adorn one body literal per the algorithm of section 2.

    A position is ``d`` iff it holds a variable occurring nowhere else
    in the rule except possibly at existential head positions: exactly
    one occurrence in the whole body, and no occurrence at a needed
    (``n``) head position.  Occurrences at existential (``d``) head
    positions are permitted.
    """
    chars = []
    for arg in literal.args:
        if isinstance(arg, Constant):
            chars.append("n")
        elif body_counts[arg] == 1 and arg not in head_needed:
            chars.append("d")
        else:
            chars.append("n")
    return Adornment("".join(chars))


def adorn(program: Program, query_ad: Optional[Adornment] = None) -> AdornedProgram:
    """Construct the adorned program ``P^e,ad`` (section 2).

    Starting from the query predicate with adornment *query_ad*
    (defaulting to :func:`query_adornment` of the program's query atom),
    process each unmarked adorned predicate: for every rule defining its
    base predicate, adorn the body literals, rename derived body
    predicates to their adorned versions and enqueue any new ones.

    Raises :class:`TransformError` if the program has no query.
    """
    if program.query is None:
        raise TransformError("cannot adorn a program without a query")
    program.validate()

    arities = program.arities()
    idb = program.idb_predicates()
    query_base = program.query.predicate
    if query_base not in idb:
        raise TransformError(
            f"query predicate {query_base!r} has no defining rules; nothing to adorn"
        )
    q_ad = query_ad if query_ad is not None else query_adornment(program.query)
    if len(q_ad) != program.query.arity:
        raise TransformError(
            f"query adornment {q_ad} does not match query arity {program.query.arity}"
        )

    adorned_rules: list[AdornedRule] = []
    worklist: list[tuple[str, Adornment]] = [(query_base, q_ad)]
    marked: set[tuple[str, Adornment]] = set()

    while worklist:
        base, ad = worklist.pop()
        if (base, ad) in marked:
            continue
        marked.add((base, ad))
        head_name = adorned_name(base, ad)
        for r in program.rules_for(base):
            # A head variable is "needed" if it occurs at any n position
            # of the head; occurrences at d positions alone do not make
            # it needed.
            head_needed = frozenset(
                r.head.args[i]
                for i in ad.needed_positions
                if isinstance(r.head.args[i], Variable)
            )
            body_counts: dict[Variable, int] = {}
            for atom_ in (*r.body, *r.negative):
                for arg in atom_.args:
                    if isinstance(arg, Variable):
                        body_counts[arg] = body_counts.get(arg, 0) + 1
            head_lit = AdornedLiteral(
                Atom(head_name, r.head.args, span=r.head.span), ad, derived=True
            )
            body_lits: list[AdornedLiteral] = []
            for literal in r.body:
                lit_ad = _adorn_body_literal(literal, body_counts, head_needed)
                if literal.predicate in idb:
                    new_name = adorned_name(literal.predicate, lit_ad)
                    body_lits.append(
                        AdornedLiteral(
                            Atom(new_name, literal.args, span=literal.span),
                            lit_ad,
                            derived=True,
                        )
                    )
                    if (literal.predicate, lit_ad) not in marked:
                        worklist.append((literal.predicate, lit_ad))
                else:
                    body_lits.append(AdornedLiteral(literal, lit_ad, derived=False))
            # Negated literals are adorned all-needed: their arguments
            # can never be projected out (see AdornedRule docstring).
            negative_lits: list[AdornedLiteral] = []
            for literal in r.negative:
                lit_ad = Adornment.all_needed(literal.arity)
                if literal.predicate in idb:
                    new_name = adorned_name(literal.predicate, lit_ad)
                    negative_lits.append(
                        AdornedLiteral(Atom(new_name, literal.args), lit_ad, derived=True)
                    )
                    if (literal.predicate, lit_ad) not in marked:
                        worklist.append((literal.predicate, lit_ad))
                else:
                    negative_lits.append(AdornedLiteral(literal, lit_ad, derived=False))
            adorned_rules.append(
                AdornedRule(head_lit, tuple(body_lits), tuple(negative_lits))
            )

    query_lit = AdornedLiteral(
        Atom(adorned_name(query_base, q_ad), program.query.args), q_ad, derived=True
    )
    return AdornedProgram(tuple(adorned_rules), query_lit)
