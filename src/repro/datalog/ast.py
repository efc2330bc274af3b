"""Abstract syntax of Datalog programs.

A rule has the form (paper section 1.1)::

    p0(X0) :- p1(X1), ..., pn(Xn).

where each ``pi`` is a predicate name and each ``Xi`` a vector of
variables or constants.  A *query* is a rule without a head; we
represent it as the distinguished :attr:`Program.query` atom.  The IDB
is the set of rules; the EDB lives in
:class:`repro.datalog.database.Database`.

All AST nodes are immutable; transformations build new programs.  The
smart constructors :func:`atom` and :func:`rule` accept plain strings
and integers and apply the variable/constant naming convention of
:func:`repro.datalog.terms.term`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional

from .errors import ArityError, SafetyError, ValidationError
from .terms import Constant, Term, Variable, term

__all__ = ["Span", "Atom", "Rule", "Program", "atom", "rule"]


@dataclass(frozen=True, slots=True)
class Span:
    """A 1-based source position (line, column) of a parsed node.

    Spans are carried by :class:`Atom` and :class:`Rule` purely as
    provenance for diagnostics: they never participate in equality or
    hashing, so transformed programs compare identically whether or not
    their atoms remember where they were parsed from.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to a vector of terms, e.g. ``p(X, 3, Y)``.

    Atoms appear as rule heads, body literals, queries and (when fully
    ground) facts.
    """

    predicate: str
    args: tuple[Term, ...] = ()
    #: source position of the predicate token; excluded from
    #: equality/hash/repr (diagnostic provenance only)
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> tuple[Variable, ...]:
        """The variables of the atom, in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for a in self.args:
            if isinstance(a, Variable):
                seen.setdefault(a)
        return tuple(seen)

    def constants(self) -> tuple[Constant, ...]:
        """The constants of the atom, in order of first occurrence."""
        seen: dict[Constant, None] = {}
        for a in self.args:
            if isinstance(a, Constant):
                seen.setdefault(a)
        return tuple(seen)

    def is_ground(self) -> bool:
        """True iff the atom contains no variables (i.e. is a fact)."""
        return all(isinstance(a, Constant) for a in self.args)

    def substitute(self, subst: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution to every argument."""
        return Atom(
            self.predicate,
            tuple(subst.get(a, a) if isinstance(a, Variable) else a for a in self.args),
            span=self.span,
        )

    def rename_predicate(self, new_name: str) -> "Atom":
        """Return the same atom under a different predicate name."""
        return Atom(new_name, self.args, span=self.span)

    def as_fact(self) -> tuple:
        """Return the tuple of constant values; requires a ground atom."""
        if not self.is_ground():
            raise ValidationError(f"atom {self} is not ground")
        return tuple(a.value for a in self.args)  # type: ignore[union-attr]

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(map(str, self.args))})"


@dataclass(frozen=True, slots=True)
class Rule:
    """A rule ``head :- body, not negative...``.

    ``body`` holds the positive literals; ``negative`` the negated ones
    (the paper's section-6 extension direction — evaluated under the
    stratified semantics by the engine).  Pure Datalog rules simply
    leave ``negative`` empty.  An empty body denotes a fact rule.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    negative: tuple[Atom, ...] = ()
    #: source position of the rule (its head token); excluded from
    #: equality/hash/repr (diagnostic provenance only)
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def variables(self) -> tuple[Variable, ...]:
        """All variables of the rule, head first, in occurrence order."""
        seen: dict[Variable, None] = {}
        for a in (self.head, *self.body, *self.negative):
            for v in a.variables():
                seen.setdefault(v)
        return tuple(seen)

    def body_variables(self) -> frozenset[Variable]:
        """Variables of the *positive* body (the ones a safe rule may
        rely on for bindings)."""
        return frozenset(v for a in self.body for v in a.variables())

    def is_fact(self) -> bool:
        return not self.body and not self.negative and self.head.is_ground()

    def is_safe(self) -> bool:
        """Range restriction: every head variable and every variable of
        a negated literal occurs in the positive body."""
        body_vars = self.body_variables()
        if not all(v in body_vars for v in self.head.variables()):
            return False
        return all(
            v in body_vars for a in self.negative for v in a.variables()
        )

    def substitute(self, subst: Mapping[Variable, Term]) -> "Rule":
        return Rule(
            self.head.substitute(subst),
            tuple(a.substitute(subst) for a in self.body),
            tuple(a.substitute(subst) for a in self.negative),
            span=self.span,
        )

    def rename_apart(self, suffix: str) -> "Rule":
        """Rename every variable by appending *suffix* to its name."""
        mapping = {v: Variable(v.name + suffix) for v in self.variables()}
        return self.substitute(mapping)

    def canonical_key(self) -> tuple:
        """A renaming-invariant identity: variables are numbered in
        order of first occurrence (head, body, negated literals) and
        constants kept by value, so two rules share a key iff they are
        variants of each other."""
        numbers: dict[Variable, int] = {}

        def canon(atom: Atom) -> tuple:
            return (
                atom.predicate,
                tuple(
                    ("v", numbers.setdefault(t, len(numbers)))
                    if isinstance(t, Variable)
                    else ("c", t.value)
                    for t in atom.args
                ),
            )

        return (
            canon(self.head),
            tuple(canon(a) for a in self.body),
            tuple(canon(a) for a in self.negative),
        )

    def predicates(self) -> frozenset[str]:
        """All predicate names occurring in the rule."""
        return frozenset(
            [
                self.head.predicate,
                *(a.predicate for a in self.body),
                *(a.predicate for a in self.negative),
            ]
        )

    def __str__(self) -> str:
        parts = [str(a) for a in self.body] + [f"not {a}" for a in self.negative]
        if not parts:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(parts)}."


def atom(predicate: str, *args) -> Atom:
    """Build an atom from loosely-typed arguments.

    >>> str(atom("p", "X", 3, "foo"))
    'p(X, 3, foo)'
    """
    return Atom(predicate, tuple(term(a) for a in args))


def rule(head: Atom, *body: Atom) -> Rule:
    """Build a rule from a head atom and body atoms."""
    return Rule(head, tuple(body))


@dataclass(frozen=True)
class Program:
    """An IDB (set of rules) together with an optional query atom.

    The paper denotes a program ``P = (Q, EDB, IDB)``; the EDB is kept
    separately (a :class:`~repro.datalog.database.Database`) because the
    same program is evaluated over many database instances.

    ``Program`` objects are immutable; the ``with_*`` helpers build
    modified copies.
    """

    rules: tuple[Rule, ...] = ()
    query: Optional[Atom] = None

    def __post_init__(self):
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    # -- derived structure -------------------------------------------------

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one rule (derived predicates)."""
        return frozenset(r.head.predicate for r in self.rules)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates that occur in rule bodies or the query but are
        never defined by a rule — by convention these are base (EDB)
        relations."""
        from .builtins import is_builtin

        defined = self.idb_predicates()
        used = set()
        for r in self.rules:
            used.update(a.predicate for a in r.body if not is_builtin(a.predicate))
            used.update(a.predicate for a in r.negative)
        if self.query is not None:
            used.add(self.query.predicate)
        return frozenset(used - defined)

    def predicates(self) -> frozenset[str]:
        """All predicate names mentioned anywhere in the program."""
        names = set()
        for r in self.rules:
            names.update(r.predicates())
        if self.query is not None:
            names.add(self.query.predicate)
        return frozenset(names)

    def arities(self) -> dict[str, int]:
        """Map every predicate to its arity.

        Raises :class:`ArityError` if any predicate is used with two
        different arities.
        """
        result: dict[str, int] = {}

        def record(a: Atom) -> None:
            prev = result.setdefault(a.predicate, a.arity)
            if prev != a.arity:
                raise ArityError(
                    f"predicate {a.predicate} used with arities {prev} and {a.arity}"
                )

        for r in self.rules:
            record(r.head)
            for b in r.body:
                record(b)
            for b in r.negative:
                record(b)
        if self.query is not None:
            record(self.query)
        return result

    def has_negation(self) -> bool:
        """True iff any rule carries a negated literal."""
        return any(r.negative for r in self.rules)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """The rules whose head predicate is *predicate*."""
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    def body_occurrences(self, predicate: str) -> Iterator[tuple[int, int, Atom]]:
        """Yield ``(rule_index, body_index, atom)`` for each body
        occurrence of *predicate*."""
        for ri, r in enumerate(self.rules):
            for bi, a in enumerate(r.body):
                if a.predicate == predicate:
                    yield ri, bi, a

    # -- validation ---------------------------------------------------------

    def validate(self) -> "Program":
        """Check arity consistency and rule safety; return self.

        Raises :class:`ArityError` or :class:`SafetyError` on failure,
        so it can be chained: ``parse(src).validate()``.
        """
        from .builtins import validate_builtins

        self.arities()
        validate_builtins(self)
        for r in self.rules:
            if not r.is_safe():
                exposed = set(r.head.variables()) | {
                    v for a in r.negative for v in a.variables()
                }
                unsafe = exposed - r.body_variables()
                names = ", ".join(sorted(v.name for v in unsafe))
                where = f" (line {r.span.line})" if r.span is not None else ""
                raise SafetyError(
                    f"unsafe rule (variables {names} not bound by the positive "
                    f"body): {r}{where}"
                )
        return self

    # -- functional updates --------------------------------------------------

    def with_query(self, query: Optional[Atom]) -> "Program":
        return replace(self, query=query)

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return replace(self, rules=tuple(rules))

    def add_rules(self, rules: Iterable[Rule]) -> "Program":
        return replace(self, rules=self.rules + tuple(rules))

    def without_rule(self, index: int) -> "Program":
        return replace(self, rules=self.rules[:index] + self.rules[index + 1:])

    def without_rules(self, indexes: Iterable[int]) -> "Program":
        drop = set(indexes)
        return replace(
            self, rules=tuple(r for i, r in enumerate(self.rules) if i not in drop)
        )

    # -- dunder ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __str__(self) -> str:
        lines = [str(r) for r in self.rules]
        if self.query is not None:
            lines.append(f"?- {self.query}.")
        return "\n".join(lines)
