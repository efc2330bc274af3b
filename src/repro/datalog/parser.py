"""A hand-written lexer and recursive-descent parser for textual Datalog.

The accepted grammar (newlines are insignificant; ``%`` starts a
comment running to end of line)::

    program   := statement*
    statement := query | clause
    query     := "?-" atom "."
    clause    := atom ( ":-" atom ("," atom)* )? "."
    atom      := IDENT ( "(" (term ("," term)*)? ")" )?
    term      := IDENT | NUMBER | STRING

Identifier tokens may contain ``@`` and ``.`` after the first character
so that adorned predicate names (``a@nd``) and occurrence-numbered
names from the paper (``p.1``) can be written literally.  An identifier
starting with an upper-case letter or underscore is a variable; a bare
``_`` is an anonymous variable and is replaced by a fresh variable per
occurrence (scoped to the clause).  Numbers are integer constants;
single-quoted strings are string constants (so ``'X'`` is the constant
``"X"``, not a variable).

Clauses with an empty body are *facts* if ground; :func:`parse` keeps
them in the returned :class:`~repro.datalog.ast.Program` as body-less
rules, and :func:`split_facts` separates them into a database when the
caller wants the paper's convention that the IDB contains no facts.

Fact files are the bulk of what gets read, and a fact needs none of
the rule grammar: :func:`read_facts` / :func:`load_facts` recognise
text that is nothing but ground facts with one regular expression per
fact and load it relation by relation; anything else goes through
:func:`parse`, so there is one grammar and one source of error
messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .ast import Atom, Program, Rule, Span
from .database import Database
from .errors import ArityError, ParseError
from .terms import Constant, Term, Variable

__all__ = [
    "parse",
    "parse_atom",
    "parse_rule",
    "tokenize",
    "Token",
    "split_facts",
    "read_facts",
    "load_facts",
]

_PUNCT = {
    ":-": "IMPLIES",
    "?-": "QUERY",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
}


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str  # IDENT | NUMBER | STRING | one of _PUNCT values | EOF
    text: str
    line: int
    column: int


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _ident_continue(c: str) -> bool:
    return c.isalnum() or c in "_@"


def tokenize(source: str) -> Iterator[Token]:
    """Yield the tokens of *source*, ending with an EOF token.

    Raises :class:`ParseError` on an unexpected character or an
    unterminated string literal.
    """
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        two = source[i : i + 2]
        if two in (":-", "?-"):
            yield Token(_PUNCT[two], two, line, col)
            i += 2
            col += 2
            continue
        if _ident_start(c):
            start = i
            i += 1
            while i < n and _ident_continue(source[i]):
                i += 1
            # A dot inside an identifier (occurrence numbering "p.1") is
            # only consumed when followed by another identifier char;
            # otherwise it terminates the clause.
            while i + 1 < n and source[i] == "." and _ident_continue(source[i + 1]):
                i += 1
                while i < n and _ident_continue(source[i]):
                    i += 1
            text = source[start:i]
            yield Token("IDENT", text, line, col)
            col += i - start
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and source[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and source[i].isdigit():
                i += 1
            text = source[start:i]
            yield Token("NUMBER", text, line, col)
            col += i - start
            continue
        if c == "'":
            start = i
            i += 1
            while i < n and source[i] != "'":
                if source[i] == "\n":
                    raise ParseError("unterminated string literal", line, col)
                i += 1
            if i >= n:
                raise ParseError("unterminated string literal", line, col)
            text = source[start + 1 : i]
            i += 1
            yield Token("STRING", text, line, col)
            col += i - start
            continue
        if c in _PUNCT:
            yield Token(_PUNCT[c], c, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    yield Token("EOF", "", line, col)


class _Parser:
    def __init__(self, source: str):
        self._tokens = list(tokenize(source))
        self._pos = 0
        self._anon_count = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._current
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self._current
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.kind} ({tok.text!r})", tok.line, tok.column
            )
        return self._advance()

    def _accept(self, kind: str) -> Optional[Token]:
        if self._current.kind == kind:
            return self._advance()
        return None

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        rules: list[Rule] = []
        query: Optional[Atom] = None
        while self._current.kind != "EOF":
            if self._accept("QUERY"):
                q = self.atom()
                self._expect("DOT")
                if query is not None:
                    tok = self._current
                    raise ParseError("multiple queries in program", tok.line, tok.column)
                query = q
                continue
            self._anon_count = 0  # anonymous variables are clause-scoped
            head = self.atom()
            body: list[Atom] = []
            negative: list[Atom] = []
            if self._accept("IMPLIES"):
                self.literal(body, negative)
                while self._accept("COMMA"):
                    self.literal(body, negative)
            self._expect("DOT")
            rules.append(Rule(head, tuple(body), tuple(negative), span=head.span))
        return Program(tuple(rules), query)

    def literal(self, body: list, negative: list) -> None:
        """Parse one body literal; ``not`` introduces a negated one.

        ``not`` is only treated as the negation keyword when followed
        by another identifier, so a predicate named ``not`` with
        parenthesized arguments still parses (``not(X)``).
        """
        tok = self._current
        if (
            tok.kind == "IDENT"
            and tok.text == "not"
            and self._tokens[self._pos + 1].kind == "IDENT"
        ):
            self._advance()
            negative.append(self.atom())
        else:
            body.append(self.atom())

    def atom(self) -> Atom:
        name_tok = self._expect("IDENT")
        name = name_tok.text
        if name[0].isupper() or name[0] == "_":
            raise ParseError(
                f"predicate name {name!r} must not start with an upper-case "
                "letter or underscore",
                name_tok.line,
                name_tok.column,
            )
        args: list[Term] = []
        if self._accept("LPAREN"):
            if self._current.kind != "RPAREN":
                args.append(self.term())
                while self._accept("COMMA"):
                    args.append(self.term())
            self._expect("RPAREN")
        return Atom(name, tuple(args), span=Span(name_tok.line, name_tok.column))

    def term(self) -> Term:
        tok = self._current
        if tok.kind == "IDENT":
            self._advance()
            if tok.text == "_":
                self._anon_count += 1
                return Variable(f"_{self._anon_count}")
            if tok.text[0].isupper() or tok.text[0] == "_":
                return Variable(tok.text)
            return Constant(tok.text)
        if tok.kind == "NUMBER":
            self._advance()
            return Constant(int(tok.text))
        if tok.kind == "STRING":
            self._advance()
            return Constant(tok.text)
        raise ParseError(
            f"expected a term, found {tok.kind} ({tok.text!r})", tok.line, tok.column
        )


def parse(source: str) -> Program:
    """Parse a whole program: rules, facts, and at most one query.

    >>> p = parse('''
    ...     query(X) :- a(X, Y).
    ...     a(X, Y) :- p(X, Z), a(Z, Y).
    ...     a(X, Y) :- p(X, Y).
    ...     ?- query(X).
    ... ''')
    >>> len(p.rules)
    3
    """
    return _Parser(source).program()


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``parse_atom("p(X, 3)")``."""
    parser = _Parser(source)
    a = parser.atom()
    parser._accept("DOT")
    parser._expect("EOF")
    return a


def parse_rule(source: str) -> Rule:
    """Parse a single rule (or fact) terminated by a dot."""
    program = parse(source)
    if len(program.rules) != 1 or program.query is not None:
        raise ParseError("expected exactly one rule")
    return program.rules[0]


def split_facts(program: Program) -> tuple[Program, list[Atom]]:
    """Separate ground body-less rules (facts) from proper rules.

    Implements the paper's convention (section 1.1) that all facts are
    part of the EDB: returns the fact-free program and the fact atoms.
    """
    facts = [r.head for r in program.rules if r.is_fact()]
    rules = tuple(r for r in program.rules if not r.is_fact())
    return Program(rules, program.query), facts


# The ground-fact subset of the grammar above, restricted to ASCII so
# that every class below is contained in what :func:`tokenize` accepts
# for the same token (``str.isalpha`` and friends also take non-ASCII
# letters, digits and spaces; text using them takes the general path).
_WS = r"[ \t\r\n\f\v]*"
_CONT = r"[A-Za-z0-9_@]"
_IDENT = rf"[a-z]{_CONT}*(?:\.{_CONT}+)*"
_TERM = rf"(?:-?[0-9]+|{_IDENT}|'[^'\n]*')"
#: one comment, or one fact ``pred`` / ``pred()`` / ``pred(t, ...)`` +
#: ``.``, after optional white space; groups: predicate, argument text
_FACT_RE = re.compile(
    rf"{_WS}(?:%[^\n]*|({_IDENT}){_WS}"
    rf"(?:\({_WS}({_TERM}(?:{_WS},{_WS}{_TERM})*)?{_WS}\){_WS})?\.)"
)
#: the terms of an argument text `_FACT_RE` accepted; groups: number,
#: identifier, quoted string (quotes kept, so ``''`` is not "no match")
_TERM_RE = re.compile(rf"(-?[0-9]+)|({_IDENT})|('[^'\n]*')")


def _scan_facts(source: str) -> Optional[Database]:
    """The database of *source* if it is nothing but ground facts over
    integer, lower-case-identifier and quoted-string constants, blank
    lines and comments — else None.

    Rows are grouped per predicate in file order and bulk-loaded, which
    fills each row set in the order one-by-one insertion would have.
    """
    rows_of: dict[str, list[tuple]] = {}
    terms = _TERM_RE.findall
    pos = 0
    for m in _FACT_RE.finditer(source):
        if m.start() != pos:
            return None  # something between two facts the pattern skipped
        pos = m.end()
        pred, args = m.groups()
        if pred is None:
            continue  # a comment
        row = (
            tuple([int(n) if n else i or s[1:-1] for n, i, s in terms(args)])
            if args
            else ()
        )
        rows_of.setdefault(pred, []).append(row)
    if source[pos:].strip(" \t\r\n\f\v"):
        return None
    db = Database()
    try:
        for pred, rows in rows_of.items():
            db.ensure(pred, len(rows[0])).bulk_load(rows)
    except ArityError:
        return None  # one predicate, two arities: the grammar path reports it
    return db


def read_facts(source: str) -> tuple[Program, Database]:
    """Split *source* into what is not a fact and the database of what
    is: ``split_facts(parse(source))`` with the facts loaded.

    The returned program holds the rules and the query; it is empty
    whenever the text was a plain fact file, which is read without the
    rule grammar (see :func:`_scan_facts`).  Any other text — a
    variable, a rule, a query, an arity clash, a token outside the
    fact subset — is parsed in full, so errors and their positions
    come from :func:`parse` alone.
    """
    db = _scan_facts(source)
    if db is not None:
        return Program((), None), db
    program, facts = split_facts(parse(source))
    return program, Database.from_facts(facts)


def load_facts(source: str) -> Database:
    """The database of the ground facts in *source* (rules and a query,
    if any, are left out: see :func:`read_facts`)."""
    return read_facts(source)[1]
