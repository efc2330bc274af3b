"""Database ↔ text serialization.

Facts round-trip through the same textual syntax the parser reads
(``edge(1, 2).`` one per line, relations sorted, rows sorted), so a
dumped database is a valid fact file for the CLI, the shell's
``.load``, and :func:`repro.datalog.parser.parse`.  String constants
that could be mistaken for variables or numbers are quoted.
"""

from __future__ import annotations

from typing import IO, Iterable, Optional

from .database import Database
from .parser import read_facts

__all__ = ["dump_database", "dumps_database", "load_database", "loads_database"]


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    text = str(value)
    # quote anything the parser would not read back as this constant
    if (
        not text
        or not (text[0].isalpha() and text[0].islower())
        or not all(c.isalnum() or c == "_" for c in text)
    ):
        return f"'{text}'"
    return text


def dumps_database(db: Database, predicates: Optional[Iterable[str]] = None) -> str:
    """Render *db* (or selected relations) as a fact file."""
    names = sorted(predicates) if predicates is not None else sorted(db.predicates())
    lines = []
    for name in names:
        for row in sorted(db.rows(name), key=repr):
            args = ", ".join(_format_value(v) for v in row)
            lines.append(f"{name}({args})." if row else f"{name}.")
    return "\n".join(lines) + ("\n" if lines else "")


def dump_database(db: Database, stream: IO[str], predicates=None) -> None:
    """Write :func:`dumps_database` output to *stream*."""
    stream.write(dumps_database(db, predicates))


def loads_database(text: str) -> Database:
    """Parse a fact file back into a database.

    Raises :class:`~repro.datalog.errors.ValidationError` if the text
    contains rules or a query.
    """
    from .errors import ValidationError

    program, db = read_facts(text)
    if program.rules or program.query is not None:
        raise ValidationError("fact text must contain only ground facts")
    return db


def load_database(stream: IO[str]) -> Database:
    """Read a fact file from *stream*."""
    return loads_database(stream.read())
