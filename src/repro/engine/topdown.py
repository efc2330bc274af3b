"""A tabled top-down evaluator (QSQR-style), for comparison and
cross-checking.

The paper (section 1) frames its work inside the *bottom-up* model and
notes that its boolean rewriting "captures some aspects of Prolog's cut
operator that are appropriate to the bottom-up model".  To make that
comparison concrete, this module provides the other side: a goal-
directed evaluator with memoization (tabling), the declarative cousin
of Prolog's SLD resolution that terminates on all safe Datalog.

Like Prolog, it only explores subgoals *relevant to the query* — the
behaviour Magic Sets simulates bottom-up — so on selective queries it
does far less work than the unrestricted fixpoint; like the bottom-up
engine, it is complete (tabling removes SLD's infinite loops).

Algorithm: iterate-to-fixpoint QSQR.  A *subgoal* is a predicate plus a
call pattern (argument values, or ``None`` for free positions).
Tables map subgoals to answer rows.  Each pass re-solves every
registered subgoal against the current tables, registering new
subgoals as rule bodies demand them; passes repeat until no table
grows.  Subgoals and answers range over the active domain, so the
fixpoint is finite.

Scope: positive Datalog with comparison built-ins.  Stratified
negation is served by the bottom-up engine (`repro.engine.evaluate`);
mixing negation into tabling needs SLG resolution, which is out of
scope here and documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..datalog.ast import Atom, Program
from ..datalog.builtins import eval_builtin, is_builtin
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, ValidationError
from ..datalog.terms import Constant, Variable
from .statistics import EvalStats

__all__ = ["TopDownResult", "evaluate_topdown"]

#: a call pattern: one entry per argument; a concrete value, or None
Pattern = tuple


@dataclass
class TopDownResult:
    """Answers plus the tabling state, for inspection and benchmarks."""

    program: Program
    query: Atom
    answers: frozenset[tuple]
    #: subgoal -> answer rows
    tables: dict[tuple[str, Pattern], frozenset[tuple]]
    stats: EvalStats

    @property
    def subgoal_count(self) -> int:
        return len(self.tables)


def _pattern_of(atom: Atom, subst: dict) -> Pattern:
    """The call pattern of *atom* under the current bindings."""
    out = []
    for a in atom.args:
        if isinstance(a, Constant):
            out.append(a.value)
        else:
            out.append(subst.get(a))
    return tuple(out)


def _matches(row: tuple, pattern: Pattern) -> bool:
    return all(p is None or p == v for p, v in zip(pattern, row))


class _Tabling:
    def __init__(self, program: Program, edb: Database, max_passes: int):
        if program.has_negation():
            raise ValidationError(
                "the top-down engine handles positive programs; use the "
                "bottom-up engine for stratified negation"
            )
        program.validate()
        self.program = program
        self.edb = edb
        self.idb = program.idb_predicates()
        self.rules_for = {
            p: program.rules_for(p) for p in self.idb
        }
        self.tables: dict[tuple[str, Pattern], set[tuple]] = {}
        #: consumer subgoals to re-solve when a producer's table grows —
        #: a dict used as an insertion-ordered set, so the wake order (and
        #: with it every work counter) is independent of string hashing
        self.dependents: dict[
            tuple[str, Pattern], dict[tuple[str, Pattern], None]
        ] = {}
        self.stats = EvalStats()
        self.max_passes = max_passes
        self._worklist: list[tuple[str, Pattern]] = []
        self._queued: set[tuple[str, Pattern]] = set()
        self._consumer: Optional[tuple[str, Pattern]] = None
        self._grew = False

    # -- subgoal management -------------------------------------------------

    def register(self, pred: str, pattern: Pattern) -> tuple[str, Pattern]:
        key = (pred, pattern)
        if key not in self.tables:
            # Seed with any input facts for the derived predicate — the
            # uniform-equivalence input convention (section 4) lets the
            # database pre-populate IDB predicates, and the bottom-up
            # engine honors that; tabling must agree.
            rel = self.edb.relation(pred)
            if rel is not None:
                self.tables[key] = set(rel.select(
                    {p: v for p, v in enumerate(pattern) if v is not None}
                ))
                self.stats.facts_derived += len(self.tables[key])
            else:
                self.tables[key] = set()
            self._enqueue(key)
        return key

    def _enqueue(self, key: tuple[str, Pattern]) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._worklist.append(key)

    # -- solving -------------------------------------------------------------

    def solve(self, query: Atom) -> frozenset[tuple]:
        """Dependency-driven saturation: re-solve a subgoal only when a
        table it consumes has grown since its last solve (plus once at
        registration).  Each solve that grows a table wakes exactly its
        recorded consumers, so deep call chains converge in work
        proportional to the propagation, not passes × program."""
        root = self.register(query.predicate, _pattern_of(query, {}))
        steps = 0
        while self._worklist:
            steps += 1
            if steps > self.max_passes * max(len(self.tables), 1):
                raise EvaluationError(
                    "top-down tabling did not converge (budget exceeded)"
                )
            key = self._worklist.pop()
            self._queued.discard(key)
            self.stats.iterations += 1
            grew = self._solve_subgoal(*key)
            if grew:
                for consumer in self.dependents.get(key, ()):
                    self._enqueue(consumer)
        return frozenset(self.tables[root])

    def _solve_subgoal(self, pred: str, pattern: Pattern) -> bool:
        table = self.tables[(pred, pattern)]
        self._consumer = (pred, pattern)
        self._grew = False
        for rule in self.rules_for.get(pred, ()):
            rule = rule.rename_apart("_td")
            # bind head against the call pattern
            subst: dict = {}
            ok = True
            for arg, value in zip(rule.head.args, pattern):
                if value is None:
                    continue
                if isinstance(arg, Constant):
                    if arg.value != value:
                        ok = False
                        break
                elif arg in subst:
                    if subst[arg] != value:
                        ok = False
                        break
                else:
                    subst[arg] = value
            if not ok:
                continue
            for solution in self._solve_body(list(rule.body), subst):
                row = tuple(
                    a.value if isinstance(a, Constant) else solution[a]
                    for a in rule.head.args
                )
                if _matches(row, pattern) and row not in table:
                    table.add(row)
                    self.stats.facts_derived += 1
                    self._grew = True
        return self._grew

    def _solve_body(self, body: list, subst: dict) -> Iterator[dict]:
        if not body:
            yield subst
            return
        literal, rest = body[0], body[1:]
        if is_builtin(literal.predicate):
            a, b = (
                t.value if isinstance(t, Constant) else subst[t]
                for t in literal.args
            )
            if eval_builtin(literal.predicate, a, b):
                yield from self._solve_body(rest, subst)
            return

        if literal.predicate in self.idb:
            key = self.register(literal.predicate, _pattern_of(literal, subst))
            if self._consumer is not None:
                self.dependents.setdefault(key, {})[self._consumer] = None
            rows: Iterator[tuple] = iter(list(self.tables[key]))
        else:
            rel = self.edb.relation(literal.predicate)
            rows = iter(rel.rows()) if rel is not None else iter(())
        self.stats.join_probes += 1
        for row in rows:
            self.stats.rows_scanned += 1
            extended = dict(subst)
            ok = True
            for arg, value in zip(literal.args, row):
                if isinstance(arg, Constant):
                    if arg.value != value:
                        ok = False
                        break
                elif arg in extended:
                    if extended[arg] != value:
                        ok = False
                        break
                else:
                    extended[arg] = value
            if ok:
                yield from self._solve_body(rest, extended)


def evaluate_topdown(
    program: Program,
    edb: Database,
    query: Optional[Atom] = None,
    max_passes: int = 10_000,
) -> TopDownResult:
    """Answer *query* (default: the program's query) by tabled
    resolution.

    Returns the same answer tuples as
    ``evaluate(program, edb).answers(query)`` — the bindings of the
    query's distinct variables in first-occurrence order — but explores
    only subgoals reachable from the query, like Prolog with tabling.
    """
    q = query if query is not None else program.query
    if q is None:
        raise ValidationError("top-down evaluation requires a query")
    engine = _Tabling(program, edb, max_passes)
    rows = engine.solve(q)

    # project rows onto the query's distinct variables (same convention
    # as EvalResult.answers)
    var_positions: list[int] = []
    seen: dict[Variable, int] = {}
    for i, a in enumerate(q.args):
        if isinstance(a, Variable) and a not in seen:
            seen[a] = i
            var_positions.append(i)
    answers = set()
    for row in rows:
        consistent = all(
            row[seen[a]] == row[i]
            for i, a in enumerate(q.args)
            if isinstance(a, Variable)
        )
        if consistent:
            answers.add(tuple(row[i] for i in var_positions))

    return TopDownResult(
        program=program,
        query=q,
        answers=frozenset(answers),
        tables={k: frozenset(v) for k, v in engine.tables.items()},
        stats=engine.stats,
    )
