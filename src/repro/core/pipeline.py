"""The full optimization pipeline of the paper, as one table of passes.

:func:`optimize` folds the program through these passes, in order.
Each row declares its guarantee: a *uniform* pass keeps the query's
answers on every input instance, including one that already holds rows
of derived predicates (uniform query equivalence, section 4); an
*edb-only* pass assumes the derived predicates start empty.

1. ``adorn`` (section 2; uniform): propagate ``n``/``d`` adornments
   from the query, producing the adorned program ``P^e,ad``.
2. ``split_components`` (section 3.1; uniform): disconnected body
   components become boolean subqueries ``B_i``, whose rules the
   engine retires once satisfied (bottom-up cut).
3. ``push_projections`` (section 3.2, Lemma 3.2; uniform): drop every
   existential argument position of every derived predicate.
4. ``monadic_chains`` (Theorem 3.3; edb-only): a one-sided-linear or
   doubled (``P -> P P``) binary chain recursion whose readers want one
   endpoint becomes unary automaton-state predicates
   (:mod:`repro.core.monadic`).
5. ``theta_subsumption`` (section 6; uniform): drop every rule
   θ-subsumed by another rule.
6. ``delete_rules`` (sections 3.3, 5; edb-only, for the cascade):
   Sagiv's uniform-equivalence test, the Lemma 5.1/5.3 summary tests,
   and the Example-6 uniform-query-equivalence chase, iterated with
   cascade clean-up, then retried with the covering unit rules of
   section 5 added.
7. ``unfold_nonrecursive`` (section 6; edb-only): splice single-rule
   non-recursive predicates into their consumers.
8. ``minimize_rule_bodies`` (section 6; uniform): reduce every rule
   body to its core.
9. ``inline_projection_query`` (edb-only): query the predicate a
   pure-projection unit rule reads instead of materializing the rule.

The adorned program renames every derived predicate, so no optimized
program reads given rows of one: :meth:`OptimizationResult.evaluate`
refuses a database holding rows of a derived predicate the query
depends on with a
:class:`~repro.datalog.errors.DerivedInputError` naming the predicate
and the first edb-only pass that changed the program.

The paper notes (end of section 1.2) that Magic Sets / Counting
rewritings are orthogonal and can be applied to the result; see
:mod:`repro.rewriting.magic`.

:func:`optimize` returns an :class:`OptimizationResult` carrying one
:class:`PassRecord` per pass and the engine options (cut predicates)
the final program should be run with.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Optional

from ..datalog.analysis import reachable_predicates
from ..datalog.ast import Atom, Program
from ..datalog.builtins import has_builtins
from ..datalog.database import Database
from ..datalog.errors import DerivedInputError
from ..datalog.terms import Variable
from ..engine.evaluator import EngineOptions, EvalResult, answers_of, evaluate
from .adornment import Adornment, AdornedLiteral, AdornedProgram, adorn
from .components import split_components
from .deletion import cascade, delete_rules
from .projection import push_projections
from .subsumption import delete_subsumed, minimize_rule_bodies
from .unfolding import unfold_nonrecursive
from .unit_rules import add_covering_unit_rules

__all__ = ["OptimizationResult", "PassRecord", "optimize"]


def _needed_columns(query: Atom, adornment: Adornment) -> tuple[int, ...]:
    """Which answer columns (the query's distinct variables, in
    first-occurrence order) sit at a needed position of *adornment*."""
    needed = set(adornment.needed_positions)
    first: dict[Variable, int] = {}
    for pos, arg in enumerate(query.args):
        if isinstance(arg, Variable):
            first.setdefault(arg, pos)
    return tuple(i for i, pos in enumerate(first.values()) if pos in needed)


@dataclass(frozen=True)
class PassRecord:
    """One pass of :func:`optimize`: its name, output program and report.

    The reports: ``split_components`` its
    :class:`~repro.core.components.ComponentSplit`; ``monadic_chains``
    one :class:`~repro.core.monadic.MonadicChain` per rewired reader
    (``()`` when it declined); ``theta_subsumption`` the
    ``(deleted, subsumer)`` rule pairs; ``delete_rules`` ``(unit rules added, deletions)``, or ``None`` when
    deletion was skipped; ``unfold_nonrecursive`` the eliminated
    predicates; ``minimize_rule_bodies`` the ``(before, after)`` rule
    pairs; ``inline_projection_query`` the answer positions, or
    ``None``.  ``adorn`` and ``push_projections`` report nothing.
    ``guarantee`` is the pass's row of the table: ``"uniform"`` or
    ``"edb-only"``.
    """

    name: str
    program: AdornedProgram
    report: object = None
    guarantee: str = "uniform"


@dataclass(frozen=True)
class OptimizationResult:
    """Everything the pipeline produced.

    ``program`` is the final optimized plain Datalog program; run it
    with :meth:`engine_options` so boolean cut rules are retired, or use
    :meth:`evaluate` / :meth:`answers` directly.

    ``passes`` holds one :class:`PassRecord` per pass, in execution
    order; ``adorned`` and ``final`` are the first and last programs.
    """

    original: Program
    passes: tuple[PassRecord, ...]

    def record(self, name: str) -> PassRecord:
        """The record of pass *name*."""
        return next(r for r in self.passes if r.name == name)

    @property
    def adorned(self) -> AdornedProgram:
        return self.passes[0].program

    @property
    def final(self) -> AdornedProgram:
        return self.passes[-1].program

    @property
    def answer_positions(self) -> Optional[tuple[int, ...]]:
        """When set, the final query atom is a *wider* predicate than the
        user's query (the pipeline inlined a pure-projection unit rule
        rather than paying a materialization pass for it);
        :meth:`answers` projects the result tuples onto these
        positions."""
        return self.record("inline_projection_query").report

    @property
    def subsumed(self) -> tuple:
        """Rules removed by θ-subsumption, as (deleted, subsumer) pairs."""
        return self.record("theta_subsumption").report

    @property
    def deleted_count(self) -> int:
        return len(self._deletion[1])

    @property
    def _deletion(self) -> tuple:
        return self.record("delete_rules").report or ((), ())

    @property
    def monadic(self) -> tuple:
        """The readers ``monadic_chains`` rewired (Theorem 3.3)."""
        return self.record("monadic_chains").report

    @cached_property
    def program(self) -> Program:
        return self.final.to_program()

    @cached_property
    def _source_derived(self) -> tuple[str, ...]:
        """The source's derived predicates the query depends on; rows of
        any other derived predicate cannot change the answers."""
        roots = (self.original.query.predicate,) if self.original.query else ()
        relevant = reachable_predicates(self.original, roots)
        return tuple(sorted(self.original.idb_predicates() & relevant))

    def _first_edb_only_change(self) -> Optional[str]:
        previous = None
        for record in self.passes:
            if (
                record.guarantee == "edb-only"
                and previous is not None
                and str(record.program) != str(previous)
            ):
                return record.name
            previous = record.program
        return None

    def _check_input(self, edb: Database) -> None:
        """Refuse *edb* if it holds rows of a predicate the source
        program derives and the query depends on: the optimized program
        would ignore them.
        Raises :class:`~repro.datalog.errors.DerivedInputError`."""
        for predicate in self._source_derived:
            rel = edb.relation(predicate)
            if rel is not None and len(rel):
                raise DerivedInputError(predicate, self._first_edb_only_change())

    @cached_property
    def cut_predicates(self) -> frozenset[str]:
        """Boolean predicates still defined in the final program."""
        defined = self.final.derived_predicates()
        return frozenset(p for p in self.final.boolean_predicates if p in defined)

    def engine_options(self, **overrides) -> EngineOptions:
        return EngineOptions(cut_predicates=self.cut_predicates, **overrides)

    def evaluate(self, edb: Database, **overrides) -> EvalResult:
        """Evaluate the optimized program (with cut) over *edb*.

        Raises :class:`~repro.datalog.errors.DerivedInputError` when
        *edb* holds rows of a predicate the source program derives and
        the query depends on."""
        self._check_input(edb)
        return evaluate(self.program, edb, self.engine_options(**overrides))

    def answers_of(self, evaluation: EvalResult) -> frozenset[tuple]:
        """The answers an evaluation of :attr:`program` holds — the
        bindings of the original query's *needed* variables
        (existential positions were projected out, which is the point).

        When the pipeline inlined a pure-projection unit rule, only the
        ``answer_positions`` columns are read out of the (wider) query
        relation.
        """
        return answers_of(evaluation.db, self.final.query.atom, self.answer_positions)

    def answers(self, edb: Database, **overrides) -> frozenset[tuple]:
        """:meth:`answers_of` a fresh :meth:`evaluate` over *edb*;
        *overrides* are forwarded to :class:`EngineOptions` (the oracle
        suite re-runs the optimized program under every strategy)."""
        return self.answers_of(self.evaluate(edb, **overrides))

    def reference_answers(self, edb: Database, **overrides) -> frozenset[tuple]:
        """Answers of the *original* program projected onto the needed
        query positions — the baseline the optimized program must
        match.  Used pervasively by the differential tests.
        """
        result = evaluate(self.original, edb, EngineOptions(**overrides))
        q = self.original.query
        assert q is not None
        keep = _needed_columns(q, self.adorned.query.adornment)
        return answers_of(result.db, q, keep)

    def report_dict(self) -> dict:
        """A JSON-serializable summary of the run (CLI ``--json``)."""
        added, deleted = self._deletion
        report = {
            "original_rules": [str(r) for r in self.original.rules],
            "query": str(self.original.query) if self.original.query else None,
            "adorned_rules": [str(r) for r in self.adorned.rules],
            "boolean_predicates": sorted(self.cut_predicates),
            "unit_rules_added": [str(r) for r in added],
            "deleted_rules": [{"rule": str(d.rule), "reason": d.reason} for d in deleted]
            + [
                {"rule": str(rule), "reason": f"theta-subsumed by {winner}"}
                for rule, winner in self.subsumed
            ],
            "minimized_bodies": [
                {"before": str(before), "after": str(after)}
                for before, after in self.record("minimize_rule_bodies").report
            ],
            "final_rules": [str(r) for r in self.final.rules],
            "final_query": str(self.final.query.atom),
            "answer_positions": list(self.answer_positions)
            if self.answer_positions is not None
            else None,
            "unfolded_predicates": list(self.record("unfold_nonrecursive").report),
        }
        if self.monadic:
            report["monadic_chains"] = [asdict(chain) for chain in self.monadic]
        return report

    def describe(self) -> str:
        """A multi-line report of what each pass did, in execution order."""
        split = self.record("split_components").report
        added, deleted = self._deletion
        unfolded = self.record("unfold_nonrecursive").report
        minimized = self.record("minimize_rule_bodies").report
        sections = [
            ("original", [self.original]),
            ("adorned (section 2)", [self.adorned]),
            (f"components split (section 3.1; {split.rules_split} rules split)",
             [split.program]),
            ("projections pushed (section 3.2)", [self.record("push_projections").program]),
            ("chains made monadic (Theorem 3.3)", self.monadic),
            ("rules removed by theta-subsumption (section 6)",
             [f"{rule}   [subsumed by {winner}]" for rule, winner in self.subsumed]),
            ("unit rules added (section 5)", added),
            ("rules deleted (sections 3.3/5)", deleted),
            ("predicates unfolded into their consumers (section 6)",
             [", ".join(unfolded)] if unfolded else []),
            ("redundant body literals minimized away",
             [f"{before}   ->   {after}" for before, after in minimized]),
            ("final", [self.final]),
        ]
        return "\n\n".join(
            "\n".join([f"== {title} ==", *map(str, body)]) for title, body in sections if body
        )


def optimize(
    program: Program,
    deletion: Optional[str] = "lemma53",
    unit_rules: bool = True,
    use_chase: bool = True,
    use_sagiv: bool = True,
    validate: bool = False,
) -> OptimizationResult:
    """Run the paper's optimization pipeline on *program*.

    The ``delete_rules`` pass takes the settings: *deletion* is the
    summary test (``"lemma53"``, ``"lemma51"``, or ``None`` to skip the
    pass); *unit_rules* enables the retry with covering unit rules;
    *use_chase* / *use_sagiv* enable the Example-6 chase and Sagiv's
    test.  Programs with negation or comparison built-ins skip the pass:
    rule deletion under uniform (query) equivalence assumes monotone
    programs over stored relations (the paper lists both as future
    work).

    Every pass always runs; ``monadic_chains`` declines on its own
    syntactic test (see :mod:`repro.core.monadic`).

    ``validate=True`` arms the pass-contract sanitizer
    (:mod:`repro.analysis.validate`): after every pass its published
    invariant is asserted over the pass's output, and a violation
    raises :class:`~repro.analysis.validate.InvariantViolation` naming
    the pass and the broken rule.
    """
    if program.has_negation() or has_builtins(program):
        deletion = None
    passes = (
        ("adorn", "uniform", lambda p: (adorn(p), None)),
        ("split_components", "uniform", _split_components),
        ("push_projections", "uniform", lambda p: (push_projections(p), None)),
        ("monadic_chains", "edb-only", _monadic_chains),
        ("theta_subsumption", "uniform", _theta_subsumption),
        (
            "delete_rules",
            "edb-only",
            lambda p: _delete_rules(p, deletion, unit_rules, use_chase, use_sagiv),
        ),
        ("unfold_nonrecursive", "edb-only", _unfold_nonrecursive),
        ("minimize_rule_bodies", "uniform", _minimize_rule_bodies),
        ("inline_projection_query", "edb-only", _inline_projection_query),
    )
    if validate:
        from ..analysis.validate import check_compiled_program, check_pass
    current = program
    records = []
    for name, guarantee, run in passes:
        current, report = run(current)
        records.append(PassRecord(name, current, report, guarantee))
        if validate:
            check_pass(records[-1])
    if validate:
        check_compiled_program(current.to_program(), "final")
    return OptimizationResult(original=program, passes=tuple(records))


def _split_components(program: AdornedProgram):
    split = split_components(program)
    return split.program, split


def _monadic_chains(program: AdornedProgram):
    # imported on first use: a fresh `import repro` (every CLI start)
    # does not compile the pass unless something optimizes
    from .monadic import monadic_chains

    return monadic_chains(program)


def _theta_subsumption(program: AdornedProgram):
    plain = program.to_program()
    index = {id(rule): i for i, rule in enumerate(plain.rules)}
    pairs = [
        (index[id(rule)], index[id(winner)])
        for rule, winner in delete_subsumed(plain)[1]
    ]
    subsumed = tuple((program.rules[d], program.rules[w]) for d, w in pairs)
    return program.without_rules(d for d, _ in pairs), subsumed


def _delete_rules(program, method, unit_rules, use_chase, use_sagiv):
    """Delete rules with the program's own unit rules; then add the
    covering unit rules (section 5 — "we can always add such unit
    rules") and retry, keeping the retry only if it leaves strictly
    fewer rules, since otherwise the added rules are dead weight."""
    if method is None:
        return program, None

    def delete(prog):
        return delete_rules(prog, method=method, use_chase=use_chase, use_sagiv=use_sagiv)

    first = delete(program)
    if unit_rules:
        units = add_covering_unit_rules(first.program)
        if units.added:
            retry = delete(units.program)
            if len(retry.program) < len(first.program):
                return retry.program, (units.added, first.deleted + retry.deleted)
    return first.program, ((), first.deleted)


def _unfold_nonrecursive(program: AdornedProgram):
    # removes the residual materialization cost when adornment forked a
    # predicate into several query forms; the cascade drops the
    # definitions unfolding strands
    report = unfold_nonrecursive(program)
    if not report.unfolded:
        return program, ()
    return cascade(report.program).program, report.unfolded


def _minimize_rule_bodies(program: AdornedProgram):
    # unfolding and projection can leave literals that only repeat an
    # existential condition another literal already states; evaluating
    # them multiplies duplicate derivations (see repro.core.subsumption)
    report = minimize_rule_bodies(program)
    return report.program, report.changed


def _inline_projection_query(
    program: AdornedProgram,
) -> tuple[AdornedProgram, Optional[tuple[int, ...]]]:
    """Inline a pure-projection unit rule defining the query predicate.

    When the *only* rule for the query predicate is
    ``q(Xi...) :- p(Y1, ..., Yk)`` with the head variables a subset of
    the distinct body variables, materializing ``q`` costs a linear
    pass over ``p`` for nothing: the same answers are obtained by
    querying ``p`` directly and projecting the result tuples.  Returns
    the program with the rule dropped and the projection positions, or
    the input unchanged.

    Only applied when the query atom consists of distinct variables
    (constant selections are left to the magic-sets rewriting).
    """
    query_pred = program.query.atom.predicate
    defining = program.rules_for(query_pred)
    if len(defining) != 1:
        return program, None
    rule = defining[0]
    if len(rule.body) != 1 or not rule.body[0].derived or rule.negative:
        return program, None
    if any(
        lit.atom.predicate == query_pred for r in program.rules for lit in r.body
    ):
        return program, None
    query_args = program.query.atom.args
    head_args = rule.head.atom.args
    body_args = rule.body[0].atom.args
    all_vars = (*query_args, *head_args, *body_args)
    if not all(isinstance(a, Variable) for a in all_vars):
        return program, None
    if len(set(query_args)) != len(query_args) or len(set(body_args)) != len(body_args):
        return program, None
    if len(set(head_args)) != len(head_args):
        return program, None
    try:
        positions = tuple(body_args.index(a) for a in head_args)
    except ValueError:
        return program, None
    new_query = AdornedLiteral(
        rule.body[0].atom, rule.body[0].adornment, derived=True
    )
    rules = tuple(r for r in program.rules if r is not rule)
    return replace(program, rules=rules, query=new_query), positions
