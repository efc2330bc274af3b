"""The full optimization pipeline of the paper.

The phases, in the order the paper presents them:

1. **Adorn** (section 2): propagate ``n``/``d`` adornments from the
   query, producing the adorned program ``P^e,ad``.
2. **Split connected components** (section 3.1): disconnected body
   components become boolean subqueries ``B_i``, whose rules the engine
   retires once satisfied (bottom-up cut).
3. **Push projections** (section 3.2, Lemma 3.2): drop every
   existential argument position of every derived predicate.
4. **Add covering unit rules** (section 5): between adorned versions of
   the same predicate, enabling the deletion phase.
5. **Delete rules** (sections 3.3, 5): Sagiv's uniform-equivalence test,
   the Lemma 5.1/5.3 summary tests, and the Example-6
   uniform-query-equivalence chase, iterated with cascade clean-up.

The paper notes (end of section 1.2) that Magic Sets / Counting
rewritings are orthogonal and can be applied to the result; see
:mod:`repro.rewriting.magic`.

:func:`optimize` returns an :class:`OptimizationResult` carrying every
intermediate program, the deletion log, and the engine options (cut
predicates) the final program should be run with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..datalog.ast import Atom, Program
from ..datalog.database import Database
from ..datalog.terms import Variable
from ..engine.evaluator import EngineOptions, EvalResult, answers_of, evaluate
from .adornment import Adornment, AdornedLiteral, AdornedProgram, adorn
from .components import ComponentSplit, split_components
from .deletion import DeletionReport, delete_rules
from .projection import push_projections
from .unit_rules import UnitRuleReport, add_covering_unit_rules

__all__ = ["OptimizationResult", "optimize"]


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
class OptimizationResult:
    """Everything the pipeline produced.

    ``program`` is the final optimized plain Datalog program; run it
    with :meth:`engine_options` so boolean cut rules are retired, or use
    :meth:`evaluate` / :meth:`answers` directly.

    ``answer_positions``, when set, records that the final query atom is
    a *wider* predicate than the user's query (the pipeline inlined a
    pure-projection unit rule rather than paying a materialization pass
    for it); :meth:`answers` projects the result tuples onto these
    positions.
    """

    original: Program
    adorned: AdornedProgram
    split: Optional[ComponentSplit]
    projected: Optional[AdornedProgram]
    unit_rules: Optional[UnitRuleReport]
    deletion: Optional[DeletionReport]
    final: AdornedProgram
    answer_positions: Optional[tuple[int, ...]] = None
    #: rules removed by the θ-subsumption pre-pass (deleted, subsumer)
    subsumed: tuple = ()
    #: predicates eliminated by the unfolding post-pass
    unfolded: tuple = ()
    #: rules whose bodies lost redundant literals to conjunctive
    #: minimization, as (before, after) pairs
    minimized: tuple = ()

    @cached_property
    def program(self) -> Program:
        return self.final.to_program()

    @cached_property
    def cut_predicates(self) -> frozenset[str]:
        """Boolean predicates still defined in the final program."""
        defined = self.final.derived_predicates()
        return frozenset(p for p in self.final.boolean_predicates if p in defined)

    @property
    def deleted_count(self) -> int:
        return len(self.deletion.deleted) if self.deletion else 0

    def engine_options(self, **overrides) -> EngineOptions:
        return EngineOptions(cut_predicates=self.cut_predicates, **overrides)

    def evaluate(self, edb: Database, **overrides) -> EvalResult:
        """Evaluate the optimized program (with cut) over *edb*."""
        return evaluate(self.program, edb, self.engine_options(**overrides))

    def answers_of(self, evaluation: EvalResult) -> frozenset[tuple]:
        """The answers an evaluation of :attr:`program` holds — the
        bindings of the original query's *needed* variables
        (existential positions were projected out, which is the point).

        The final query atom may be wider than what was asked: the
        pipeline ran without projection, so it still carries its
        existential variables, or it inlined a pure-projection unit
        rule (``answer_positions``).  Either way only the asked columns
        are read out of the query relation, so the result is comparable
        across pipeline configurations.
        """
        if self.answer_positions is not None:
            keep: Optional[tuple[int, ...]] = self.answer_positions
        elif self.final.projected:
            keep = None
        else:
            keep = _needed_columns(
                self.final.query.atom, self.final.query.adornment
            )
        return answers_of(evaluation.db, self.final.query.atom, keep)

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
        return {
            "original_rules": [str(r) for r in self.original.rules],
            "query": str(self.original.query) if self.original.query else None,
            "adorned_rules": [str(r) for r in self.adorned.rules],
            "boolean_predicates": sorted(self.cut_predicates),
            "unit_rules_added": [str(r) for r in self.unit_rules.added]
            if self.unit_rules
            else [],
            "deleted_rules": [
                {"rule": str(d.rule), "reason": d.reason}
                for d in (self.deletion.deleted if self.deletion else ())
            ]
            + [
                {"rule": str(rule), "reason": f"theta-subsumed by {winner}"}
                for rule, winner in self.subsumed
            ],
            "minimized_bodies": [
                {"before": str(before), "after": str(after)}
                for before, after in self.minimized
            ],
            "final_rules": [str(r) for r in self.final.rules],
            "final_query": str(self.final.query.atom),
            "answer_positions": list(self.answer_positions)
            if self.answer_positions is not None
            else None,
            "unfolded_predicates": list(self.unfolded),
        }

    def describe(self) -> str:
        """A multi-line report of what each phase did."""
        lines = [
            "== original ==",
            str(self.original),
            "",
            "== adorned (section 2) ==",
            str(self.adorned),
        ]
        if self.split is not None:
            lines += [
                "",
                f"== components split (section 3.1; {self.split.rules_split} rules split) ==",
                str(self.split.program),
            ]
        if self.projected is not None:
            lines += ["", "== projections pushed (section 3.2) ==", str(self.projected)]
        if self.unfolded:
            lines += [
                "",
                "== predicates unfolded into their consumers (section 6) ==",
                ", ".join(self.unfolded),
            ]
        if self.subsumed:
            lines += [
                "",
                "== rules removed by theta-subsumption (section 6) ==",
                *(f"{rule}   [subsumed by {winner}]" for rule, winner in self.subsumed),
            ]
        if self.minimized:
            lines += [
                "",
                "== redundant body literals minimized away ==",
                *(f"{before}   ->   {after}" for before, after in self.minimized),
            ]
        if self.unit_rules is not None and self.unit_rules.added:
            lines += [
                "",
                "== unit rules added (section 5) ==",
                *(str(r) for r in self.unit_rules.added),
            ]
        if self.deletion is not None and self.deletion.deleted:
            lines += [
                "",
                "== rules deleted (sections 3.3/5) ==",
                *(str(d) for d in self.deletion.deleted),
            ]
        lines += ["", "== final ==", str(self.final)]
        return "\n".join(lines)


def optimize(
    program: Program,
    query_ad: Optional[Adornment] = None,
    split: bool = True,
    paper_mode: bool = True,
    project: bool = True,
    unit_rules: bool = True,
    deletion: Optional[str] = "lemma53",
    use_chase: bool = True,
    use_sagiv: bool = True,
    subsumption: bool = True,
    unfold: bool = True,
    minimize_bodies: bool = True,
    validate: bool = False,
) -> OptimizationResult:
    """Run the paper's optimization pipeline on *program*.

    Phases can be switched off individually for ablation studies.
    ``deletion=None`` skips phase 3
    entirely; ``paper_mode=False`` uses the conservative component
    split, which is only meaningful with ``project=False`` (the paper's
    split may leave heads unsafe until projection runs).

    ``validate=True`` arms the pass-contract sanitizer
    (:mod:`repro.analysis.validate`): after every pass its published
    invariant is asserted over the pass's output, and a violation
    raises :class:`~repro.analysis.validate.InvariantViolation` naming
    the pass and the broken rule.
    """
    if validate:
        from ..analysis.validate import check_compiled_program, check_pass

        def _check(pass_name: str, prog: AdornedProgram) -> None:
            check_pass(pass_name, prog, paper_mode=paper_mode)

    else:

        def _check(pass_name: str, prog: AdornedProgram) -> None:
            return None

    adorned = adorn(program, query_ad=query_ad)
    current = adorned
    _check("adorn", current)

    split_report: Optional[ComponentSplit] = None
    if split:
        split_report = split_components(current, paper_mode=paper_mode)
        current = split_report.program
        _check("split_components", current)

    projected: Optional[AdornedProgram] = None
    if project:
        projected = push_projections(current)
        current = projected
        _check("push_projections", current)

    subsumed: list = []
    if subsumption and project:
        # Cheap syntactic pre-pass (section 6 direction): drop rules
        # θ-subsumed by another rule — sound for uniform equivalence.
        from .subsumption import delete_subsumed

        plain = current.to_program()
        index = {id(rule): i for i, rule in enumerate(plain.rules)}
        pairs = [
            (index[id(rule)], index[id(winner)])
            for rule, winner in delete_subsumed(plain)[1]
        ]
        if pairs:
            subsumed = [(current.rules[d], current.rules[w]) for d, w in pairs]
            current = current.without_rules(d for d, _ in pairs)
            _check("theta_subsumption", current)

    unit_report: Optional[UnitRuleReport] = None
    deletion_report: Optional[DeletionReport] = None
    from ..datalog.builtins import has_builtins

    if program.has_negation() or has_builtins(program):
        # Rule deletion under uniform (query) equivalence assumes
        # monotone programs over stored relations; with stratified
        # negation or comparison built-ins the pipeline stops after
        # projection (the paper lists both as future work).
        deletion = None
    if deletion is not None and project:
        # First pass: delete with the program's own unit rules only.
        deletion_report = delete_rules(
            current, method=deletion, use_chase=use_chase, use_sagiv=use_sagiv
        )
        current = deletion_report.program
        if unit_rules:
            # Second pass: add covering unit rules (section 5 — "we can
            # always add such unit rules") and retry; keep the result
            # only if it is strictly smaller, since otherwise the added
            # rules are dead weight.
            unit_report = add_covering_unit_rules(current)
            if unit_report.added:
                retry = delete_rules(
                    unit_report.program,
                    method=deletion,
                    use_chase=use_chase,
                    use_sagiv=use_sagiv,
                )
                if len(retry.program) < len(current):
                    current = retry.program
                    deletion_report = DeletionReport(
                        current, deletion_report.deleted + retry.deleted
                    )
                else:
                    unit_report = None
        _check("delete_rules", current)

    unfolded: tuple[str, ...] = ()
    if unfold and project:
        # Section-6-style literal transformation: splice single-rule
        # non-recursive predicates into their consumers, removing the
        # residual materialization cost when adornment forked a
        # predicate into several query forms.
        from .unfolding import unfold_nonrecursive

        unfold_report = unfold_nonrecursive(current)
        if unfold_report.unfolded:
            current = unfold_report.program
            unfolded = unfold_report.unfolded
            # unfolding may strand unreachable definitions
            from .deletion import cascade

            current = cascade(current).program
            _check("unfold_nonrecursive", current)

    minimized: tuple = ()
    if minimize_bodies and project:
        # Unfolding (and projection) can leave a body with literals
        # that only repeat an existential condition another literal
        # already states; evaluating them multiplies duplicate
        # derivations, defeating the section-3.2 work reduction.  Reduce
        # each body to its core (see repro.core.subsumption).
        from .subsumption import minimize_rule_bodies

        min_report = minimize_rule_bodies(current)
        if min_report.changed:
            current = min_report.program
            minimized = min_report.changed
            _check("minimize_rule_bodies", current)

    current, answer_positions = _inline_projection_query(current)
    _check("inline_projection_query", current)
    if validate:
        check_compiled_program(current.to_program(), "inline_projection_query")
        if answer_positions is not None:
            width = current.query.atom.arity
            if any(not 0 <= i < width for i in answer_positions):
                from ..analysis.validate import InvariantViolation

                raise InvariantViolation(
                    "inline_projection_query",
                    "answer-positions",
                    f"answer positions {answer_positions} index outside the "
                    f"final query arity {width}",
                )

    return OptimizationResult(
        original=program,
        adorned=adorned,
        split=split_report,
        projected=projected,
        unit_rules=unit_report,
        deletion=deletion_report,
        final=current,
        answer_positions=answer_positions,
        subsumed=tuple(subsumed),
        unfolded=unfolded,
        minimized=minimized,
    )


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
    from dataclasses import replace

    if not program.projected:
        # Unprojected query atoms still carry existential columns whose
        # removal is the projection phase's job; inlining would tangle
        # the two projections.
        return program, None
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
