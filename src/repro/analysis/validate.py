"""Layer 2 — the pass-contract sanitizer.

Every pipeline pass publishes an invariant over its output; this module
asserts them.  ``optimize(..., validate=True)`` (the CLI ``--validate``
flag) runs the matching check after **every** pass and raises a
structured :class:`InvariantViolation` naming the pass and the violated
rule, so a buggy pass is caught at its own doorstep instead of
surfacing rounds later as a wrong answer.

The contracts:

``adornment-*`` (every pass that yields an :class:`AdornedProgram`)
    The mangled predicate name ``base@ad`` of every derived literal
    agrees with its stored adornment; adornment length matches atom
    arity (pre-projection) or needed-position count (post-projection,
    Lemma 3.2); every derived body predicate has defining rules; the
    program's arity schema is coherent; boolean predicates are arity 0.
``component-partition`` / ``single-component`` (section 3.1)
    :func:`~repro.datalog.analysis.body_components` partitions the body
    literal indexes; after the split, every remaining body component of
    a non-boolean rule is anchored to a needed head variable
    (Lemma 3.1's "afterwards every rule has a single component").
``post-projection-safety`` (section 3.2)
    After Lemma 3.2 the program is plain safe Datalog again (the paper
    mode split deliberately passes through an unsafe intermediate).
``monadic-*`` (Theorem 3.3)
    Every predicate ``monadic_chains`` introduces is unary, and no rule
    (nor the query) still reads a binary predicate the pass dropped.
``hidden-link-*`` (section 5)
    Argument projections are canonical: an edge ``(i, k)`` exactly when
    head position *i* and body position *k* hold the same variable, and
    hidden same-side links record exactly the same-side pairs merged by
    a variable invisible to the other side and not already implied by
    the edges.
``plan-*`` / ``slot-*`` (engine)
    Every compiled rule's join plans are permutations of the relational
    body; bound/free position sets agree with a recomputation of the
    binding order; head, built-in and negated variables are covered by
    the relational body (the kernel's slot map would otherwise emit a
    read of an unassigned register).
"""

from __future__ import annotations

from typing import NoReturn

from ..datalog.analysis import anchored, body_components
from ..datalog.ast import Program
from ..datalog.errors import ReproError, ValidationError
from ..datalog.terms import Constant, Variable

__all__ = [
    "InvariantViolation",
    "check_adorned_program",
    "check_component_partition",
    "check_split_anchoring",
    "check_argument_projections",
    "check_monadic_chains",
    "check_compiled_program",
    "check_pass",
    "validate_result",
]


class InvariantViolation(ReproError):
    """A pipeline pass produced output violating its published contract.

    ``pass_name`` is the pass whose output failed (e.g.
    ``push_projections``); ``rule`` is the stable identifier of the
    violated invariant (e.g. ``adornment-arity``).
    """

    def __init__(self, pass_name: str, rule: str, message: str):
        self.pass_name = pass_name
        self.rule = rule
        super().__init__(
            f"pass {pass_name!r} violated invariant {rule!r}: {message}"
        )


def _violate(pass_name: str, rule: str, message: str) -> NoReturn:
    raise InvariantViolation(pass_name, rule, message)


# -- adornment consistency (P^e,ad) ------------------------------------------


def _check_literal(lit, pass_name: str, projected: bool, derived_defined) -> None:
    from ..core.adornment import split_adorned

    atom, ad = lit.atom, lit.adornment
    if lit.derived:
        base, name_ad = split_adorned(atom.predicate)
        if len(ad) == 0 and atom.arity == 0:
            pass  # boolean guard: unadorned arity-0 predicate
        elif name_ad is None or name_ad != ad:
            _violate(
                pass_name,
                "name-adornment-agree",
                f"derived literal {atom} carries adornment {ad} but its "
                f"mangled name decodes to {name_ad}",
            )
        if derived_defined is not None and atom.predicate not in derived_defined:
            _violate(
                pass_name,
                "derived-defined",
                f"derived predicate {atom.predicate!r} (in {atom}) has no "
                f"defining rules",
            )
        expected = len(ad.needed_positions) if projected else len(ad)
    else:
        # EDB literals keep their stored arity in both forms
        expected = len(ad)
    if atom.arity != expected:
        _violate(
            pass_name,
            "adornment-arity",
            f"literal {atom} has arity {atom.arity} but its adornment {ad!s:s} "
            f"requires {expected} ({'projected' if projected else 'unprojected'})",
        )


_STRUCTURAL_PASSES = frozenset(
    {"adorn", "split_components", "push_projections"}
)


def check_adorned_program(program, pass_name: str) -> None:
    """Adornment consistency of an :class:`AdornedProgram` in either the
    unprojected (``P^e,ad``) or projected (post-Lemma 3.2) form.

    The ``derived-defined`` rule (every derived body/query predicate
    has defining rules) is asserted only after the structural passes:
    rule deletion may soundly remove *all* rules of a predicate that a
    surviving — then never-firing — rule still references.
    """
    projected = program.projected
    defined = (
        program.derived_predicates()
        if pass_name in _STRUCTURAL_PASSES
        else None
    )
    for rule in program.rules:
        if not rule.head.derived:
            _violate(
                pass_name,
                "head-derived",
                f"rule head {rule.head.atom} is not marked derived",
            )
        _check_literal(rule.head, pass_name, projected, None)
        for lit in rule.body:
            _check_literal(lit, pass_name, projected, defined)
        for lit in rule.negative:
            if "d" in lit.adornment.text:
                _violate(
                    pass_name,
                    "negation-all-needed",
                    f"negated literal {lit.atom} carries existential "
                    f"adornment {lit.adornment}; negated positions are "
                    f"never projectable",
                )
            _check_literal(lit, pass_name, projected, defined)
    _check_literal(program.query, pass_name, projected, defined)
    for name in program.boolean_predicates:
        for rule in program.rules:
            if rule.head.atom.predicate == name and rule.head.atom.arity != 0:
                _violate(
                    pass_name,
                    "boolean-arity",
                    f"boolean predicate {name!r} defined at arity "
                    f"{rule.head.atom.arity}",
                )
    try:
        program.to_program().arities()
    except ValidationError as exc:
        _violate(pass_name, "schema-arity", str(exc))
    if projected:
        try:
            program.to_program().validate()
        except ValidationError as exc:
            _violate(pass_name, "post-projection-safety", str(exc))


# -- section 3.1: component split --------------------------------------------


def check_component_partition(program, pass_name: str) -> None:
    """``body_components`` yields a partition of each rule's body."""
    for rule in program.rules:
        plain = rule.to_rule()
        comps = body_components(plain.body, plain.negative)
        flat = [i for comp in comps for i in comp]
        if sorted(flat) != list(range(len(rule.body))):
            _violate(
                pass_name,
                "component-partition",
                f"components {comps} of rule {rule} do not partition its "
                f"{len(rule.body)} body positions",
            )


def check_split_anchoring(program, pass_name: str) -> None:
    """Post-split (Lemma 3.1): every body component of a non-boolean
    rule is anchored to a needed head variable or is a variable-free
    guard."""
    check_component_partition(program, pass_name)
    for rule in program.rules:
        if rule.head.atom.arity == 0:
            continue
        plain, anchor = rule.to_rule(), rule.head.needed_variables()
        for comp in body_components(plain.body, plain.negative):
            if anchored(plain.body, comp, anchor):
                continue
            lits = [plain.body[i] for i in comp]
            if all(not atom.variables() for atom in lits):
                continue
            _violate(
                pass_name,
                "single-component",
                f"rule {rule} still has the unanchored body component "
                f"{[str(atom) for atom in lits]} after the split",
            )


# -- Theorem 3.3: monadic chains --------------------------------------------


def check_monadic_chains(program, chains, pass_name: str = "monadic_chains") -> None:
    """The introduced state predicates are unary and the dropped
    components are read nowhere (*chains* is the pass's report)."""
    arity = {r.head.atom.predicate: r.head.atom.arity for r in program.rules}
    dropped = {p for chain in chains for p in chain.component}
    for chain in chains:
        for pred in chain.states:
            if arity.get(pred) != 1:
                _violate(
                    pass_name,
                    "monadic-unary",
                    f"state predicate {pred!r} introduced for {chain.start} is "
                    f"defined at arity {arity.get(pred)}, not 1",
                )
    for rule in program.rules:
        for lit in (rule.head, *rule.body, *rule.negative):
            if lit.atom.predicate in dropped:
                _violate(
                    pass_name,
                    "monadic-dropped",
                    f"rule {rule} still uses {lit.atom.predicate!r}, which the "
                    f"pass dropped",
                )
    if program.query.atom.predicate in dropped:
        _violate(
            pass_name,
            "monadic-dropped",
            f"the query reads the dropped predicate {program.query.atom.predicate!r}",
        )


# -- section 5: argument projections -----------------------------------------


def check_argument_projections(program, pass_name: str) -> None:
    """Hidden-link consistency: each head→body projection of the
    projected program matches an independent recomputation from raw
    variable identity, and its hidden links are canonical."""
    from ..core.argument_projection import program_projections

    if not program.projected:
        return
    for (ri, bi), proj in program_projections(program).items():
        rule = program.rules[ri]
        head_args = rule.head.atom.args
        body_args = rule.body[bi].atom.args
        expected_edges = frozenset(
            (i, k)
            for i, ha in enumerate(head_args)
            if isinstance(ha, Variable)
            for k, ba in enumerate(body_args)
            if ha == ba
        )
        if proj.edges != expected_edges:
            _violate(
                pass_name,
                "hidden-link-edges",
                f"projection {proj} of rule {rule} (body #{bi}) disagrees "
                f"with shared-variable edges {sorted(expected_edges)}",
            )
        body_vars = {a for a in body_args if isinstance(a, Variable)}
        head_vars = {a for a in head_args if isinstance(a, Variable)}
        expected_left = frozenset(
            (a, b)
            for a, va in enumerate(head_args)
            for b in range(a + 1, len(head_args))
            if isinstance(va, Variable)
            and head_args[b] == va
            and va not in body_vars
        )
        expected_right = frozenset(
            (a, b)
            for a, va in enumerate(body_args)
            for b in range(a + 1, len(body_args))
            if isinstance(va, Variable)
            and body_args[b] == va
            and va not in head_vars
        )
        if proj.left_links != expected_left or proj.right_links != expected_right:
            _violate(
                pass_name,
                "hidden-link-canonical",
                f"projection of rule {rule} (body #{bi}) stores hidden links "
                f"L={sorted(proj.left_links)} R={sorted(proj.right_links)}; "
                f"expected L={sorted(expected_left)} R={sorted(expected_right)}",
            )


# -- engine: plan / kernel slot-map coherence --------------------------------


def check_compiled_program(program: Program, pass_name: str = "compile_rule") -> None:
    """Compile every rule and check plan/slot-map coherence.

    The lowering (:func:`repro.engine.plan.lower`) derives the register
    map every executor shares from each plan's bound/free split, so a
    split that disagrees with the actual binding order would make the
    kernels and the interpreter read an unassigned register; this check
    recomputes the binding order independently.
    """
    from ..engine.plan import compile_rule

    for index, rule in enumerate(program.rules):
        try:
            compiled = compile_rule(rule, index)
        except ReproError as exc:  # pragma: no cover - compile never raises today
            _violate(pass_name, "plan-compile", f"rule {rule}: {exc}")
        n = len(compiled.relational_body)
        all_plans = [("plan", compiled.plan)] + [
            (f"delta[{i}]", p) for i, p in enumerate(compiled.delta_plans)
        ]
        for label, plan in all_plans:
            if sorted(step.body_index for step in plan) != list(range(n)):
                _violate(
                    pass_name,
                    "plan-permutation",
                    f"{label} of rule {rule} covers body indexes "
                    f"{[s.body_index for s in plan]}, not a permutation of "
                    f"0..{n - 1}",
                )
            bound_vars: set[Variable] = set()
            for step in plan:
                expected_bound = tuple(
                    p
                    for p, arg in enumerate(step.atom.args)
                    if isinstance(arg, Constant) or arg in bound_vars
                )
                if step.bound_positions != expected_bound:
                    _violate(
                        pass_name,
                        "slot-binding",
                        f"{label} of rule {rule}: literal {step.atom} claims "
                        f"bound positions {step.bound_positions}, recomputed "
                        f"{expected_bound}",
                    )
                expected_free = tuple(
                    (p, arg)
                    for p, arg in enumerate(step.atom.args)
                    if not (isinstance(arg, Constant) or arg in bound_vars)
                )
                if step.free_positions != expected_free:
                    _violate(
                        pass_name,
                        "slot-free",
                        f"{label} of rule {rule}: literal {step.atom} claims "
                        f"free positions {step.free_positions}, recomputed "
                        f"{expected_free}",
                    )
                bound_vars.update(v for _, v in step.free_positions)
            uncovered = {
                v
                for atom in (rule.head, *compiled.builtins, *rule.negative)
                for v in atom.variables()
            } - bound_vars
            if uncovered and n:
                _violate(
                    pass_name,
                    "head-coverage",
                    f"{label} of rule {rule} leaves "
                    f"{sorted(v.name for v in uncovered)} unbound for the "
                    f"head/built-ins/negation",
                )
        for i, plan in enumerate(compiled.delta_plans):
            if plan and plan[0].body_index != i:
                _violate(
                    pass_name,
                    "delta-first",
                    f"delta plan {i} of rule {rule} starts at body index "
                    f"{plan[0].body_index}",
                )


# -- whole-result validation --------------------------------------------------


def validate_result(result) -> None:
    """Re-check every pass record of an
    :class:`~repro.core.pipeline.OptimizationResult` post hoc, then the
    final compiled program.

    ``optimize(validate=True)`` runs the same checks as each pass
    finishes; this entry point validates a result produced *without*
    inline checking.
    """
    for record in result.passes:
        check_pass(record)
    check_compiled_program(result.program, "final")


def check_pass(record) -> None:
    """The invariant checks appropriate after one pass, given its
    :class:`~repro.core.pipeline.PassRecord` (name, output
    :class:`AdornedProgram` and report)."""
    name, program = record.name, record.program
    check_adorned_program(program, name)
    check_component_partition(program, name)
    if name == "split_components":
        check_split_anchoring(program, name)
    if name == "monadic_chains" and record.report:
        check_monadic_chains(program, record.report, name)
    if program.projected:
        check_argument_projections(program, name)
    if name == "inline_projection_query" and record.report is not None:
        width = program.query.atom.arity
        if any(not 0 <= i < width for i in record.report):
            _violate(
                name,
                "answer-positions",
                f"answer positions {record.report} index outside the final "
                f"query arity {width}",
            )
