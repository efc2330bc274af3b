"""Compiled rule kernels: the join hot path as generated Python.

:func:`~repro.engine.plan.interpret` evaluates a rule's lowered plan
(:func:`~repro.engine.plan.lower`) step by step; correct, but every
step is a generator frame and every probe, bind and head builds its
values by walking term tuples.  On the fixpoint loop's hot path that
interpretation overhead is the constant factor multiplying every
optimization the paper's pipeline buys.

This module emits each lowered plan as a specialized function — one
flat nest of ``for`` loops, one code block per step kind (``delta``,
``member``, ``lookup``, ``scan``, ``filter``):

- lowering register *n* becomes a plain local ``r<n>`` in the
  generated function (Python locals are array slots in the frame, so a
  "register file" needs no allocation at all);
- constants are inlined as literals and index keys as tuple displays;
  a constant with no literal form (a tuple, ``inf``, ``nan``) becomes
  a kernel global ``_k<i>``, compared identity first, then ``==``, as
  the interpreter's tuple comparison does;
- a ``lookup`` step resolves its hash index once per firing, at its
  first probe, and then probes the live dict directly;
- repeated-variable consistency checks compile to ``!=`` guards;
- the existential first-match cut compiles to a ``break``, and each
  step's absent-relation action is the lowering's ``fail``;
- built-in filters, negation checks, head construction and the head's
  absorb — duplicate test against the head's live row set, insert,
  frontier, first justification — are emitted into the kernel body, so
  a firing is one call with no per-row interpreter traffic at all;
- the work counters are locals (``c_rows_scanned += 1``), added to
  ``EvalStats`` once per firing by a one-call ``finally`` on every exit
  path; ``duplicates`` is derived there as ``rule_firings -
  facts_derived``, and when nothing can reject the innermost row one
  local counts both its ``rows_scanned`` and its ``rule_firings``.

The emitter decides nothing: registers, access methods, the cut and
what an absent relation does all come from the lowering, so kernels
are *bit-identical* to the interpreter — same answers, same provenance
(row enumeration order is preserved), and the same ``EvalStats``
counters (``join_probes``, ``index_probes``, ``scan_fallbacks``,
``rows_scanned``, ``rule_firings``, ``facts_derived``,
``duplicates``).  The interpreter stays available as the differential
oracle via ``EngineOptions(use_kernels=False)`` / the CLI's
``--no-kernel``.

Generated functions are cached globally by source text plus pooled
constants (the source *is* the plan signature: predicate names,
register numbers, bound-position keys, inlined constants, and flags all
appear in it; a pooled constant appears only as its name), so repeated
``evaluate()`` calls over the same program shapes skip ``compile()``.
This process-wide cache is also what keeps adaptive replanning
amortized: a :func:`~repro.engine.plan.replan_delta_plans` clone is a
fresh ``CompiledRule`` whose lowering memo starts empty, but any
re-ranked plan whose join order was generated before — including a
replan that toggles back to an earlier order — hits the source-text
cache and costs string generation only, no ``compile()``.
Use :func:`kernel_source` to read the generated code when debugging.

These per-row kernels compile every rule, and are the second rung of
the engine's two-rung ladder: when numpy is available the scheduler
first offers each plan to the vector kernel in
:mod:`repro.engine.batch_kernel`, which runs a whole frontier through
one array join (``EngineOptions(use_columnar=False)`` /
``--no-columnar`` selects this tier directly); every firing it declines
— a shape it cannot express, an id past the packing bound, a stale
image the firing would not pay for — runs here.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..datalog.builtins import BUILTINS
from .plan import CompiledRule
from .provenance import Justification

__all__ = [
    "kernel_source",
    "rule_kernel",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


def _literal(value) -> bool:
    """Whether ``repr(value)`` is a literal that evaluates to *value*
    (inf / nan repr as names, tuples may hold anything)."""
    return type(value) in (int, str, bool) or value is None or (
        type(value) is float and math.isfinite(value)
    )


def _tuple_display(parts: list[str]) -> str:
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: list[str] = []

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def kernel_source(
    cr: CompiledRule,
    plan_id: Optional[int] = None,
    *,
    use_indexes: bool = True,
    record_rows: bool = False,
) -> str:
    """Generate the kernel source for one plan of *cr*.

    *plan_id* is ``None`` for the naive plan or the index of a delta
    plan (the semi-naive specialization whose first step reads the
    delta frontier).  The kernel is called as ``kernel(db, stats,
    delta, head, new, provenance)``: it inserts each new head fact into
    the relation *head* and the frontier set *new*, and with
    *record_rows* records the fact's first justification in
    *provenance*.  Its counters accumulate in locals that one
    ``finally`` statement adds to *stats* when the firing ends, however
    it ends; ``duplicates`` is derived there as ``rule_firings -
    facts_derived``.
    """
    return _generate(cr, plan_id, use_indexes, record_rows)[0]


def _generate(cr: CompiledRule, plan_id, use_indexes, record_rows) -> tuple[str, tuple]:
    """The kernel source and the constants it names ``_k<i>``."""
    low = cr.lowered(plan_id, use_indexes)
    pooled: list = []

    def term(t) -> str:
        if type(t) is int:
            return f"r{t}"
        if _literal(t.value):
            return repr(t.value)
        pooled.append(t.value)
        return f"_k{len(pooled) - 1}"

    def key(terms) -> str:
        return _tuple_display([term(t) for t in terms])

    out = _Emitter()
    sig = f"plan={'naive' if plan_id is None else f'delta[{plan_id}]'}"
    out.w(0, f"def _kernel(db, stats, delta, head, new, provenance):")
    out.w(1, f"# rule {cr.rule_index}: {cr.rule}")
    out.w(1, f"# {sig} use_indexes={use_indexes} record_rows={record_rows}")
    registers = ", ".join(f"r{r}={v.name}" for r, v in enumerate(low.registers))
    out.w(1, f"# registers: {registers or '(none)'}")

    # -- prelude: zero the counter locals, hoist the head's live row set
    # and relation dict lookups (identities are stable for the lifetime
    # of a fixpoint run; emptiness is re-checked at the step's position
    # so counters match the interpreter exactly)
    out.w(1, "c_join_probes = c_index_probes = c_scan_fallbacks = c_rows_scanned = "
             "c_rule_firings = c_facts_derived = 0")
    out.w(1, "live = head.live_rows()")
    for i, step in enumerate(low.steps):
        if step.kind != "delta":
            out.w(1, f"rel{i} = db.relation({step.predicate!r})")
        if step.kind == "lookup":
            out.w(1, f"idx{i} = None")
    for k, (predicate, _) in enumerate(low.negated):
        out.w(1, f"nrel{k} = db.relation({predicate!r})")
    out.w(1, "try:")

    # nothing can reject the innermost row: one local counts its
    # rows_scanned and its rule_firings
    last = low.steps[-1] if low.steps else None
    fused = (last is not None and last.kind in ("delta", "scan", "lookup")
             and not last.checks and not low.builtins and not low.negated)

    # -- one block per step, each nested in the one before; a cut loop
    # is closed by a ``break`` after everything nested in it
    depth = 2
    cuts = []
    for i, step in enumerate(low.steps):
        row = f"row{i}"
        positions = _tuple_display([str(p) for p in step.positions])
        if step.kind == "member":
            # a guarded block, not an early exit: a miss falls through
            # to an enclosing cut exactly the way an exhausted loop would
            out.w(depth, f"if rel{i} is not None:")
            out.w(depth + 1, "c_join_probes += 1")
            out.w(depth + 1, "c_index_probes += 1")
            out.w(depth + 1, f"{row} = {key(step.key)}")
            out.w(depth + 1, f"if {row} in rel{i}:")
            depth += 2
            out.w(depth, "c_rows_scanned += 1")
            continue
        if step.kind == "delta":
            out.w(depth, "c_join_probes += 1")
            source = (
                f"delta.lookup({positions}, {key(step.key)})"
                if step.positions else "delta.all_rows()"
            )
        else:
            out.w(depth, f"if rel{i} is None: {step.fail}")
            out.w(depth, "c_join_probes += 1")
            if step.kind == "lookup":
                out.w(depth, "c_index_probes += 1")
                # resolved at the first probe, so an unreached step
                # builds nothing; the index is live, inserts included
                out.w(depth, f"if idx{i} is None: idx{i} = rel{i}.index_for({positions})")
                source = f"idx{i}.get({key(step.key)}, ())"
            else:
                out.w(depth, "c_scan_fallbacks += 1")
                source = f"list(rel{i})"
        out.w(depth, f"for {row} in {source}:")
        depth += 1
        out.w(depth, "c_rule_firings += 1" if fused and step is last else "c_rows_scanned += 1")
        if step.kind == "filter":
            for p, t in zip(step.positions, step.key):
                value, cell = term(t), f"{row}[{p}]"
                # a pooled constant: identity first, as a tuple compares
                other = f"{cell} is not {value} and " if value.startswith("_k") else ""
                out.w(depth, f"if {other}{cell} != {value}: continue")
        checks = set(step.checks)
        for p, r in sorted(step.binds + step.checks):
            if (p, r) in checks:
                out.w(depth, f"if {row}[{p}] != r{r}: continue")
            else:
                out.w(depth, f"r{r} = {row}[{p}]")
        if step.cut:
            cuts.append(depth)

    # -- tail: built-in filters, negation checks, the head
    for name, a, b in low.builtins:
        out.w(depth, f"if not _bi_{name}({term(a)}, {term(b)}): {low.fail}")
    for k, (_, terms) in enumerate(low.negated):
        out.w(depth, "c_join_probes += 1")
        out.w(depth, f"if nrel{k} is not None and {key(terms)} in nrel{k}: {low.fail}")
    if not fused:
        out.w(depth, "c_rule_firings += 1")
    out.w(depth, f"h = {key(low.head)}")
    out.w(depth, "if h not in live:")
    out.w(depth + 1, "head.add(h)")
    out.w(depth + 1, "c_facts_derived += 1")
    out.w(depth + 1, "new.add(h)")
    if record_rows:
        body = [""] * len(low.steps)
        for i, step in enumerate(low.steps):
            body[step.body_index] = f"({step.predicate!r}, row{i})"
        out.w(depth + 1, f"provenance[({cr.rule.head.predicate!r}, h)] = "
                         f"_Justification({cr.rule_index}, {_tuple_display(body)})")
    for depth in reversed(cuts):
        out.w(depth, "break  # existential cut: one witness is enough")
    # one statement: CPython copies a ``finally`` body to every exit
    out.w(1, "finally:")
    rows_scanned = "c_rows_scanned + c_rule_firings" if fused else "c_rows_scanned"
    out.w(2, f"_count(stats, c_join_probes, c_index_probes, c_scan_fallbacks, "
             f"{rows_scanned}, c_rule_firings, c_facts_derived)")
    return out.source(), tuple(pooled)


# -- compilation cache -------------------------------------------------------

def _count(stats, join_probes, index_probes, scan_fallbacks, rows_scanned,
           rule_firings, facts_derived) -> None:
    """Add one firing's counters to *stats*: a kernel's ``finally``.
    Every rule firing ends as a new fact or as a duplicate."""
    stats.join_probes += join_probes
    stats.index_probes += index_probes
    stats.scan_fallbacks += scan_fallbacks
    stats.rows_scanned += rows_scanned
    stats.rule_firings += rule_firings
    stats.facts_derived += facts_derived
    stats.duplicates += rule_firings - facts_derived


#: the module-level namespace every kernel executes in: the evaluable
#: built-ins under stable names (direct calls, no dict lookup per row),
#: the provenance record type and the counter flush
_KERNEL_GLOBALS = {f"_bi_{name}": fn for name, fn in BUILTINS.items()}
_KERNEL_GLOBALS["_Justification"] = Justification
_KERNEL_GLOBALS["_count"] = _count

#: source text (plus pooled constants) -> compiled kernel function.
#: The source embeds predicate names, slot numbering, inlined
#: constants, bound-position keys, and the use_indexes / record_rows
#: flags, so two plans share a kernel exactly when they are
#: structurally identical.  Pooled constants key by identity: equal
#: values need not be interchangeable (``nan`` matches only itself,
#: ``(1, 2)`` and ``(1.0, 2)`` print apart), and the kernel's globals
#: keep each one alive, so its id names one object while cached.
_FN_CACHE: dict = {}
_CACHE_STATS = {"compiles": 0, "hits": 0}


def _compile_source(source: str, pooled: tuple) -> Callable:
    key = (source, *map(id, pooled)) if pooled else source
    fn = _FN_CACHE.get(key)
    if fn is not None:
        _CACHE_STATS["hits"] += 1
        return fn
    namespace = dict(_KERNEL_GLOBALS)
    namespace.update((f"_k{i}", value) for i, value in enumerate(pooled))
    code = compile(source, "<repro-kernel>", "exec")
    exec(code, namespace)
    fn = namespace["_kernel"]
    _FN_CACHE[key] = fn
    _CACHE_STATS["compiles"] += 1
    return fn


def kernel_cache_stats() -> dict:
    """Global cache counters: ``{"compiles": ..., "hits": ...}``."""
    return dict(_CACHE_STATS)


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (tests / memory pressure)."""
    _FN_CACHE.clear()
    _CACHE_STATS["compiles"] = 0
    _CACHE_STATS["hits"] = 0


def rule_kernel(
    cr: CompiledRule,
    plan_id: Optional[int] = None,
    *,
    use_indexes: bool = True,
    record_rows: bool = False,
) -> Callable:
    """The compiled kernel for one plan of *cr*.  Kernels are memoized
    on the compiled rule, beside the plan's lowering, so each ``(plan,
    flags)`` pair is generated at most once per rule object.
    """
    return cr.memoized(
        (plan_id, use_indexes, record_rows),
        lambda: _compile_source(*_generate(cr, plan_id, use_indexes, record_rows)),
    )
