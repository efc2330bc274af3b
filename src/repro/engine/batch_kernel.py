"""The vectorized delta kernel: packed int64 rows, numpy CSR joins.

The top rung of the engine ladder (vector kernel → tuple kernel →
interpreter), and the whole of the columnar data plane's execution
side.  It covers the single hottest shape of semi-naive evaluation — a
linear recursion's delta plan, lowered (:func:`repro.engine.plan.lower`)
to the steps ``[delta, lookup]`` with the head fused — whose loop body
is pure data movement over dictionary ids and so vectorizes completely:

- the frontier arrives as one packed int64 per row
  (``DeltaIndex.packed_rows``), unpacked to id columns with two numpy
  ops;
- the probed relation's raw hash index is laid out once per version
  as a CSR image (sorted key array + offsets + row columns, posting
  order preserved within each key); the whole frontier probes it
  with one ``searchsorted`` and expands with ``repeat``;
- head tuples are packed back into one int64 column, so duplicate
  elimination in the absorb path (``scheduler._absorb_packed``) is
  ``np.unique`` plus sorted-run membership instead of tuple hashing.

The expansion order (frontier order outer, posting order inner) is
exactly the tuple kernel's nested loop order, so first-occurrence dedup
and every engine-invariant counter stay bit-identical to it.  Every
other lowered pattern is declined at compile time (:func:`_vector_spec`),
and any runtime condition the fast path cannot honor — an id past the
21-bit packing bound, or a stale image larger than the frontier — is
detected *before any counter is touched* and reported by returning None;
either way the firing runs on the tuple kernel unchanged.

A firing re-encodes only what its frontier pays for.  Two structures
may be stale at launch: the probed relation's CSR image (``len(rel)``
rows to lay out) and the head relation's packed runs (``len(head)``
rows to re-pack).  If either one alone holds more rows than the
frontier, the firing declines.  The two are not summed: a linear
recursion's second round faces a V-row frontier and two V-row images,
and must vectorize.  So every rebuild of m rows rides on a firing of at
least m frontier rows, encoding costs at most twice the frontier rows,
and no mutation pattern makes the rebuilds quadratic.

Provenance recording needs per-fact body rows, which packed batches do
not carry; the scheduler routes those runs to the tuple kernel before
ever asking for a vector kernel.

Nothing here is generated code: a kernel is a closure over its shape
spec, memoized on the compiled rule, so there is no process-wide cache to
reset (:func:`repro.engine.clear_kernel_cache` covers all codegen).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.columnar import (
    PACK_LIMIT,
    global_dictionary,
    pack_columns,
    unpack_column,
)
from .plan import CompiledRule, Lowered, Step

try:  # numpy is optional; without it every plan is declined
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

__all__ = ["vector_rule_kernel"]


class _CSR:
    """One relation's raw hash index on a single bound position, as
    flat id arrays: ``keys`` (sorted ids), ``offsets`` (CSR row starts
    into the column arrays), ``cols`` (one id array per argument
    position, rows grouped by key in raw posting order — the
    order-parity contract)."""

    __slots__ = ("keys", "offsets", "cols", "fits")

    def __init__(self, index: dict, arity: int, dictionary):
        key_ids = dictionary.intern_column([key[0] for key in index])
        # distinct raw keys intern to distinct ids, so the sort never
        # reaches the posting lists
        by_id = sorted(zip(key_ids, index.values()))
        flat = [row for _, posting in by_id for row in posting]
        self.keys = _np.array([k for k, _ in by_id], dtype=_np.int64)
        counts = _np.array([len(p) for _, p in by_id], dtype=_np.int64)
        self.offsets = _np.concatenate(
            (_np.zeros(1, dtype=_np.int64), _np.cumsum(counts))
        )
        if flat:
            self.cols = [
                _np.array(dictionary.intern_column(col), dtype=_np.int64)
                for col in zip(*flat)
            ]
            self.fits = all(int(c.max()) < PACK_LIMIT for c in self.cols)
        else:
            self.cols = [_np.empty(0, dtype=_np.int64)] * arity
            self.fits = True


def _csr_current(rel, position: int) -> bool:
    """True iff *rel*'s CSR image on *position* describes its current
    version (laying it out again would cost nothing)."""
    entry = rel.column_store().csr.get(position)
    return entry is not None and entry[0] == rel._version


def _csr_for(rel, position: int) -> _CSR:
    """The CSR image of *rel*'s postings on *position*, laid out anew
    when its version stamp is stale."""
    store = rel.column_store()
    version = rel._version
    entry = store.csr.get(position)
    if entry is not None and entry[0] == version:
        return entry[1]
    # the raw index first, so a lazy index build is counted exactly
    # when the tuple kernel would count it
    index = rel.index_for((position,))
    # laid out under the build lock like the index itself: a base
    # relation is shared between evaluations, one of which builds
    with rel._build_lock:
        current = store.csr.get(position)
        if current is not None and current[0] == version:
            return current[1]
        csr = _CSR(index, rel.arity, store.dictionary)
        store.csr[position] = (version, csr)
    return csr


def _vector_spec(cr: CompiledRule, low: Lowered):
    """Compile-time shape analysis for the vectorized delta kernel.

    Returns the spec dict for the one lowered pattern it runs —
    ``[delta, lookup]``: a delta step binding distinct variables, one
    index lookup keyed on a single frontier register, no cut, no
    built-in or negation, fused head of arity ≤ 3 — or None.
    """
    if low.builtins or low.negated or len(low.head) > 3:
        return None
    match low.steps:
        case (
            Step(kind="delta", positions=(), checks=(), cut=False) as step0,
            Step(kind="lookup", key=(int() as key_reg,), checks=(), cut=False) as step1,
        ) if len(step0.binds) <= 3:
            pass
        case _:
            return None
    if step1.predicate == cr.rule.head.predicate:
        # the tuple engine inserts head facts per yield while still
        # enumerating, so a step that reads the head relation observes
        # mid-firing inserts; a whole-frontier batch cannot.  (The
        # delta frontier at step 0 is frozen in both.)
        return None
    needed = {t for t in low.head if type(t) is int} | {key_reg}
    ctx = [(p, r) for p, r in step0.binds if r in needed]
    slot_of = {r: i for i, (_, r) in enumerate(ctx)}
    rowpos = {r: p for p, r in step1.binds}
    head = [
        ("const", t.value) if type(t) is not int
        else ("row", rowpos[t]) if t in rowpos
        else ("ctx", slot_of[t])
        for t in low.head
    ]
    return {
        "frontier_arity": len(step0.binds),
        "proj": [p for p, _ in ctx],
        "key_slot": slot_of[key_reg],
        "join_pred": step1.predicate,
        "join_pos": step1.positions[0],
        "head_pred": cr.rule.head.predicate,
        "head": head,
    }


def _make_vector_kernel(spec) -> Callable:
    frontier_arity = spec["frontier_arity"]
    proj = spec["proj"]
    key_slot = spec["key_slot"]
    join_pred = spec["join_pred"]
    join_pos = spec["join_pos"]
    head_pred = spec["head_pred"]
    head = spec["head"]
    intern = global_dictionary().intern
    empty = _np.empty(0, dtype=_np.int64)

    def kernel(db, stats, delta):
        # -- feasibility first: nothing below mutates stats until the
        # fast path has committed to producing the firing itself.  A
        # stale image larger than the frontier is not worth re-encoding
        # for it (each side on its own; see the module docstring), and
        # is checked before the frontier itself is interned
        n = len(delta)
        rel1 = db.relation(join_pred)
        if rel1 is not None and len(rel1) > n and not _csr_current(rel1, join_pos):
            return None
        head_rel = db.relation(head_pred)
        if head_rel is not None and len(head_rel) > n and head_rel.packed_runs_stale():
            return None
        arr = delta.packed_rows()
        if arr is None:
            return None
        csr = None
        if rel1 is not None:
            csr = _csr_for(rel1, join_pos)
            if not csr.fits:
                return None
        const_ids = []
        for kind, v in head:
            if kind == "const":
                cid = intern(v)
                if cid >= PACK_LIMIT:
                    return None
                const_ids.append(cid)
            else:
                const_ids.append(None)

        # -- delta step (identity/projection, charged like the tuple
        # kernel: one frontier probe, every delivered row scanned)
        stats.join_probes += 1
        stats.rows_scanned += n
        if n:
            stats.batch_probes += 1
            stats.batch_rows += n
        if n == 0 or rel1 is None:
            return empty

        ctx_cols = [unpack_column(arr, frontier_arity, p) for p in proj]

        # -- join step: one searchsorted probe for the whole frontier
        stats.batch_probes += 1
        stats.join_probes += n
        stats.index_probes += n
        keys = csr.keys
        key_col = ctx_cols[key_slot]
        if len(keys):
            pos = keys.searchsorted(key_col)
            clipped = _np.minimum(pos, len(keys) - 1)
            vidx = (keys.take(clipped) == key_col).nonzero()[0]
        else:
            vidx = empty
        if len(vidx):
            hits = pos.take(vidx)
            sel = csr.offsets.take(hits)
            counts = csr.offsets.take(hits + 1) - sel
            total = int(counts.sum())
        else:
            total = 0
        stats.rows_scanned += total
        stats.batch_rows += total
        stats.rule_firings += total
        if total == 0:
            return empty

        ctx_idx = vidx.repeat(counts)
        flat = (
            (sel - (counts.cumsum() - counts)).repeat(counts)
            + _np.arange(total, dtype=_np.int64)
        )

        # -- fused head: gather columns, pack to one int64 per row
        cols = []
        for (kind, v), cid in zip(head, const_ids):
            if kind == "row":
                cols.append(csr.cols[v].take(flat))
            elif kind == "ctx":
                cols.append(ctx_cols[v].take(ctx_idx))
            else:
                cols.append(cid)  # scalar broadcast
        return pack_columns(cols, total)

    return kernel


def vector_rule_kernel(
    cr: CompiledRule,
    plan_id: Optional[int] = None,
    *,
    use_indexes: bool = True,
) -> Optional[Callable]:
    """The vectorized kernel for one delta plan of *cr*, or None when
    the shape is unsupported (the caller runs the tuple kernel).  The
    returned kernel itself returns None — before touching any counter —
    when a runtime condition forces the same fallback: an id past the
    packing bound, or a stale probe image or head run set holding more
    rows than the frontier (re-encoding it would cost more than the
    firing it serves)."""
    if _np is None or plan_id is None or not use_indexes:
        return None

    def build() -> Optional[Callable]:
        spec = _vector_spec(cr, cr.lowered(plan_id))
        return _make_vector_kernel(spec) if spec is not None else None

    return cr.memoized((plan_id, "vector"), build)
