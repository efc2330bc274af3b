"""The vectorized kernel: packed int64 rows, numpy joins.

The top rung of the engine ladder (vector kernel → tuple kernel), and
the whole of the columnar data plane's execution side.  It covers the
two-step lowered plans (:func:`repro.engine.plan.lower`) whose loop
body is pure data movement over dictionary ids and so vectorizes
completely — a
``delta`` or ``scan`` step, then a ``lookup`` or a fully bound
``member`` probe, with the head fused:

- a delta frontier arrives as one packed int64 per row
  (``DeltaIndex.packed_rows``); a scan reads the relation's sorted
  packed runs (``Relation.packed_runs``); either is unpacked to id
  columns with two numpy ops;
- a lookup probes the relation's raw hash index, laid out once per
  version as a CSR image (sorted key array + offsets + row columns,
  posting order preserved within each key): the whole frontier probes
  it with one ``searchsorted`` and expands with ``repeat``;
- a member probe packs its key columns into candidate rows and asks
  the probed relation's membership runs, the same Bloom-fronted test
  the absorb path uses (``Relation.packed_novel_mask``);
- head tuples are packed back into one int64 column, so duplicate
  elimination in the absorb path (``scheduler._absorb_packed``) is one
  sort plus sorted-run membership instead of tuple hashing.

For a delta plan the expansion order (frontier order outer, posting
order inner) is exactly the tuple kernel's nested loop order, so
first-occurrence dedup and every engine-invariant counter stay
bit-identical to it.  A scan yields rows run by run in sorted-id order,
not in the tuple kernel's set order; with no cut, no check and no step
after the first reading the head, every engine-invariant counter of an
admitted shape is order-independent, so they stay bit-identical too.
Every other lowered pattern is declined at compile time
(:func:`_vector_spec`), and any runtime condition the fast path cannot
honor — an id past the 21-bit packing bound, or a stale image the
firing would not pay for — is detected *before any counter is touched*
and reported by returning None; either way the firing runs on the
tuple kernel unchanged.

A firing re-encodes only what its frontier pays for.  A scan whose
relation's packed runs are stale declines: re-packing the whole
relation to read it once never pays.  Otherwise, with n frontier rows,
two structures may be stale at launch: the probed relation's image
(its CSR image, or its packed runs for a member probe; ``len(rel)``
rows to encode) and the head relation's packed runs (``len(head)``
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
reset (:func:`repro.engine.clear_kernel_cache` covers all codegen).  The
shape analysis uses no numpy; a kernel's build asks
:func:`~repro.datalog.columnar.load_numpy` for it only once the spec is
admitted, so a process whose plans are all declined never imports it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.columnar import (
    PACK_LIMIT,
    global_dictionary,
    load_numpy,
    pack_columns,
    unpack_column,
)
from .plan import CompiledRule, Lowered, Step

__all__ = ["vector_rule_kernel"]


class _CSR:
    """One relation's raw hash index on a single bound position, as
    flat id arrays: ``keys`` (sorted ids), ``offsets`` (CSR row starts
    into the column arrays), ``cols`` (one id array per argument
    position, rows grouped by key in raw posting order — the
    order-parity contract)."""

    __slots__ = ("keys", "offsets", "cols", "fits")

    def __init__(self, index: dict, arity: int, dictionary):
        np = load_numpy()
        key_ids = dictionary.intern_column([key[0] for key in index])
        # distinct raw keys intern to distinct ids, so the sort never
        # reaches the posting lists
        by_id = sorted(zip(key_ids, index.values()))
        flat = [row for _, posting in by_id for row in posting]
        self.keys = np.array([k for k, _ in by_id], dtype=np.int64)
        counts = np.array([len(p) for _, p in by_id], dtype=np.int64)
        self.offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        if flat:
            self.cols = [
                np.array(dictionary.intern_column(col), dtype=np.int64)
                for col in zip(*flat)
            ]
            self.fits = all(int(c.max()) < PACK_LIMIT for c in self.cols)
        else:
            self.cols = [np.empty(0, dtype=np.int64)] * arity
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
    """Compile-time shape analysis for the vectorized kernel.

    Returns the spec dict for the lowered patterns it runs — a
    ``delta`` or ``scan`` step binding distinct variables, then either
    an index ``lookup`` keyed on one register or a ``member`` probe
    keyed on registers only; no check, no cut, no built-in or
    negation, frontier, probe key and fused head of arity ≤ 3 — or
    None.
    """
    if low.builtins or low.negated or len(low.head) > 3:
        return None
    match low.steps:
        case (
            Step(kind="delta" | "scan", positions=(), checks=(), cut=False) as step0,
            Step(kind="lookup" | "member", checks=(), cut=False) as step1,
        ) if len(step0.binds) <= 3 and len(step1.key) <= 3:
            pass
        case _:
            return None
    member = step1.kind == "member"
    keys = step1.key
    if not all(type(t) is int for t in keys) or not (member or len(keys) == 1):
        return None
    if step1.predicate == cr.rule.head.predicate:
        # the tuple engine inserts head facts per derivation while still
        # enumerating, so a step that reads the head relation observes
        # mid-firing inserts; a whole-frontier batch cannot.  (Step 0
        # is frozen in both: the delta frontier, or the ``list(rel)``
        # snapshot a scan takes.)
        return None
    needed = {t for t in low.head if type(t) is int} | set(keys)
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
        "scan_pred": step0.predicate if step0.kind == "scan" else None,
        "frontier_arity": len(step0.binds),
        "proj": [p for p, _ in ctx],
        "key_slots": [slot_of[r] for r in keys],
        "member": member,
        "join_pred": step1.predicate,
        "join_pos": None if member else step1.positions[0],
        "head_pred": cr.rule.head.predicate,
        "head": head,
    }


def _make_vector_kernel(spec, np) -> Callable:
    scan_pred = spec["scan_pred"]
    frontier_arity = spec["frontier_arity"]
    proj = spec["proj"]
    key_slots = spec["key_slots"]
    member = spec["member"]
    join_pred = spec["join_pred"]
    join_pos = spec["join_pos"]
    head_pred = spec["head_pred"]
    head = spec["head"]
    intern = global_dictionary().intern
    empty = np.empty(0, dtype=np.int64)

    def kernel(db, stats, delta):
        # -- feasibility first: nothing below mutates stats until the
        # fast path has committed to producing the firing itself.  A
        # stale image larger than the frontier is not worth re-encoding
        # for it (each side on its own; see the module docstring), and
        # is checked before the frontier itself is interned
        if scan_pred is not None:
            rel0 = db.relation(scan_pred)
            if rel0 is None:
                return empty  # the tuple kernel's ``return``: nothing counted
            if rel0.packed_runs_stale():
                return None  # re-packing it all to read it once never pays
            n = len(rel0)
        else:
            n = len(delta)
        rel1 = db.relation(join_pred)
        if rel1 is not None and len(rel1) > n and (
            rel1.packed_runs_stale() if member else not _csr_current(rel1, join_pos)
        ):
            return None
        head_rel = db.relation(head_pred)
        if head_rel is not None and len(head_rel) > n and head_rel.packed_runs_stale():
            return None
        if scan_pred is not None:
            runs = rel0.packed_runs()
            if runs is None:
                return None
            arr = runs[0] if len(runs) == 1 else np.concatenate(runs or [empty])
        else:
            arr = delta.packed_rows()
            if arr is None:
                return None
        csr = None
        if rel1 is not None:
            if member:
                if rel1.packed_runs() is None:
                    return None
            else:
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

        # -- step 0, charged like the tuple kernel: one frontier probe
        # or one whole-relation scan, every delivered row scanned
        stats.join_probes += 1
        if scan_pred is not None:
            stats.scan_fallbacks += 1
        stats.rows_scanned += n
        if n:
            stats.batch_probes += 1
            stats.batch_rows += n
        if n == 0 or rel1 is None:
            return empty

        ctx_cols = [unpack_column(arr, frontier_arity, p) for p in proj]

        # -- step 1: one probe for the whole frontier, charged per row
        stats.batch_probes += 1
        stats.join_probes += n
        stats.index_probes += n
        if member:
            # the packed key is a candidate row of rel1: present iff
            # the membership runs do not call it novel
            key = pack_columns([ctx_cols[s] for s in key_slots], n)
            ctx_idx = (~rel1.packed_novel_mask(key)).nonzero()[0]
            total = len(ctx_idx)
        else:
            keys = csr.keys
            key_col = ctx_cols[key_slots[0]]
            if len(keys):
                pos = keys.searchsorted(key_col)
                clipped = np.minimum(pos, len(keys) - 1)
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

        if not member:
            ctx_idx = vidx.repeat(counts)
            flat = (
                (sel - (counts.cumsum() - counts)).repeat(counts)
                + np.arange(total, dtype=np.int64)
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
    """The vectorized kernel for one plan of *cr* (``None``: the naive
    plan), or None when the shape is unsupported (the caller runs the
    tuple kernel).  The returned kernel itself returns None — before
    touching any counter — when a runtime condition forces the same
    fallback: an id past the packing bound, stale scanned runs, or a
    stale probe image or head run set holding more rows than the
    frontier (re-encoding it would cost more than the firing it
    serves)."""
    if not use_indexes:
        return None

    def build() -> Optional[Callable]:
        spec = _vector_spec(cr, cr.lowered(plan_id))
        if spec is None:
            return None  # declined at compile time: numpy stays unloaded
        np = load_numpy()
        return _make_vector_kernel(spec, np) if np is not None else None

    return cr.memoized((plan_id, "vector"), build)
