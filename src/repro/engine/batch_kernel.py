"""The vectorized kernel: packed int64 rows, numpy joins.

The top rung of the engine ladder (vector kernel → tuple kernel), and
the whole of the columnar data plane's execution side.  It covers the
lowered plans (:func:`repro.engine.plan.lower`) whose loop body is pure
data movement over dictionary ids and so vectorizes completely — a
``delta`` or ``scan`` step, then a chain of ``lookup`` steps each keyed
on one register, optionally ending in a fully bound ``member`` probe,
with the head fused:

- a delta frontier arrives as one packed int64 per row
  (``DeltaIndex.packed_rows``); a scan reads the relation's sorted
  packed runs (``Relation.packed_runs``); either is unpacked to id
  columns with two numpy ops, one column per register a later step or
  the head still reads;
- a lookup probes the relation's raw hash index, laid out once per
  version as a CSR image (sorted key array + offsets + row columns,
  posting order preserved within each key): the whole batch probes it
  with one ``searchsorted`` and expands with ``repeat``, and the
  columns of the registers still live after the step (carried, or
  bound from the image) are gathered for the next one — the slot lists
  are compiled once per plan, so a dead register is never gathered;
- a member probe packs its key columns into candidate rows and asks
  the probed relation's membership runs, the same exact test the
  absorb path uses (``Relation.packed_novel_mask``);
- head tuples are packed back into one int64 column, so duplicate
  elimination in the absorb path (``scheduler._absorb_packed``) is one
  sort plus sorted-run membership instead of tuple hashing.

For a delta plan every expansion keeps the batch's row order outer and
posting order inner, which is exactly the tuple kernel's nested loop
order, so first-occurrence dedup and every engine-invariant counter
stay bit-identical to it.  A scan yields rows run by run in sorted-id
order, not in the tuple kernel's set order; with no cut, no check and
no step after the first reading the head, every engine-invariant
counter of an admitted shape is order-independent, so they stay
bit-identical too.  A step's probe image is laid out only when the
step is reached with rows, which is when the tuple kernel resolves its
index, so ``index_builds`` agrees as well.  Every other lowered pattern
is declined at compile time (:func:`_vector_spec`), and any runtime
condition the fast path cannot honor — an id past the 21-bit packing
bound, or a stale image the firing would not pay for — is detected
*before any counter is touched* (a firing counts in locals and adds
them to the stats only once it has produced its rows) and reported by
returning None; either way the firing runs on the tuple kernel
unchanged.

A firing re-encodes only what its frontier pays for.  A scan whose
relation's packed runs are stale declines: re-packing the whole
relation to read it once never pays.  Otherwise, with n frontier rows,
two kinds of structure may be stale at launch: each probed relation's
image (its CSR image, or its packed runs for a member probe;
``len(rel)`` rows to encode) and the head relation's packed runs.  If
any probed image alone holds more rows than the frontier, the firing
declines.  The head's runs are re-packed from ``len(head)`` rows; when
step 0 is a delta over the head predicate itself, n of those rows are
the frontier's own (a recursive head holds each frontier it produced),
so the firing declines only when the *older* rows, ``len(head) − n``,
outnumber the frontier; otherwise when ``len(head)`` does.  The images
are not summed: a linear recursion's second round faces a V-row
frontier and two V-row images, and must vectorize.  So every rebuild of
m rows rides on a firing of at least m/2 frontier rows (m for a probed
image), and no mutation pattern makes the rebuilds quadratic.

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
from .plan import CompiledRule, Lowered

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
    ``delta`` or ``scan`` step binding distinct variables, then one or
    more index ``lookup`` steps each keyed on one register, optionally
    ending in a ``member`` probe keyed on registers only; no check, no
    cut, no built-in or negation, no step after the first reading the
    head, frontier, probe keys and fused head of arity ≤ 3 — or None.

    The spec names, per stage, the id columns a firing carries: a
    register leaves the columns once no later step's key and no head
    position reads it, so each step gathers only what is still live.
    """
    if low.builtins or low.negated or len(low.head) > 3 or len(low.steps) < 2:
        return None
    step0, *probes = low.steps
    if (step0.kind not in ("delta", "scan") or step0.positions or step0.checks
            or step0.cut or len(step0.binds) > 3):
        return None
    head_pred = cr.rule.head.predicate
    for step in probes:
        if step.checks or step.cut or not all(type(t) is int for t in step.key):
            return None
        if step.kind == "lookup":
            if len(step.key) != 1:
                return None
        elif step.kind != "member" or step is not probes[-1] or len(step.key) > 3:
            return None
        if step.predicate == head_pred:
            # the tuple engine inserts head facts per derivation while
            # still enumerating, so a step that reads the head relation
            # observes mid-firing inserts; a whole-frontier batch cannot.
            # (Step 0 is frozen in both: the delta frontier, or the
            # ``list(rel)`` snapshot a scan takes.)
            return None

    # the registers live before each probe step, scanning backwards
    needed = {t for t in low.head if type(t) is int}
    live_before = []
    for step in reversed(probes):
        needed = (needed - {r for _, r in step.binds}) | set(step.key)
        live_before.append(needed)
    live_before.reverse()

    # slots: the registers whose id columns the batch carries, in order
    proj = [(p, r) for p, r in step0.binds if r in live_before[0]]
    slots = [r for _, r in proj]
    stages = []
    for step, after in zip(probes, live_before[1:]):
        binds = [(p, r) for p, r in step.binds if r in after]
        carry = [s for s, r in enumerate(slots) if r in after]
        stages.append((slots.index(step.key[0]), carry, [p for p, _ in binds]))
        slots = [slots[s] for s in carry] + [r for _, r in binds]
    last = probes[-1]
    rowpos = {r: p for p, r in last.binds}
    return {
        "scan_pred": step0.predicate if step0.kind == "scan" else None,
        "delta_head": step0.kind == "delta" and step0.predicate == head_pred,
        "frontier_arity": len(step0.binds),
        "proj": [p for p, _ in proj],
        # (predicate, probed position, or None for the member) per step
        "probed": [
            (step.predicate, step.positions[0] if step.kind == "lookup" else None)
            for step in probes
        ],
        # (key slot, carried slots, bound positions) per lookup but the last
        "stages": stages,
        "key_slots": [slots.index(r) for r in last.key],
        "member": last.kind == "member",
        "head_pred": head_pred,
        "head": [
            ("const", t.value) if type(t) is not int
            else ("row", rowpos[t]) if t in rowpos
            else ("ctx", slots.index(t))
            for t in low.head
        ],
    }


def _expand(np, csr: _CSR, key_col):
    """Probe *csr* with a whole column of key ids at once: for each
    match, the index of its probing row and its row in *csr*'s columns,
    probing rows in order and posting order within each (the tuple
    kernel's nested-loop order); None when nothing matches."""
    keys = csr.keys
    if not len(keys):
        return None
    pos = keys.searchsorted(key_col)
    clipped = np.minimum(pos, len(keys) - 1)
    vidx = (keys.take(clipped) == key_col).nonzero()[0]
    if not len(vidx):
        return None
    hits = pos.take(vidx)
    sel = csr.offsets.take(hits)
    counts = csr.offsets.take(hits + 1) - sel
    total = int(counts.sum())
    flat = (
        (sel - (counts.cumsum() - counts)).repeat(counts)
        + np.arange(total, dtype=np.int64)
    )
    return vidx.repeat(counts), flat


def _make_vector_kernel(spec, np) -> Callable:
    scan_pred = spec["scan_pred"]
    delta_head = spec["delta_head"]
    frontier_arity = spec["frontier_arity"]
    proj = spec["proj"]
    probed = spec["probed"]
    last_pos = probed[-1][1]
    stages = spec["stages"]
    key_slots = spec["key_slots"]
    member = spec["member"]
    head_pred = spec["head_pred"]
    head = spec["head"]
    intern = global_dictionary().intern
    empty = np.empty(0, dtype=np.int64)

    def kernel(db, stats, delta):
        # -- feasibility first: nothing below mutates stats until the
        # fast path has produced the firing itself.  A stale image
        # larger than the frontier is not worth re-encoding for it
        # (each on its own; see the module docstring), and is checked
        # before the frontier itself is interned
        if scan_pred is not None:
            rel0 = db.relation(scan_pred)
            if rel0 is None:
                return empty  # the tuple kernel's ``return``: nothing counted
            if rel0.packed_runs_stale():
                return None  # re-packing it all to read it once never pays
            n = len(rel0)
        else:
            n = len(delta)
        rels = []
        for pred, pos in probed:
            rel = db.relation(pred)
            if rel is not None and len(rel) > n and (
                rel.packed_runs_stale() if pos is None else not _csr_current(rel, pos)
            ):
                return None
            rels.append(rel)
        head_rel = db.relation(head_pred)
        # a delta frontier over the head is already head rows, which
        # the re-pack covers anyway: only the older rows count against it
        if (head_rel is not None
                and len(head_rel) - (n if delta_head else 0) > n
                and head_rel.packed_runs_stale()):
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
        const_ids = []
        for kind, v in head:
            if kind == "const":
                cid = intern(v)
                if cid >= PACK_LIMIT:
                    return None
                const_ids.append(cid)
            else:
                const_ids.append(None)

        # -- the joins, counted in locals; a probe image laid out here
        # (and the raw index under it) is one the tuple kernel would
        # build too, since a step is reached only with rows to probe.
        # Step 0 is charged like the tuple kernel: one frontier probe or
        # one whole-relation scan, every delivered row scanned
        join_probes, index_probes, rows_scanned = 1, 0, n
        batch_probes, batch_rows = (1 if n else 0), n
        firings = 0
        out = empty
        m = n
        if n:
            ctx = [unpack_column(arr, frontier_arity, p) for p in proj]
            # each lookup before the last: one probe for all m rows,
            # charged per row; only the still-live columns go on
            for rel, (_, pos), (key_slot, carry, binds) in zip(rels, probed, stages):
                if rel is None:
                    m = 0  # the step's ``continue``, for every row
                    break
                csr = _csr_for(rel, pos)
                if not csr.fits:
                    return None
                batch_probes += 1
                join_probes += m
                index_probes += m
                hit = _expand(np, csr, ctx[key_slot])
                if hit is None:
                    m = 0
                    break
                ctx_idx, flat = hit
                m = len(flat)
                rows_scanned += m
                batch_rows += m
                ctx = [ctx[s].take(ctx_idx) for s in carry]
                ctx += [csr.cols[p].take(flat) for p in binds]
            rel = rels[-1]
            if m and rel is not None:
                if member:
                    if rel.packed_runs() is None:
                        return None
                    # the packed key is a candidate row of rel: present
                    # iff the membership runs do not call it novel
                    key = pack_columns([ctx[s] for s in key_slots], m)
                    ctx_idx = (~rel.packed_novel_mask(key)).nonzero()[0]
                    total = len(ctx_idx)
                else:
                    csr = _csr_for(rel, last_pos)
                    if not csr.fits:
                        return None
                    hit = _expand(np, csr, ctx[key_slots[0]])
                    total = 0 if hit is None else len(hit[1])
                    if total:
                        ctx_idx, flat = hit
                batch_probes += 1
                join_probes += m
                index_probes += m
                rows_scanned += total
                batch_rows += total
                firings = total
                if total:
                    # -- fused head: gather columns, pack to one int64 per row
                    cols = []
                    for (kind, v), cid in zip(head, const_ids):
                        if kind == "row":
                            cols.append(csr.cols[v].take(flat))
                        elif kind == "ctx":
                            cols.append(ctx[v].take(ctx_idx))
                        else:
                            cols.append(cid)  # scalar broadcast
                    out = pack_columns(cols, total)

        stats.join_probes += join_probes
        if scan_pred is not None:
            stats.scan_fallbacks += 1
        stats.index_probes += index_probes
        stats.rows_scanned += rows_scanned
        stats.rule_firings += firings
        stats.batch_probes += batch_probes
        stats.batch_rows += batch_rows
        return out

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
    fallback: an id past the packing bound, stale scanned runs, a stale
    probe image holding more rows than the frontier, or stale head runs
    holding more rows than the frontier besides its own (re-encoding
    it would cost more than the firing it serves)."""
    if not use_indexes:
        return None

    def build() -> Optional[Callable]:
        spec = _vector_spec(cr, cr.lowered(plan_id))
        if spec is None:
            return None  # declined at compile time: numpy stays unloaded
        np = load_numpy()
        return _make_vector_kernel(spec, np) if np is not None else None

    return cr.memoized((plan_id, "vector"), build)
