"""The vectorized kernel: packed int64 rows, numpy joins.

The top rung of the engine ladder (vector kernel → tuple kernel), and
the whole of the columnar data plane's execution side.  It runs one
lowered pattern (:func:`repro.engine.plan.lower`), the one whose loop
body is pure data movement over dictionary ids and so vectorizes
completely: a ``delta`` frontier, then a chain of one or more
``lookup`` steps each keyed on one register, with the head fused.

- the frontier arrives as one packed int64 per row
  (``DeltaIndex.packed_rows``) and is unpacked to id columns with two
  numpy ops, one column per register a later step or the head still
  reads;
- a lookup probes the relation's raw hash index, laid out once per
  version as a CSR image (sorted key array + offsets + row columns,
  posting order preserved within each key): the whole batch probes it
  with one ``searchsorted`` and expands with ``repeat``, and the
  columns of the registers still live after the step (carried, or
  bound from the image) are gathered for the next one — the slot lists
  are compiled once per plan, so a dead register is never gathered;
- head tuples are packed back into one int64 column, so duplicate
  elimination in the absorb path (``scheduler._absorb_packed``) is one
  sort plus sorted-run membership instead of tuple hashing.

Every expansion keeps the batch's row order outer and posting order
inner, which is exactly the tuple kernel's nested loop order, so
first-occurrence dedup and every engine-invariant counter stay
bit-identical to it.  A step's probe image is laid out only when the
step is reached with rows, which is when the tuple kernel resolves its
index, so ``index_builds`` agrees as well.  Every other lowered pattern
— a naive plan's ``scan``, a fully bound ``member``, a check, a cut, a
built-in or a negation — is declined at compile time
(:func:`_vector_spec`), and any runtime condition the fast path cannot
honor — a frontier below the crossover, an id past the 21-bit packing
bound, or a stale image the firing would not pay for — is detected
*before any counter is touched* (a firing counts in locals and adds
them to the stats only once it has produced its rows) and reported by
returning None; either way the firing runs on the tuple kernel
unchanged.

A launch has a fixed cost the tuple kernel does not pay (unpacking,
numpy calls per step, the packed absorb), so on a small frontier the
tuple kernel is cheaper.  A firing whose frontier is below
:data:`CROSSOVER_ROWS` rows declines.  The constant is fitted, not
tuned: ``scripts/crossover.py`` times both kernels per launch on
frontiers of 16 to 1024 rows, fits ``a + b·n`` to each, and reports
where the lines meet (EXPERIMENTS.md records the fit).  One recursion
may then run its narrow rounds on the tuple kernel and its wide ones
vectorized, in either order; a round's packed frontier is materialized
for a tuple firing (``scheduler._raw_frontier``), and the stale-head
rule below re-packs the head on the first wide round after narrow ones.

A firing re-encodes only what its frontier pays for.  With n frontier
rows, two kinds of structure may be stale at launch: each probed
relation's CSR image (``len(rel)`` rows to encode) and the head
relation's packed runs.  If any probed image alone holds more rows
than the frontier, the firing declines.  The head's runs are re-packed
from ``len(head)`` rows; when the delta is over the head predicate
itself, n of those rows are the frontier's own (a recursive head holds
each frontier it produced), so the firing declines only when the
*older* rows, ``len(head) − n``, outnumber the frontier; otherwise when
``len(head)`` does.  The images are not summed: a linear recursion's
second round faces a V-row frontier and two V-row images, and must
vectorize.  So every rebuild of m rows rides on a firing of at least
m/2 frontier rows (m for a probed image), and no mutation pattern
makes the rebuilds quadratic.  The crossover only adds declines, so
the bound still holds.

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

#: frontier rows below which a firing declines to the tuple kernel: the
#: crossover ``scripts/crossover.py`` fitted from per-launch times of
#: both kernels at frontiers of 16 to 1024 rows (EXPERIMENTS.md, "The
#: vector kernel's crossover")
CROSSOVER_ROWS = 207


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

    Returns the spec dict for the one lowered pattern it runs — a
    ``delta`` step binding distinct variables, then one or more index
    ``lookup`` steps each keyed on one register; no check, no cut, no
    built-in or negation, no lookup of the head, frontier and fused
    head of arity ≤ 3 — or None.

    The spec names, per stage, the id columns a firing carries: a
    register leaves the columns once no later step's key and no head
    position reads it, so each step gathers only what is still live.
    """
    if low.builtins or low.negated or len(low.head) > 3 or len(low.steps) < 2:
        return None
    step0, *probes = low.steps
    if (step0.kind != "delta" or step0.positions or step0.checks
            or step0.cut or len(step0.binds) > 3):
        return None
    head_pred = cr.rule.head.predicate
    for step in probes:
        if (step.kind != "lookup" or step.checks or step.cut
                or len(step.key) != 1 or type(step.key[0]) is not int):
            return None
        if step.predicate == head_pred:
            # the tuple engine inserts head facts per derivation while
            # still enumerating, so a step that reads the head relation
            # observes mid-firing inserts; a whole-frontier batch cannot.
            # (The delta frontier is frozen in both.)
            return None

    # the registers live after each step, scanning backwards from the head
    needed = {t for t in low.head if type(t) is int}
    live_after = [needed]
    for step in reversed(probes):
        needed = (needed - {r for _, r in step.binds}) | set(step.key)
        live_after.append(needed)
    live_after.reverse()

    # slots: the registers whose id columns the batch carries, in order
    proj = [(p, r) for p, r in step0.binds if r in live_after[0]]
    slots = [r for _, r in proj]
    stages = []
    for step, after in zip(probes, live_after[1:]):
        binds = [(p, r) for p, r in step.binds if r in after]
        carry = [s for s, r in enumerate(slots) if r in after]
        stages.append((slots.index(step.key[0]), carry, [p for p, _ in binds]))
        slots = [slots[s] for s in carry] + [r for _, r in binds]
    return {
        "delta_head": step0.predicate == head_pred,
        "frontier_arity": len(step0.binds),
        "proj": [p for p, _ in proj],
        # (predicate, probed position) per lookup
        "probed": [(step.predicate, step.positions[0]) for step in probes],
        # (key slot, carried slots, bound positions) per lookup
        "stages": stages,
        "head_pred": head_pred,
        "head": [
            ("const", t.value) if type(t) is not int else ("ctx", slots.index(t))
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
    delta_head = spec["delta_head"]
    frontier_arity = spec["frontier_arity"]
    proj = spec["proj"]
    probed = spec["probed"]
    stages = spec["stages"]
    head_pred = spec["head_pred"]
    head = spec["head"]
    intern = global_dictionary().intern
    empty = np.empty(0, dtype=np.int64)

    def kernel(db, stats, delta):
        # -- feasibility first: nothing below mutates stats until the
        # fast path has produced the firing itself.  A frontier below
        # the crossover, or a stale image larger than the frontier (each
        # on its own; see the module docstring), is not worth a launch,
        # and is checked before the frontier itself is interned
        n = len(delta)
        if n < CROSSOVER_ROWS:
            return None  # a launch costs more than the tuple kernel's firing
        rels = []
        for pred, pos in probed:
            rel = db.relation(pred)
            if rel is not None and len(rel) > n and not _csr_current(rel, pos):
                return None
            rels.append(rel)
        head_rel = db.relation(head_pred)
        # a delta frontier over the head is already head rows, which
        # the re-pack covers anyway: only the older rows count against it
        if (head_rel is not None
                and len(head_rel) - (n if delta_head else 0) > n
                and head_rel.packed_runs_stale()):
            return None
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
        # The delta step is charged like the tuple kernel: one frontier
        # probe, every delivered row scanned
        join_probes, index_probes, rows_scanned = 1, 0, n
        batch_probes, batch_rows = (1 if n else 0), n
        m = n
        out = empty
        if n:
            ctx = [unpack_column(arr, frontier_arity, p) for p in proj]
            # each lookup: one probe for all m rows, charged per row;
            # only the still-live columns go on
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
            if m:
                # -- fused head: gather columns, pack to one int64 per row
                # (a constant is a scalar broadcast)
                cols = [
                    ctx[v] if kind == "ctx" else cid
                    for (kind, v), cid in zip(head, const_ids)
                ]
                out = pack_columns(cols, m)

        stats.join_probes += join_probes
        stats.index_probes += index_probes
        stats.rows_scanned += rows_scanned
        stats.rule_firings += m
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
    """The vectorized kernel for delta plan *plan_id* of *cr*, or None
    when the shape is unsupported (the caller runs the tuple kernel) —
    always for the naive plan (``None``), which has no delta frontier.
    The returned kernel itself returns None — before touching any
    counter — when a runtime condition forces the same fallback: a
    frontier of fewer than :data:`CROSSOVER_ROWS` rows (the fitted size
    below which a launch costs more than the tuple kernel's firing), an
    id past the packing bound, a stale probe image holding more rows
    than the frontier, or stale head runs holding more rows than the
    frontier besides its own (re-encoding it would cost more than the
    firing it serves)."""
    if plan_id is None or not use_indexes:
        return None

    def build() -> Optional[Callable]:
        spec = _vector_spec(cr, cr.lowered(plan_id))
        if spec is None:
            return None  # declined at compile time: numpy stays unloaded
        np = load_numpy()
        return _make_vector_kernel(spec, np) if np is not None else None

    return cr.memoized((plan_id, "vector"), build)
