"""Dictionary encoding and the packed image of a relation.

The tuple engine stores rows as tuples of arbitrary Python objects;
every join probe pays object hashing and per-tuple dispatch.  This
module adds a second, *derived* representation under the same
:class:`~repro.datalog.database.Relation` API:

- a process-wide :class:`ConstantDictionary` interning every constant
  once into a dense integer id (append-only, so an id is stable until
  :meth:`ConstantDictionary.clear` bumps the epoch);
- the one codec for the *packed row* — a row of arity ≤ 3 as a single
  int64, 21 bits per id; no other module knows the layout;
- a per-relation :class:`ColumnStore` holding exactly what the packed
  paths read — runs + CSR, built on demand: at most two sorted packed
  runs (the absorb path's membership) and the CSR probe images (the
  vector kernel's lookups).

The store is a cache over the relation's raw rows and hash indexes: it
encodes nothing when created, the runs are packed from the raw row set
in one pass and the CSR images are laid out from the raw hash index
(same posting order — the vector kernel must derive each round's facts
in the tuple kernel's order and reproduce its counters bit-for-bit),
each stamped with the relation version it describes.  A raw ``add``
leaves the stamp stale (the next packed use rebuilds), retraction and a
dictionary epoch change drop the store, and copies do not carry it.

Interning is keyed by ``==``/``hash`` like the raw row sets, so values
the raw engine already conflates (``1``, ``1.0``, ``True``) share one
id and decode to the first-interned representative.

numpy is optional and loaded lazily: :func:`load_numpy` is the
package's one import of it, asked for by the packed entry points and
by the vector kernel once it admits a plan.  Importing ``repro``, and
any run that never vectorizes a firing, leaves numpy unloaded; without
numpy nothing packs and no store fills.
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Any, Collection, Iterable, Iterator, Optional, Sequence

__all__ = [
    "ConstantDictionary", "ColumnStore", "global_dictionary", "load_numpy",
    "numpy_available", "PACK_SHIFT", "PACK_LIMIT", "pack_encoded", "pack_rows",
    "pack_columns", "unpack_column", "decode_rows",
]

#: bits per id in the packed row: arity k ≤ 3 packs into one int64 by
#: Horner's rule as long as every id is below ``PACK_LIMIT``
PACK_SHIFT = 21
PACK_LIMIT = 1 << PACK_SHIFT

#: a relation's packed rows are a base run and a tail run; the tail
#: merges into the base once it holds ``1 / _TAIL_FRACTION`` of it
#: (1/4 lost on ``tc_cycle``, 1/8 and 1/16 tied: EXPERIMENTS.md)
_TAIL_FRACTION = 8

_UNLOADED: Any = object()
#: numpy once :func:`load_numpy` has run, None when it is not importable
_np: Any = _UNLOADED


def load_numpy():
    """The numpy module, imported on the first call; None when it is not
    importable, and that failure is remembered.

    The one place the package imports numpy.  The packed entry points
    (:func:`pack_rows`, ``Relation.packed_runs`` and the rest) ask here
    once per call, so a process whose rules the vector kernel never
    admits never pays numpy's import.  Everything else in this module
    that touches ``_np`` runs only on arrays an entry point made.
    """
    global _np
    if _np is not _UNLOADED:
        return _np
    try:
        import numpy as np
    except ImportError:
        np = None
    _np = np
    return np


def numpy_available() -> bool:
    """True iff numpy is importable (the packed plane needs it)."""
    return load_numpy() is not None


class ConstantDictionary:
    """A thread-safe append-only interner: constant value ↔ dense id.

    Ids are assigned in first-intern order starting at 0.  ``_values``
    is only ever appended to (under the lock), so readers may index it
    without locking for any id they obtained from :meth:`intern` —
    CPython list reads are safe under the GIL and the prefix up to a
    published id never changes.  :meth:`clear` swaps both maps for
    fresh ones and bumps ``epoch``; stores stamped with an older epoch
    are replaced on next access.
    """

    __slots__ = ("_ids", "_values", "_lock", "epoch")

    def __init__(self):
        self._ids: dict = {}
        self._values: list = []
        self._lock = threading.Lock()
        #: bumped by :meth:`clear`; ColumnStores stamp their build epoch
        self.epoch: int = 0

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value) -> int:
        """The dense id for *value*, assigning a fresh one if unseen."""
        code = self._ids.get(value)
        if code is not None:
            return code
        with self._lock:
            ids = self._ids  # re-read: clear() may have swapped the maps
            code = ids.get(value)
            if code is None:
                values = self._values
                code = len(values)
                values.append(value)
                ids[value] = code
            return code

    def intern_row(self, row: Sequence) -> tuple:
        """Encode a raw row to a tuple of ids."""
        return tuple(self.intern_column(row))

    def intern_column(self, values: Collection) -> list:
        """The ids of *values*, in order: one dict lookup each, and the
        locked path only when some value is new."""
        codes = list(map(self._ids.get, values))
        if None in codes:
            codes = list(map(self.intern, values))
        return codes

    def decode_row(self, enc: Sequence[int]) -> tuple:
        """Decode a tuple of ids back to raw values."""
        values = self._values
        return tuple(values[c] for c in enc)

    def values_list(self) -> list:
        """The id → value table itself (treat as read-only; kernels
        index it directly on the decode hot path)."""
        return self._values

    def code_in(self, table: list, value) -> Optional[int]:
        """The id *value* has in *table* — a :meth:`values_list`
        captured earlier, possibly before a :meth:`clear` — or None.

        Never interns: a read must not grow the dictionary.  The live
        table answers through the id map; a table from a past epoch
        has lost its map, so it is searched (``list.index`` compares
        with ``==``, the same conflation interning applies).
        """
        with self._lock:
            if table is self._values:
                return self._ids.get(value)
        try:
            return table.index(value)
        except ValueError:
            return None

    def clear(self) -> None:
        """Forget every interned constant and invalidate all stores."""
        global _OBJECT_VIEW
        with self._lock:
            self._ids = {}
            self._values = []
            self.epoch += 1
        _OBJECT_VIEW = (None, None)  # nor keep the old table alive


_GLOBAL = ConstantDictionary()


def global_dictionary() -> ConstantDictionary:
    """The process-wide constant dictionary (shared by all relations,
    so encoded rows are comparable across databases and sessions)."""
    return _GLOBAL


# -- the packed-row codec ------------------------------------------------------


def pack_encoded(enc: Sequence[int]) -> int:
    """Pack an encoded row into one int (ids must be < PACK_LIMIT)."""
    packed = 0
    for c in enc:
        packed = (packed << PACK_SHIFT) | c
    return packed


def pack_columns(cols: Iterable, n: int):
    """:func:`pack_encoded` over id columns (int64 ndarrays of length
    *n*, or scalar ids broadcast over it): one int64 per row."""
    out = _np.zeros(n, dtype=_np.int64)
    for col in cols:
        out <<= PACK_SHIFT
        out |= col
    return out


def pack_rows(rows: Collection[tuple], arity: int, dictionary: ConstantDictionary):
    """Intern and pack raw *rows* into one int64 per row, in iteration
    order; None when the rows cannot be packed — an id at or past
    ``PACK_LIMIT``, arity above 3, or no numpy."""
    np = load_numpy() if arity <= 3 else None
    if np is None:
        return None
    cols = []
    for values in zip(*rows):
        ids = np.array(dictionary.intern_column(values), dtype=np.int64)
        if int(ids.max()) >= PACK_LIMIT:
            return None
        cols.append(ids)
    return pack_columns(cols, len(rows))


def unpack_column(arr, arity: int, position: int):
    """The ids at *position* of packed rows *arr* (an int64 ndarray of
    :func:`pack_encoded` values for rows of *arity*), as an ndarray."""
    return (arr >> (PACK_SHIFT * (arity - 1 - position))) & (PACK_LIMIT - 1)


#: ``(id → value table, object ndarray of it)`` for the table last
#: decoded through, so repeated decodes resolve ids without a rebuild
_OBJECT_VIEW: tuple = (None, None)


def _object_view(values: list):
    """*values* as an object ndarray, so a whole id column resolves in
    one ``take``; rebuilt once the table has grown (or another table is
    asked for)."""
    global _OBJECT_VIEW
    table, view = _OBJECT_VIEW
    if table is not values or len(view) != len(values):
        view = _np.fromiter(values, dtype=object, count=len(values))
        _OBJECT_VIEW = (values, view)
    return view


def decode_rows(arr, arity: int, values: list, positions: Optional[Sequence[int]] = None) -> Iterator[tuple]:
    """Packed rows *arr* as raw tuples in order, ids resolved through
    the id → value table *values*; *positions* projects (default: the
    whole row).  An iterator: no id or row list is built, so a caller
    feeds it straight into the set or list it fills."""
    if positions is None:
        positions = range(arity)
    if not positions:
        return repeat((), len(arr))
    view = _object_view(values)
    return zip(*[view.take(unpack_column(arr, arity, p)) for p in positions])


class ColumnStore:
    """The packed image of one relation: what the packed paths read.
    Created empty by :meth:`Relation.column_store`; the owning relation
    fills it under its build lock and decides when it is stale.
    ``runs`` holds every packed row in at most two sorted, disjoint
    int64 runs — a base and a tail the fresh rows merge into — so a
    membership test is at most two ``searchsorted`` probes, exact;
    valid only while ``runs_version`` equals the relation's version.
    ``overflow`` records a row with an id at or past ``PACK_LIMIT``,
    which sends the absorb path back to tuple-at-a-time for the life of
    the store; ``csr`` holds the probe images, ``position → (relation
    version, image)``, each laid out again when its version is stale
    and a frontier at least as large as the relation asks for it
    (:mod:`repro.engine.batch_kernel`).
    """

    __slots__ = ("dictionary", "arity", "epoch", "overflow", "runs", "runs_version", "csr")

    def __init__(self, dictionary: ConstantDictionary, arity: int):
        self.dictionary = dictionary
        self.arity = arity
        self.epoch = dictionary.epoch
        self.overflow: bool = False
        self.runs: list = []
        self.runs_version: int = -1
        self.csr: dict = {}

    def rebuild(self, rows: Collection[tuple], version: int) -> None:
        """Pack the runs from the raw row set at *version*: intern + pack, then one sort."""
        arr = pack_rows(rows, self.arity, self.dictionary)
        if arr is None:
            self.overflow = True
            self.runs = []  # nothing reads them again
            return
        arr.sort()
        self.runs = [arr] if arr.size else []
        self.runs_version = version  # last: the stamp publishes the runs

    def novel_mask(self, rows):
        """Boolean mask over packed *rows* (any order, repeats allowed)
        marking which the runs do not hold: one searchsorted per run."""
        hit = _np.zeros(rows.size, dtype=bool)
        for run in self.runs:
            # clip keeps take() in bounds; the clipped last slot can
            # never compare equal for a value beyond the run's max
            idx = _np.minimum(run.searchsorted(rows), run.size - 1)
            hit |= run.take(idx) == rows
        return ~hit

    def extend(self, sorted_fresh, version: int) -> None:
        """Add sorted packed rows known to be new, bringing the runs to
        *version*.  They merge into the tail, and the tail into the base
        once it holds ``1 / _TAIL_FRACTION`` of it: a merge into the tail
        copies at most about that fraction of the base, and the base is
        copied once each time it grows by that fraction."""
        runs = self.runs
        tail = _merge(runs.pop(), sorted_fresh) if len(runs) == 2 else sorted_fresh
        if runs and tail.size * _TAIL_FRACTION >= runs[0].size:
            runs[0] = _merge(runs[0], tail)
        else:
            runs.append(tail)  # the tail, or the first base
        self.runs_version = version


def _merge(a, b):
    """Two sorted disjoint int64 runs as one sorted run."""
    merged = _np.concatenate((a, b))
    merged.sort(kind="stable")  # timsort: one linear merge of two runs
    return merged
