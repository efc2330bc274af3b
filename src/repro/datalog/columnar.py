"""Dictionary-encoded columnar storage for relations.

The tuple engine stores rows as tuples of arbitrary Python objects;
every join probe pays object hashing and per-tuple dispatch.  This
module adds a second, *derived* representation under the same
:class:`~repro.datalog.database.Relation` API:

- a process-wide :class:`ConstantDictionary` interning every constant
  once into a dense integer id (value ↔ id, append-only, so an id is
  stable for the life of the process unless :meth:`ConstantDictionary.clear`
  bumps the epoch);
- a per-relation :class:`ColumnStore` holding the rows column-wise as
  ``array('q')`` integer arrays plus the encoded-row structures the
  vector kernel and its absorb path read: a set of encoded rows, hash
  postings keyed on encoded ids (the source of the kernel's CSR probe
  images) and the packed-int run/Bloom membership structures.

The store is a cache over the relation's raw row set: it is built
lazily, maintained incrementally on insert, and simply dropped on
retraction or dictionary epoch change (rebuilt on next use).  Copies
share the store copy-on-write — :meth:`ColumnStore.copy` duplicates
the column arrays and row set but not the derived postings.

**Order parity.**  The vector kernel must reproduce the tuple engine's
stats counters bit-for-bit and derive each round's facts in the tuple
kernel's order, and some tuple paths (existential scans with repeated
variables, provenance) are enumeration-order dependent.  Encoded
postings are therefore *derived from the raw hash index* (same posting
order) instead of keeping an independently ordered mirror.

Note on value identity: interning is keyed by ``==``/``hash`` like the
raw row sets, so values the raw engine already conflates (``1``,
``1.0``, ``True``) share one id and decode to the first-interned
representative — exactly the representative-choice freedom the raw
set storage already has.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterable, Optional, Sequence

try:  # numpy is optional; column arrays fall back to array('q')
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

__all__ = [
    "ConstantDictionary",
    "ColumnStore",
    "global_dictionary",
    "numpy_available",
    "PACK_SHIFT",
    "PACK_LIMIT",
    "pack_encoded",
    "unpack_column",
]

Row = tuple
EncodedRow = tuple

#: bits per column in the packed single-int row representation used by
#: the vectorized kernels: a row of arity k ≤ 3 packs into one int64
#: by Horner's rule as long as every id is below ``PACK_LIMIT``
PACK_SHIFT = 21
PACK_LIMIT = 1 << PACK_SHIFT

if _np is not None:
    # Fibonacci-style multiplicative hashes for the packed-row Bloom
    # prefilter; the top bits of each product index the bit table.
    # The table is uint64 words so every hash/index/mask op stays in
    # one dtype — no astype round-trips on the per-round hot path.
    _BLOOM_K1 = _np.uint64(0x9E3779B97F4A7C15)
    _BLOOM_K2 = _np.uint64(0xC2B2AE3D27D4EB4F)
    _B1 = _np.uint64(1)
    _B6 = _np.uint64(6)
    _B63 = _np.uint64(63)


def pack_encoded(enc: Sequence[int]) -> int:
    """Pack an encoded row into one int (ids must be < PACK_LIMIT)."""
    packed = 0
    for c in enc:
        packed = (packed << PACK_SHIFT) | c
    return packed


def unpack_column(arr, arity: int, position: int):
    """The ids at *position* of packed rows *arr* (an int64 ndarray of
    :func:`pack_encoded` values for rows of *arity*), as an ndarray."""
    return (arr >> (PACK_SHIFT * (arity - 1 - position))) & (PACK_LIMIT - 1)


def numpy_available() -> bool:
    """True iff numpy is importable (``ColumnStore.numpy_column``)."""
    return _np is not None


class ConstantDictionary:
    """A thread-safe append-only interner: constant value ↔ dense id.

    Ids are assigned in first-intern order starting at 0.  ``_values``
    is only ever appended to (under the lock), so readers may index it
    without locking for any id they obtained from :meth:`intern` —
    CPython list reads are safe under the GIL and the prefix up to a
    published id never changes.  :meth:`clear` swaps both maps for
    fresh ones and bumps ``epoch``; stores stamped with an older epoch
    rebuild themselves on next access.
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

    def intern_row(self, row: Sequence) -> EncodedRow:
        """Encode a raw row to a tuple of ids."""
        intern = self.intern
        return tuple(intern(v) for v in row)

    def decode_row(self, enc: Sequence[int]) -> Row:
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
        with self._lock:
            self._ids = {}
            self._values = []
            self.epoch += 1


#: the process-wide dictionary every relation encodes against
_GLOBAL = ConstantDictionary()


def global_dictionary() -> ConstantDictionary:
    """The process-wide constant dictionary (shared by all relations,
    so encoded rows are comparable across databases and sessions)."""
    return _GLOBAL


class ColumnStore:
    """The encoded columnar image of one relation's rows.

    Built lazily by :meth:`Relation.column_store` and maintained
    incrementally on insert; dropped (and later rebuilt) on retraction
    or dictionary epoch change.  All structures hold *encoded* values:

    ``columns``
        one ``array('q')`` per argument position, rows in insertion
        order — the dense storage contract (``numpy_column`` exposes a
        zero-copy ndarray view when numpy is present);
    ``row_set``
        the set of encoded row tuples (snapshots, degree profiles and
        the packed membership set are derived from it);
    postings (``encoded_index``)
        per bound-position-set hash postings, derived from the raw
        index so posting order matches the tuple engine's enumeration.
    """

    __slots__ = (
        "dictionary",
        "arity",
        "epoch",
        "columns",
        "row_set",
        "_postings",
        "_pending",
        "_pending_rows",
        "_packed",
        "_packed_overflow",
        "_runs",
        "_runs_version",
        "_bloom",
        "_bloom_log2",
        "_csr",
        "_lock",
    )

    def __init__(self, dictionary: ConstantDictionary, arity: int, rows: Iterable):
        self.dictionary = dictionary
        self.arity = arity
        self.epoch = dictionary.epoch
        intern = dictionary.intern
        enc = [tuple(intern(v) for v in row) for row in rows]
        self.row_set: set = set(enc)
        self.columns: list = [
            array("q", (r[p] for r in enc)) for p in range(arity)
        ]
        self._postings: dict = {}
        #: packed-row chunks (int64 ndarrays, insertion order) absorbed
        #: by the vectorized kernels but not yet folded into the
        #: encoded-tuple structures above; flushed lazily when an
        #: encoded-tuple consumer next touches the store
        self._pending: list = []
        self._pending_rows: int = 0
        #: set of all rows (flushed and pending) in packed-int form;
        #: None until a vectorized absorb builds it, or permanently
        #: None once an id exceeded PACK_LIMIT (``_packed_overflow``)
        self._packed: Optional[set] = None
        self._packed_overflow: bool = False
        #: sorted disjoint int64 runs covering every packed row — the
        #: vectorized absorb path's dedup structure (searchsorted
        #: membership, log-structured merges); valid only while
        #: ``_runs_version`` equals the owning relation's version
        self._runs: Optional[list] = None
        self._runs_version: int = -1
        #: Bloom prefilter over the packed rows the runs cover: fresh
        #: derivations miss here and skip the searchsorted passes
        #: entirely; only the (rare) maybe-present candidates pay a
        #: precise run probe.  Rebuilt alongside the runs and grown
        #: whenever occupancy drops below ~8 bits per key.
        self._bloom: Any = None
        self._bloom_log2: int = 0
        #: per-position CSR probe images for the vectorized kernels,
        #: keyed by bound position and stamped with the relation
        #: version they were built at
        self._csr: dict = {}
        #: serializes flushes: relations sharing this store copy-on-
        #: write may flush concurrently from different threads
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.row_set) + self._pending_rows

    # -- maintenance --------------------------------------------------------

    def add_raw(self, row: Sequence) -> None:
        """Encode and absorb one raw row (already known new)."""
        intern = self.dictionary.intern
        enc = tuple(intern(v) for v in row)
        if self._pending:
            self.flush()
        self.row_set.add(enc)
        for col, v in zip(self.columns, enc):
            col.append(v)
        for positions, postings in self._postings.items():
            if len(positions) == 1:
                key = enc[positions[0]]
            else:
                key = tuple(enc[p] for p in positions)
            posting = postings.get(key)
            if posting is None:
                postings[key] = [enc]
            else:
                posting.append(enc)
        packed = self._packed
        if packed is not None:
            if any(c >= PACK_LIMIT for c in enc):
                self._packed = None
                self._packed_overflow = True
            else:
                packed.add(pack_encoded(enc))

    # -- packed fast path ---------------------------------------------------

    def packed_set(self) -> Optional[set]:
        """The set of all rows in packed-int form (vectorized dedup).

        Built lazily from the encoded row set; returns None — forever —
        once any id fails the ``PACK_LIMIT`` bound, which sends the
        vectorized absorb path back to the tuple-at-a-time one.
        """
        packed = self._packed
        if packed is not None:
            return packed
        if self._packed_overflow:
            return None
        packed = set()
        for enc in self.row_set:
            if any(c >= PACK_LIMIT for c in enc):
                self._packed_overflow = True
                return None
            packed.add(pack_encoded(enc))
        for chunk in self._pending:
            packed.update(chunk.tolist())
        self._packed = packed
        return packed

    def add_packed_pending(self, fresh) -> None:
        """Buffer one chunk of packed rows (an int64 ndarray in
        derivation order) absorbed by a vectorized kernel.

        The caller has already deduplicated *fresh* against every
        existing row; the encoded-tuple structures here are brought up
        to date by :meth:`flush` only when something reads them.
        """
        self._pending.append(fresh)
        self._pending_rows += len(fresh)

    # -- packed-row Bloom prefilter -----------------------------------------

    def bloom_rebuild(self, runs: list, total: int) -> None:
        """(Re)build the Bloom prefilter over every packed row the runs
        cover, sized to at least 8 bits per key (≥ 1 MiB of bits)."""
        log2 = max(20, int(8 * max(total, 1) - 1).bit_length())
        self._bloom_log2 = log2
        self._bloom = _np.zeros(1 << (log2 - 6), dtype=_np.uint64)
        for run in runs:
            self.bloom_add(run)

    def bloom_add(self, arr) -> None:
        """Mark sorted packed rows *arr* (an int64 ndarray) present."""
        words = self._bloom
        shift = _np.uint64(64 - self._bloom_log2)
        u = arr.view(_np.uint64)
        for k in (_BLOOM_K1, _BLOOM_K2):
            h = (u * k) >> shift
            _np.bitwise_or.at(words, h >> _B6, _B1 << (h & _B63))

    def bloom_maybe(self, arr):
        """Per-element maybe-present flags (uint64 0/1) for packed rows
        *arr*; zero means definitely absent, one means a precise run
        probe is required (~2% false positives at design occupancy)."""
        words = self._bloom
        shift = _np.uint64(64 - self._bloom_log2)
        u = arr.view(_np.uint64)
        h1 = (u * _BLOOM_K1) >> shift
        h2 = (u * _BLOOM_K2) >> shift
        return (
            (words[h1 >> _B6] >> (h1 & _B63))
            & (words[h2 >> _B6] >> (h2 & _B63))
            & _B1
        )

    def flush(self) -> None:
        """Fold pending packed rows into the encoded-tuple structures
        (row set, column arrays, postings), preserving insertion order."""
        if not self._pending:
            return
        with self._lock:
            pending = self._pending
            if not pending:  # lost the race to another flusher
                return
            arity = self.arity
            arr = pending[0] if len(pending) == 1 else _np.concatenate(pending)
            if arity == 0:
                enc_rows: list = [()] * len(arr)
                col_lists: list = []
            else:
                col_lists = [
                    unpack_column(arr, arity, p).tolist() for p in range(arity)
                ]
                enc_rows = (
                    list(zip(*col_lists))
                    if arity > 1
                    else [(c,) for c in col_lists[0]]
                )
            self.row_set.update(enc_rows)
            for p, col in enumerate(self.columns):
                col.extend(col_lists[p])
            for positions, postings in self._postings.items():
                single = len(positions) == 1
                p0 = positions[0] if single else None
                for enc in enc_rows:
                    key = enc[p0] if single else tuple(enc[p] for p in positions)
                    posting = postings.get(key)
                    if posting is None:
                        postings[key] = [enc]
                    else:
                        posting.append(enc)
            self._pending = []
            self._pending_rows = 0

    def profile(self) -> tuple[int, tuple[int, ...]]:
        """Measured degree profile: ``(row count, per-position max
        degree)`` — the largest number of rows any single value matches
        at each position.

        Reads already-built single-position postings when present
        (their posting lengths *are* the degrees); otherwise one
        counting pass over the dense dictionary-encoded column — no
        new postings are materialized and no constants are interned,
        so profiling never perturbs the dictionary or the relation's
        index-build counters.
        """
        self.flush()
        degrees: list[int] = []
        for p in range(self.arity):
            postings = self._postings.get((p,))
            if postings is not None:
                degrees.append(
                    max((len(rows) for rows in postings.values()), default=0)
                )
                continue
            counts: dict[int, int] = {}
            best = 0
            for c in self.columns[p]:
                n = counts.get(c, 0) + 1
                counts[c] = n
                if n > best:
                    best = n
            degrees.append(best)
        return len(self.row_set), tuple(degrees)

    # -- probes -------------------------------------------------------------

    def encoded_index(self, positions: tuple[int, ...], raw_index: dict) -> dict:
        """The encoded postings for *positions*, derived from the raw
        index (posting order preserved — the order-parity contract).

        Single-position indexes are keyed by the bare id instead of a
        1-tuple, saving a tuple allocation per probe.  Callers must
        hold the relation's build lock when the postings are missing.
        """
        postings = self._postings.get(positions)
        if postings is None:
            intern = self.dictionary.intern
            if len(positions) == 1:
                postings = {
                    intern(key[0]): [
                        tuple(intern(v) for v in row) for row in rows
                    ]
                    for key, rows in raw_index.items()
                }
            else:
                postings = {
                    tuple(intern(k) for k in key): [
                        tuple(intern(v) for v in row) for row in rows
                    ]
                    for key, rows in raw_index.items()
                }
            self._postings[positions] = postings
        return postings

    def numpy_column(self, position: int):
        """A zero-copy numpy view of one column (None without numpy)."""
        if _np is None:
            return None
        return _np.frombuffer(self.columns[position], dtype=_np.int64)

    # -- copy-on-write ------------------------------------------------------

    def copy(self) -> "ColumnStore":
        """An independent store for a privatized relation copy: column
        arrays and the row set are duplicated, derived postings and the
        scan cache are dropped (rebuilt lazily on the copy)."""
        out = ColumnStore.__new__(ColumnStore)
        out.dictionary = self.dictionary
        out.arity = self.arity
        out.epoch = self.epoch
        out.columns = [col[:] for col in self.columns]
        out.row_set = set(self.row_set)
        out._postings = {}
        out._pending = list(self._pending)  # chunks are never mutated
        out._pending_rows = self._pending_rows
        out._packed = None  # rebuilt lazily (cheap relative to a copy)
        out._packed_overflow = self._packed_overflow
        out._runs = list(self._runs) if self._runs is not None else None
        out._runs_version = self._runs_version
        # the bloom bit table is mutated in place by bloom_add, so a
        # shared reference would cross-talk; rebuild lazily instead
        out._bloom = None
        out._bloom_log2 = 0
        out._csr = {}
        out._lock = threading.Lock()
        return out
