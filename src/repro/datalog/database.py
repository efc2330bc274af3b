"""Extensional database storage: relations, hash indexes, databases.

A :class:`Relation` is a set of equal-length tuples of plain Python
values (the values of :class:`~repro.datalog.terms.Constant` terms).
Hash indexes over argument-position subsets are built lazily and cached;
the evaluation engine asks for the index matching the bound positions of
each join step.  The vector kernel's packed image of a relation — sorted
runs + Bloom for membership, CSR probe images — lives on its
:class:`~repro.datalog.columnar.ColumnStore`, built on demand from the
raw rows and hash indexes and valid while its stamp equals the
relation's version counter.

A :class:`Database` maps predicate names to relations and is the *EDB*
of the paper's program triple ``P = (Q, EDB, IDB)``.  Databases are
mutable (the engine inserts derived facts into a working database), but
:meth:`Database.copy` and value-semantics equality make it cheap to use
them functionally in tests.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .ast import Atom
from .columnar import (
    ColumnStore,
    decode_rows,
    global_dictionary,
    load_numpy,
    unpack_column,
)
from .errors import ArityError, ValidationError

__all__ = ["Relation", "Database"]

Row = Tuple


def post_rows(index: dict, positions: tuple[int, ...], rows: Iterable[Row]) -> None:
    """Append each of *rows*, in order, to the posting list of its key in
    *index*: the row's values at *positions* (``(row[p],)`` for one)."""
    get = index.get
    if len(positions) == 1:
        p = positions[0]
        for row in rows:
            key = (row[p],)
            posting = get(key)
            if posting is None:
                index[key] = [row]
            else:
                posting.append(row)
        return
    at = itemgetter(*positions)
    for row in rows:
        key = at(row)
        posting = get(key)
        if posting is None:
            index[key] = [row]
        else:
            posting.append(row)


class Relation:
    """A set of fixed-arity tuples with lazily built hash indexes."""

    __slots__ = (
        "arity",
        "_rows",
        "_indexes",
        "index_builds",
        "_build_lock",
        "_store",
        "_version",
        "_profile_memo",
        "_index_dirty",
        "_raw_dirty",
        "_raw_dirty_rows",
    )

    def __init__(self, arity: int, rows: Iterable[Sequence] = ()):
        self.arity = arity
        self._rows: set[Row] = set()
        self._indexes: dict[tuple[int, ...], dict[Row, list[Row]]] = {}
        #: number of hash indexes materialized over this relation's
        #: lifetime (lazy builds only; incremental maintenance on
        #: insert does not count)
        self.index_builds: int = 0
        #: serializes lazy index builds: base relations are shared by
        #: reference between ``evaluate`` calls and sessions, which
        #: callers may drive from their own threads, and exactly one of
        #: them must materialize (and count) each missing index
        self._build_lock = threading.Lock()
        #: the packed image (see :mod:`repro.datalog.columnar`); None
        #: until the vector kernel asks for it, dropped on retraction /
        #: epoch change, never carried by a copy
        self._store: Optional[ColumnStore] = None
        #: mutation counter: every content change bumps it, so derived
        #: summaries (the store's packed runs, the degree-profile memo)
        #: are valid exactly while their stamp equals it
        self._version: int = 0
        #: ``(version, degree_profile() result)`` of the last counting pass
        self._profile_memo: Optional[tuple] = None
        #: rows inserted by the vectorized absorb path whose hash-index
        #: postings have not been appended yet; folded in by
        #: :meth:`_sync_indexes` the next time an index is consulted
        self._index_dirty: list[Row] = []
        #: packed-row chunks inserted by the vectorized absorb path
        #: whose raw tuples have not been materialized yet; each entry
        #: is ``(int64 ndarray, id → value table)`` — the table is
        #: captured at insert time so a later dictionary epoch change
        #: cannot skew the decode.  Folded into ``_rows`` by
        #: :meth:`_sync` the next time raw rows are consulted.
        self._raw_dirty: list = []
        self._raw_dirty_rows: int = 0
        for row in rows:
            self.add(tuple(row))

    # -- mutation ----------------------------------------------------------

    def add(self, row: Row) -> bool:
        """Insert *row*; return True iff it was new.

        Maintains any already-built indexes incrementally.
        """
        if len(row) != self.arity:
            raise ArityError(
                f"row of length {len(row)} inserted into relation of arity {self.arity}"
            )
        if self._raw_dirty:
            self._sync()
        if row in self._rows:
            return False
        if self._index_dirty:
            self._sync_indexes()
        self._rows.add(row)
        for positions, index in self._indexes.items():
            key = (row[positions[0]],) if len(positions) == 1 else itemgetter(*positions)(row)
            index.setdefault(key, []).append(row)
        self._version += 1  # the packed image's stamp goes stale
        return True

    def update(self, rows: Iterable[Row]) -> int:
        """Insert many rows; return the number actually added."""
        return sum(1 for row in rows if self.add(tuple(row)))

    def bulk_load(self, rows: Iterable[Row]) -> int:
        """Fill an **empty** relation in one pass — the snapshot-restore
        fast path: rows land directly in the raw set with no per-row
        index upkeep (nothing derived exists yet to maintain; indexes
        and the packed image build lazily later).
        """
        if self._rows or self._raw_dirty or self._indexes or self._store is not None:
            raise ValidationError("bulk_load requires an empty relation")
        loaded = set(map(tuple, rows))
        arity = self.arity
        for row in loaded:
            if len(row) != arity:
                raise ArityError(
                    f"row of length {len(row)} bulk-loaded into relation "
                    f"of arity {arity}"
                )
        self._rows = loaded
        self._version += 1
        return len(loaded)

    def discard(self, row: Row) -> bool:
        """Remove *row*; return True iff it was present.

        Maintains any already-built indexes incrementally (the row is
        removed from each posting list; an emptied list is dropped so
        index contents stay equal to a fresh build over the remaining
        rows).
        """
        row = tuple(row)
        if self._raw_dirty:
            self._sync()
        if row not in self._rows:
            return False
        if self._index_dirty:
            self._sync_indexes()
        self._rows.discard(row)
        self._version += 1
        # retraction drops the packed image entirely (sorted runs are
        # insert-only); it rebuilds lazily on next packed use
        self._store = None
        for positions, index in self._indexes.items():
            key = (row[positions[0]],) if len(positions) == 1 else itemgetter(*positions)(row)
            posting = index.get(key)
            if posting is not None:
                try:
                    posting.remove(row)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not posting:
                    del index[key]
        return True

    # -- lookup -------------------------------------------------------------

    def __contains__(self, row: Row) -> bool:
        if self._raw_dirty:
            self._sync()
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        if self._raw_dirty:
            self._sync()
        return iter(self._rows)

    def __len__(self) -> int:
        # deferred packed rows are already deduplicated, so the count
        # is exact without materializing them
        return len(self._rows) + self._raw_dirty_rows

    def live_rows(self) -> set[Row]:
        """The row set itself, deferred packed rows materialized first:
        every later :meth:`add` extends it, so a caller that inserts
        through :meth:`add` can test membership per row without a call."""
        if self._raw_dirty:
            self._sync()
        return self._rows

    def rows(self) -> frozenset[Row]:
        if self._raw_dirty:
            self._sync()
        return frozenset(self._rows)

    def _sync(self) -> None:
        """Materialize raw tuples for every deferred packed chunk.

        Chunks decode in insertion order, so the raw set's insertion
        history — and therefore set iteration order downstream — is
        bit-identical to eager per-row insertion.  Locked: callers
        sharing a completed relation across their own threads may hit
        its first raw access concurrently.
        """
        with self._build_lock:
            dirty = self._raw_dirty
            if not dirty:
                return
            self._raw_dirty = []
            self._raw_dirty_rows = 0
            rows: list = []
            for arr, values in dirty:
                rows.extend(decode_rows(arr, self.arity, values))
            self._rows.update(rows)
            if self._indexes:
                self._index_dirty.extend(rows)

    def _sync_indexes(self) -> None:
        """Fold rows buffered by the vectorized absorb path into every
        materialized hash index.

        Dirty rows are appended in insertion order, so posting lists
        end up identical to what eager per-insert maintenance would
        have produced — order-dependent consumers (provenance,
        existential scans with repeats) observe no difference.
        """
        dirty = self._index_dirty
        if not dirty:
            return
        self._index_dirty = []
        for positions, index in self._indexes.items():
            post_rows(index, positions, dirty)

    def index_for(self, positions: tuple[int, ...]) -> dict[Row, list[Row]]:
        """Return (building if necessary) the hash index on *positions*.

        The index maps a key tuple (the row values at *positions*, in
        that order) to the list of full rows having those values.
        """
        if self._raw_dirty:
            self._sync()
        if self._index_dirty:
            with self._build_lock:
                self._sync_indexes()
        index = self._indexes.get(positions)
        if index is None:
            # Double-checked locking: the unlocked fast path above is
            # safe because dict reads are atomic and a published index
            # is never mutated concurrently with probes (a relation
            # shared between evaluations is read-only to all of them).
            with self._build_lock:
                index = self._indexes.get(positions)
                if index is None:
                    index = {}
                    post_rows(index, positions, self._rows)
                    self._indexes[positions] = index
                    self.index_builds += 1
        return index

    def has_index(self, positions: tuple[int, ...]) -> bool:
        """True iff the index on *positions* is currently materialized."""
        return positions in self._indexes

    def indexed_position_sets(self) -> frozenset[tuple[int, ...]]:
        """The position subsets currently carrying a hash index."""
        return frozenset(self._indexes)

    def invalidate_indexes(self) -> None:
        """Drop every materialized index (they rebuild lazily).

        Inserts normally maintain indexes incrementally, so this is
        only needed when rows are mutated behind the relation's back
        (tests) or to bound memory between evaluation phases.
        """
        if self._raw_dirty:
            self._sync()
        self._indexes.clear()
        self._index_dirty.clear()
        # probe images are laid out from the raw indexes, so the
        # packed image goes with them (rebuilt lazily)
        self._store = None
        self._version += 1

    def lookup(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        """Rows whose values at *positions* equal *key* (empty list if none).

        With empty *positions* this returns all rows.
        """
        if not positions:
            if self._raw_dirty:
                self._sync()
            return list(self._rows)
        return self.index_for(positions).get(tuple(key), [])

    def select(
        self,
        bound: Mapping[int, object],
        equal: Sequence[tuple[int, int]] = (),
        project: Optional[Sequence[int]] = None,
    ) -> set[Row]:
        """The rows with ``row[p] == v`` for every ``p: v`` in *bound*
        and ``row[p] == row[q]`` for every ``(p, q)`` in *equal*,
        projected onto the positions *project* (default: whole rows).
        An empty *project* makes this an existence test that stops at
        the first hit: the result is ``{()}`` or empty.

        A pure read: it never materializes deferred packed rows, never
        builds (or counts) an index and never interns a constant, so
        the relation is left exactly as the fixpoint left it.  Three
        tiers cover the rows between them: deferred packed chunks are
        filtered as int64 arrays and only the survivors' projected ids
        are decoded; raw rows go through an already-built hash index on
        a subset of the bound positions when there is one — together
        with the rows whose postings are still buffered — and through
        one pass over the row set otherwise.
        """
        if project is None:
            project = range(self.arity)
        project = tuple(project)
        out: set[Row] = set()
        if self._raw_dirty:
            self._select_packed(bound, equal, project, out)
            if out and not project:
                return out
        rows: Iterable[Row] = self._rows
        if bound:
            covered = max(
                (
                    positions
                    for positions in tuple(self._indexes)
                    if all(p in bound for p in positions)
                ),
                key=len,
                default=None,
            )
            if covered is not None:
                key = tuple(bound[p] for p in covered)
                rows = chain(
                    self._indexes[covered].get(key, ()), self._index_dirty
                )
            at = itemgetter(*bound)
            want = at(bound)
            rows = (row for row in rows if at(row) == want)
        if equal:
            left = itemgetter(*(p for p, _ in equal))
            right = itemgetter(*(q for _, q in equal))
            rows = (row for row in rows if left(row) == right(row))
        if not project:
            if any(True for _ in rows):
                out.add(())
        elif len(project) == 1:
            p0 = project[0]
            out.update((row[p0],) for row in rows)
        elif project == tuple(range(self.arity)):
            out.update(rows)
        else:
            out.update(map(itemgetter(*project), rows))
        return out

    def _select_packed(self, bound, equal, project, out: set) -> None:
        """:meth:`select` over the deferred packed chunks, into *out*.

        A constant is compared by the id it has in the chunk's own
        captured value table — the live dictionary may be an epoch
        further; a constant that table never saw matches nothing.
        Adjacent chunks sharing a table are filtered as one array.
        """
        np = load_numpy()  # loaded: the chunks are its arrays
        arity = self.arity
        dictionary = global_dictionary()
        groups: list = []
        for arr, values in self._raw_dirty:
            if groups and groups[-1][0] is values:
                groups[-1][1].append(arr)
            else:
                groups.append((values, [arr]))
        for values, chunks in groups:
            codes = {p: dictionary.code_in(values, v) for p, v in bound.items()}
            if None in codes.values():
                continue
            arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            tests = [
                unpack_column(arr, arity, p) == code for p, code in codes.items()
            ]
            tests += [
                unpack_column(arr, arity, p) == unpack_column(arr, arity, q)
                for p, q in equal
            ]
            if tests:
                arr = arr[np.logical_and.reduce(tests)]
            if not len(arr):
                continue
            if not project:
                out.add(())
                return
            out.update(decode_rows(arr, arity, values, project))

    # -- packed image -------------------------------------------------------

    def column_store(self) -> ColumnStore:
        """The packed image's holder (created on first use, replaced
        when the global dictionary's epoch moved).  Creating one
        encodes nothing: the runs fill in :meth:`packed_runs`, the
        probe images where the vector kernel lays them out."""
        dictionary = global_dictionary()
        store = self._store
        if store is None or store.epoch != dictionary.epoch:
            with self._build_lock:
                store = self._store
                if store is None or store.epoch != dictionary.epoch:
                    store = self._store = ColumnStore(dictionary, self.arity)
        return store

    def degree_profile(self) -> tuple[int, tuple[int, ...]]:
        """Measured ``(row count, per-position max degree)`` statistics.

        Memoized against the relation's mutation counter: an unchanged
        relation is counted once, however many evaluations, sessions or
        replans ask (copies carry the memo with the version).  Degrees
        are read from whatever structure is already paid for: an
        existing single-position hash index (posting lengths), or one
        counting pass over the raw rows.  Crucially this never *builds*
        an index and never interns a constant, so the engine's work
        statistics are identical with and without profiling.
        """
        memo = self._profile_memo
        if memo is not None and memo[0] == self._version:
            return memo[1]
        if self._raw_dirty:
            self._sync()
        # locked like a lazy index build: evaluations sharing a base
        # relation may profile it at once, and exactly one should count it
        with self._build_lock:
            memo = self._profile_memo
            version = self._version
            if memo is not None and memo[0] == version:
                return memo[1]
            profile = self._count_degrees()
            self._profile_memo = (version, profile)
        return profile

    def _count_degrees(self) -> tuple[int, tuple[int, ...]]:
        rows = self._rows
        degrees: list[int] = []
        for p in range(self.arity):
            if not self._index_dirty:
                index = self._indexes.get((p,))
                if index is not None:
                    degrees.append(
                        max((len(v) for v in index.values()), default=0)
                    )
                    continue
            counts: dict = {}
            best = 0
            for row in rows:
                v = row[p]
                c = counts.get(v, 0) + 1
                counts[v] = c
                if c > best:
                    best = c
            degrees.append(best)
        return len(rows), tuple(degrees)

    def packed_runs(self) -> Optional[list]:
        """Sorted disjoint int64 runs covering every current row — the
        vector kernel's membership structure and scan source — or None
        when a constant id exceeds the packing bound (or numpy is
        absent).

        Runs live on the column store stamped with the relation version
        they describe; steady-state vectorized rounds extend them
        incrementally (:meth:`add_packed_deferred`), and any mutation
        through another path leaves the stamp stale, forcing one
        re-pack here from the raw row set — under the build lock, like
        the lazy index build: a base relation is shared between
        evaluations and exactly one of them should pack it.
        """
        if load_numpy() is None:
            return None
        store = self.column_store()
        if store.runs_version != self._version and not store.overflow:
            if self._raw_dirty:
                self._sync()
            with self._build_lock:
                if store.runs_version != self._version and not store.overflow:
                    store.rebuild(self._rows, self._version)
        return None if store.overflow else store.runs

    def packed_runs_stale(self) -> bool:
        """True iff :meth:`packed_runs` would re-pack the raw row set:
        the runs' stamp is behind the relation's version and no
        overflow has retired them."""
        if load_numpy() is None:
            return False
        store = self.column_store()
        return store.runs_version != self._version and not store.overflow

    def packed_novel_mask(self, rows):
        """Boolean mask over packed *rows* (any order, repeats allowed)
        marking which are not yet present in this relation, or None
        when the packed membership structures are unavailable (see
        :meth:`packed_runs`)."""
        if self.packed_runs() is None:
            return None
        return self.column_store().novel_mask(rows)

    def add_packed_deferred(self, ordered, sorted_fresh) -> None:
        """Bulk-insert packed rows known to be new, deferring raw work.

        *ordered* is the fresh rows in derivation order (the frontier
        contract), *sorted_fresh* the same values sorted (the run
        extension).  Nothing row-at-a-time happens here: raw tuples
        materialize in :meth:`_sync` when raw structures are next read.
        """
        store = self.column_store()
        n = len(ordered)
        self._raw_dirty.append((ordered, store.dictionary.values_list()))
        self._raw_dirty_rows += n
        if store.runs_version == self._version:
            store.extend(sorted_fresh, self._version + n)
        self._version += n

    def decode_packed(self, arr) -> list:
        """Decode packed rows (current dictionary epoch) to raw tuples,
        preserving order."""
        return decode_rows(arr, self.arity, global_dictionary().values_list())

    def copy(self) -> "Relation":
        """An independent copy carrying the materialized indexes.

        Rows and per-key posting lists are copied (cheap: the tuples
        themselves are shared), so the copy starts with every index the
        original had built instead of rebuilding them lazily from
        scratch.  The copy's ``index_builds`` counter starts at zero —
        carried indexes were not built by the copy.
        """
        if self._raw_dirty:
            self._sync()
        if self._index_dirty:
            self._sync_indexes()
        out = Relation.__new__(Relation)
        out.arity = self.arity
        out._rows = set(self._rows)
        out._index_dirty = []
        out._raw_dirty = []
        out._raw_dirty_rows = 0
        out._indexes = {
            positions: {key: list(rows) for key, rows in index.items()}
            for positions, index in self._indexes.items()
        }
        out.index_builds = 0
        out._build_lock = threading.Lock()
        # the packed image is not carried: the copy exists to be
        # written, and its first raw write would stale the stamp anyway
        out._store = None
        out._version = self._version
        out._profile_memo = self._profile_memo
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._raw_dirty:
            self._sync()
        if other._raw_dirty:
            other._sync()
        return self.arity == other.arity and self._rows == other._rows

    def __hash__(self):  # relations are mutable containers
        raise TypeError("Relation is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._raw_dirty:
            self._sync()
        sample = sorted(self._rows, key=repr)[:4]
        more = "..." if len(self._rows) > 4 else ""
        return f"Relation(arity={self.arity}, {len(self._rows)} rows: {sample}{more})"


class Database:
    """A mapping from predicate names to :class:`Relation` objects."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None):
        self._relations: Dict[str, Relation] = {}
        if relations:
            for name, rel in relations.items():
                self._relations[name] = rel.copy()

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Sequence]]) -> "Database":
        """Build a database from ``{"pred": [(a, b), ...], ...}``.

        Arity is inferred from the first tuple of each relation; an
        empty iterable is rejected because its arity is unknown (use
        :meth:`ensure` for empty relations).
        """
        db = cls()
        for name, rows in data.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                raise ValidationError(
                    f"cannot infer arity of empty relation {name!r}; use ensure()"
                )
            rel = Relation(len(rows[0]))
            rel.update(rows)
            db._relations[name] = rel
        return db

    @classmethod
    def from_facts(cls, facts: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        db = cls()
        for fact in facts:
            db.add_fact(fact)
        return db

    def ensure(self, predicate: str, arity: int) -> Relation:
        """Return the relation for *predicate*, creating it empty if absent."""
        rel = self._relations.get(predicate)
        if rel is None:
            rel = Relation(arity)
            self._relations[predicate] = rel
        elif rel.arity != arity:
            raise ArityError(
                f"relation {predicate} has arity {rel.arity}, requested {arity}"
            )
        return rel

    def add_fact(self, fact: Atom) -> bool:
        """Insert a ground atom; returns True iff new."""
        rel = self.ensure(fact.predicate, fact.arity)
        return rel.add(fact.as_fact())

    def add(self, predicate: str, *values) -> bool:
        """Insert a row given as positional values."""
        rel = self.ensure(predicate, len(values))
        return rel.add(tuple(values))

    # -- access --------------------------------------------------------------

    def relation(self, predicate: str) -> Optional[Relation]:
        return self._relations.get(predicate)

    def rows(self, predicate: str) -> frozenset[Row]:
        """All rows of *predicate* (empty frozenset if absent)."""
        rel = self._relations.get(predicate)
        return rel.rows() if rel is not None else frozenset()

    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def facts(self) -> Iterator[tuple[str, Row]]:
        """Iterate over all ``(predicate, row)`` pairs."""
        for name, rel in self._relations.items():
            for row in rel:
                yield name, row

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def relation_sizes(self) -> Dict[str, int]:
        """Current row count per predicate (the planner's selectivity
        input)."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def index_builds(self) -> int:
        """Total lazy index builds across all relations."""
        return sum(rel.index_builds for rel in self._relations.values())

    def active_domain(self) -> frozenset:
        """All constant values occurring anywhere in the database."""
        return frozenset(v for _, row in self.facts() for v in row)

    def copy(self, mutating: Optional[Iterable[str]] = None) -> "Database":
        """An independent copy (indexes carried, see :meth:`Relation.copy`).

        With *mutating* given, only the named relations are copied;
        every other relation object is **shared by reference**.  This
        is the evaluation-engine fast path: the fixpoint loop inserts
        only into rule-head relations, so base relations can be shared
        — and any hash index built lazily on a shared relation during
        one evaluation stays materialized for the next one over the
        same database.  Callers who may mutate arbitrary relations must
        use the default full copy.
        """
        if mutating is None:
            return Database(self._relations)
        mutable = set(mutating)
        out = Database()
        for name, rel in self._relations.items():
            out._relations[name] = rel.copy() if name in mutable else rel
        return out

    def privatize(self, predicate: str) -> Optional[Relation]:
        """Replace *predicate*'s relation with an independent copy and
        return it (None if absent).

        The copy-on-write counterpart of ``copy(mutating=...)``: a
        database holding relations *shared by reference* with another
        database (the evaluation fast path) must privatize a relation
        before mutating it in place — in particular before
        :meth:`Relation.discard` — so retractions in one session can
        never reach the EDB relations other sessions still read.
        """
        rel = self._relations.get(predicate)
        if rel is None:
            return None
        rel = rel.copy()
        self._relations[predicate] = rel
        return rel

    def merged_with(self, other: "Database") -> "Database":
        """A new database containing the facts of both operands."""
        out = self.copy()
        for name, row in other.facts():
            out.ensure(name, len(row)).add(row)
        return out

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A new database containing only the named relations."""
        keep = set(predicates)
        return Database({n: r for n, r in self._relations.items() if n in keep})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {n: r for n, r in self._relations.items() if len(r)}
        theirs = {n: r for n, r in other._relations.items() if len(r)}
        return mine == theirs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{n}:{len(r)}" for n, r in sorted(self._relations.items()))
        return f"Database({parts})"
