"""Durable session runtime: write-ahead log + columnar snapshots.

An :class:`~repro.engine.incremental.IncrementalSession` today lives and
dies with its process: a crash mid-batch loses the materialized fixpoint
and every update since load.  This module makes a session *durable*:

**Write-ahead log.**  Every accepted ``insert``/``retract`` batch is
appended to a per-session WAL *before* it is applied in memory, as a
length-prefixed, CRC32-checksummed JSON record carrying the batch
sequence number, its kind, and the batch's base facts.
The fsync policy is configurable: ``always`` (flush + ``os.fsync`` per
record — survives power loss), ``batch`` (flush per record — survives
process death, the serving default) or ``off`` (OS-buffered — fastest,
weakest).  Append happens before apply, so a record's presence means
the batch was *accepted*; replaying it through the seeded IVM path
reproduces the exact post-batch state even when the original process
died mid-apply (or the batch tripped a governor limit and left only a
partial lower bound in memory).

**Columnar snapshots.**  Periodically — every ``snapshot_every``
batches, or on a forced ``.checkpoint`` — the materialized state is
serialized column-wise: each relation's rows are dict-encoded into
int64 columns against the snapshot's own dense value table, and the
snapshot embeds exactly that id → value table (not the process-wide
interning dictionary).  Loading decodes by direct table indexing —
no per-cell re-interning against the process dictionary, and no
dependence on the current dictionary epoch (the satellite test clears
the dictionary and the prepared cache between write and load).  Writes
are atomic (temp file + fsync + rename) and verified by per-section
CRCs on load, so a torn snapshot is *detected*, never half-loaded.
Both kinds of snapshot are written whole, outside the batch's governor:
its deadline and fact budget bound the fixpoint, not the snapshot.  A
snapshot falling due while the session is partial (a governed lower
bound) waits for the next exact state.

**Snapshot-then-truncate compaction.**  After a snapshot at sequence
``S`` the WAL is rewritten to drop records already folded into the
*oldest retained* snapshot: ``keep_snapshots`` snapshots are kept (≥ 2
recommended), so a snapshot that later turns out corrupt still has an
older anchor whose replay suffix survives in the log.

**Program signature.**  Both headers carry the CRC of the program they
were written for (``program``) and the version of that signature
(``signature``): version 2 signs the typed program walk the prepared
cache keys on, so constants that print alike (``1`` and ``'1'``) sign
apart.  A header without the field was written before it existed and
is checked against version 1, the CRC of ``str(program)``, so old files
still recover.

Recovery itself — newest-valid-snapshot selection, suffix replay, and
the structured refusal rules — lives in :mod:`repro.engine.recovery`.

**Crash points.**  :class:`~repro.engine.faults.FaultPlan` can arm
``wal-crash:POINT[:SEQ]``; the injector hooks in this module perform
exactly the disk damage a real crash at that point leaves behind
(nothing, a durable-but-unapplied record, a torn final record, a
partial snapshot temp file, a truncated snapshot) and then raise
:class:`~repro.engine.faults.WalCrash`, which the session lets
propagate — the recovery oracle then rebuilds from the damaged files
and compares against from-scratch evaluation.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from ..datalog.database import Database, Relation
from ..datalog.errors import DurabilityError, RecoveryError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .incremental import IncrementalSession

__all__ = [
    "DurabilityConfig",
    "DurableLog",
    "WriteAheadLog",
    "Snapshot",
    "WalData",
    "program_signature",
    "signed_for",
    "read_wal",
    "load_snapshot",
    "list_snapshots",
    "write_snapshot",
    "WAL_MAGIC",
    "SNAPSHOT_MAGIC",
]

#: file magics, versioned by suffix digit — bump on layout change
WAL_MAGIC = b"RWAL1\n"
SNAPSHOT_MAGIC = b"RSNAP1\n"

#: every frame is ``<u32 payload length> <u32 crc32(payload)> payload``
_FRAME = struct.Struct("<II")

#: the only value types the JSON codec round-trips losslessly; exact
#: type check on purpose (a tuple would silently come back as a list)
_SCALARS = frozenset({str, int, float, bool})


#: the version of :func:`program_signature` new headers are written with
SIGNATURE_VERSION = 2


def _signed_text(program, version: int) -> str:
    if version == 1:
        return str(program)
    from .prepared import program_key

    return repr(program_key(program, None)[0])


def program_signature(program, version: int = SIGNATURE_VERSION) -> str:
    """CRC of *program* under signature *version*.  A WAL replayed
    against a different program would be silently wrong; the signature
    makes it a structured refusal instead.  Version 2 signs the typed
    program (:func:`~repro.engine.prepared.program_key`'s program part);
    version 1, the text ``str(program)``, which does not tell apart
    constants that print alike (``1`` and ``'1'``), is kept to check
    files written before headers carried a version."""
    text = _signed_text(program, version).encode("utf-8")
    return f"{zlib.crc32(text) & 0xFFFFFFFF:08x}:{len(text)}"


def signed_for(program, signature, version) -> bool:
    """Was a file whose header holds *signature* under *version*
    written for *program*?  An unknown version never matches."""
    if type(version) is not int or version not in (1, SIGNATURE_VERSION):
        return False
    return signature == program_signature(program, version)


@dataclass(frozen=True)
class DurabilityConfig:
    """Opt-in durability settings for one session.

    wal_path
        The write-ahead log file; snapshots live next to it as
        ``<wal_path>.snap-<seq>``.
    fsync
        ``"always"`` / ``"batch"`` / ``"off"`` (see module docstring).
    snapshot_every
        Automatic snapshot every N accepted batches (0 = only forced
        ``.checkpoint`` snapshots).
    keep_snapshots
        Snapshots retained after compaction.  The WAL is only truncated
        up to the *oldest retained* snapshot, so with the default 2 a
        corrupt newest snapshot degrades to the previous one plus a
        longer replay instead of an unrecoverable gap.
    """

    wal_path: str
    fsync: str = "batch"
    snapshot_every: int = 64
    keep_snapshots: int = 2

    def __post_init__(self):
        if self.fsync not in ("always", "batch", "off"):
            raise DurabilityError(
                f"fsync must be 'always', 'batch' or 'off', got {self.fsync!r}"
            )
        if self.snapshot_every < 0:
            raise DurabilityError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise DurabilityError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )

    def snapshot_path(self, seq: int) -> Path:
        return Path(f"{self.wal_path}.snap-{seq:010d}")

    def snapshot_glob(self) -> list[Path]:
        base = Path(self.wal_path)
        return sorted(base.parent.glob(base.name + ".snap-*"))


# ---------------------------------------------------------------------------
# framing


def _encode_rows(rows: Iterable[tuple]) -> list[list]:
    out = []
    for row in rows:
        for v in row:
            if type(v) not in _SCALARS:
                raise DurabilityError(
                    f"value {v!r} of type {type(v).__name__} cannot be "
                    f"logged durably; WAL/snapshot values must be "
                    f"str/int/float/bool"
                )
        out.append(list(row))
    out.sort(key=repr)
    return out


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _read_frame(buf: bytes, offset: int):
    """Parse one frame at *offset*.  Returns ``(payload, next_offset)``
    or ``(None, offset)`` when the remaining bytes are a *torn* frame
    (shorter than their declared length — the shape an interrupted
    append leaves).  A complete frame with a bad CRC is *corruption*,
    reported as ``(False, offset)`` — the caller decides whether its
    position (final vs mid-file) makes it a tear or a refusal."""
    end = len(buf)
    if offset + _FRAME.size > end:
        return None, offset
    length, crc = _FRAME.unpack_from(buf, offset)
    start = offset + _FRAME.size
    if start + length > end:
        return None, offset
    payload = buf[start:start + length]
    if zlib.crc32(payload) != crc:
        return False, offset
    return payload, start + length


# ---------------------------------------------------------------------------
# the write-ahead log


class WriteAheadLog:
    """Append side of one session's WAL (see the module docstring for
    the on-disk layout)."""

    def __init__(self, path: str, fsync: str, header: dict, next_seq: int):
        self.path = str(path)
        self.fsync = fsync
        self.header = header
        self.next_seq = next_seq
        self._file = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, fsync: str, program: str, base_seq: int
    ) -> "WriteAheadLog":
        """Write a fresh (empty) log whose records will start at
        ``base_seq + 1``; *program* is a current-version signature."""
        header = {
            "version": 1,
            "program": program,
            "signature": SIGNATURE_VERSION,
            "base_seq": base_seq,
            "created": time.time(),
        }
        wal = cls(path, fsync, header, base_seq + 1)
        f = open(path, "wb")
        f.write(WAL_MAGIC)
        f.write(_frame(json.dumps(header, sort_keys=True).encode("utf-8")))
        f.flush()
        if fsync != "off":
            os.fsync(f.fileno())
        wal._file = f
        return wal

    @classmethod
    def open_append(
        cls,
        path: str,
        fsync: str,
        header: dict,
        next_seq: int,
        truncate_at: Optional[int] = None,
    ) -> "WriteAheadLog":
        """Reopen an existing, already-validated log for appending;
        *truncate_at* drops a torn tail first (recovery's repair)."""
        wal = cls(path, fsync, header, next_seq)
        f = open(path, "r+b")
        if truncate_at is not None:
            f.truncate(truncate_at)
        f.seek(0, os.SEEK_END)
        wal._file = f
        return wal

    def flush(self) -> None:
        """Hand buffered records to the OS (``fsync="off"`` buffers
        them), so a reader of the file sees every appended record."""
        self._file.flush()

    def close(self) -> None:
        f = self._file
        if f is not None and not f.closed:
            f.flush()
            f.close()

    # -- appending -----------------------------------------------------------

    def append(
        self,
        kind: str,
        facts: Mapping[str, Iterable[tuple]],
        injector=None,
    ) -> int:
        """Append one accepted batch; returns its sequence number.

        The payload is fully serialized (and every value vetted for
        round-trippability) *before* the first byte is written, so a
        :class:`~repro.datalog.errors.DurabilityError` never leaves a
        partial record behind."""
        from .faults import WalCrash

        seq = self.next_seq
        record = {
            "seq": seq,
            "kind": kind,
            "facts": {p: _encode_rows(facts[p]) for p in sorted(facts)},
        }
        payload = json.dumps(
            record, sort_keys=True, allow_nan=False
        ).encode("utf-8")
        framed = _frame(payload)
        f = self._file
        if injector is not None and injector.wal_crash_fires("before-append", seq):
            raise WalCrash(f"injected crash before WAL append of seq {seq}")
        if injector is not None and injector.wal_crash_fires("torn-record", seq):
            # a real torn append: the frame header promises more bytes
            # than ever reached the disk
            f.write(framed[: _FRAME.size + max(1, len(payload) // 2)])
            f.flush()
            raise WalCrash(f"injected torn WAL record at seq {seq}")
        f.write(framed)
        if self.fsync == "always":
            f.flush()
            os.fsync(f.fileno())
        elif self.fsync == "batch":
            f.flush()
        self.next_seq = seq + 1
        if injector is not None and injector.wal_crash_fires("after-append", seq):
            f.flush()
            raise WalCrash(f"injected crash after WAL append of seq {seq}")
        return seq

    def compact(self, base_seq: int, keep_records: list[dict]) -> None:
        """Atomically rewrite the log with a fresh header at *base_seq*
        keeping only *keep_records* (snapshot-then-truncate)."""
        header = dict(self.header)
        header["base_seq"] = base_seq
        header["created"] = time.time()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(WAL_MAGIC)
            f.write(_frame(json.dumps(header, sort_keys=True).encode("utf-8")))
            for record in keep_records:
                f.write(
                    _frame(
                        json.dumps(
                            record, sort_keys=True, allow_nan=False
                        ).encode("utf-8")
                    )
                )
            f.flush()
            os.fsync(f.fileno())
        self.close()
        os.replace(tmp, self.path)
        self.header = header
        f = open(self.path, "r+b")
        f.seek(0, os.SEEK_END)
        self._file = f


@dataclass
class WalData:
    """The validated contents of one WAL file (see :func:`read_wal`)."""

    header: dict
    records: list[dict]
    #: byte offset where a torn final record starts (None = clean tail);
    #: recovery truncates here before appending resumes
    torn_offset: Optional[int]

    @property
    def base_seq(self) -> int:
        return self.header["base_seq"]

    @property
    def last_seq(self) -> int:
        return self.records[-1]["seq"] if self.records else self.base_seq


def _well_formed(record) -> bool:
    """True iff *record* has the shape :meth:`WriteAheadLog.append`
    writes: an insert/retract kind, and facts mapping each predicate to
    a list of rows, each a list of scalars."""
    facts = record.get("facts") if isinstance(record, dict) else None
    if not isinstance(facts, dict) or record.get("kind") not in ("insert", "retract"):
        return False
    for rows in facts.values():
        if not isinstance(rows, list):
            return False
        for row in rows:
            if not isinstance(row, list) or not _SCALARS.issuperset(map(type, row)):
                return False
    return True


def read_wal(path: str) -> WalData:
    """Parse and validate a WAL file.

    Tolerates exactly one kind of damage — an incomplete or
    CRC-mismatched **final** record (the artifact an interrupted append
    leaves) — reporting it as a torn tail.  Everything else is a
    structured :class:`~repro.datalog.errors.RecoveryError`: a bad
    magic/header, a mid-file checksum mismatch or malformed record, or a
    sequence gap.  Keys a record or header carries beyond the ones read
    here (an older writer's ``flags``) are ignored.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise RecoveryError("missing-wal", f"cannot read WAL {path}: {exc}") from exc
    if not buf.startswith(WAL_MAGIC):
        raise RecoveryError("bad-header", f"{path} is not a WAL file (bad magic)")
    offset = len(WAL_MAGIC)
    payload, offset = _read_frame(buf, offset)
    if payload in (None, False):
        raise RecoveryError(
            "bad-header", f"{path}: WAL header frame is torn or corrupt"
        )
    try:
        header = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise RecoveryError(
            "bad-header", f"{path}: WAL header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict) or type(header.get("base_seq")) is not int:
        raise RecoveryError(
            "bad-header", f"{path}: WAL header has no integer base_seq"
        )

    records: list[dict] = []
    expected = header["base_seq"] + 1
    torn_offset: Optional[int] = None
    while offset < len(buf):
        payload, next_offset = _read_frame(buf, offset)
        if payload is None:
            # bytes run out mid-frame: a torn append — only tolerable
            # at the very end, which this is by construction
            torn_offset = offset
            break
        if payload is False:
            # complete frame, bad checksum.  At the tail this is the
            # other face of a torn append (the length landed, part of
            # the payload did not); anywhere else it is corruption.
            length, _ = _FRAME.unpack_from(buf, offset)
            if offset + _FRAME.size + length >= len(buf):
                torn_offset = offset
                break
            raise RecoveryError(
                "checksum-mismatch",
                f"{path}: WAL record after seq {expected - 1} fails its "
                f"checksum mid-log",
                record=expected,
            )
        try:
            record = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            raise RecoveryError(
                "checksum-mismatch",
                f"{path}: WAL record {expected} is not valid JSON: {exc}",
                record=expected,
            ) from exc
        if not _well_formed(record):
            raise RecoveryError(
                "checksum-mismatch",
                f"{path}: WAL record {expected} is not a batch record",
                record=expected,
            )
        seq = record.get("seq")
        if seq != expected:
            raise RecoveryError(
                "sequence-gap",
                f"{path}: expected WAL seq {expected}, found {seq}",
                record=seq,
            )
        record["facts"] = {
            p: [tuple(r) for r in rows] for p, rows in record["facts"].items()
        }
        records.append(record)
        expected += 1
        offset = next_offset
    return WalData(header, records, torn_offset)


# ---------------------------------------------------------------------------
# columnar snapshots


@dataclass
class Snapshot:
    """A decoded snapshot: the materialized database plus the session
    bookkeeping needed to resume maintenance (see :func:`load_snapshot`)."""

    seq: int
    program: str
    #: the version *program* was signed under (1 when the header
    #: predates the field)
    signature: int
    #: True iff the state was a governed partial lower bound when
    #: written; seeded replay from a dirty anchor is unsound, so
    #: recovery takes the from-scratch rung instead
    dirty: bool
    db: Database
    #: given (retractable) rows of derived predicates — the session's
    #: ``_initial`` map
    initial: dict[str, set]
    path: str


def _snapshot_entries(db: Database, initial: Mapping[str, set]):
    """Yield ``(name, kind, arity, rows)`` for everything a snapshot
    persists: every relation, then the initial-IDB row sets."""
    for pred in sorted(db.predicates()):
        rel = db.relation(pred)
        yield pred, "relation", rel.arity, rel
    for pred in sorted(initial):
        rows = initial[pred]
        if not rows:
            continue
        arity = len(next(iter(rows)))
        yield pred, "initial", arity, rows


def write_snapshot(
    config: DurabilityConfig,
    seq: int,
    db: Database,
    initial: Mapping[str, set],
    program: str,
    dirty: bool,
    *,
    signature: int = SIGNATURE_VERSION,
    injector=None,
) -> Path:
    """Serialize the session state into ``<wal>.snap-<seq>``,
    atomically (temp + fsync + rename); *program* is the program's
    signature under version *signature*.

    Every section is dictionary-encoded against the snapshot's *own*
    dense value table — ids in first-seen order while the sections are
    encoded — and only that table is embedded as ``dict``, so a
    snapshot holds (and type-checks) exactly the values its rows use,
    whatever else the process has interned.  The snapshot is written
    whole: the governor bounds a batch's fixpoint, not its snapshot.
    """
    from array import array

    from .faults import WalCrash

    codes: dict = {}
    encode = codes.setdefault
    entries = []
    stores = []
    for name, kind, arity, rows in _snapshot_entries(db, initial):
        held = len(rows)  # before iterating: counts deferred chunks unseen
        enc = [tuple(encode(v, len(codes)) for v in row) for row in rows]
        if len(enc) != held:  # pragma: no cover
            raise DurabilityError(
                f"encoded image of {name!r} has {len(enc)} rows but the "
                f"{kind} holds {held}"
            )
        entries.append(
            {"name": name, "kind": kind, "arity": arity, "rows": len(enc)}
        )
        stores.append([array("q", (r[p] for r in enc)) for p in range(arity)])

    values = list(codes)  # insertion order is id order
    for v in values:
        if type(v) not in _SCALARS:
            raise DurabilityError(
                f"value {v!r} of type {type(v).__name__} cannot "
                f"be snapshotted; values must be str/int/float/bool"
            )
    header = {
        "version": 1,
        "seq": seq,
        "program": program,
        "signature": signature,
        "dirty": dirty,
        "byteorder": __import__("sys").byteorder,
        "dict": values,
        "entries": entries,
    }

    path = config.snapshot_path(seq)
    tmp = Path(str(path) + ".tmp")
    f = open(tmp, "wb")
    try:
        f.write(SNAPSHOT_MAGIC)
        f.write(_frame(json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")))
        for i, columns in enumerate(stores):
            blob = b"".join(col.tobytes() for col in columns)
            f.write(_frame(blob))
            if (
                injector is not None
                and i == 0
                and injector.wal_crash_fires("mid-snapshot", seq)
            ):
                f.flush()
                raise WalCrash(
                    f"injected crash mid-snapshot at seq {seq} "
                    f"(partial temp file left behind)"
                )
        f.flush()
        os.fsync(f.fileno())
    except BaseException:
        f.close()
        raise
    f.close()
    os.replace(tmp, path)
    if injector is not None and injector.wal_crash_fires("truncated-snapshot", seq):
        with open(path, "r+b") as g:
            size = os.fstat(g.fileno()).st_size
            g.truncate(max(len(SNAPSHOT_MAGIC), size - max(16, size // 4)))
        raise WalCrash(
            f"injected truncated snapshot at seq {seq} "
            f"(tail cut after rename)"
        )
    return path


def list_snapshots(config: DurabilityConfig) -> list[Path]:
    """Snapshot files next to the WAL, newest (highest seq) first;
    leftover ``.tmp`` files from interrupted writes are ignored."""
    out = [p for p in config.snapshot_glob() if not p.name.endswith(".tmp")]
    out.sort(key=lambda p: p.name, reverse=True)
    return out


def _snapshot_damage(path, message: str) -> RecoveryError:
    return RecoveryError("snapshot-corrupt", message, record=str(path))


#: the type :func:`write_snapshot` gives each field of a header entry
_ENTRY_FIELDS = {"name": str, "kind": str, "arity": int, "rows": int}


def _snapshot_header(path, payload: bytes) -> dict:
    """Decode a snapshot header whose frame checksum passed, refusing
    (``snapshot-corrupt``) any shape :func:`write_snapshot` never
    writes."""
    try:
        header = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise _snapshot_damage(path, f"{path}: header is not JSON: {exc}") from exc
    if not (
        isinstance(header, dict)
        and type(header.get("seq")) is int
        and isinstance(header.get("dict", []), list)
        and _SCALARS.issuperset(map(type, header.get("dict", [])))
        and isinstance(header.get("entries", []), list)
        and all(
            isinstance(entry, dict)
            and all(type(entry.get(k)) is t for k, t in _ENTRY_FIELDS.items())
            and entry["kind"] in ("relation", "initial")
            and min(entry["arity"], entry["rows"]) >= 0
            for entry in header.get("entries", [])
        )
    ):
        raise _snapshot_damage(path, f"{path}: header is not a snapshot header")
    return header


def load_snapshot(path) -> Snapshot:
    """Decode one snapshot file; raises a structured
    :class:`~repro.datalog.errors.RecoveryError` (``snapshot-corrupt``)
    on any damage — a truncated file, a failed CRC, a malformed header,
    a row-count mismatch or an id outside the embedded value table — so
    a bad snapshot is skipped, never half-trusted.

    Decoding is intern-free: column ids index the embedded value table
    directly, and rows enter each relation through
    :meth:`~repro.datalog.database.Relation.bulk_load` (the columnar
    image rebuilds lazily the first time the vector kernel needs it).
    """
    import sys as _sys
    from array import array

    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise _snapshot_damage(path, f"cannot read snapshot: {exc}") from exc
    if not buf.startswith(SNAPSHOT_MAGIC):
        raise _snapshot_damage(path, f"{path} is not a snapshot (bad magic)")
    offset = len(SNAPSHOT_MAGIC)
    payload, offset = _read_frame(buf, offset)
    if payload in (None, False):
        raise _snapshot_damage(path, f"{path}: snapshot header torn or corrupt")
    header = _snapshot_header(path, payload)
    values = header.get("dict", [])
    swap = header.get("byteorder") != _sys.byteorder

    db = Database()
    initial: dict[str, set] = {}
    for entry in header.get("entries", ()):
        payload, offset = _read_frame(buf, offset)
        if payload in (None, False):
            raise _snapshot_damage(
                path,
                f"{path}: data section for {entry.get('name')!r} is torn "
                f"or fails its checksum",
            )
        name, kind = entry["name"], entry["kind"]
        arity, nrows = entry["arity"], entry["rows"]
        if len(payload) != arity * nrows * 8:
            raise _snapshot_damage(
                path,
                f"{path}: section for {name!r} holds {len(payload)} bytes, "
                f"expected {arity * nrows * 8}",
            )
        if arity == 0:
            rows = [()] * nrows
        else:
            # read unsigned: a negative id becomes one past any list
            # index, so it fails like an id beyond the table instead of
            # reading the table from its end
            ids = array("Q")
            ids.frombytes(payload)
            if swap:
                ids.byteswap()
            try:
                cols = [
                    list(map(values.__getitem__, ids[p * nrows:(p + 1) * nrows]))
                    for p in range(arity)
                ]
            except IndexError as exc:
                raise _snapshot_damage(
                    path,
                    f"{path}: section for {name!r} references an id outside "
                    f"the embedded dictionary",
                ) from exc
            rows = list(zip(*cols)) if arity > 1 else [(v,) for v in cols[0]]
        if kind == "relation":
            try:
                db.ensure(name, arity).bulk_load(rows)
            except ValidationError as exc:
                raise _snapshot_damage(
                    path, f"{path}: section for {name!r}: {exc}"
                ) from exc
        else:
            initial[name] = set(rows)
    return Snapshot(
        seq=header["seq"],
        program=header.get("program", ""),
        signature=header.get("signature", 1),
        dirty=bool(header.get("dirty", False)),
        db=db,
        initial=initial,
        path=str(path),
    )


# ---------------------------------------------------------------------------
# the session-facing coordinator


class DurableLog:
    """One session's durability runtime: WAL appends, the snapshot
    policy, and snapshot-then-truncate compaction."""

    def __init__(self, config: DurabilityConfig, wal: WriteAheadLog):
        self.config = config
        self.wal = wal
        self._batches_since_snapshot = 0
        #: a policy snapshot that had to be skipped (partial state);
        #: retried after the next clean batch
        self._pending_snapshot = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls, config: DurabilityConfig, session: "IncrementalSession"
    ) -> "DurableLog":
        """Start durability for a freshly materialized session: write
        the baseline snapshot (seq 0) and a fresh WAL, so recovery is
        self-contained from the first batch on."""
        program = program_signature(session.program)
        for stale in config.snapshot_glob():
            stale.unlink(missing_ok=True)
        Path(config.wal_path).parent.mkdir(parents=True, exist_ok=True)
        write_snapshot(
            config, 0, session.db, session._initial, program, session.is_partial
        )
        wal = WriteAheadLog.create(config.wal_path, config.fsync, program, 0)
        log = cls(config, wal)
        session.stats.snapshots_written += 1
        return log

    @classmethod
    def attach(
        cls,
        config: DurabilityConfig,
        wal: WriteAheadLog,
        batches_since_snapshot: int = 0,
    ) -> "DurableLog":
        """Resume durability on recovered state (recovery already
        validated and, if needed, repaired the log)."""
        log = cls(config, wal)
        log._batches_since_snapshot = batches_since_snapshot
        return log

    def close(self) -> None:
        self.wal.close()

    # -- the per-batch hooks -------------------------------------------------

    def append_batch(self, kind: str, facts, stats, injector=None) -> int:
        seq = self.wal.append(kind, facts, injector=injector)
        stats.wal_appends += 1
        self._batches_since_snapshot += 1
        return seq

    def _snapshot_due(self) -> bool:
        if self._pending_snapshot:
            return True
        every = self.config.snapshot_every
        return bool(every) and self._batches_since_snapshot >= every

    def maybe_snapshot(
        self, session: "IncrementalSession", stats, injector=None
    ) -> bool:
        """Apply the snapshot policy after an applied batch.

        A partial (governed lower-bound) state is never snapshotted —
        seeded replay from a non-fixpoint anchor would be unsound — so
        the snapshot waits for the next exact state; the batch, already
        applied and logged, does not fail.  A due snapshot of an exact
        state is written whole, outside the batch's governor.
        """
        if not self._snapshot_due():
            return False
        if session.is_partial:
            self._pending_snapshot = True
            return False
        self.checkpoint(session, stats, injector=injector)
        return True

    def checkpoint(
        self, session: "IncrementalSession", stats, *, injector=None
    ) -> int:
        """Write a snapshot of the current state at the last appended
        sequence number, then compact the WAL up to the oldest retained
        snapshot.  Returns the snapshot's sequence number."""
        seq = self.wal.next_seq - 1
        write_snapshot(
            self.config, seq, session.db, session._initial,
            self.wal.header["program"], session.is_partial,
            signature=self.wal.header.get("signature", 1),
            injector=injector,
        )
        stats.snapshots_written += 1
        self._batches_since_snapshot = 0
        self._pending_snapshot = False
        self._compact(seq)
        return seq

    def _compact(self, newest_seq: int) -> None:
        """Snapshot-then-truncate: retain ``keep_snapshots`` snapshot
        files, then drop WAL records already folded into the *oldest*
        retained one (so a corrupt newest snapshot still has a replay
        anchor)."""
        snapshots = list_snapshots(self.config)
        keep = snapshots[: self.config.keep_snapshots]
        for stale in snapshots[self.config.keep_snapshots:]:
            stale.unlink(missing_ok=True)
        if not keep:  # pragma: no cover - checkpoint just wrote one
            return
        oldest_kept = int(keep[-1].name.rsplit("-", 1)[1])
        # under fsync="off" the newest records may still be buffered;
        # reading the file without them would compact them away
        self.wal.flush()
        data = read_wal(self.wal.path)
        if oldest_kept <= data.base_seq:
            return
        remaining = [r for r in data.records if r["seq"] > oldest_kept]
        self.wal.compact(oldest_kept, remaining)
