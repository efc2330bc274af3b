"""Crash recovery for durable sessions: snapshot + WAL-suffix replay.

:func:`recover` rebuilds an :class:`~repro.engine.incremental.IncrementalSession`
from the files a durable session (or its crash) left behind, following
this decision table:

===============================================  ================================
situation                                        outcome
===============================================  ================================
WAL missing / bad magic / corrupt header         ``RecoveryError`` (refuse)
mid-log checksum mismatch                        ``RecoveryError`` (refuse)
batch sequence gap                               ``RecoveryError`` (refuse)
program text drift                               ``RecoveryError`` (refuse)
torn **final** WAL record                        dropped; replay to the last
                                                 complete record
newest snapshot corrupt / truncated /            skipped; next-newest anchors
its relations disagree with the program          (longer replay)
no loadable snapshot covers the log              ``RecoveryError`` (refuse)
anchor snapshot dirty (governed partial)         from-scratch rung
options request provenance recording             from-scratch rung (snapshots
                                                 do not persist justifications)
otherwise                                        snapshot + seeded IVM replay
===============================================  ================================

Engine flags (strategy, executor tiers, planner, scheduler) are not
part of the durable state and not a row of the table: the maintained
state is the program's least fixpoint over the base facts, whichever
strategy computed it, so files written under one set of flags replay
under any other.  Only the program text is checked.

The **replay rung** loads the newest valid snapshot (intern-free — ids
decode through the snapshot's embedded table) and folds the WAL records
after the snapshot's sequence number into one net delta against the
anchor's base facts: per ``(pred, row)`` the last record that touches
it decides, so a row inserted and retracted again cancels out.  That
delta is applied as **one** batch through the path
:meth:`insert`/:meth:`retract` share (retract, then insert) — the
seeded-unit IVM machinery whose batch-by-batch equality with
from-scratch evaluation the differential oracle proves.  Because the
maintained state is the fixpoint of the current base facts, not of the
path that reached them, one batch over the final base is exactly what
replaying every record would leave, which is what makes log replay
verifiable to the bit.  Replay runs with resource limits and fault
plans stripped (a governed trip or a re-armed fault during recovery
would make the recovered state partial); the user's options are
restored on the returned session afterwards.

The **from-scratch rung** (``RecoveryReport.source == "scratch"``,
which ``serve`` prints as ``recovered source=scratch``): when seeded
replay cannot be trusted — a dirty anchor or a provenance request — the base facts are reconstructed (snapshot base
relations + given-IDB rows, then the same net delta of the WAL suffix)
and the program is re-evaluated in full.  Slower, never wrong.  A fresh
baseline snapshot + WAL re-anchor durability afterwards.

Refusal is structured and loud by design: a
:class:`~repro.datalog.errors.RecoveryError` names the offending WAL
record (or snapshot) and a stable reason code.  Recovery never returns
a state it cannot argue equals a from-scratch evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..datalog.ast import Program
from ..datalog.database import Database, Relation
from ..datalog.errors import RecoveryError
from .durability import (
    DurabilityConfig,
    DurableLog,
    WriteAheadLog,
    list_snapshots,
    load_snapshot,
    program_signature,
    read_wal,
    signed_for,
)
from .evaluator import EngineOptions
from .incremental import IncrementalSession

__all__ = ["recover", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What :func:`recover` did, for operators and the oracle."""

    #: ``"replay"`` (snapshot + WAL suffix through the IVM path) or
    #: ``"scratch"`` (full re-evaluation from the base facts)
    source: str
    snapshot_seq: int
    snapshot_path: Optional[str]
    base_seq: int
    last_seq: int
    #: WAL records after the anchor, all folded into at most one batch
    replayed_batches: int
    torn_tail_dropped: bool
    #: ``(path, reason)`` per snapshot that could not anchor recovery
    skipped_snapshots: list = field(default_factory=list)
    recovery_ms: float = 0.0


def _strip_limits(opts: EngineOptions) -> EngineOptions:
    """Replay options: no fault plan (an armed crash point must not
    re-fire during recovery) and no resource limits (a governed trip
    would leave the recovered state partial)."""
    return replace(
        opts,
        fault_plan=None,
        deadline_s=None,
        max_facts=None,
        record_provenance=False,
    )


def _fits(program: Program, snapshot) -> bool:
    """True iff *snapshot* holds every relation *program* derives and
    stores each relation the program names at the program's arity: a
    checksummed snapshot that disagrees is as unusable as a torn one."""
    stored = {p: snapshot.db.relation(p).arity for p in snapshot.db.predicates()}
    stored.update((p, len(next(iter(r)))) for p, r in snapshot.initial.items() if r)
    arities = program.arities()
    return program.idb_predicates() <= stored.keys() and all(
        arities.get(p, arity) == arity for p, arity in stored.items()
    )


def _anchor_base(program: Program, snapshot) -> dict:
    """The base facts at the anchor, per predicate: its base (EDB)
    relations and its non-empty given-IDB row sets.

    Both are exact in every snapshot — even a dirty one, because a batch
    applies its base deltas before any propagation can trip the governor.
    """
    idb = program.idb_predicates()
    base: dict = {
        pred: snapshot.db.relation(pred)
        for pred in sorted(snapshot.db.predicates())
        if pred not in idb
    }
    base.update((pred, rows) for pred, rows in snapshot.initial.items() if rows)
    return base


def _net_suffix(records, base: dict) -> tuple[dict, dict]:
    """The WAL suffix as one net delta ``(adds, dels)`` against *base*.

    *records* are ``(kind, facts)`` pairs in log order.  The last record
    that touches a ``(pred, row)`` decides its fate — an insert puts it
    in *adds*, a retract in *dels* — and rows whose fate *base* already
    has drop out, so a row inserted and retracted again leaves no trace.
    Both maps are ``{pred: set(rows)}`` and never share a row.
    """
    last: dict = {}
    for kind, facts in records:
        inserted = kind == "insert"
        for pred, rows in facts.items():
            for row in rows:
                last[pred, row] = inserted
    adds: dict[str, set] = {}
    dels: dict[str, set] = {}
    for (pred, row), inserted in last.items():
        if inserted != (row in base.get(pred, ())):
            (adds if inserted else dels).setdefault(pred, set()).add(row)
    return adds, dels


def _rebuild_edb(base: dict, adds: dict, dels: dict) -> Database:
    """The from-scratch rung's input: the anchor's base facts with the
    suffix's net delta applied — the EDB the crashed session had
    accepted."""
    edb = Database()
    for pred, rows in base.items():
        arity = rows.arity if isinstance(rows, Relation) else len(next(iter(rows)))
        edb.ensure(pred, arity).bulk_load(rows)
    for pred, rows in dels.items():
        rel = edb.relation(pred)
        for row in rows:
            rel.discard(row)
    for pred, rows in adds.items():
        rel = edb.ensure(pred, len(next(iter(rows))))
        for row in rows:
            rel.add(row)
    return edb


def recover(
    program: Program,
    config: DurabilityConfig,
    options: Optional[EngineOptions] = None,
) -> tuple[IncrementalSession, RecoveryReport]:
    """Rebuild a durable session from its WAL and snapshots.

    Returns ``(session, report)``; the session has durability
    re-attached (appends resume at the next sequence number) and
    carries the recovering *options*.  Raises
    :class:`~repro.datalog.errors.RecoveryError` per the decision
    table in the module docstring.
    """
    t0 = time.perf_counter()
    opts = options or EngineOptions()
    data = read_wal(config.wal_path)
    version = data.header.get("signature", 1)
    if not signed_for(program, data.header.get("program"), version):
        psig = program_signature(program)
        raise RecoveryError(
            "program-drift",
            f"WAL {config.wal_path} was written for program "
            f"{data.header.get('program')!r} (signature version {version!r}), "
            f"recovering program is {psig!r}",
        )

    # newest loadable snapshot whose replay suffix the WAL still covers
    skipped: list = []
    anchor = None
    for path in list_snapshots(config):
        try:
            candidate = load_snapshot(path)
        except RecoveryError as exc:
            skipped.append((str(path), exc.reason))
            continue
        if not signed_for(program, candidate.program, candidate.signature):
            skipped.append((str(path), "program-drift"))
            continue
        if not _fits(program, candidate):
            skipped.append((str(path), "snapshot-corrupt"))
            continue
        if candidate.seq < data.base_seq:
            # compaction already folded records this old away
            skipped.append((str(path), "pre-compaction"))
            continue
        if candidate.seq > data.last_seq:
            # a snapshot "from the future" relative to the log: the WAL
            # lost records after they were snapshotted — refuse rather
            # than silently serve the shorter history
            raise RecoveryError(
                "sequence-gap",
                f"snapshot {path} is at seq {candidate.seq} but the WAL "
                f"ends at {data.last_seq}",
                record=candidate.seq,
            )
        anchor = candidate
        break
    if anchor is None:
        raise RecoveryError(
            "no-valid-snapshot",
            f"no loadable snapshot next to {config.wal_path} covers the "
            f"log (skipped: {skipped or 'none found'})",
        )

    suffix = [r for r in data.records if r["seq"] > anchor.seq]
    replay_opts = _strip_limits(opts)
    # a dirty anchor is not a fixpoint, and snapshots do not persist
    # provenance: either sends recovery to the from-scratch rung
    scratch = anchor.dirty or opts.record_provenance

    base = _anchor_base(program, anchor)
    if not scratch:
        session = IncrementalSession._restore(
            program, anchor.db, anchor.initial, replay_opts
        )
        # each record through _normalize, as insert/retract take it, so
        # a malformed record raises ArityError; then one IVM batch
        adds, dels = _net_suffix(
            [(r["kind"], session._normalize(r["facts"])) for r in suffix],
            base,
        )
        if adds or dels:
            session._update(adds, dels)
            session.stats.wal_replays += 1
        session.options = opts
        wal = WriteAheadLog.open_append(
            config.wal_path,
            config.fsync,
            data.header,
            data.last_seq + 1,
            truncate_at=data.torn_offset,
        )
        session._durable = DurableLog.attach(
            config, wal, batches_since_snapshot=len(suffix)
        )
    else:
        edb = _rebuild_edb(
            base,
            *_net_suffix([(r["kind"], r["facts"]) for r in suffix], base),
        )
        # full re-evaluation honours the provenance request (it was the
        # reason for this rung); only faults and limits stay stripped
        scratch_opts = replace(
            _strip_limits(opts), record_provenance=opts.record_provenance
        )
        session = IncrementalSession(program, edb, scratch_opts)
        session.options = opts
        # re-anchor: the old log's history no longer describes
        # this state, so durability restarts from a fresh baseline
        session._durable = DurableLog.create(config, session)

    elapsed = (time.perf_counter() - t0) * 1000.0
    session.stats.recovery_ms = elapsed
    report = RecoveryReport(
        source="scratch" if scratch else "replay",
        snapshot_seq=anchor.seq,
        snapshot_path=anchor.path,
        base_seq=data.base_seq,
        last_seq=data.last_seq,
        replayed_batches=len(suffix),
        torn_tail_dropped=data.torn_offset is not None,
        skipped_snapshots=skipped,
        recovery_ms=elapsed,
    )
    return session, report
