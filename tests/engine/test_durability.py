"""Unit tests for the durable session runtime: WAL, snapshots, recovery.

The recovery *oracle* (``tests/oracle/test_recovery.py``) proves
end-to-end bit-identity across crash points; this suite pins the
mechanism — frame layout, fsync policies, torn-tail tolerance vs
mid-file refusal, compaction retention, the recovery rungs, and the
interaction between snapshots and the interning dictionary's epochs.
"""

import json
import os
import struct
import sys
import zlib

import pytest

from repro.datalog import (
    Database,
    DurabilityError,
    RecoveryError,
    parse,
)
from repro.datalog.columnar import global_dictionary
from repro.engine import (
    DurabilityConfig,
    EngineOptions,
    FaultPlan,
    IncrementalSession,
    WalCrash,
    WriteAheadLog,
    clear_prepared_cache,
    evaluate,
    list_snapshots,
    load_snapshot,
    parse_fault_specs,
    read_wal,
    recover,
)
from repro.engine.durability import (
    _FRAME,
    SNAPSHOT_MAGIC,
    WAL_MAGIC,
    _frame,
    _read_frame,
    program_signature,
)
from repro.engine.statistics import EvalStats

TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(1, Y).
"""


@pytest.fixture
def program():
    return parse(TC)


@pytest.fixture
def edb():
    return Database.from_dict({"edge": [(1, 2), (2, 3)]})


def _config(tmp_path, **kw):
    kw.setdefault("snapshot_every", 2)
    return DurabilityConfig(wal_path=str(tmp_path / "s.wal"), **kw)


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", fsync="sometimes")
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", snapshot_every=-1)
        with pytest.raises(DurabilityError):
            DurabilityConfig(wal_path="x", keep_snapshots=0)

    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_fsync_policies_all_append(self, tmp_path, fsync):
        wal = WriteAheadLog.create(str(tmp_path / "w"), fsync, "p", 0)
        wal.append("insert", {"edge": [(1, 2)]})
        wal.append("retract", {"edge": [(1, 2)]})
        wal.close()
        data = read_wal(str(tmp_path / "w"))
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.records[0]["facts"] == {"edge": [(1, 2)]}
        assert data.records[1]["kind"] == "retract"
        assert data.torn_offset is None


class TestWalValidation:
    def _write(self, tmp_path, n=3):
        path = str(tmp_path / "w")
        wal = WriteAheadLog.create(path, "batch", "prog", 0)
        for i in range(n):
            wal.append("insert", {"edge": [(i, i + 1)]})
        wal.close()
        return path

    def test_torn_final_record_tolerated(self, tmp_path):
        path = self._write(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 7)
        data = read_wal(path)
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.torn_offset is not None

    def test_corrupt_final_payload_is_a_tear(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "r+b") as f:
            f.seek(-3, os.SEEK_END)
            f.write(b"\xff")
        data = read_wal(path)
        assert [r["seq"] for r in data.records] == [1, 2]
        assert data.torn_offset is not None

    def test_midfile_corruption_refused(self, tmp_path):
        path = self._write(tmp_path)
        data = read_wal(path)
        # flip one byte inside the FIRST record's payload
        with open(path, "rb") as f:
            buf = f.read()
        first = buf.index(b'"seq": 1')
        buf = buf[:first] + b'"seq": 9' + buf[first + 8:]
        with open(path, "wb") as f:
            f.write(buf)
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason in ("checksum-mismatch", "sequence-gap")
        assert data.records  # pre-corruption read was fine

    def test_sequence_gap_refused(self, tmp_path):
        path = self._write(tmp_path, n=1)
        skipping = json.dumps(
            {"seq": 5, "kind": "insert", "facts": {}},
            sort_keys=True,
        ).encode()
        with open(path, "ab") as f:
            f.write(_FRAME.pack(len(skipping), zlib.crc32(skipping)) + skipping)
            # one more valid-looking record after it, so the gap is
            # mid-file, not a tolerable tail
            f.write(_FRAME.pack(len(skipping), zlib.crc32(skipping)) + skipping)
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason == "sequence-gap"
        assert exc.value.record == 5

    def test_record_engine_flags_are_ignored(self, tmp_path):
        """Records of an older writer carry an engine-flag ``flags``
        key, which may differ from record to record; the state does not
        depend on engine flags, so the reader ignores the key."""
        path = self._write(tmp_path, n=1)
        with open(path, "ab") as f:
            for seq, flags in ((2, "OTHER"), (3, "use_scc=False")):
                record = json.dumps(
                    {"seq": seq, "kind": "insert", "flags": flags,
                     "facts": {"edge": [[seq, seq + 1]]}},
                    sort_keys=True,
                ).encode()
                f.write(_frame(record))
        data = read_wal(path)
        assert [r["seq"] for r in data.records] == [1, 2, 3]
        assert data.records[2]["facts"] == {"edge": [(3, 4)]}

    @pytest.mark.parametrize(
        "header, record, reason",
        [
            ({"base_seq": "0"}, None, "bad-header"),
            (None, [1, 2], "checksum-mismatch"),
            (None, {"seq": 2, "kind": "insert", "facts": {"edge": [1]}},
             "checksum-mismatch"),
            (None, {"seq": 2, "kind": "insert", "facts": {"edge": 5}},
             "checksum-mismatch"),
            (None, {"seq": 2, "kind": "insert", "facts": {"edge": [[1, [2]]]}},
             "checksum-mismatch"),
            (None, {"seq": 2, "facts": {}}, "checksum-mismatch"),
        ],
        ids=["base-seq-not-int", "record-not-object", "row-not-list",
             "rows-not-list", "value-not-scalar", "no-kind"],
    )
    def test_malformed_json_shapes_refused(self, tmp_path, header, record, reason):
        """Frames whose checksum passes but whose JSON has a shape the
        writer never produces are refused with a typed reason."""
        path = self._write(tmp_path, n=1)
        if header is not None:
            with open(path, "wb") as f:
                f.write(WAL_MAGIC + _frame(json.dumps(header).encode()))
        else:
            with open(path, "ab") as f:
                f.write(_frame(json.dumps(record).encode()))
        with pytest.raises(RecoveryError) as exc:
            read_wal(path)
        assert exc.value.reason == reason
        if record is not None:
            assert exc.value.record == 2

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "not-a-wal"
        path.write_bytes(b"hello world, definitely not a WAL file")
        with pytest.raises(RecoveryError) as exc:
            read_wal(str(path))
        assert exc.value.reason == "bad-header"

    def test_missing_wal_refused(self, tmp_path):
        with pytest.raises(RecoveryError) as exc:
            read_wal(str(tmp_path / "nope"))
        assert exc.value.reason == "missing-wal"


class TestDurableSession:
    def test_counters_and_files(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=2)
        s = IncrementalSession(program, edb, durable=cfg)
        assert s.durable
        assert s.stats.snapshots_written == 1  # the baseline
        s.insert({"edge": [(3, 4)]})
        s.retract({"edge": [(2, 3)]})
        assert s.stats.wal_appends == 2
        assert s.stats.snapshots_written == 2  # policy fired at seq 2
        s.close()
        assert not s.durable
        data = read_wal(cfg.wal_path)
        assert data.header["program"] == program_signature(program)
        # the files are valid for the program under any engine flags
        assert "flags" not in data.header
        assert all("flags" not in r for r in data.records)
        snapshot = list_snapshots(cfg)[0].read_bytes()
        header, _ = _read_frame(snapshot, len(SNAPSHOT_MAGIC))
        assert "flags" not in json.loads(header)

    def test_unloggable_value_rejected_atomically(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        before_rows = s.facts("edge")
        before_bytes = os.path.getsize(cfg.wal_path)
        with pytest.raises(DurabilityError):
            s.insert({"edge": [((1, 2), 3)]})  # tuple value: not a scalar
        # neither the log nor the state moved
        assert os.path.getsize(cfg.wal_path) == before_bytes
        assert s.facts("edge") == before_rows
        assert s.stats.wal_appends == 0
        # and the session still works
        s.insert({"edge": [(3, 4)]})
        assert (1, 4) in s.facts("tc")
        s.close()

    def test_mixed_arity_batch_refused_before_the_log(self, tmp_path, program, edb):
        """A new predicate's first row fixes its arity, so a batch that
        disagrees with itself is refused typed, before the WAL append:
        log and state stay as they were, and the log still recovers."""
        from repro.datalog.errors import ArityError

        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        before_bytes = os.path.getsize(cfg.wal_path)
        with pytest.raises(ArityError):
            s.insert({"newp": [(1,), (1, 2)]})
        assert os.path.getsize(cfg.wal_path) == before_bytes
        assert s.stats.wal_appends == 0
        assert s.facts("newp") == frozenset()
        s.insert({"edge": [(3, 4)]})
        s.close()
        r, _ = recover(program, cfg)
        assert (1, 4) in r.facts("tc")
        assert r.facts("newp") == frozenset()
        r.close()

    def test_checkpoint_compacts(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0, keep_snapshots=2)
        s = IncrementalSession(program, edb, durable=cfg)
        for i in range(5):
            s.insert({"edge": [(10 + i, 11 + i)]})
        assert s.checkpoint() == 5
        assert s.checkpoint() == 5  # idempotent at the same seq
        snaps = list_snapshots(cfg)
        assert len(snaps) <= 2
        data = read_wal(cfg.wal_path)
        # records up to the oldest retained snapshot were truncated
        oldest = int(snaps[-1].name.rsplit("-", 1)[1])
        assert data.base_seq == oldest
        r, report = recover(program, cfg)
        assert r.facts("tc") == s.facts("tc")
        r.close(), s.close()

    def test_compaction_keeps_unflushed_records(self, tmp_path, program, edb):
        """Under ``fsync="off"`` appended records can still sit in the
        file buffer when a snapshot compacts the log: compaction must
        keep them, and recovery must find every batch."""
        cfg = _config(tmp_path, fsync="off", snapshot_every=3)
        s = IncrementalSession(program, edb, durable=cfg)
        for i in range(10):
            s.insert({"edge": [(10 + i, 11 + i)]})
        want = s.facts("tc")
        s.close()
        # snapshots at 9 and 6 are kept: the log holds what follows 6
        assert [r["seq"] for r in read_wal(cfg.wal_path).records] == [
            7, 8, 9, 10
        ]
        r, report = recover(program, cfg)
        assert r.facts("tc") == want
        r.close()

    def test_non_durable_checkpoint_refused(self, program, edb):
        s = IncrementalSession(program, edb)
        with pytest.raises(DurabilityError):
            s.checkpoint()
        s.close()  # no-op

    def test_due_snapshot_is_written_after_the_deadline(
        self, tmp_path, program, edb, monkeypatch
    ):
        """The deadline bounds a batch's fixpoint, not its snapshot: a
        snapshot falling due after the deadline passed is still written
        whole, and the WAL is compacted behind it.  The governor's
        clock is driven by hand: it stands still through the fixpoint
        and jumps past the deadline just before the snapshot."""
        import types

        from repro.engine import governor
        from repro.engine.durability import DurableLog

        clock = [0.0]
        monkeypatch.setattr(
            governor, "time", types.SimpleNamespace(monotonic=lambda: clock[0])
        )
        snapshot_due = DurableLog._snapshot_due

        def late(log):
            clock[0] += 2.0
            return snapshot_due(log)

        monkeypatch.setattr(DurableLog, "_snapshot_due", late)
        cfg = _config(tmp_path, snapshot_every=1, keep_snapshots=1)
        s = IncrementalSession(program, edb, durable=cfg)
        s.options = EngineOptions(deadline_s=1.0)
        s.insert({"edge": [(3, 4)]})
        assert not s.is_partial
        assert list_snapshots(cfg) == [cfg.snapshot_path(1)]
        data = read_wal(cfg.wal_path)
        assert (data.base_seq, data.records) == (1, [])
        s.close()


class TestSnapshots:
    def test_snapshot_survives_epoch_clear_and_prepared_cache(
        self, tmp_path, program, edb
    ):
        """The satellite: a snapshot written under one interning epoch
        loads bit-identically after the dictionary is cleared (epoch
        bump + id reassignment) and the prepared-program cache is
        dropped — snapshots decode through their embedded table, never
        the process dictionary."""
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [("a", "b"), (3, "a")]})
        s.checkpoint()
        want_tc = s.facts("tc")
        want_edge = s.facts("edge")
        s.close()

        global_dictionary().clear()
        clear_prepared_cache()
        # grow the fresh dictionary so ids are *reassigned*, not just
        # absent — any decode through the live dictionary would skew
        for v in ("zz", 99, "yy", 7, "b", 3):
            global_dictionary().intern(v)

        snap = load_snapshot(list_snapshots(cfg)[0])
        assert snap.db.rows("tc") == want_tc
        assert snap.db.rows("edge") == want_edge

        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert r.facts("tc") == want_tc
        # and the recovered session evaluates correctly under the new
        # epoch (columnar images rebuild lazily)
        r.insert({"edge": [("b", "c")]})
        assert ("a", "c") in r.facts("tc")
        r.close()

    def test_snapshot_ignores_values_other_relations_interned(
        self, tmp_path, program
    ):
        """The embedded table is the snapshot's own: a value some
        unrelated relation interned into the process-wide dictionary —
        here one no snapshot could hold — is neither written nor
        type-checked."""
        from repro.datalog.database import Relation

        Relation(1, [(("a", "tuple"),)]).packed_runs()
        edb = Database.from_dict({"edge": [(1, 2), (2, 3), (3, 4)]})
        cfg = _config(tmp_path, snapshot_every=0)
        try:
            s = IncrementalSession(program, edb, durable=cfg)
        finally:
            global_dictionary().clear()
        want = s.facts("tc")
        s.close()
        snap = load_snapshot(list_snapshots(cfg)[0])
        assert snap.db.rows("tc") == want
        with open(list_snapshots(cfg)[0], "rb") as f:
            f.seek(len(SNAPSHOT_MAGIC))
            size, _ = _FRAME.unpack(f.read(_FRAME.size))
            assert sorted(json.loads(f.read(size))["dict"]) == [1, 2, 3, 4]

    def test_snapshot_size_tracks_its_rows_not_the_process(
        self, tmp_path, program, edb
    ):
        for i in range(5000):
            global_dictionary().intern(f"unrelated-{i}")
        try:
            cfg = _config(tmp_path, snapshot_every=0)
            IncrementalSession(program, edb, durable=cfg).close()
            assert os.path.getsize(list_snapshots(cfg)[0]) < 2000
        finally:
            global_dictionary().clear()

    def test_snapshot_written_by_the_parent_commit_still_loads(
        self, tmp_path, program
    ):
        """``tests/data/parent_snapshot`` was written before snapshots
        got their own value table (its ``dict`` is the whole process
        dictionary of that run); the layout did not change, so it loads
        and recovers — snapshot plus a one-batch WAL suffix."""
        import shutil
        from pathlib import Path

        fixture = Path(__file__).parent.parent / "data" / "parent_snapshot"
        for name in ("s.wal", "s.wal.snap-0000000001"):
            shutil.copy(fixture / name, tmp_path / name)
        cfg = _config(tmp_path, snapshot_every=0)
        edges = {(1, 2), (2, 3), ("a", "b"), (3, "a")}
        snap = load_snapshot(list_snapshots(cfg)[0])
        assert snap.seq == 1 and snap.db.rows("edge") == edges
        r, report = recover(program, cfg)
        assert report.source == "replay" and report.snapshot_seq == 1
        assert r.facts("edge") == edges | {("b", 2.5)}
        assert r.facts("tc") == evaluate(
            program, Database.from_dict({"edge": sorted(r.facts("edge"), key=repr)})
        ).facts("tc")
        assert (1, 2.5) in r.facts("tc")
        r.close()

    def test_truncated_snapshot_detected(self, tmp_path, program, edb):
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        path = list_snapshots(cfg)[0]
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 9)
        with pytest.raises(RecoveryError) as exc:
            load_snapshot(path)
        assert exc.value.reason == "snapshot-corrupt"
        # recovery refuses too: no other snapshot exists
        with pytest.raises(RecoveryError) as exc:
            recover(program, cfg)
        assert exc.value.reason == "no-valid-snapshot"
        s.close()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path, program, edb):
        def truncate(path):
            with open(path, "r+b") as f:
                f.truncate(os.path.getsize(path) - 11)

        def malformed_header(path):
            # the header frame's checksum passes, its JSON has no seq
            path.write_bytes(SNAPSHOT_MAGIC + _frame(b'{"entries": []}'))

        def wrong_relations(path):
            # well-formed and checksummed, but tc is stored under
            # another name: the snapshot no longer fits the program
            buf = path.read_bytes()
            start = len(SNAPSHOT_MAGIC)
            length, _ = _FRAME.unpack_from(buf, start)
            end = start + _FRAME.size + length
            header = json.loads(buf[start + _FRAME.size:end])
            for entry in header["entries"]:
                entry["name"] = entry["name"].replace("tc", "other")
            path.write_bytes(
                SNAPSHOT_MAGIC + _frame(json.dumps(header).encode()) + buf[end:]
            )

        for damage in (truncate, malformed_header, wrong_relations):
            cfg = _config(
                tmp_path / damage.__name__, snapshot_every=0, keep_snapshots=2
            )
            s = IncrementalSession(program, edb, durable=cfg)
            s.insert({"edge": [(3, 4)]})
            s.checkpoint()
            s.insert({"edge": [(4, 5)]})
            want = s.facts("tc")
            s.close()
            damage(list_snapshots(cfg)[0])
            r, report = recover(program, cfg)
            assert report.snapshot_seq == 0  # anchored on the baseline
            assert report.skipped_snapshots
            assert r.facts("tc") == want
            r.close()

    @pytest.mark.parametrize(
        "header",
        [
            [],
            {"entries": []},
            {"seq": "1", "entries": []},
            {"seq": 1, "dict": {"a": 1}, "entries": []},
            {"seq": 1, "dict": [[1]], "entries": []},
            {"seq": 1, "entries": {}},
            {"seq": 1, "entries": [{"kind": "relation", "arity": 1, "rows": 0}]},
            {"seq": 1, "entries": [{"name": "e", "arity": 1, "rows": 0}]},
            {"seq": 1, "entries": [{"name": "e", "kind": "relation", "rows": 0}]},
            {"seq": 1, "entries": [{"name": "e", "kind": "relation", "arity": 1}]},
            {"seq": 1, "entries": [
                {"name": "e", "kind": "relation", "arity": -1, "rows": 0}
            ]},
            {"seq": 1, "entries": [
                {"name": "e", "kind": "relation", "arity": 1, "rows": "0"}
            ]},
            {"seq": 1, "entries": [
                {"name": "e", "kind": "relation", "arity": 1, "rows": 0},
                {"name": "e", "kind": "relation", "arity": 2, "rows": 0},
            ]},
        ],
        ids=["not-object", "no-seq", "seq-not-int", "dict-not-list",
             "value-not-scalar", "entries-not-list", "no-name", "no-kind",
             "no-arity", "no-rows", "negative-arity", "rows-not-int",
             "conflicting-arity"],
    )
    def test_malformed_header_refused(self, tmp_path, header):
        # empty data sections follow, so zero-row entries find theirs
        path = tmp_path / "s.wal.snap-0000000001"
        path.write_bytes(
            SNAPSHOT_MAGIC + _frame(json.dumps(header).encode()) + 2 * _frame(b"")
        )
        with pytest.raises(RecoveryError) as exc:
            load_snapshot(path)
        assert exc.value.reason == "snapshot-corrupt"

    @pytest.mark.parametrize("bad_id", [-1, 1])
    def test_id_outside_the_value_table_refused(self, tmp_path, bad_id):
        header = {
            "seq": 1,
            "byteorder": sys.byteorder,
            "dict": [7],
            "entries": [{"name": "e", "kind": "relation", "arity": 1, "rows": 1}],
        }
        path = tmp_path / "s.wal.snap-0000000001"
        path.write_bytes(
            SNAPSHOT_MAGIC
            + _frame(json.dumps(header).encode())
            + _frame(struct.pack("=q", bad_id))
        )
        with pytest.raises(RecoveryError) as exc:
            load_snapshot(path)
        assert exc.value.reason == "snapshot-corrupt"


class TestRecoveryRungs:
    def test_engine_flag_change_replays(self, tmp_path, program, edb):
        """Engine flags pick a strategy, not a state: a log written
        under the defaults replays under other flags, and a log those
        flags extended replays under the defaults again."""
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        s.close()
        changed = EngineOptions(use_scc=False, use_kernels=False)
        r, report = recover(program, cfg, changed)
        assert report.source == "replay"
        assert r.options == changed
        r.insert({"edge": [(4, 5)]})
        want = r.facts("tc")
        r.close()
        r2, rep2 = recover(program, cfg)
        assert rep2.source == "replay"
        assert r2.facts("tc") == want
        r2.close()

    def test_program_drift_always_refused(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        s.close()
        other = parse("p(X) :- edge(X, Y).\n?- p(X).")
        with pytest.raises(RecoveryError) as exc:
            recover(other, cfg)
        assert exc.value.reason == "program-drift"

    def test_dirty_snapshot_takes_scratch_rung(self, tmp_path, program):
        """A governed-partial state is never replay-anchored: the
        baseline snapshot of a partial materialization is marked dirty
        and recovery re-evaluates from the exact base facts."""
        edb = Database.from_dict(
            {"edge": [(i, i + 1) for i in range(8)]}
        )
        cfg = _config(tmp_path, snapshot_every=0)
        opts = EngineOptions(max_facts=3, on_limit="partial")
        s = IncrementalSession(program, edb, opts, durable=cfg)
        assert s.is_partial
        s.close()
        r, report = recover(program, cfg, EngineOptions())
        assert report.source == "scratch"
        # scratch recovery restores full exactness, not the partial state
        want = evaluate(program, edb).db.rows("tc")
        assert r.facts("tc") == want
        r.close()

    def test_provenance_recovery_takes_scratch_rung(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path)
        opts = EngineOptions(record_provenance=True)
        s = IncrementalSession(program, edb, opts, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        want = s.facts("tc")
        s.close()
        r, report = recover(program, cfg, opts)
        assert report.source == "scratch"
        assert r.facts("tc") == want
        # every derived fact has a valid justification again
        for pred_row, just in r.provenance.items():
            pred, row = pred_row
            assert row in r.facts(pred)
        for row in r.facts("tc") - r._protected("tc"):
            assert ("tc", row) in r.provenance
        r.close()

    def test_suffix_replays_as_one_net_batch(self, tmp_path, program, edb):
        """The replay rung folds the whole suffix into one batch: an
        insert later retracted and a retract later undone drop out, and
        an inserted IDB row that is already derived stays given after
        its derivation goes.  Both rungs land on the from-scratch state
        of the final base facts."""
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        script = [
            ("insert", {"edge": [(3, 4)]}),
            ("retract", {"edge": [(3, 4)]}),
            ("retract", {"edge": [(2, 3)]}),
            ("insert", {"edge": [(2, 3)]}),
            ("insert", {"tc": [(1, 2)]}),
            ("retract", {"edge": [(1, 2)]}),
        ]
        for kind, facts in script:
            getattr(s, kind)(facts)
        s.close()
        scratch = evaluate(
            program, Database.from_dict({"edge": [(2, 3)], "tc": [(1, 2)]})
        )
        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert report.replayed_batches == len(script)
        assert r.stats.wal_replays == 1
        for pred in ("edge", "tc"):
            assert r.facts(pred) == s.facts(pred) == scratch.facts(pred)
        assert r.answers() == scratch.answers()
        r.close()
        r, report = recover(program, cfg, EngineOptions(record_provenance=True))
        assert report.source == "scratch"
        for pred in ("edge", "tc"):
            assert r.facts(pred) == scratch.facts(pred)
        r.close()

    def test_suffix_that_cancels_out_applies_no_batch(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        anchored = {p: s.facts(p) for p in ("edge", "tc")}
        script = [
            ("insert", {"edge": [(3, 4)]}),
            ("retract", {"edge": [(1, 2)]}),
            ("retract", {"edge": [(3, 4)]}),
            ("insert", {"edge": [(1, 2)]}),
        ]
        for kind, facts in script:
            getattr(s, kind)(facts)
        s.close()
        r, report = recover(program, cfg)
        assert report.source == "replay"
        assert report.replayed_batches == len(script)
        assert r.stats.wal_replays == 0
        assert {p: r.facts(p) for p in ("edge", "tc")} == anchored
        r.close()

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_facts": 3, "on_limit": "partial"},
            {"max_facts": 3},
            {"deadline_s": 0.0},
        ],
    )
    def test_replay_runs_without_resource_limits(
        self, tmp_path, program, edb, limits
    ):
        """Replay is bounded by nothing the caller's options set: a
        35-edge chain needs far more than three facts and more than no
        time at all, yet recovers exactly (never as a partial lower
        bound), and the caller's limits come back on the returned
        session."""
        cfg = _config(tmp_path, snapshot_every=0)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(i, i + 1) for i in range(3, 38)]})
        want = s.facts("tc")
        s.close()
        opts = EngineOptions(**limits)
        r, report = recover(program, cfg, opts)
        assert report.source == "replay"
        assert r.facts("tc") == want
        assert not r.is_partial
        assert r.options == opts
        r.close()

    def test_recovery_reports_timing(self, tmp_path, program, edb):
        cfg = _config(tmp_path)
        s = IncrementalSession(program, edb, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        s.close()
        r, report = recover(program, cfg)
        assert report.recovery_ms > 0
        assert r.stats.recovery_ms == report.recovery_ms
        assert r.stats.wal_replays == report.replayed_batches == 1
        r.close()


class TestCrashInjection:
    def test_parse_wal_crash_specs(self):
        plan = parse_fault_specs(["wal-crash:torn-record:3"])
        assert plan.wal_crash == "torn-record"
        assert plan.wal_crash_seq == 3
        plan = parse_fault_specs(["wal-crash:mid-snapshot"])
        assert plan.wal_crash == "mid-snapshot"
        assert plan.wal_crash_seq is None
        from repro.datalog.errors import EvaluationError

        with pytest.raises(EvaluationError, match="wal-crash"):
            parse_fault_specs(["wal-crash:quietly"])

    def test_torn_record_damages_then_recovery_repairs(
        self, tmp_path, program, edb
    ):
        cfg = _config(tmp_path, snapshot_every=0)
        opts = EngineOptions(
            fault_plan=FaultPlan(wal_crash="torn-record", wal_crash_seq=2)
        )
        s = IncrementalSession(program, edb, opts, durable=cfg)
        s.insert({"edge": [(3, 4)]})
        with pytest.raises(WalCrash):
            s.insert({"edge": [(4, 5)]})
        data = read_wal(cfg.wal_path)
        assert data.torn_offset is not None  # real damage on disk
        assert [r["seq"] for r in data.records] == [1]
        r, report = recover(program, cfg)
        assert report.torn_tail_dropped
        assert (1, 4) in r.facts("tc")
        assert (1, 5) not in r.facts("tc")  # the torn batch never landed
        # appends resume on the repaired log at the right sequence
        r.insert({"edge": [(4, 6)]})
        assert [x["seq"] for x in read_wal(cfg.wal_path).records] == [1, 2]
        r.close(), s.close()

    def test_crash_points_leave_recoverable_state(self, tmp_path, program):
        for point in (
            "before-append",
            "after-append",
            "mid-snapshot",
            "truncated-snapshot",
        ):
            wal = tmp_path / f"{point}.wal"
            cfg = DurabilityConfig(wal_path=str(wal), snapshot_every=2)
            opts = EngineOptions(
                fault_plan=FaultPlan(wal_crash=point, wal_crash_seq=2)
            )
            edb = Database.from_dict({"edge": [(1, 2), (2, 3)]})
            s = IncrementalSession(program, edb, opts, durable=cfg)
            s.insert({"edge": [(3, 4)]})
            with pytest.raises(WalCrash):
                s.insert({"edge": [(4, 5)]})
            r, report = recover(program, cfg)
            include_crashed = point in (
                "after-append", "mid-snapshot", "truncated-snapshot"
            )
            assert ((1, 5) in r.facts("tc")) == include_crashed, point
            r.close()
            s.close()


class TestStatsPlumbing:
    def test_durability_counters_are_invariant_excluded(self):
        stats = EvalStats()
        stats.wal_appends = 3
        stats.wal_replays = 2
        stats.snapshots_written = 1
        stats.recovery_ms = 4.2
        full = stats.as_dict()
        assert full["wal_appends"] == 3
        inv = stats.as_dict(engine_invariant=True)
        for key in (
            "wal_appends", "wal_replays", "snapshots_written", "recovery_ms"
        ):
            assert key not in inv

    def test_summary_mentions_wal_activity(self):
        stats = EvalStats()
        stats.wal_appends = 3
        stats.snapshots_written = 1
        assert "wal=3" in stats.summary()
        assert "snaps=1" in stats.summary()


class TestBulkLoad:
    def test_bulk_load_fast_path(self):
        from repro.datalog.database import Relation

        rel = Relation(2)
        assert rel.bulk_load([(1, 2), (3, 4)]) == 2
        assert (1, 2) in rel and len(rel) == 2
        # indexes build lazily afterwards, as usual
        assert rel.lookup((0,), (3,)) == [(3, 4)]

    def test_bulk_load_refuses_nonempty(self):
        from repro.datalog.database import Relation
        from repro.datalog.errors import ArityError, ValidationError

        rel = Relation(2)
        rel.add((1, 2))
        with pytest.raises(ValidationError):
            rel.bulk_load([(3, 4)])
        fresh = Relation(2)
        with pytest.raises(ArityError):
            fresh.bulk_load([(1, 2, 3)])
