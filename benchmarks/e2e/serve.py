"""The ``serve_mixed`` workload: a durable session, killed, recovered.

The update script runs in a **writer** child process (closed loop, one
client) that acknowledges every operation on its stdout and never calls
``close()``; after its last acknowledgement the parent SIGKILLs it and
``recover``s from what is on disk.  The recovered ``tc`` relation must
equal the acknowledged state — the digest of a pure-Python closure of
the script's own edge set — not merely some prefix of it.

The flush policy is ``catalog.DURABILITY`` (``fsync="batch"``: every
record is flushed to the operating system, which survives SIGKILL) and
is the same wherever a durable session is opened.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

from catalog import DURABILITY
from inputs import Inputs, Session, digest, TC_RULES
from measure import (REFERENCE_S, Floors, Tally, calibrated, calibration,
                     clear_caches, median_time, now, peak_rss_mb,
                     sample_until, scalar, steady, summarize, tail)
from spans import Recorder

PROGRAM = TC_RULES + "?- tc(X, Y).\n"
#: the writer re-measures the machine's speed this often (operations),
#: on a slice of the calibration loop short enough to sit between them
CALIBRATE_EVERY = 8
CALIBRATION_SLICE = 30_000
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


# ---------------------------------------------------------------------------
# the writer child


def writer_main(spec_path: str) -> int:
    """Run the script in ``spec_path`` and acknowledge each operation as
    one JSON line ``[index, kind, seconds, ok, snapshot, wal_bytes,
    calibration]`` (the last: the machine's speed measured within the
    last ``CALIBRATE_EVERY`` operations); then print a summary line and
    wait to be killed."""
    from repro.datalog import Database, parse
    from repro.datalog.ast import Atom
    from repro.datalog.terms import Constant, Variable
    from repro.engine import DurabilityConfig, EvalStats, IncrementalSession

    with open(spec_path) as f:
        spec = json.load(f)
    program = parse(PROGRAM)
    db = Database.from_dict({"edge": [tuple(e) for e in spec["edges"]]})
    wal = spec["wal"]
    config = DurabilityConfig(wal_path=wal, **DURABILITY) if wal else None
    t0 = now()
    session = IncrementalSession(program, db, durable=config)
    materialize_s = now() - t0

    total = EvalStats()
    out = sys.stdout
    wal_size = os.path.getsize(wal) if wal else 0
    y = Variable("Y")
    for index, (kind, payload, expect) in enumerate(spec["script"]):
        if index % CALIBRATE_EVERY == 0:
            speed = calibration(CALIBRATION_SLICE)
        grown = 0
        snapshot = False
        if kind == "read":
            t0 = now()
            got = session.answers(Atom("tc", (Constant(payload), y)))
            elapsed = now() - t0
            ok = digest(got) == expect
        else:
            batch = {"edge": [tuple(e) for e in payload]}
            apply = session.insert if kind == "insert" else session.retract
            t0 = now()
            stats = apply(batch)
            elapsed = now() - t0
            total.merge(stats)
            snapshot = stats.snapshots_written > 0
            ok = expect is None or digest(session.facts("tc")) == expect
            if wal and spec["track_wal"]:
                # compaction shrinks the file; count appended bytes only
                size = os.path.getsize(wal)
                grown = max(0, size - wal_size)
                wal_size = size
        out.write(json.dumps([index, kind, elapsed, ok, snapshot, grown,
                              speed]) + "\n")
        out.flush()

    counters = ("units_scheduled", "units_reactivated", "facts_retracted",
                "facts_rederived", "join_work", "wal_appends",
                "snapshots_written")
    out.write(json.dumps({
        "done": True,
        "materialize_s": materialize_s,
        "peak_rss_mb": peak_rss_mb(),
        "stats": {k: getattr(total, k) for k in counters},
    }) + "\n")
    out.flush()
    sys.stdin.read()  # no close(): the parent kills this process
    return 0


# ---------------------------------------------------------------------------
# the parent side


def run_writer(session: Session, workdir: str, wal: str | None,
               track_wal: bool, tally: Tally) -> dict:
    """Start a writer, collect its acknowledgements, SIGKILL it after
    the last one, and wait for it to be gone."""
    spec_path = os.path.join(workdir, "writer-spec.json")
    with open(spec_path, "w") as f:
        json.dump({"edges": session.edges, "script": session.script,
                   "wal": wal, "track_wal": track_wal}, f)
    proc = subprocess.Popen(
        [sys.executable, RUN, "--serve-writer", spec_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ops: list = []
    summary = None
    try:
        for raw in proc.stdout:
            record = json.loads(raw)
            if isinstance(record, dict):
                summary = record
                break
            ops.append(record)
            tally.check(record[3], f"serve op {record[0]} ({record[1]})")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    tally.check(summary is not None and len(ops) == len(session.script),
                f"writer acknowledged {len(ops)} of {len(session.script)} ops")
    return {"ops": ops, "summary": summary or {}}


def latencies(ops: list, *kinds: str) -> list:
    return [op[2] for op in ops if op[1] in kinds]


def final_edges(session: Session) -> list:
    live = set(map(tuple, session.edges))
    for kind, payload, _ in session.script:
        if kind == "insert":
            live.update(map(tuple, payload))
        elif kind == "retract":
            live.difference_update(map(tuple, payload))
    return sorted(live)


def _no_span(name: str, sample: int):
    return contextlib.nullcontext()


def recover_sample(wal: str, scratch: str, node: int, expect: str, replay: int,
                   tally: Tally, rec: Recorder | None, sample: int) -> float:
    """``recover`` a private copy of the killed session's files (as a
    restarted process would: caches empty) and answer one point read."""
    from repro.datalog import parse
    from repro.datalog.ast import Atom
    from repro.datalog.terms import Constant, Variable
    from repro.engine import DurabilityConfig, recover

    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(os.path.dirname(wal), scratch)
    config = DurabilityConfig(
        wal_path=os.path.join(scratch, os.path.basename(wal)), **DURABILITY)
    program = parse(PROGRAM)
    clear_caches()
    # the untraced run records no span
    span = rec.span if rec is not None else _no_span
    point = Atom("tc", (Constant(node), Variable("Y")))
    t0 = now()
    with span("engine.recovery.recover", sample):
        session, report = recover(program, config)
    with span("engine.incremental.read", sample):
        session.answers(point)
    elapsed = now() - t0
    tally.check(digest(session.facts("tc")) == expect,
                "recovered state differs from the acknowledged state")
    tally.check(report.source == "replay" and report.replayed_batches == replay,
                f"recover replayed {report.replayed_batches} batches from "
                f"{report.source}, expected {replay}")
    session.close()
    return elapsed


def measure(inputs: Inputs, workdir: str, seconds: float, floors: Floors,
            tally: Tally, rec: Recorder | None) -> dict:
    """End-to-end numbers (``rec is None``) or the session layers'."""
    session = inputs.session
    # The untraced run plays the script several times, each in a fresh
    # writer with its own WAL, and keeps every operation's median
    # calibrated time, so one disturbed repetition does not show.  The
    # traced run plays it once and reports raw times.
    runs = []
    for i in range(1 if rec is not None else floors.scripts):
        wal_dir = os.path.join(workdir, f"wal-{i}")
        os.makedirs(wal_dir)
        wal = os.path.join(wal_dir, "session.wal")
        runs.append(run_writer(session, workdir, wal, rec is not None, tally))
    durable = runs[-1]
    kinds = [kind for kind, _, _ in session.script]
    typical = [statistics.median(r["ops"][i][2] / r["ops"][i][6] * REFERENCE_S
                                 for r in runs if i < len(r["ops"]))
               for i in range(len(durable["ops"]))]
    update_s = [t for t, kind in zip(typical, kinds) if kind != "read"]
    updates = [op for op in durable["ops"] if op[1] != "read"]
    expect = [e for k, _, e in session.script if k != "read"][-1]
    replay = len(updates) % DURABILITY["snapshot_every"]
    scratch = os.path.join(workdir, "recover")

    counter = iter(range(1 << 30))
    cold = sample_until(
        lambda: calibrated(
            lambda: recover_sample(wal, scratch, session.edges[0][0], expect,
                                   replay, tally, rec, next(counter))),
        0.35 * seconds, floors.cold)
    raw_updates = latencies(durable["ops"], "insert", "retract")
    m = {
        "cold_s": steady(cold),
        "warm_ms": {**summarize(update_s, 1e3),
                    "raw": 1e3 * statistics.median(raw_updates)},
        "peak_rss_mb": scalar(max(peak_rss_mb(),
                                  *(r["summary"].get("peak_rss_mb", 0.0)
                                    for r in runs))),
    }
    if rec is None:
        return m

    from repro.datalog import Database, parse
    from repro.engine import (DurabilityConfig, IncrementalSession,
                              list_snapshots, load_snapshot, read_wal, recover)

    stats = durable["summary"]["stats"]
    every = sum(op[2] for op in durable["ops"])
    out = {
        "warm_tail_ms": tail(raw_updates, 1e3),
        "warm_ops_per_s": scalar(len(raw_updates) / every),
        "engine.incremental.materialize_s":
            scalar(durable["summary"]["materialize_s"]),
        "engine.incremental.insert_p50_ms":
            summarize(latencies(durable["ops"], "insert"), 1e3),
        "engine.incremental.retract_p50_ms":
            summarize(latencies(durable["ops"], "retract"), 1e3),
        "engine.incremental.insert_tail_ms":
            tail(latencies(durable["ops"], "insert"), 1e3),
        "engine.incremental.retract_tail_ms":
            tail(latencies(durable["ops"], "retract"), 1e3),
        "engine.incremental.read_p50_ms":
            summarize(latencies(durable["ops"], "read"), 1e3),
        "engine.incremental.units_reactivated_ratio": scalar(
            stats["units_reactivated"] / max(1, stats["units_scheduled"])),
        "engine.incremental.rederive_ratio": scalar(
            stats["facts_rederived"] / max(1, stats["facts_retracted"])),
        "engine.incremental.join_work_per_update":
            scalar(stats["join_work"] / len(updates)),
        "engine.durability.wal_appends": scalar(stats["wal_appends"]),
        "engine.durability.snapshots_written":
            scalar(stats["snapshots_written"]),
        "engine.durability.snapshot_stall_ms":
            summarize([op[2] for op in updates if op[4]], 1e3),
    }
    user_bytes = sum(
        len(("+" if k == "insert" else "-")
            + " ".join(f"edge({a}, {b})." for a, b in rows)) + 1
        for k, rows, _ in session.script if k != "read")
    out["engine.durability.wal_bytes_per_user_byte"] = {
        **scalar(sum(op[5] for op in updates) / user_bytes),
        "base": user_bytes}

    # the same script without a WAL, in the same kind of child
    with rec.span("probe.in_memory", -1):
        memory = run_writer(session, workdir, None, False, tally)
    plain = statistics.median(latencies(memory["ops"], "insert", "retract"))
    out["engine.durability.wal_overhead_ms"] = {
        **scalar(m["warm_ms"]["raw"] - 1e3 * plain), "base": 1e3 * plain}

    program = parse(PROGRAM)
    config = DurabilityConfig(wal_path=wal, **DURABILITY)
    newest = list_snapshots(config)[0]
    out["engine.durability.snapshot_bytes"] = scalar(os.path.getsize(newest))
    with rec.span("probe.recovery", -1):
        out["engine.recovery.read_wal_s"] = scalar(
            median_time(lambda: read_wal(wal), floors.probe))
        out["engine.recovery.load_snapshot_s"] = scalar(
            median_time(lambda: load_snapshot(newest), floors.probe))
        edb = Database.from_dict({"edge": final_edges(session)})

        def from_scratch() -> None:
            clear_caches()
            rebuilt = IncrementalSession(program, edb)
            tally.check(digest(rebuilt.facts("tc")) == expect,
                        "from-scratch state differs from the reference")

        out["engine.recovery.scratch_s"] = scalar(
            median_time(from_scratch, floors.probe))
    recover_s = rec.durations("engine.recovery.recover")
    out["engine.recovery.recover_s"] = summarize(list(recover_s.values()))
    out["engine.recovery.replayed_batches"] = scalar(replay)
    out["engine.recovery.recover_speedup"] = {
        **scalar(out["engine.recovery.scratch_s"]["value"]
                 / out["engine.recovery.recover_s"]["value"]),
        "base": out["engine.recovery.recover_s"]["value"]}

    # one forced checkpoint on a recovered copy, never on the original
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(wal_dir, scratch)
    copy = DurabilityConfig(
        wal_path=os.path.join(scratch, os.path.basename(wal)), **DURABILITY)
    recovered, _ = recover(program, copy)
    with rec.span("engine.durability.checkpoint", -1) as span:
        recovered.checkpoint()
    recovered.close()
    out["engine.durability.checkpoint_s"] = scalar(span["end"] - span["start"])
    m.update(out)
    return m
