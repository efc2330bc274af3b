"""The recovery oracle: crash, recover, compare against from-scratch.

A durable :class:`~repro.engine.incremental.IncrementalSession` claims
that after a crash at **any** point, :func:`~repro.engine.recovery.recover`
rebuilds exactly the state a from-scratch evaluation over the *accepted*
base facts would produce — bit-identical per-predicate fact sets, query
answers, and reported fact counts.  This suite drives random update
scripts with an armed crash point (before/after the WAL append, a torn
final record, mid-snapshot, a truncated snapshot), lets the injected
:class:`~repro.engine.faults.WalCrash` kill the session with exactly the
disk damage a real crash would leave, then recovers from the damaged
files and checks the claim — across curated families, the strategy
matrix, and 200 fixed random programs x random crash points.  The
long-suffix legs take no policy snapshot, so recovery folds every
record of the script into its one replay batch.  The cross-flag leg
writes under one strategy and recovers under another: the files hold
the program's fixpoint, whichever engine computed it.

The accepted-batch ledger is the WAL contract itself: a batch is
accepted once its record is durable.  ``before-append`` and a torn
record mean the crashed batch was *not* accepted (the record never
fully landed); ``after-append``, ``mid-snapshot`` and
``truncated-snapshot`` crash after the append, so the batch must
survive.  The recovered session must also keep working: each test
applies one more batch after recovery and re-checks.

Like the differential IVM oracle, the suite honours the suite-wide
``REPRO_ORACLE_BASE`` overlays, so CI sweeps the crash matrix under
no-columnar / no-scc / no-kernel engines through these same tests.
"""

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog import Database
from repro.engine import (
    DurabilityConfig,
    FaultPlan,
    IncrementalSession,
    WalCrash,
    evaluate,
    recover,
)
from repro.workloads.edb import random_edb
from repro.workloads.families import all_families

from ..property.strategies import random_programs
from .harness import STRATEGIES, engine_options, update_script

FAMILIES = all_families()

CRASH_POINTS = (
    "before-append",
    "after-append",
    "torn-record",
    "mid-snapshot",
    "truncated-snapshot",
)

#: crash points that fire only after the record is durably appended:
#: the crashed batch counts as accepted and must survive recovery
DURABLE_CRASH = frozenset(
    {"after-append", "mid-snapshot", "truncated-snapshot"}
)


def _check_recovered(session, program, accepted, opts, context):
    """Recovered state == from-scratch over the accepted base facts."""
    arities = program.arities()
    ref = Database()
    for pred, rows in accepted.items():
        arity = arities.get(pred)
        if arity is None:
            if not rows:
                continue
            arity = len(next(iter(rows)))
        ref.ensure(pred, arity).update(rows)
    scratch = evaluate(program, ref, opts)
    for pred in sorted(set(arities) | set(accepted)):
        got = session.facts(pred)
        want = scratch.db.rows(pred)
        assert got == want, (
            f"{context}: predicate {pred!r} diverged after recovery: "
            f"only-recovered={sorted(got - want)[:5]} "
            f"only-scratch={sorted(want - got)[:5]}"
        )
    assert session.answers() == scratch.answers(), (
        f"{context}: answers diverged after recovery"
    )
    for pred in program.idb_predicates():
        assert session.stats.fact_counts.get(pred, 0) == len(
            scratch.db.rows(pred)
        ), f"{context}: fact_counts[{pred!r}] wrong after recovery"


def _run_crash_script(
    program,
    overrides,
    *,
    recover_overrides=None,
    seed,
    crash_point,
    crash_seq,
    rows=10,
    domain=5,
    steps=5,
    snapshot_every=2,
):
    """Drive a durable session into an injected crash, recover, verify.

    The session writes under *overrides* and recovers (and serves its
    post-recovery batch) under *recover_overrides*, by default the same.
    """
    armed = engine_options(
        {
            **overrides,
            "fault_plan": FaultPlan(
                wal_crash=crash_point, wal_crash_seq=crash_seq
            ),
        }
    )
    clean = engine_options(
        overrides if recover_overrides is None else recover_overrides
    )
    edb = random_edb(program, rows=rows, domain=domain, seed=seed)
    accepted = {p: set(edb.rows(p)) for p in edb.predicates()}
    rng = random.Random(seed * 7901 + 13)
    with tempfile.TemporaryDirectory() as d:
        config = DurabilityConfig(
            wal_path=os.path.join(d, "session.wal"),
            snapshot_every=snapshot_every,
        )
        session = IncrementalSession(program, edb, armed, durable=config)
        crashed = None
        for step, (kind, pred, batch) in enumerate(
            update_script(program, rng, domain, steps)
        ):
            # bias retractions toward rows that exist
            if kind == "retract" and accepted.get(pred) and rng.random() < 0.7:
                batch = set(batch) | set(
                    rng.sample(
                        sorted(accepted[pred]), min(2, len(accepted[pred]))
                    )
                )
            try:
                if kind == "insert":
                    session.insert({pred: batch})
                else:
                    session.retract({pred: batch})
            except WalCrash:
                crashed = (step, kind, pred, batch)
                break
            if kind == "insert":
                accepted.setdefault(pred, set()).update(batch)
            else:
                accepted.get(pred, set()).difference_update(batch)
        if crashed is not None and crash_point in DURABLE_CRASH:
            # the record was durable before the crash: the batch is
            # accepted and must survive recovery
            _, kind, pred, batch = crashed
            if kind == "insert":
                accepted.setdefault(pred, set()).update(batch)
            else:
                accepted.get(pred, set()).difference_update(batch)

        recovered, report = recover(program, config, clean)
        context = (
            f"crash={crash_point}:{crash_seq} fired={crashed is not None} "
            f"source={report.source} anchor={report.snapshot_seq} "
            f"replayed={report.replayed_batches}"
        )
        _check_recovered(recovered, program, accepted, clean, context)

        # the recovered session is live: one more batch must land and
        # keep the same equivalence
        arities = program.arities()
        preds = sorted(program.edb_predicates()) or sorted(arities)
        pred = preds[seed % len(preds)]
        extra = {
            tuple(rng.randrange(domain) for _ in range(arities[pred]))
            for _ in range(2)
        }
        recovered.insert({pred: extra})
        accepted.setdefault(pred, set()).update(extra)
        _check_recovered(
            recovered, program, accepted, clean, context + " +post-batch"
        )
        recovered.close()
        session.close()
        return report


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize(
    "name", ["right_linear_tc", "win_move_stratified", "sibling_components"]
)
def test_recovery_on_curated_families(name, point):
    for crash_seq in (1, 2, 4):
        _run_crash_script(
            FAMILIES[name], {}, seed=0, crash_point=point, crash_seq=crash_seq
        )
        # long suffix: no policy snapshot, so recovery anchors on the
        # baseline and folds every record of the script into one batch
        _run_crash_script(
            FAMILIES[name], {}, seed=0, crash_point=point, crash_seq=crash_seq,
            steps=8, snapshot_every=10_000,
        )


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_recovery_every_family_torn_and_after(name):
    """Every curated family through the two highest-value crash points
    (one excluding, one including the crashed batch)."""
    for point in ("torn-record", "after-append"):
        _run_crash_script(
            FAMILIES[name], {}, seed=1, crash_point=point, crash_seq=2
        )


@pytest.mark.parametrize("label", sorted(STRATEGIES))
def test_recovery_strategy_matrix(label):
    """Crash + recovery agree with from-scratch under every engine
    overlay (the CI REPRO_ORACLE_BASE sweep layers more underneath)."""
    _run_crash_script(
        FAMILIES["right_linear_tc"],
        STRATEGIES[label],
        seed=0,
        crash_point="after-append",
        crash_seq=3,
    )


#: each label writes, and the next one in sorted order recovers, so
#: every strategy takes both roles
_LABELS = sorted(STRATEGIES)
CROSS_FLAG_PAIRS = list(zip(_LABELS, _LABELS[1:] + _LABELS[:1]))


@pytest.mark.parametrize(
    "writer, recoverer",
    CROSS_FLAG_PAIRS,
    ids=[f"{w}->{r}" for w, r in CROSS_FLAG_PAIRS],
)
@pytest.mark.parametrize(
    "name", ["right_linear_tc", "win_move_stratified", "sibling_components"]
)
def test_recovery_under_changed_engine_flags(name, writer, recoverer):
    """Engine flags pick a strategy, not a state: files written under
    one strategy replay under another, and the result is bit-identical
    to from-scratch — from a policy snapshot and from the baseline with
    the whole script as the suffix."""
    for crash_point, snapshot_every in (
        ("after-append", 2), ("torn-record", 10_000)
    ):
        report = _run_crash_script(
            FAMILIES[name],
            STRATEGIES[writer],
            recover_overrides=STRATEGIES[recoverer],
            seed=3,
            crash_point=crash_point,
            crash_seq=3,
            steps=6,
            snapshot_every=snapshot_every,
        )
        assert report.source == "replay"


def test_recovery_clean_shutdown():
    """No crash at all: recovery of a cleanly closed session is exact
    (the armed seq never fires — beyond the script's appends)."""
    _run_crash_script(
        FAMILIES["right_linear_tc"],
        {},
        seed=2,
        crash_point="before-append",
        crash_seq=10_000,
    )


@given(
    random_programs(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(CRASH_POINTS),
    st.integers(min_value=1, max_value=5),
)
@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recovery_on_random_programs(program, seed, point, crash_seq):
    """>= 200 fixed random programs x random crash points: recovered
    state is bit-identical to from-scratch over the accepted batches.
    Any WAL framing bug, snapshot decode skew, replay divergence, or
    compaction that drops a needed suffix record diverges here."""
    program.validate()
    _run_crash_script(
        program, {}, seed=seed, crash_point=point, crash_seq=crash_seq, steps=4
    )


@given(
    random_programs(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(("before-append", "after-append", "torn-record")),
    st.integers(min_value=1, max_value=8),
)
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recovery_long_suffix_on_random_programs(program, seed, point, crash_seq):
    """Every record of the script in the replay suffix (no policy
    snapshot): the whole log folds into one net batch against the
    baseline, and the result is still bit-identical to from-scratch.
    Only the crash points that fire without a snapshot are drawn."""
    program.validate()
    report = _run_crash_script(
        program, {}, seed=seed, crash_point=point, crash_seq=crash_seq,
        steps=8, snapshot_every=10_000,
    )
    assert report.snapshot_seq == 0
