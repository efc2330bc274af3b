"""Deterministic fault injection for the evaluation engine.

Each executor tier is already reachable through a real switch
(``--no-columnar``, ``--no-kernel``, ``--no-index``, ``--no-scc``),
and the oracle suites sweep every one of them.  What no flag can
produce is a *failure*: a genuine error inside a unit, a unit too slow
for its deadline, a process killed halfway through a durable write.  A
:class:`FaultPlan` makes exactly those fire on demand, deterministically,
so the paths that handle them are tested continuously instead of
trusted.

Faults are declarative (a frozen plan attached to
:class:`~repro.engine.evaluator.EngineOptions`) and stateful injection
bookkeeping lives in a per-run :class:`FaultInjector`, so the same
options object can be reused across evaluations and each run sees the
plan fresh.  The unit error and the WAL crash fire exactly once per
run; a slow unit sleeps at every boundary it reaches.

Fault kinds:

``unit-error:N``
    The N-th scheduled evaluation unit (0-based, scheduling order)
    raises a genuine :class:`InjectedUnitError` mid-unit.  *Not*
    recoverable: the original exception must surface to the caller
    verbatim, with the counters of every unit that ran before it
    already in the run's stats.
``slow-unit:N[:SECONDS]``
    The N-th scheduled unit sleeps at its start and at every iteration
    boundary — a deterministic way to make a deadline fire inside a
    chosen unit.
``wal-crash:POINT[:SEQ]``
    Simulated process death at a chosen durability crash point
    (:mod:`repro.engine.durability`): the injector performs exactly the
    disk damage a real crash at that point leaves behind, then raises
    :class:`WalCrash`, which the session deliberately does **not**
    catch — the "process" is dead, and the test recovers from the
    files.  POINT is ``before-append`` (nothing written),
    ``after-append`` (record durable, in-memory apply never ran),
    ``torn-record`` (a half-written final record), ``mid-snapshot`` (a
    partial snapshot temp file, never renamed) or
    ``truncated-snapshot`` (a renamed snapshot with its tail cut off).
    SEQ pins the crash to one WAL batch sequence number; without it the
    first reached site fires.

The soundness contract (asserted by ``tests/oracle/test_faults.py`` and
``tests/oracle/test_recovery.py``): under any fault plan a run either
returns the exact un-faulted answer set, a flagged partial subset, or a
structured error — never a silently wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from ..datalog.errors import EvaluationError, ValidationError

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedUnitError",
    "WalCrash",
    "WAL_CRASH_POINTS",
    "parse_fault_specs",
]

#: the durability crash points ``wal-crash`` can simulate (see the
#: module docstring and :mod:`repro.engine.durability`)
WAL_CRASH_POINTS = frozenset(
    {
        "before-append",
        "after-append",
        "torn-record",
        "mid-snapshot",
        "truncated-snapshot",
    }
)


class InjectedFault(EvaluationError):
    """Base class for the structured exceptions deterministic fault
    injection raises."""


class WalCrash(InjectedFault):
    """Simulated process death at a durability crash point.  *Not*
    recoverable in-process: the session lets it propagate with the
    batch half-done, exactly like a real kill, and correctness is
    re-established by :func:`repro.engine.recovery.recover` from the
    on-disk WAL and snapshots."""


class InjectedUnitError(RuntimeError):
    """A genuine (non-recoverable) error raised inside an evaluation
    unit.  Deliberately *not* an :class:`~repro.datalog.errors.ReproError`:
    nothing in the engine may catch it — it must surface verbatim."""


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, deterministic set of faults for one evaluation.

    All fields default to "no fault"; combine freely.  Unit ordinals
    count scheduled unit *executions* in scheduling order (depth, then
    SCC index), starting at 0.  A negative ordinal, a negative delay or
    an unknown crash point could never fire and is a
    :class:`~repro.datalog.errors.ValidationError`.
    """

    #: ordinal of the unit that raises :class:`InjectedUnitError`
    unit_error: Optional[int] = None
    #: ordinal of the unit slowed by ``slow_s`` per boundary
    slow_unit: Optional[int] = None
    #: sleep per boundary for ``slow_unit`` (seconds)
    slow_s: float = 0.05
    #: durability crash point (one of :data:`WAL_CRASH_POINTS`), fired
    #: once per run as :class:`WalCrash` after the simulated damage
    wal_crash: Optional[str] = None
    #: WAL batch sequence number the crash is pinned to (None = the
    #: first site reached)
    wal_crash_seq: Optional[int] = None

    def __post_init__(self):
        for name in ("unit_error", "slow_unit", "wal_crash_seq", "slow_s"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        if self.wal_crash is not None and self.wal_crash not in WAL_CRASH_POINTS:
            raise ValidationError(
                f"unknown wal-crash point {self.wal_crash!r}; expected one "
                f"of {sorted(WAL_CRASH_POINTS)}"
            )

    def any(self) -> bool:
        """True iff at least one fault is armed."""
        return (
            self.unit_error is not None
            or self.slow_unit is not None
            or self.wal_crash is not None
        )


def parse_fault_specs(specs: Iterable[str]) -> FaultPlan:
    """Build a :class:`FaultPlan` from CLI ``--inject-fault`` specs.

    Accepted forms: ``unit-error:N``, ``slow-unit:N``,
    ``slow-unit:N:SECONDS``, ``wal-crash:POINT`` and
    ``wal-crash:POINT:SEQ``.  Specs merge left to right into one plan;
    any other spec is an :class:`~repro.datalog.errors.EvaluationError`.
    """
    plan = FaultPlan()
    for spec in specs:
        kind, _, rest = spec.partition(":")
        try:
            if kind == "wal-crash":
                point, _, seq = rest.partition(":")
                plan = replace(plan, wal_crash=point)
                if seq:
                    plan = replace(plan, wal_crash_seq=int(seq))
            elif kind == "unit-error":
                plan = replace(plan, unit_error=int(rest))
            elif kind == "slow-unit":
                ordinal, _, seconds = rest.partition(":")
                plan = replace(plan, slow_unit=int(ordinal))
                if seconds:
                    plan = replace(plan, slow_s=float(seconds))
            else:
                raise ValueError
        except (ValueError, ValidationError):
            raise EvaluationError(
                f"unknown fault spec {spec!r}; expected unit-error:N, "
                f"slow-unit:N[:seconds], or wal-crash:POINT[:seq] with "
                f"POINT one of {sorted(WAL_CRASH_POINTS)}"
            ) from None
    return plan


class FaultInjector:
    """Per-run injection state for one :class:`FaultPlan`.

    Created per :func:`~repro.engine.evaluator.evaluate` call and per
    update batch, and never shared beyond it, so each one-shot fault
    fires at most once per run.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._fired: set = set()

    def _once(self, key) -> bool:
        """True the first time *key* is seen, False afterwards."""
        if key in self._fired:
            return False
        self._fired.add(key)
        return True

    def maybe_unit_error(self, ordinal: int, label: str) -> None:
        """Raise the armed per-unit fault for *ordinal*, at most once."""
        if self.plan.unit_error == ordinal and self._once(("error", ordinal)):
            raise InjectedUnitError(
                f"injected unit error in unit {ordinal} ({label})"
            )

    def slow_down(self, ordinal: Optional[int]) -> None:
        """Sleep if *ordinal* is the plan's slow unit (every boundary)."""
        if ordinal is not None and self.plan.slow_unit == ordinal:
            time.sleep(self.plan.slow_s)

    def wal_crash_fires(self, point: str, seq: int) -> bool:
        """Should the durability layer simulate a crash at *point* for
        WAL batch *seq*?  Fires at most once per injector (the process
        only dies once); the caller performs the simulated disk damage
        and raises :class:`WalCrash`."""
        plan = self.plan
        if plan.wal_crash != point:
            return False
        if plan.wal_crash_seq is not None and plan.wal_crash_seq != seq:
            return False
        return self._once(("wal-crash",))
