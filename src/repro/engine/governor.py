"""The resource governor: budgets, deadlines, cooperative cancellation.

Detection of existential arguments is undecidable (paper, Lemma 2.1),
so there is no static guard against pathological fixpoints: adversarial
programs and databases can always construct evaluations that are
correct but unaffordable.  A production engine therefore needs dynamic
limits with *structured* failure — stop cleanly, say why, and hand back
whatever partial state is sound — instead of hanging or exhausting
memory.

The :class:`Governor` enforces, cooperatively:

``deadline_s``
    A wall-clock budget for the whole evaluation, tested at every
    checkpoint: each iteration boundary, each per-unit boundary and
    between rule firings (the :func:`~repro.engine.scheduler._fire`
    entry), so no rule firing starts past the deadline.
``max_facts``
    A global budget on facts derived, tested at the same checkpoints
    against the run's exact count: a run stops at the first boundary
    after the crossing, overshooting by at most the one firing in flight.
``max_delta_rows``
    A global budget on rows entering semi-naive delta frontiers — a
    proxy for the total work recursion has enqueued, which trips
    earlier than ``max_facts`` on programs whose rounds grow
    geometrically.  Charged and tested at every round boundary.
``max_iterations``
    One **global** bound on fixpoint rounds across the whole run (the
    sum of every unit's rounds under SCC scheduling, identical to the
    monolithic count by construction).

The governor also carries the run's
:class:`~repro.engine.faults.FaultInjector`, if any: a slow unit sleeps
and an injected unit error raises at the same boundaries.

Limits are *cooperative*: the fixpoint loops call the governor at
round, unit, and rule boundaries; the governor never interrupts a
single join mid-flight.  Evaluation has one thread of control, so
every limit but the deadline trips on the same boundary of the same
unit run to run.  A trip unwinds as :class:`BudgetExceeded` to the
entry point, where :func:`settle` applies the ``on_limit`` policy:

``"raise"``
    :class:`ResourceExhausted` — an
    :class:`~repro.datalog.errors.EvaluationError` carrying the partial
    :class:`~repro.engine.statistics.EvalStats`, the offending unit
    label, and the stratum index.
``"partial"``
    A best-effort :class:`~repro.engine.evaluator.EvalResult` with
    ``stats.aborted_reason`` set; its answers are a sound **lower
    bound** (bottom-up evaluation only ever adds facts, so every
    derived fact is a true consequence — the run merely stopped before
    deriving all of them).
"""

from __future__ import annotations

import time
from typing import Optional

from ..datalog.errors import EvaluationError
from .faults import FaultInjector

__all__ = ["Governor", "Guard", "ResourceExhausted", "BudgetExceeded", "settle"]


class ResourceExhausted(EvaluationError):
    """A governed evaluation hit one of its resource limits.

    ``reason`` is the limit that tripped (``"deadline"``,
    ``"max_facts"``, ``"max_delta_rows"``, ``"max_iterations"``);
    ``stats`` the partial :class:`~repro.engine.statistics.EvalStats`
    at abort (fact counts finalized); ``unit`` the label of the evaluation unit that tripped
    the limit (None under the monolithic loop); ``stratum`` the index
    of the stratum being evaluated.
    """

    def __init__(
        self,
        reason: str,
        *,
        stats=None,
        unit: Optional[str] = None,
        stratum: Optional[int] = None,
    ):
        self.reason = reason
        self.stats = stats
        self.unit = unit
        self.stratum = stratum
        where = f" in unit {unit!r}" if unit else ""
        where += f" (stratum {stratum})" if stratum is not None else ""
        super().__init__(f"ResourceExhausted: {reason} limit hit{where}")


class BudgetExceeded(Exception):
    """Internal control-flow signal raised at a governor checkpoint.

    Never escapes :func:`~repro.engine.evaluator.evaluate` or a session
    call: :func:`settle` converts it into :class:`ResourceExhausted` or
    a flagged partial result per ``EngineOptions.on_limit``.  Carries
    the trip context so the conversion can say *where* the limit hit.
    """

    def __init__(self, reason: str, unit: Optional[str] = None):
        self.reason = reason
        self.unit = unit
        self.stratum: Optional[int] = None
        super().__init__(reason)


def settle(trip: BudgetExceeded, stats, on_limit: str) -> None:
    """Apply the ``on_limit`` policy to a tripped run whose *stats* are
    already finalized: ``"partial"`` flags them with the trip reason and
    returns (the caller hands back its best-effort result), anything
    else raises :class:`ResourceExhausted` carrying them."""
    if on_limit != "partial":
        raise ResourceExhausted(
            trip.reason, stats=stats, unit=trip.unit, stratum=trip.stratum
        ) from None
    stats.aborted_reason = trip.reason


class Governor:
    """Budget accounting for one evaluation run (or one update batch).

    Constructed per :func:`~repro.engine.evaluator.evaluate` call (and
    per :class:`~repro.engine.incremental.IncrementalSession` batch)
    from the options' limits and fault plan, next to the run's one
    :class:`~repro.engine.statistics.EvalStats`: every unit writes that
    one object, so ``stats.facts_derived`` and ``stats.iterations``
    *are* the global counts and each limit is one exact comparison.
    With no limit set and no fault armed, ``enabled`` is False and every
    checkpoint is a single attribute test.  With limits *set but not
    hit*, alternating governed / ungoverned runs read 1.00–1.02x
    (EXPERIMENTS.md, "Governor").
    """

    __slots__ = (
        "deadline",
        "max_facts",
        "max_delta_rows",
        "max_iterations",
        "injector",
        "enabled",
        "delta_rows",
    )

    def __init__(self, opts, injector: Optional[FaultInjector] = None):
        self.deadline = (
            None if opts.deadline_s is None else time.monotonic() + opts.deadline_s
        )
        self.max_facts = opts.max_facts
        self.max_delta_rows = opts.max_delta_rows
        self.max_iterations = opts.max_iterations
        self.injector = injector
        self.enabled = injector is not None or any(
            limit is not None
            for limit in (self.deadline, self.max_facts, self.max_delta_rows,
                          self.max_iterations)
        )
        #: rows that have entered semi-naive delta frontiers so far
        self.delta_rows = 0

    def guard(self, *, unit=None, ordinal: Optional[int] = None) -> "Guard":
        """A per-unit (or per-stratum, for the monolithic loop) view."""
        return Guard(self, unit, ordinal)

    def check(self, stats, unit: Optional[str], iteration: bool = False) -> None:
        """What every checkpoint of an ``enabled`` governor tests — the
        deadline and the fact budget — plus, at an *iteration* boundary,
        the global round bound."""
        stats.governor_checks += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("deadline", unit)
        if iteration:
            limit = self.max_iterations
            if limit is not None and stats.iterations > limit:
                raise BudgetExceeded("max_iterations", unit)
        if self.max_facts is not None and stats.facts_derived > self.max_facts:
            raise BudgetExceeded("max_facts", unit)


class Guard:
    """A :class:`Governor` bound to one unit's identity.

    The fixpoint loops receive a guard instead of the raw governor so
    every checkpoint carries the unit label and scheduling ordinal that
    :class:`ResourceExhausted` reports.  Its own state is what is per
    unit, not per run: the round count and the previous boundary's facts.
    """

    __slots__ = ("governor", "unit", "ordinal", "rounds", "_last_facts")

    def __init__(self, governor: Governor, unit: Optional[str], ordinal: Optional[int]):
        self.governor = governor
        self.unit = unit
        self.ordinal = ordinal
        #: fixpoint rounds this unit has started — what
        #: ``stats.unit_rounds`` books
        self.rounds = 0
        #: ``stats.facts_derived`` as of the previous semi-naive round
        #: boundary — the diff is exactly the rows entering this round's
        #: delta frontier (every new fact enters it once)
        self._last_facts = 0

    def iteration(self, stats, delta: Optional[dict] = None) -> None:
        """One fixpoint round is starting.  A semi-naive loop passes
        *delta* (its frontier) on every round after the first; the rows
        entering it — the facts derived since the previous boundary —
        are charged to the delta-row budget before the other checks."""
        g = self.governor
        stats.iterations += 1
        self.rounds += 1
        if not g.enabled:
            return
        limit = g.max_delta_rows
        if limit is not None:
            facts = stats.facts_derived
            if delta is not None:
                g.delta_rows += facts - self._last_facts
                if g.delta_rows > limit:
                    raise BudgetExceeded("max_delta_rows", self.unit)
            # with no *delta* a loop is (re)starting: only snapshot, so
            # facts derived outside semi-naive rounds never count
            self._last_facts = facts
        if g.injector is not None:
            g.injector.slow_down(self.ordinal)
        g.check(stats, self.unit, iteration=True)

    def checkpoint(self, stats) -> None:
        """A rule firing is starting (the between-rules boundary)."""
        g = self.governor
        if not g.enabled:
            return
        if g.injector is not None and self.ordinal is not None:
            g.injector.maybe_unit_error(self.ordinal, self.unit or "?")
        g.check(stats, self.unit)

    def unit_boundary(self, stats) -> None:
        """An evaluation unit is starting (the per-unit boundary)."""
        g = self.governor
        if not g.enabled:
            return
        if g.injector is not None:
            g.injector.slow_down(self.ordinal)
        g.check(stats, self.unit)
