"""Run the declared table: every row once, every gate asserted, and the
tables EXPERIMENTS.md embeds compared against a fresh render."""

import pytest

from repro.engine import EvalStats

from ..oracle.harness import STRATEGIES
from .cases import CASES, EXPERIMENTS, GROUPS, OPS, embedded, measure, render

#: counters that are a function of (program, EDB, configuration) alone —
#: never index_builds, batch_*, dict_size, columnar_fallbacks, kernel_launches
#: or recovery_ms, which differ by numpy presence, cache warmth or clock
DETERMINISTIC = (
    set(EvalStats().as_dict(engine_invariant=True)) - {"index_builds"}
) | {"plans_costed", "replans", "wal_appends", "wal_replays"}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_gates(case):
    stats = measure(case)
    if set(case.runs) <= set(STRATEGIES):  # engine configurations of one program
        counts = [s.fact_counts for s in stats.values()]
        assert all(c == counts[0] for c in counts), dict(zip(stats, counts))
    for lhs, counter, op, factor, rhs in case.gates:
        left, right = getattr(stats[lhs], counter), getattr(stats[rhs], counter)
        assert left or right, f"vacuous gate: {lhs}.{counter} and {rhs}.{counter} are both 0"
        assert OPS[op](left * factor, right), (
            f"{case.id}: {lhs}.{counter} = {left} (× {factor}) is not {op} "
            f"{rhs}.{counter} = {right}"
        )


def test_table_is_well_formed():
    ids = [case.id for case in CASES]
    assert len(ids) == len(set(ids))
    columns = {}  # render() prints one table per group
    for case in CASES:
        assert case.id.split("-")[0] in GROUPS and case.gates, case.id
        assert columns.setdefault(case.id.split("-")[0], case.columns) == case.columns, case.id
        for lhs, counter, op, _, rhs in case.gates:
            assert {lhs, rhs} <= set(case.runs), (case.id, lhs, rhs)
            assert op in OPS and counter in DETERMINISTIC, (case.id, op, counter)
        assert set(case.columns) <= DETERMINISTIC, (case.id, case.columns)


def test_experiments_tables_are_current():
    """The block between the work-tables markers is exactly what the
    code measures now; `make report` regenerates it."""
    text = EXPERIMENTS.read_text()
    start, end = embedded(text)
    assert text[start:end] == render(), "EXPERIMENTS.md is stale: run `make report`"
