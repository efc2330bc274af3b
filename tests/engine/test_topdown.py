"""Tests for the tabled top-down evaluator."""

import os
import subprocess
import sys

import pytest

from repro.datalog import Database, ValidationError, parse
from repro.engine import evaluate
from repro.engine.topdown import evaluate_topdown
from repro.workloads.graphs import chain, cycle, random_digraph


TC = parse(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
    """
)


def bound_query(c):
    return parse(f"tc(X, Y) :- e. ?- tc({c}, Y).").query


class TestAgreementWithBottomUp:
    @pytest.mark.parametrize(
        "edges",
        [chain(10), cycle(6), random_digraph(15, 35, seed=1), []],
        ids=["chain", "cycle", "random", "empty"],
    )
    def test_full_query(self, edges):
        db = Database()
        db.ensure("edge", 2).update(edges)
        assert evaluate_topdown(TC, db).answers == evaluate(TC, db).answers()

    @pytest.mark.parametrize("source", [0, 5, 9])
    def test_bound_query(self, source):
        db = Database.from_dict({"edge": chain(10)})
        program = TC.with_query(bound_query(source))
        td = evaluate_topdown(program, db)
        assert td.answers == evaluate(program, db).answers()

    def test_cyclic_data_terminates(self):
        # plain SLD would loop on a cycle; tabling must not
        db = Database.from_dict({"edge": cycle(5)})
        program = TC.with_query(bound_query(0))
        td = evaluate_topdown(program, db)
        assert td.answers == {(i,) for i in range(5)}

    def test_left_linear_recursion(self):
        program = parse(
            """
            tc(X, Y) :- tc(X, Z), edge(Z, Y).
            tc(X, Y) :- edge(X, Y).
            ?- tc(0, Y).
            """
        )
        db = Database.from_dict({"edge": chain(8)})
        assert (
            evaluate_topdown(program, db).answers
            == evaluate(program, db).answers()
        )

    def test_nonlinear_recursion(self):
        program = parse(
            """
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), t(Z, Y).
            ?- t(X, Y).
            """
        )
        db = Database.from_dict({"e": random_digraph(10, 25, seed=3)})
        assert (
            evaluate_topdown(program, db).answers
            == evaluate(program, db).answers()
        )

    def test_same_generation(self):
        program = parse(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
            ?- sg(1, Y).
            """
        )
        from repro.workloads.edb import random_edb

        for seed in range(3):
            db = random_edb(program, rows=15, domain=8, seed=seed)
            assert (
                evaluate_topdown(program, db).answers
                == evaluate(program, db).answers()
            )

    def test_builtins(self):
        program = parse(
            """
            up_path(X, Y) :- edge(X, Y), lt(X, Y).
            up_path(X, Y) :- edge(X, Z), lt(X, Z), up_path(Z, Y).
            ?- up_path(0, Y).
            """
        )
        db = Database.from_dict({"edge": [(0, 2), (2, 1), (2, 4), (1, 3)]})
        assert evaluate_topdown(program, db).answers == {(2,), (4,)}


class TestGoalDirection:
    def test_explores_only_reachable_subgoals(self):
        # bound query from the chain's tail: few subgoals, few facts
        db = Database.from_dict({"edge": chain(30)})
        program = TC.with_query(bound_query(25))
        td = evaluate_topdown(program, db)
        bu = evaluate(program, db)
        assert td.stats.facts_derived < bu.stats.facts_derived / 10
        assert td.subgoal_count <= 6  # tc(25,_) ... tc(29,_)

    def test_repeated_variable_query(self):
        program = TC.with_query(parse("?- tc(X, X). x :- e.").query)
        db = Database.from_dict({"edge": cycle(4) + [(8, 9)]})
        assert evaluate_topdown(program, db).answers == {(0,), (1,), (2,), (3,)}

    def test_tables_exposed(self):
        db = Database.from_dict({"edge": chain(5)})
        program = TC.with_query(bound_query(2))
        td = evaluate_topdown(program, db)
        assert ("tc", (2, None)) in td.tables


class TestRestrictions:
    def test_requires_query(self):
        with pytest.raises(ValidationError):
            evaluate_topdown(TC.with_query(None), Database())

    def test_rejects_negation(self):
        program = parse(
            """
            p(X) :- n(X), not q(X).
            q(X) :- m(X).
            ?- p(X).
            """
        )
        with pytest.raises(ValidationError):
            evaluate_topdown(program, Database())

    def test_pass_cap(self):
        from repro.datalog import EvaluationError

        db = Database.from_dict({"edge": chain(20)})
        with pytest.raises(EvaluationError):
            evaluate_topdown(TC, db, max_passes=1)


class TestUniformInputs:
    def test_initial_idb_facts_respected(self):
        # uniform-equivalence convention: tc starts non-empty
        db = Database.from_dict({"edge": [(1, 2)], "tc": [(9, 10), (2, 7)]})
        td = evaluate_topdown(TC, db)
        assert td.answers == evaluate(TC, db).answers()
        assert (9, 10) in td.answers
        assert (1, 7) in td.answers  # edge(1,2) joined with seeded tc(2,7)

    def test_initial_idb_facts_with_bound_query(self):
        db = Database.from_dict({"edge": [(1, 2)], "tc": [(2, 7)]})
        program = TC.with_query(bound_query(1))
        td = evaluate_topdown(program, db)
        assert td.answers == evaluate(program, db).answers()


#: the top-down run of the `TD-n60` work-gate row: bound-source TC over a
#: chain plus forward chords, where one grown table wakes several consumers
HASH_SEED_SCRIPT = """
import json
from tests.bench.cases import CASES
(case,) = (c for c in CASES if c.id == "TD-n60")
print(json.dumps(case.runs["top-down"]().as_dict(), sort_keys=True))
"""
ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_work_counters_do_not_depend_on_the_hash_seed():
    """Consumers are woken in registration order, not in the order a set
    of (predicate-name, pattern) keys happens to hash to."""

    def counters(seed):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.path.join(ROOT, "src")}
        return subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        ).stdout

    assert counters("0") == counters("1")


def test_work_counters_do_not_depend_on_predicate_names():
    """The same invariance inside one process: a renamed predicate hashes
    elsewhere, and must still wake its consumers in the same order.
    (Two subprocesses can agree by luck — before Python 3.12
    ``hash(None)`` moves every pattern's hash from run to run.)"""
    forward = {(a, b) for a, b in random_digraph(60, 60, seed=0) if a < b}
    db = Database.from_dict({"edge": sorted(set(chain(60)) | forward)})

    def counters(p):
        text = f"{p}(X, Y) :- edge(X, Y). {p}(X, Y) :- edge(X, Z), {p}(Z, Y). ?- {p}(50, Y)."
        stats = evaluate_topdown(parse(text), db).stats.as_dict()
        return {k: v for k, v in stats.items() if k != "fact_counts"}

    first, *others = [counters(f"tc{i}") for i in range(12)]
    assert all(c == first for c in others)
