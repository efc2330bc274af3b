"""Self-test of the benchmark harness (not collected by tier-1).

    python -m pytest benchmarks/e2e -q

Checks the instrument, not the program: generators are pure functions
of the seed, a wrong answer is counted as a failed operation, the trace
is a well-formed span tree, the names printed are exactly the names
declared, and the contract file at the root is the catalogue's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # puts benchmarks/e2e and src on sys.path
import catalog
import measure
from inputs import GENERATORS
from spans import self_times

RUN = os.path.join(run.HERE, "run.py")


def harness(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    done = harness("--smoke")
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_generators_are_functions_of_the_seed(name):
    params = catalog.WORKLOADS[name].smoke
    assert GENERATORS[name](7, params) == GENERATORS[name](7, params)
    assert GENERATORS[name](7, params) != GENERATORS[name](8, params)


def test_wrong_reference_is_a_failed_operation(tmp_path):
    inputs = GENERATORS["tc_cycle"](7, catalog.WORKLOADS["tc_cycle"].smoke)
    good = inputs.cases[0]
    bad = dataclasses.replace(good, reference=good.reference | {"no such node"})
    paths = measure.write_inputs([good], str(tmp_path))
    tally = measure.Tally()
    measure.cold_run(good, paths, tally)
    measure.warm_run(measure.load(good, paths), tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    measure.cold_run(bad, paths, tally)
    measure.warm_run(measure.load(bad, paths), tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert len(tally.failures) == 2


def test_smoke_prints_exactly_the_declared_names(smoke):
    printed: dict[str, set] = {}
    workload = None
    for row in smoke.stdout.splitlines():
        if row.startswith("== ") and "seed=" in row:
            workload = row.split()[1]
            continue
        parts = row.split()
        # a metric row: name unit median q1 q3 n [extras]
        if workload and len(parts) >= 6 and parts[5].isdigit():
            printed.setdefault(workload, set()).add(parts[0])
    for name in catalog.WORKLOADS:
        declared = {m.name for m in catalog.END_TO_END}
        declared |= {m.name for m in catalog.per_layer_for(name)}
        assert printed[name] == declared
    assert set().union(*printed.values()) == set(catalog.ALL_METRICS)


def test_last_line_is_the_contract_object(smoke):
    last = json.loads(smoke.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1


@pytest.mark.parametrize("trace, declared", [
    ("0", catalog.END_TO_END),
    ("1", [m for m in catalog.PER_LAYER if m.only is None]),
])
def test_single_run_reports_the_listed_metrics(trace, declared):
    done = harness("--workload", "rules_wide", "--seed", "3", "--seconds",
                   "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {m.name for m in declared}
    for m in declared:
        assert last["metrics"][m.name]["unit"] == m.unit


def test_contract_file_is_the_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == json.loads(json.dumps(catalog.benchmark_json()))
    for w in catalog.WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why


def test_trace_is_a_span_tree(smoke):
    for name in catalog.WORKLOADS:
        path = os.path.join(run.OUT, f"trace-{name}-seed{catalog.DEFAULT_SEED}.json")
        with open(path) as f:
            trace = json.load(f)
        spans = trace["spans"]
        ids = {s["id"] for s in spans}
        assert spans and all(s["parent"] is None or s["parent"] in ids
                             for s in spans)
        assert all(s["end"] >= s["start"] for s in spans)
        assert all(t >= -1e-9 for t in self_times(spans).values())
        # stage spans + overhead = root span, per sample
        by_sample: dict = {}
        for s in spans:
            if s["name"] in measure.STAGES or s["name"] == "cli.run":
                by_sample.setdefault(s["sample"], {}).setdefault(
                    s["name"], 0.0)
                by_sample[s["sample"]][s["name"]] += s["end"] - s["start"]
        assert by_sample
        for sample in by_sample.values():
            assert set(sample) == {*measure.STAGES, "cli.run"}


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tc_cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=180)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
