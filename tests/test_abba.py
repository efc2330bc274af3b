"""The ABBA summary of ``scripts/abba.py`` on canned benchmark results,
and the environment each side runs in (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "abba.py"
_spec = importlib.util.spec_from_file_location("abba", _PATH)
abba = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abba)

METRICS = [
    {"name": "warm_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.1},
]


def result(failed=0, **values):
    return {"failed": failed,
            "metrics": {n: {"value": v, "q1": v, "q3": v, "n": 1}
                        for n, v in values.items()}}


def test_medians_quartiles_and_wins():
    pairs = [
        (result(warm_ms=10.0, ops=5.0), result(warm_ms=9.0, ops=6.0)),
        (result(warm_ms=12.0, ops=5.0), result(warm_ms=9.5, ops=4.0)),
        (result(warm_ms=11.0, ops=5.0), result(warm_ms=11.5, ops=5.0)),
        (result(warm_ms=13.0, ops=5.0), result(warm_ms=10.0, ops=7.0)),
    ]
    warm, ops = abba.summarize(pairs, METRICS)  # "absent" is skipped
    assert warm["name"] == "warm_ms"
    assert (warm["parent"], warm["tree"]) == (11.5, 9.75)
    assert warm["quartiles"] == (10.25, 12.75)
    assert warm["wins"] == 3 and warm["pairs"] == 4
    assert warm["change"] == pytest.approx(9.75 / 11.5 - 1)
    # higher is better: a tie is not a win
    assert ops["wins"] == 2 and (ops["parent"], ops["tree"]) == (5.0, 5.5)
    assert warm["failed"] == ops["failed"] == 0
    line = abba.format_row("tc_cycle", warm)
    assert line.startswith("tc_cycle warm_ms: parent 11.5 [10.25–12.75] tree 9.75 ms")
    assert "wins 3/4" in line and "FAILED" not in line


def test_one_pair_and_failures_show():
    pairs = [(result(warm_ms=4.0), result(failed=2, warm_ms=5.0))]
    (warm,) = abba.summarize(pairs, METRICS)
    assert warm["quartiles"] == (4.0, 4.0)
    assert warm["wins"] == 0 and warm["failed"] == 2
    assert "FAILED OPERATIONS 2" in abba.format_row("w", warm)


def test_metrics_come_from_the_benchmark_declaration():
    spec = abba.benchmark()
    assert "warm_ms" in [m["name"] for m in spec["end_to_end"]]
    assert "tc_cycle" in [w["name"] for w in spec["workloads"]]


def test_each_side_has_a_bytecode_cache_of_its_own(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(abba.ROOT / "stale"))
    sides = {"parent": tmp_path / "parent", "tree": abba.ROOT}
    envs = abba.side_envs(sides, tmp_path / "tmp")
    prefixes = {side: Path(env["PYTHONPYCACHEPREFIX"]) for side, env in envs.items()}
    assert prefixes["parent"] != prefixes["tree"]
    for prefix in prefixes.values():
        assert prefix.parent == tmp_path / "tmp"
        assert not any(prefix.is_relative_to(tree) for tree in sides.values())
    for env in envs.values():
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PATH"] == abba.os.environ["PATH"]


def test_every_run_uses_its_sides_environment(tmp_path, monkeypatch):
    """``main`` with ``subprocess.run`` recorded, not started: each side
    compiles and warms before the first measured pair, always in its
    own environment."""
    calls = []

    def fake_run(cmd, cwd, env, check, stdout):
        calls.append((cmd, Path(cwd), env["PYTHONPYCACHEPREFIX"]))
        if "--out" in cmd:
            canned = {"results": [result(setup_s=1.0, cold_s=1.0, warm_ms=1.0)]}
            Path(cmd[cmd.index("--out") + 1]).write_text(json.dumps(canned))

    monkeypatch.setattr(abba.subprocess, "run", fake_run)
    parent = tmp_path / "parent"
    abba.main([str(parent), "--workload", "family_mix", "--pairs", "2", "--seed", "1990"])
    prefix = {}
    for cmd, cwd, cache in calls:
        assert prefix.setdefault(cwd, cache) == cache
    assert set(prefix) == {parent, abba.ROOT} and len(set(prefix.values())) == 2
    kinds = [(cwd, "compileall" if "compileall" in cmd else
              "warm" if "--smoke" in cmd else "pair") for cmd, cwd, _ in calls]
    assert kinds[:4] == [(parent, "compileall"), (parent, "warm"),
                         (abba.ROOT, "compileall"), (abba.ROOT, "warm")]
    assert [k for _, k in kinds[4:]] == ["pair"] * 4
    runs = [cmd for cmd, _, _ in calls if "compileall" not in cmd]
    assert all(cmd[cmd.index("--seed") + 1] == "1990" for cmd in runs)
