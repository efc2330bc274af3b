"""numpy is loaded by the first admitted vector plan, not by ``import repro``.

``datalog.columnar.load_numpy`` is the package's one import of numpy.
Each check runs in a fresh interpreter, since this test session has
long since loaded numpy (the ``needs_numpy`` marks ask for it).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.datalog.columnar import numpy_available

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    ?- tc(0, Y).
"""


def _python(code: str) -> str:
    """Run *code* in a fresh interpreter with ``src`` first on the path
    (the rest of ``PYTHONPATH`` kept, e.g. a directory hiding numpy); its stdout."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text(TC)
    facts = tmp_path / "chain.dl"
    facts.write_text(" ".join(f"e({i}, {i + 1})." for i in range(200)))
    return str(program), str(facts)


def _cli(argv, prelude: str = "") -> dict:
    """Run ``repro.cli.main(argv)`` in a fresh interpreter: its exit code,
    whether numpy got imported, and the ``--stats`` counters if asked."""
    code = f"""
import contextlib, io, json, sys
{prelude}
from repro.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
    rc = main({list(argv)!r})
stats = dict(
    field.split("=", 1) for line in err.getvalue().splitlines()
    if line.startswith("-- ") for field in line[3:].split()
)
from repro.datalog.columnar import numpy_available
print(json.dumps({{
    "rc": rc, "numpy": sys.modules.get("numpy") is not None,
    "answers": sorted(out.getvalue().splitlines()), "stats": stats,
    "numpy_available": numpy_available(),
}}))
"""
    return json.loads(_python(code))


def test_importing_every_module_leaves_numpy_unloaded():
    out = _python(
        """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
print("numpy" in sys.modules)
"""
    )
    assert out.strip() == "False"


@pytest.mark.parametrize(
    "command",
    [
        ["lint", "{program}"],
        ["lint", "{program}", "{facts}"],
        ["grammar", "{program}"],
        ["analyze", "{program}", "{facts}"],
        ["optimize", "{program}"],
        ["run", "{program}", "{facts}", "--no-columnar"],
    ],
    ids=lambda c: "-".join(a for a in c if not a.startswith("{")),
)
def test_commands_that_never_vectorize_never_import_numpy(tc_files, command):
    program, facts = tc_files
    argv = [a.format(program=program, facts=facts) for a in command]
    result = _cli(argv)
    assert result["rc"] == 0
    assert not result["numpy"]


def test_run_whose_plans_are_all_declined_never_imports_numpy(tc_files, tmp_path):
    """Three-literal bodies are declined at compile time, so a default
    run that never admits a plan leaves numpy unloaded."""
    program = tmp_path / "tc3.dl"
    program.write_text(
        "tc(X, Y) :- e(X, Y).\n"
        "tc(X, Y) :- e(X, Z), e(Z, W), tc(W, Y).\n"
        "?- tc(0, Y).\n"
    )
    result = _cli(["run", str(program), tc_files[1], "--stats"])
    assert result["rc"] == 0 and len(result["answers"]) == 100
    assert int(result["stats"]["batch_rows"]) == 0
    assert not result["numpy"]


def test_default_run_vectorizes_exactly_when_numpy_is_installed(tc_files):
    """The seam must not switch the vector kernel off: a default run of
    a 200-edge chain batches rows iff numpy is there to load."""
    result = _cli(["run", *tc_files, "--stats"])
    assert result["rc"] == 0
    assert (int(result["stats"]["batch_rows"]) > 0) == numpy_available()
    assert result["numpy"] == numpy_available()
    assert len(result["answers"]) == 200


def test_blocked_numpy_gives_the_same_answers_on_the_tuple_kernel(tc_files):
    default = _cli(["run", *tc_files, "--stats"])
    blocked = _cli(["run", *tc_files, "--stats"], prelude="sys.modules['numpy'] = None")
    assert blocked["rc"] == 0
    assert blocked["answers"] == default["answers"]
    assert int(blocked["stats"]["batch_rows"]) == 0
    assert blocked["numpy_available"] is False
