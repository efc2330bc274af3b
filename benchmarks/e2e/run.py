#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the repository (BENCHMARK.json).

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--repeat K] [--out FILE]

Every input is generated from the seed, each workload runs in its own
child process (one thread, ``parallel=1``, closed loop with one
client), every output is checked against an independent reference, and
every metric is printed by name with unit, median, quartiles and sample
count.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (default) measures the end-to-end metrics and records no
span.  ``--trace 1`` is a separate run that re-enacts the same path
stage by stage, keeps the spans in memory, writes them to
``benchmarks/e2e/out/`` when it ends, and reports the per-layer
metrics.  ``--smoke`` runs all five workloads, both ways, at reduced
size.  ``--repeat K`` runs the untraced suite on K consecutive seeds
and checks each end-to-end metric's spread against its bound.

The tables (workloads, metrics, bounds, what moves what) are in
``catalog.py``; ``README.md`` explains how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import measure  # noqa: E402
import serve  # noqa: E402
from inputs import GENERATORS  # noqa: E402
from spans import Recorder  # noqa: E402

SRC = measure.SRC
ROOT = os.path.dirname(SRC)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

#: warm passes over the workload's programs per sample, where one pass
#: is too short to time
PASSES = {"rules_wide": 20}
SMOKE_SECONDS = 1.0
CHILD_TIMEOUT_S = 170
SESSION_LAYERS = ("engine.incremental.", "engine.durability.",
                  "engine.recovery.")


def fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# the child: one workload, one seed, one mode


def child_main(args) -> int:
    name = args.workload[0]
    workload = catalog.WORKLOADS[name]
    params = workload.smoke if args.smoke else workload.params
    floors = measure.SMOKE_FLOORS if args.smoke else measure.Floors()
    passes = PASSES.get(name, 1)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tally = measure.Tally()
    try:
        setup, imports = [], []
        inputs = paths = None

        def set_up() -> float:
            nonlocal inputs, paths
            imports.append(measure.import_seconds())
            t0 = measure.now()
            inputs = GENERATORS[name](args.seed, params)
            paths = measure.write_inputs(inputs.cases, workdir)
            return imports[-1] + measure.now() - t0

        for _ in range(floors.setup):
            setup.append(measure.calibrated(set_up))

        if args.trace:
            rec = Recorder()
            query_seconds = args.seconds * (0.4 if inputs.session else 1.0)
            metrics = measure.traced(inputs, paths, workdir, query_seconds,
                                     floors, passes, tally, rec)
            if inputs.session:
                metrics.update(serve.measure(inputs, workdir, args.seconds,
                                             floors, tally, rec))
            else:
                # the session layers' counts read 0 without a session;
                # any other missing name is a bug and raises below
                for m in catalog.PER_LAYER:
                    if m.only is None and m.name.startswith(SESSION_LAYERS):
                        metrics[m.name] = measure.scalar(0)
            metrics["cli.import_s"] = measure.summarize(imports)
            rec.write(
                os.path.join(OUT, f"trace-{name}-seed{args.seed}.json"),
                {"workload": name, "seed": args.seed, "smoke": args.smoke,
                 "fingerprint": fingerprint()})
            wanted = [m.name for m in catalog.per_layer_for(name)]
        else:
            if inputs.session:
                metrics = serve.measure(inputs, workdir, args.seconds, floors,
                                        tally, None)
            else:
                metrics = measure.untraced(inputs, paths, args.seconds,
                                           floors, passes, tally)
                metrics["peak_rss_mb"] = measure.scalar(measure.peak_rss_mb())
            metrics["setup_s"] = measure.steady(setup)
            wanted = [m.name for m in catalog.END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for n in wanted:
        metrics[n]["unit"] = catalog.ALL_METRICS[n].unit
    print(json.dumps({
        "workload": name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "metrics": {n: metrics[n] for n in wanted},
    }))
    return 0


# ---------------------------------------------------------------------------
# the parent: spawn, collect, print


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"workload {workload} (seed {seed}, trace {trace}) exited with "
            f"code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_result(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"\n== {result['workload']}  seed={result['seed']}  {mode}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"{'metric':46s} {'unit':6s} {'value':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>5s}")
    for name, m in result["metrics"].items():
        # raw: the uncalibrated median beside a calibrated value
        extra = "".join(f"  {k}={m[k]:.6g}"
                        for k in ("raw", "percentile", "base") if k in m)
        print(f"{name:46s} {m['unit']:6s} {m['value']:14.6g} {m['q1']:14.6g} "
              f"{m['q3']:14.6g} {m['n']:5d}{extra}")
    for reason in result["failures"]:
        print(f"   FAILED: {reason}")


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median (the
    whole range below four values)."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = min(values), max(values)
    return (q3 - q1) / statistics.median(values)


def print_repeat(results: list) -> bool:
    """Per end-to-end metric and workload: spread against the bound."""
    print(f"\n== spread over {len({r['seed'] for r in results})} seeds")
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in results):
        rows = [r for r in results if r["workload"] == workload]
        for m in catalog.END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in rows]
            s = spread(values)
            # the set-up time's spread is reported, not bounded
            passed = s <= m.bound or m.name == "setup_s"
            ok = ok and passed
            print(f"{workload:14s} {m.name:14s} {statistics.median(values):12.5g} "
                  f"{s:8.2%} {m.bound:6.0%}  {'PASS' if passed else 'FAIL'}")
    return ok


def listed_in_contract(result: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, value and unit."""
    return {n: {"value": m["value"], "unit": m["unit"]}
            for n, m in result["metrics"].items()
            if catalog.ALL_METRICS[n].only is None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS),
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per workload (default "
                        f"{catalog.RUN_SECONDS}; sample floors still apply)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1),
                        help="0: end-to-end metrics, no span recorded "
                        "(default); 1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, untraced and traced, reduced size")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run the untraced suite on seeds N..N+K-1 and "
                        "check the spread of each end-to-end metric")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result file (default: under benchmarks/e2e/out/)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve-writer", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else catalog.RUN_SECONDS
    os.makedirs(OUT, exist_ok=True)
    if args.serve_writer:
        return serve.writer_main(args.serve_writer)
    if args.child:
        return child_main(args)

    workloads = args.workload or list(catalog.WORKLOADS)
    if args.trace is not None:
        modes = (args.trace,)
    else:
        modes = (0, 1) if args.smoke else (0,)
    results = []
    try:
        for k in range(args.repeat):
            for workload in workloads:
                for trace in modes:
                    result = run_child(workload, args.seed + k, args.seconds,
                                       trace, args.smoke)
                    print_result(result)
                    results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spread_ok = print_repeat(results) if args.repeat > 1 else True

    out = args.out or os.path.join(
        OUT, "result-{}-seed{}-trace{}.json".format(
            workloads[0] if len(workloads) == 1 else "suite", args.seed,
            "both" if len(modes) > 1 else modes[0]))
    with open(out, "w") as f:
        json.dump({"fingerprint": fingerprint(), "results": results}, f, indent=1)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    single = len(results) == 1
    metrics = {}
    for r in results:
        for n, m in listed_in_contract(r).items():
            metrics[n if single else f"{r['workload']}/{r['seed']}/{n}"] = m
    print(f"\nresults written to {os.path.relpath(out)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and spread_ok else 1


if __name__ == "__main__":
    sys.exit(main())
