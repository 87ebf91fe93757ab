"""Benchmark for hngame: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the program is imported from ``src/`` next to this
directory, and scratch files go to ``.bench_out/`` there.  Each operation
starts when the previous one ends.  A run repeats whole rounds (a fixed,
seeded list of operations) until ``--seconds`` have passed, checking every
output against reference computations as it goes.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median over ``SETUP_REPEATS`` fresh processes of importing hngame plus
the library calls that prepare the inputs.  With ``--trace 1`` it runs one round untraced and one
traced, and reports the per-layer metrics of the traced setup and round plus
the tracing overhead; spans go to ``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "documents", "groups")
SETUP_REPEATS = 5
CHILD_TIMEOUT = 170

import reference  # noqa: E402  (BENCH is on sys.path as the script's directory)
from tracing import Tracer  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(name, seed, workdir, tracer=None):
    """Import hngame and build the workload's inputs, traced if asked.

    Returns (workload, module, setup seconds): the import plus the library
    calls that prepare the inputs (``library_s``), not the benchmark's own
    generation of documents.
    """
    start = perf_counter()
    importlib.import_module("hngame")
    module = importlib.import_module(f"workload_{name}")
    imported = perf_counter() - start
    with _tracing(tracer, module):
        wl = module.setup(seed, workdir)
    return wl, module, imported + wl.library_s


def _tracing(tracer, module):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.installed(module.NAMESPACES)


def _setup_in_child(args):
    """Setup time of a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _run_rounds(wl, seconds, tracer=None, max_rounds=None):
    """Whole rounds until ``seconds`` pass (or ``max_rounds`` are done).

    Latencies go to a flat array, so the process's memory does not grow
    with the number of rounds.
    """
    latencies, failed, problems, rounds = array("d"), 0, [], 0
    start = perf_counter()
    while True:
        for op in wl.ops:
            t0 = perf_counter()
            try:
                result = op.call() if tracer is None else tracer.op_span(op.call)
            except Exception as exc:  # an escaped exception is a failed operation
                result = exc
            latencies.append(perf_counter() - t0)
            op_failed, problem = op.verify(result)
            failed += op_failed
            if problem is not None:
                problems.append(problem)
        rounds += 1
        if rounds == max_rounds or perf_counter() - start >= seconds:
            return latencies, failed, problems, rounds


def _end_to_end(latencies, setup_samples, peak_rss_kb):
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (q[49] * 1e3, "ms"),
        "op_p90_ms": (q[89] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def run_workload(args, workdir):
    """One run; returns (correct, attempted, failed, metrics, notes)."""
    reference.self_test()
    tracer = Tracer() if args.trace else None
    wl, module, own = _setup(args.workload, args.seed, workdir, tracer)
    problems = wl.prepare()
    if tracer is None:
        setup_samples = [own] + [_setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        latencies, failed, found, rounds = _run_rounds(wl, args.seconds)
        # Read before the summary statistics and final checks allocate.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems += found
        metrics = _end_to_end(latencies, setup_samples, peak_rss_kb)
        attempted = len(latencies)
    else:
        plain, failed, found, _ = _run_rounds(wl, 0, max_rounds=1)
        problems += found
        with _tracing(tracer, module):
            traced, traced_failed, found, _ = _run_rounds(wl, 0, tracer, max_rounds=1)
        problems += found
        failed += traced_failed
        rounds = 2
        attempted = len(plain) + len(traced)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (sum(traced) - sum(plain), "s")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    problems += wl.final_checks()
    notes = {"rounds": rounds, "ops_per_round": len(wl.ops), "problems": problems[:5]}
    return not problems, attempted, failed, metrics, notes


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        results[name] = json.loads(out.stdout.splitlines()[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "hngame" / "__init__.py").is_file():
        print(f"hngame sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": _setup(args.workload, args.seed, workdir)[2]}))
            return 0
        correct, attempted, failed, metrics, notes = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload}: {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>14.6g} {unit}")
    print(_result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
