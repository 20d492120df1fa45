"""Run one workload (or the suite) and report the metrics it defines.

``BENCHMARK.json`` is the single list of metric names and units: an
untraced run emits every ``end_to_end`` metric, a traced run every
``per_layer`` metric, and a name that nothing produces is reported as
0 (the layer was idle on that workload).

Timings are per-pass values reduced by their median, so one slow pass —
a first pass that warms process-wide caches, a scheduling hiccup — does
not move the result.  Set-up is the exception: process start → ready
can only be sampled once per process, so an untraced run spawns two
more processes that set up and exit, and reports the median of three.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from .layers import TARGETS, span_metric
from .tracer import OPERATION, Tracer
from .workloads import ROOT, WORKLOADS

__all__ = ["main", "measure", "load_spec"]

PERF = os.path.join(ROOT, "perf")
OUT = os.path.join(PERF, "out")
HISTORY = os.path.join(PERF, "history.jsonl")
SCRIPT = os.path.join(PERF, "run.py")
#: set-up samples per untraced run (this process plus children).
SETUP_SAMPLES = 3
#: share of a traced run's seconds spent on untraced passes, which give
#: the wall the tracing overhead is measured against.
UNTRACED_SHARE = 0.35


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (p99 of 31 values is their maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child_setup(name: str, seed: int) -> tuple[float, int, int]:
    """Set up in a fresh process; ``(seconds, attempted, failed)``."""
    done = subprocess.run(
        [sys.executable, SCRIPT, "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["attempted"], doc["failed"]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    setup_only: bool = False,
    boot_seconds: float = 0.0,
) -> dict:
    """One run of workload *name*; returns the report document.

    ``smoke`` shrinks the workload to its smallest program and one pass
    (two when traced: one untraced, one traced).  ``boot_seconds`` is
    what the process spent before this call (interpreter, imports) and
    counts as set-up.
    """
    spec = load_spec()
    scratch = os.path.join(OUT, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    previous_tmp = tempfile.tempdir
    # Backend work directories and the plan store land here, inside the
    # checkout, instead of the system temp directory.
    tempfile.tempdir = scratch
    workload = WORKLOADS[name](seed, smoke=smoke, trace=trace)
    attempted = failed = 0
    setups: list[float] = []
    try:
        if not (trace or smoke or setup_only):
            for _ in range(SETUP_SAMPLES - 1):
                child_seconds, child_attempted, child_failed = _child_setup(
                    name, seed
                )
                setups.append(child_seconds)
                attempted += child_attempted
                failed += child_failed
        start = time.perf_counter()
        workload.setup()
        setups.append(boot_seconds + time.perf_counter() - start)
        attempted += workload.setup_attempted
        failed += workload.setup_failed
        if setup_only:
            return {
                "setup_s": setups[-1], "attempted": attempted, "failed": failed
            }

        untraced, traced, layer_rows = [], [], []
        index = 0
        start = time.perf_counter()
        untraced_budget = seconds * (UNTRACED_SHARE if trace else 1.0)
        while True:
            untraced.append(workload.run_pass(index, None))
            index += 1
            # A traced run needs a second untraced pass: the first one
            # warms process-wide caches and would flatter the overhead.
            if smoke or (
                time.perf_counter() - start >= untraced_budget
                and len(untraced) >= (2 if trace else 1)
            ):
                break
        probes: dict[str, float] = {}
        if trace:
            tracer = Tracer()
            tracer.install(TARGETS)
            try:
                while True:
                    tracer.reset()
                    result = workload.run_pass(index, tracer)
                    index += 1
                    traced.append(result)
                    layer_rows.append(_layer_row(spec, result, tracer))
                    if smoke or time.perf_counter() - start >= seconds:
                        break
            finally:
                tracer.uninstall()
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"trace-{name}.jsonl"))
            probes = workload.probes()
        peak_rss = workload.peak_rss_mb()
    finally:
        workload.close()
        tempfile.tempdir = previous_tmp
        shutil.rmtree(scratch, ignore_errors=True)

    passes = untraced + traced
    for result in passes:
        attempted += len(result.seconds) + 1
        # Winners, bags and counters must repeat pass to pass, and with
        # tracing on exactly as with it off.
        failed += result.failed + (result.signature != passes[0].signature)

    rows: dict[str, dict] = {}

    def row(metric: str, values: list[float]) -> None:
        q1, median, q3 = _quartiles(values)
        rows[metric] = {"value": median, "q1": q1, "q3": q3, "n": len(values)}

    if trace:
        for metric in (entry["name"] for entry in spec["per_layer"]):
            row(metric, [layer[metric] for layer in layer_rows])
        # Fastest pass against fastest pass: the same work either way,
        # so the minimum is the least noisy estimate of its cost.
        overhead = (
            min(r.wall for r in traced) / min(r.wall for r in untraced) - 1.0
        )
        row("trace.overhead_share", [overhead])
        for metric, value in probes.items():
            row(metric, [value])
        listed = spec["per_layer"]
    else:
        row("setup_s", setups)
        row("pass_wall_s", [r.wall for r in untraced])
        row(
            "op_p50_ms",
            [1e3 * statistics.median(r.latencies) for r in untraced],
        )
        row(
            "op_p99_ms",
            [1e3 * _percentile(r.latencies, 0.99) for r in untraced],
        )
        row("peak_rss_mb", [peak_rss])
        listed = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    missing = sorted(set(units) - set(rows))
    if missing:
        raise RuntimeError(f"no value produced for metric(s) {missing}")
    return {
        "meta": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "passes": len(untraced),
            "traced_passes": len(traced),
            "ops_per_pass": len(untraced[0].seconds),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _commit(),
        },
        "rows": {
            metric: dict(rows[metric], unit=units[metric]) for metric in units
        },
        "attempted": attempted,
        "failed": failed,
    }


def _layer_row(spec: dict, result, tracer) -> dict[str, float]:
    """Every per-layer metric for one traced pass."""
    values = {}
    unknown = set(result.facts) - {e["name"] for e in spec["per_layer"]}
    if unknown:
        raise RuntimeError(f"facts BENCHMARK.json does not list: {unknown}")
    for entry in spec["per_layer"]:
        metric = entry["name"]
        value = result.facts.get(metric)
        if value is None:
            value = span_metric(metric, tracer)
        values[metric] = 0.0 if value is None else float(value)
    values["trace.unattributed_share"] = (
        tracer.self_seconds.get(OPERATION, 0.0) / result.wall
    )
    return values


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _print_report(report: dict) -> None:
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    print(f"{'metric':<46} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    for metric, row in report["rows"].items():
        print(
            f"{metric:<46} {row['unit']:<7} {row['value']:>14.6g} "
            f"{row['q1']:>14.6g} {row['q3']:>14.6g} {row['n']:>4}"
        )
    share = report["failed"] / report["attempted"]
    print(
        f"failed_share {share:.6g} "
        f"({report['failed']} of {report['attempted']} operations)"
    )


def _result_line(report: dict) -> str:
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                metric: {"value": row["value"], "unit": row["unit"]}
                for metric, row in report["rows"].items()
            },
        }
    )


def _record(report: dict) -> None:
    entry = dict(
        report["meta"],
        time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        failed=report["failed"],
        metrics={m: row["value"] for m, row in report["rows"].items()},
    )
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _suite(args) -> int:
    """Every workload, each in its own process; non-zero if any failed."""
    status = 0
    summary = []
    started = time.perf_counter()
    for name in WORKLOADS:
        command = [
            sys.executable, SCRIPT, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--record"] if args.record else [])
        began = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        summary.append((name, done.returncode, time.perf_counter() - began))
    print()
    for name, code, seconds in summary:
        print(f"{name:<14} {'ok' if code == 0 else 'FAILED':<7} {seconds:7.1f} s")
    print(f"suite          {time.perf_counter() - started:15.1f} s")
    return status


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="The layered request -> plan -> execute benchmark."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--suite", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the medians to perf/history.jsonl")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.suite:
        return _suite(args)
    if args.workload is None:
        parser.error("one of --workload or --suite is required")
    boot = 0.0 if started is None else time.perf_counter() - started
    report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setup_only=args.setup_only, boot_seconds=boot,
    )
    if args.setup_only:
        print(json.dumps(report))
        return 0
    _print_report(report)
    if args.record:
        _record(report)
    print(_result_line(report))
    return 0 if report["failed"] == 0 else 1
