"""Runs one workload and prints its result, or every workload as a report.

A run sets up its workload several times, measures for the given
seconds, and prints two JSON lines: first the details (environment, every
sample, failures), then the result, whose metrics are the ``end_to_end``
list of ``BENCHMARK.json`` on an untraced run and the ``per_layer`` list on a
traced one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import MEASURE, Tracer
from workloads import REFERENCE_S, WORKLOADS, Run, host_reference_s

# Set-up repeats at least this often, and until it has taken SETUP_SECONDS,
# so that a cheap set-up reports the median of enough samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
# Printed in the details line but not gated in BENCHMARK.json: the two parts
# of chars_per_s, and timings that between runs of one seed on a shared host
# moved by more than the largest bound allowed.
DETAIL_UNITS = {
    "wall_chars_per_s": "chars/s", "host_reference_ms": "ms", "save_s": "s", "load_s": "s",
    "op_ms_p50": "ms", "op_ms_p95": "ms", "failed_frac": "frac",
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_reference_ms() -> float:
    """Median of five timings of the host-speed reference: how fast the host runs now."""
    return 1000.0 * statistics.median(host_reference_s() for _ in range(5))


def environment() -> dict:
    """What a reader needs to compare two results: versions, cores, load, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "host_reference_ms_at_start": host_reference_ms(),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(
    run: Run, setup_s: list[float], setup_reference_s: list[float], host_scaled: bool
) -> dict[str, float]:
    """Each timing reports the median of the run's samples.

    On a shared host the same work runs up to twice as fast or slow, for a
    second or for minutes, while neighbours come and go. The best sample of
    a run lands in a fast burst in some runs and not in others. So
    ``setup_s`` is the median of the set-up times, each multiplied by
    ``REFERENCE_S`` over the mean of the host-speed references timed right
    before and right after it: the time on a host of fixed speed. On a
    ``host_scaled`` workload, ``chars_per_s`` is the median over the run's
    samples (train calls or batches of lines) of each sample's rate scaled
    the other way. The details line prints the unscaled values.
    """
    rates = run.scaled_rates() if host_scaled else run.rates
    setups = [s * REFERENCE_S / ref for s, ref in zip(setup_s, setup_reference_s)]
    p50, p95 = np.percentile(run.op_s, [50, 95]) if run.op_s else (0.0, 0.0)
    return {
        "chars_per_s": _median(rates),
        "wall_chars_per_s": _median(run.rates),
        "host_reference_ms": 1000.0 * _median(run.reference_s),
        "f1": _median(run.f1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median(setups),
        "crf.invalid_bmes_frac": run.repaired / run.decoded if run.decoded else 0.0,
        "save_s": _median(run.save_s),
        "load_s": _median(run.load_s),
        "op_ms_p50": 1000.0 * float(p50),
        "op_ms_p95": 1000.0 * float(p95),
        "failed_frac": run.failed / run.attempted if run.attempted else 0.0,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Set up, measure and compute metrics; returns (details, result, tracer)."""
    env = environment()
    run = Run(tracer=Tracer() if trace else None)
    setup_s: list[float] = []
    setup_reference_s: list[float] = []
    started = time.perf_counter()
    with run.tracer or contextlib.nullcontext():
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            state = None  # free the previous set-up before building the next
            before = host_reference_s()
            start = time.perf_counter()
            state = workload.setup(seed, work_dir, run)
            setup_s.append(time.perf_counter() - start)
            setup_reference_s.append((before + host_reference_s()) / 2.0)
        if run.tracer:
            run.tracer.phase = MEASURE
        run.reference_s.append(host_reference_s())
        measure_start = time.perf_counter()
        workload.measure(state, seconds, run)
        measured = time.perf_counter() - measure_start

    values = end_to_end(run, setup_s, setup_reference_s, workload.host_scaled)
    section = "end_to_end"
    if run.tracer:
        section = "per_layer"
        values.update(run.tracer.per_layer(run.chars, len(setup_s)))
        values["trace.chars_per_s"] = values["chars_per_s"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec()[section]
    }
    details = {
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "wall_setup_s": setup_s,
        "setup_host_reference_s": setup_reference_s,
        "measured_s": measured,
        "wall_s": time.perf_counter() - started,
        "host_reference_ms_at_end": host_reference_ms(),
        "chars": run.chars,
        "ops": len(run.op_s),
        "ungated_metrics": {k: {"value": values[k], "unit": u} for k, u in DETAIL_UNITS.items()},
        "failures": run.failures,
        "decoded": run.decoded,
        "repaired": run.repaired,
        "samples": {
            "wall_chars_per_s": run.rates, "host_reference_s": run.reference_s,
            "save_s": run.save_s, "load_s": run.load_s,
        },
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return details, result, run.tracer


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        details, result, tracer = run_workload(WORKLOADS[name](), seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        details["trace_file"] = str((trace_dir / f"{name}-seed{seed}.tsv").relative_to(ROOT))
        tracer.write(trace_dir / f"{name}-seed{seed}.tsv")
    print(json.dumps({"workload": name, **details}))
    print(json.dumps(result))
    return 0


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, in its own process; one table."""
    units = {m["name"]: m["unit"] for s in ("end_to_end", "per_layer") for m in spec()[s]}
    print(f"{'workload':30} {'metric':34} {'value':>14}  unit")
    for name in WORKLOADS:
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not trace:
                got.update({k: v["value"] for k, v in details["ungated_metrics"].items()})
                units.update({k: v["unit"] for k, v in details["ungated_metrics"].items()})
            got.update({k: v["value"] for k, v in result["metrics"].items()})
        for metric, value in got.items():
            print(f"{name:30} {metric:34} {value:>14.6g}  {units[metric]}")
        if got["trace.chars_per_s"]:
            overhead = got["chars_per_s"] / got["trace.chars_per_s"] - 1.0
            print(f"{name:30} {'tracing overhead':34} {overhead:>14.6g}  frac")
        if got["train.step_s"]:
            share = got["tensor.sgd_s"] / got["train.step_s"]
            print(f"{name:30} {'sgd share of step time':34} {share:>14.6g}  frac")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, both ways")
    args = parser.parse_args(argv)
    if args.report:
        return report(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --report is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
