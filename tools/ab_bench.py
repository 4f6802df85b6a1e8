#!/usr/bin/env python3
"""Compare the benchmark on a parent commit and on the working tree, in alternating runs.

    python3 tools/ab_bench.py --parent REV --out BENCH_<n>.json [--seeds 1-10] [--seconds 20]
                              [--workload NAME ...]

Run from the root of a source checkout. The parent is exported with
``git archive REV`` into a temporary directory; each tree runs its own
``bench/run.py``, untraced, once per (seed, workload). The two runs of a
(seed, workload) pair go back to back, and which tree runs first alternates
from one pair to the next. The output has a ``summary`` per workload (per
end-to-end metric: medians, inclusive quartiles, pairs won and lost, and two
verdicts; the chars/s and peak RSS ratio per seed; whether ``f1`` is equal for
every seed; failed operations per tree) and every run's environment and result.

The verdicts: ``gain_shown`` holds when the change is better in at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's interquartile distance; ``worse_beyond_bound`` holds when the
change's median is worse than the parent's by more than the metric's
``BENCHMARK.json`` bound, a fraction of the parent's median. It is null
(unresolved) when the parent's interquartile distance is itself wider than
the bound, unless every change run is better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TREES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(rev: str, into: Path) -> Path:
    """The files of ``rev`` in a new directory under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    tree = into / "parent"
    tree.mkdir()
    tar_path = into / "parent.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run: its environment and its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().split("\n")[-2:])
    return details["env"], result


def summarize(runs: list[dict], workload: str) -> dict:
    got = {tree: {r["seed"]: r["result"] for r in runs if r["workload"] == workload and r["tree"] == tree}
           for tree in TREES}
    seeds = sorted(got["parent"])
    out: dict = {}
    for metric in SPEC["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {tree: [got[tree][s]["metrics"][name]["value"] for s in seeds] for tree in TREES}
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        better = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        worse = sum((c < p) if higher else (c > p) for p, c in zip(values["parent"], values["change"]))
        low, high = quartiles(values["parent"])
        gain = (change_median - parent_median) * (1 if higher else -1)
        bound = metric["bound"] * abs(parent_median)
        worst_change, best_parent = (min, max) if higher else (max, min)
        clear = (worst_change(values["change"]) - best_parent(values["parent"])) * (1 if higher else -1) > 0
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "change_over_parent": change_median / parent_median if parent_median else None,
            "parent_quartiles": [low, high],
            "change_quartiles": quartiles(values["change"]),
            "pairs": len(seeds),
            "change_better_pairs": better,
            "change_worse_pairs": worse,
            "gain_shown": 10 * better >= 9 * len(seeds) and gain > high - low,
            "worse_beyond_bound": None if high - low > bound and not clear else -gain > bound,
        }
    for name in ("chars_per_s", "peak_rss_mb"):
        out[f"{name}_ratio_per_seed"] = {
            str(s): got["change"][s]["metrics"][name]["value"] / got["parent"][s]["metrics"][name]["value"]
            for s in seeds
        }
    out["f1_equal_per_seed"] = all(
        got["change"][s]["metrics"]["f1"]["value"] == got["parent"][s]["metrics"]["f1"]["value"] for s in seeds
    )
    out["failed"] = {tree: sum(got[tree][s]["failed"] for s in seeds) for tree in TREES}
    return out


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_bench.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", default="1-10", help="seed or inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]],
                        help="workload to run (repeatable; default every one)")
    args = parser.parse_args(argv)
    try:
        seeds = seed_range(args.seeds)
    except ValueError:
        parser.error(f"--seeds {args.seeds}: not a seed or an inclusive range of seeds")
    if len(seeds) < 2:
        parser.error(f"--seeds {args.seeds}: quartiles need at least two seeds")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        pair = 0
        for seed in seeds:
            for workload in workloads:
                order = TREES if pair % 2 == 0 else TREES[::-1]
                for i, tree in enumerate(order):
                    env, result = run_bench(trees[tree], workload, seed, args.seconds)
                    runs.append({"tree": tree, "workload": workload, "seed": seed, "ran_first": i == 0,
                                 "env": env, "result": result})
                    rate = result["metrics"]["chars_per_s"]["value"]
                    print(f"seed {seed} {workload} {tree}: {rate:.0f} chars/s", file=sys.stderr)
                pair += 1

    report = {
        "what": (
            f"bench/run.py run untraced for {args.seconds:g} s per run on two trees: the parent "
            f"commit {parent_rev} (git archive) and the working tree. Seeds {args.seeds}, workloads "
            f"{', '.join(workloads)}; for each (seed, workload) the two trees run back to back, and "
            "which one runs first alternates. Quartiles are inclusive; a pair counts as better or "
            "worse only when the two values differ."
        ),
        "host": f"{platform.system()} host with {os.cpu_count()} CPUs; one BLAS thread (bench/run.py sets it)",
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "summary": {w: summarize(runs, w) for w in workloads},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
