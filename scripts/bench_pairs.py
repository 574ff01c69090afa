"""Alternating pairs of benchmark runs in two checkouts, summarized per metric.

Usage (from the root of a checkout):
    python scripts/bench_pairs.py --parent DIR --change DIR --name NAME
        [--workload harness-d1 [checks ...]] [--pairs 10] [--seed 5]

Pair i runs `python3 benchmark/run.py --workload W --seed SEED+i --seconds S`
once in each checkout for every workload W, with S the run_seconds of
BENCHMARK.json; `--workload all` names every workload of BENCHMARK.json,
each run on its own, since run.py prints the metrics of only its last
workload on its last line.  The parent goes first in even
pairs and the change first in odd ones, so a drift in the host's speed falls
on both sides alike.  The script writes BENCH_<NAME>.json at the root of this
checkout: for each workload and end-to-end metric, the raw values of both
sides in pair order, their medians, the quartiles of the parent's values, and
in how many pairs the change's value was better, in the direction that
BENCHMARK.json gives for the metric.  It exits 1 if any run
was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in checkout."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(command[1:])} in {checkout} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(checkout: Path) -> dict:
    """The commit a checkout is at and whether its tree differs from it (None outside git)."""

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head, "modified": None if status is None else bool(status)}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    quartiles = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": [quartiles[0], quartiles[2]],
        "better_in": sum(c < p if better == "lower" else c > p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    parser.add_argument("--workload", nargs="+", default=["harness-d1"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=5, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    if args.workload == ["all"]:
        args.workload = [w["name"] for w in benchmark["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {w: {side: [] for side in SIDES} for w in args.workload}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                result = run_benchmark(checkouts[side], workload, args.seed + i, seconds)
                runs[workload][side].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: wall_s {wall:.3f} correct {result['correct']}")

    workloads = {}
    for workload, sides in runs.items():
        values = {side: {name: [r["metrics"][name]["value"] for r in sides[side]] for name in better} for side in SIDES}
        workloads[workload] = {
            "correct": {side: [r["correct"] for r in sides[side]] for side in SIDES},
            "metrics": {name: summarize(values["parent"][name], values["change"][name], better[name]) for name in better},
        }
    record = {
        "name": args.name,
        "command": f"benchmark/run.py --seconds {seconds:g}, seeds {args.seed}..{args.seed + args.pairs - 1}",
        "order": "parent first in even pairs (0-based), change first in odd pairs",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "checkouts": {side: describe(path) for side, path in checkouts.items()},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, entry in workloads.items():
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            m = entry["metrics"][name]
            print(
                f"{workload} {name}: parent {m['parent_median']:.3f} change {m['change_median']:.3f}"
                f" (better in {m['better_in']} of {m['pairs']})"
            )
    print(f"wrote {out}")
    return 0 if all(all(c) for entry in workloads.values() for c in entry["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
