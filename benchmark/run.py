"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME may be ``all``, which runs every workload in turn and prints the two
lines below for each.

Every measured job runs in a fresh interpreter (benchmark/child.py), because
every `amalgam` invocation starts with empty module caches.  With --trace 0
the last line of standard output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, next to an
untraced run of the same job whose outputs must match.  The line before it
records the environment and the raw samples.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "success_rate": "ratio",
}
SETUP_SAMPLES_BETWEEN = 3
RUN_LIMIT_S = 170.0  # a child still running this long after the run began is killed
CHILD_SCRIPT = common.BENCH_DIR / "child.py"


class Run:
    """Spawns the jobs of one benchmark run and tallies their operations."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_jobs: list[dict] = []

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, kind: str, *, trace: bool = False, burst: int = 0):
        """Run one child job to completion; returns its result, or None if it failed."""
        job = {"workload": self.workload.name, "kind": kind, "seed": self.seed, "trace": trace, "burst": burst}
        # One hash seed for every interpreter, so set and dict layouts, and the
        # time spent on them, do not differ from job to job.
        env = dict(os.environ, PYTHONHASHSEED="0")
        job["spawned_at"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD_SCRIPT), json.dumps(job)],
            cwd=common.ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(0.1, self.time_left()))
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        finally:
            _stop_group(proc)
        if proc.returncode != 0 or not out.strip():
            self.attempted += 1
            self.failures.append(f"{kind} job exited with {proc.returncode}: {err.strip()[-400:]}")
            return None
        result = json.loads(out.strip().splitlines()[-1])
        if kind != "probe":
            self.setup_jobs.append(result)
        if kind != "setup":
            self.attempted += result["attempted"]
            self.failures.extend(f"{kind}: {f}" for f in result["failures"])
        return result


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) >= 2 else _median(values)


def measure(run: Run) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run, and the raw samples behind them.

    Timed jobs (harness repetitions or checks passes) repeat until
    run.seconds have been measured.  Set-up samples and, on harness
    workloads, the bursts of the probe request mix run between them, so
    that every median draws on samples spread over the whole run.  Times
    are at the reference speed (common.SpeedSampler); the raw medians are
    kept in the samples.
    """
    timed, latency_jobs = [], []
    bursts = list(range(workloads.PROBE_BURSTS)) if run.workload.kind == "harness" else []

    def probe(burst: int) -> None:
        result = run.spawn("probe", burst=burst)
        latency_jobs.extend([result] if result else [])

    def between() -> None:
        for _ in range(SETUP_SAMPLES_BETWEEN):
            if run.time_left() > 10.0:
                run.spawn("setup")
        if bursts:
            probe(bursts.pop(0))

    between()
    measured = 0.0
    while not timed or (measured < run.seconds and run.time_left() > 20.0 + 1.5 * timed[-1]["raw"]["wall_s"]):
        result = run.spawn(run.workload.kind)
        if result is None:
            break
        timed.append(result)
        measured += result["raw"]["wall_s"]
        if run.workload.kind == "checks":
            latency_jobs.append(result)
        between()
    for burst in bursts:
        probe(burst)
    latencies = [ms for job in latency_jobs for ms in job["latencies_ms"]]
    raw_latencies = [ms for job in latency_jobs for ms in job["raw"]["latencies_ms"]]
    samples = {
        "setup_s": [job["setup_s"] for job in run.setup_jobs],
        "wall_s": [t["wall_s"] for t in timed],
        "cpu_s": [t["cpu_s"] for t in timed],
        "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
        "requests": len(latencies),
        "speed": {
            "setup": [job["setup_speed"] for job in run.setup_jobs],
            "timed": [t["speed"] for t in timed],
            "latency": [job["speed"] for job in latency_jobs],
        },
    }
    metrics = {name: _median(samples[name]) for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    metrics["check_p50_ms"] = _median(latencies)
    metrics["check_p90_ms"] = _p90(latencies)
    samples["raw"] = {
        "setup_s": _median([job["raw"]["setup_s"] for job in run.setup_jobs]),
        "wall_s": _median([t["raw"]["wall_s"] for t in timed]),
        "cpu_s": _median([t["raw"]["cpu_s"] for t in timed]),
        "check_p50_ms": _median(raw_latencies),
        "check_p90_ms": _p90(raw_latencies),
    }
    return metrics, samples


def trace(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, checked against an untraced run of the same job."""
    kind = run.workload.kind
    plain = run.spawn(kind)
    traced = run.spawn(kind, trace=True)
    if plain is None or traced is None:
        return {}, {}
    if plain["output_digest"] != traced["output_digest"]:
        run.failures.append("the traced run's outputs differ from the untraced run's")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}


def run_workload(workload, seed: int, seconds: float, traced: bool, env: dict) -> tuple[dict, dict]:
    """One run of one workload: (detail record, result line)."""
    run = Run(workload, seed, seconds)
    if traced:
        values, samples = trace(run)
        units = tracer.layer_metric_units()
    else:
        values, samples = measure(run)
        units = END_TO_END_UNITS
    failed = len(run.failures)
    attempted = max(run.attempted, failed, 1)
    values["success_rate"] = 1.0 - failed / attempted
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    detail = {"workload": workload.name, "seed": seed, "trace": int(traced), "env": env}
    detail.update(samples=samples, failures=run.failures[:20])
    return detail, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        common.use_checkout_sources()
        workloads.load_refs()
    except (common.MissingProgram, ImportError, OSError) as exc:
        print(f"benchmark: cannot run here: {exc}", file=sys.stderr)
        return 2
    env = common.environment()
    for name in names:
        if workloads.WORKLOADS[name].workers > env["nproc"]:
            print(f"benchmark: {name} starts more workers than nproc ({env['nproc']})", file=sys.stderr)
            return 2

    # On SIGTERM unwind through spawn's cleanup, which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in names:
        detail, result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        print(json.dumps(detail))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
