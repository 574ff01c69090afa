"""One measured job in a fresh interpreter, as one `amalgam` invocation would run.

Usage: python3 benchmark/child.py '<job json>'

The job names a workload, a kind (``harness``: one run_harness call;
``checks``: one pass of the seeded requests; ``probe``: one burst of the
harness workloads' fixed request mix; ``setup``: stop at the first timed
call), the monotonic time the parent spawned this process, and whether to
trace.  Timed jobs run under common.SpeedSampler and report their
times scaled to the reference host speed, with the raw times under "raw";
every job so scales its set-up time, sampled from the top of this script.
Outputs are compared with refs.json here; the last line of standard
output is a JSON result listing the operations attempted and those that
failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

# Set-up runs from the spawn to the first timed call; its speed is sampled as it runs.
SETUP_SAMPLER = common.SpeedSampler(active=__name__ == "__main__", interval_s=0.05).start()

import workloads  # noqa: E402

common.use_checkout_sources()

import amalgam.cli  # noqa: E402
import amalgam.properties  # noqa: E402
import amalgam.specdsl  # noqa: E402
import amalgam.theorems  # noqa: E402


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Largest max-RSS of this process or any child it waited for, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _new_tracer(workload: workloads.Workload):
    import tracer

    t = tracer.Tracer(workload.degree)
    t.install()
    return t


def _scaled(raw: dict, speed: float) -> dict:
    """The job's times at the reference speed, with the raw times under "raw"."""
    return {"wall_s": raw["wall_s"] * speed, "cpu_s": raw["cpu_s"] * speed, "speed": speed, "raw": raw}


def run_harness_job(job: dict, workload: workloads.Workload) -> dict:
    tr = _new_tracer(workload) if job["trace"] else None
    config = amalgam.theorems.CorpusConfig(max_amalgam_size=workload.max_amalgam_size)
    with common.SpeedSampler() as sampler:
        self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        paused0, cpu_paused0, start = sampler.paused_s, sampler.paused_cpu_s, time.perf_counter()
        report = amalgam.theorems.run_harness(config, degree=workload.degree, workers=workload.workers)
        end = time.perf_counter()
        wall = end - start - (sampler.paused_s - paused0)
        self_cpu = _cpu(resource.RUSAGE_SELF) - self0 - (sampler.paused_cpu_s - cpu_paused0)
        child_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0
    result = {
        **_scaled({"wall_s": wall, "cpu_s": self_cpu + child_cpu}, sampler.speed(start, end)),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": 1,
        "failures": [],
        "output_digest": hashlib.sha256(report.to_json().encode()).hexdigest(),
    }
    if result["output_digest"] != workloads.load_refs()["harness"][workload.name]:
        result["failures"].append(f"report digest {result['output_digest']} differs from the reference")
    if tr is not None:
        tr.add_metric("theorems.run_harness.child_cpu_s", child_cpu)
        tr.add_metric("theorems.run_harness.parent_wait_s", wall - self_cpu)
        result["layers"] = tr.metrics()
        tr.write_spans(common.OUT_DIR / f"spans-{workload.name}.json.gz")
    return result


def run_requests_job(job: dict, workload: workloads.Workload, requests: list[dict]) -> dict:
    """Execute one pass over the request list, checking each `--json` envelope
    and exit code against its reference.  Each request's latency is scaled by
    the speed sampled around it, the pass's times by the speed over the pass."""
    tr = _new_tracer(workload) if job["trace"] else None
    run_options = amalgam.cli.RunOptions(revalidate=True)
    quiet = lambda line: None  # noqa: E731
    spans: list[tuple[float, float, float]] = []  # start, end, and the time sampling took in between
    failures: list[str] = []
    outputs = hashlib.sha256()
    with common.SpeedSampler() as sampler:
        self0 = _cpu(resource.RUSAGE_SELF)
        pass_paused0, pass_cpu_paused0, pass_start = sampler.paused_s, sampler.paused_cpu_s, time.perf_counter()
        for request_id, request in enumerate(requests):
            if tr is not None:
                tr.request_id = request_id
            amalgam.properties.clear_caches()
            paused0, start = sampler.paused_s, time.perf_counter()
            try:
                model = amalgam.specdsl.parse_spec(request["spec"])
                if model.diagnostics:
                    outcome = (1, "; ".join(d.render() for d in model.diagnostics))
                else:
                    code, envelope = amalgam.cli.execute_model(model, run_options, emit=quiet)
                    outcome = (code, common.envelope_digest(envelope))
            except Exception as exc:  # a failed request is counted, not fatal
                outcome = (None, f"{type(exc).__name__}: {exc}")
            spans.append((start, time.perf_counter(), sampler.paused_s - paused0))
            outputs.update(repr(outcome).encode())
            if outcome != (request["exit_code"], request["envelope_sha256"]):
                failures.append(f"request {request_id}: got {outcome}")
        pass_end = time.perf_counter()
        wall = pass_end - pass_start - (sampler.paused_s - pass_paused0)
        cpu = _cpu(resource.RUSAGE_SELF) - self0 - (sampler.paused_cpu_s - pass_cpu_paused0)
    raw_ms = [(end - start - paused) * 1000.0 for start, end, paused in spans]
    result = {
        **_scaled({"wall_s": wall, "cpu_s": cpu, "latencies_ms": raw_ms}, sampler.speed(pass_start, pass_end)),
        "peak_rss_mb": _peak_rss_mb(),
        "latencies_ms": [ms * sampler.speed(start, end) for ms, (start, end, _) in zip(raw_ms, spans)],
        "attempted": len(raw_ms),
        "failures": failures,
        "output_digest": outputs.hexdigest(),
    }
    if tr is not None:
        result["layers"] = tr.metrics()
        tr.write_spans(common.OUT_DIR / f"spans-{workload.name}.json.gz")
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[job["workload"]]
    if job["kind"] == "probe":
        requests = workloads.probe_requests(job["burst"])
    elif workload.kind == "checks":
        requests = workloads.check_requests(job["seed"])
    setup_end = time.monotonic()
    setup_s = setup_end - job["spawned_at"] - SETUP_SAMPLER.paused_s
    SETUP_SAMPLER.stop()
    setup_speed = statistics.fmean(SETUP_SAMPLER.speeds)
    if job["kind"] == "setup":
        result = {"raw": {}}
    elif job["kind"] == "harness":
        result = run_harness_job(job, workload)
    else:
        result = run_requests_job(job, workload, requests)
    result.update(setup_s=setup_s * setup_speed, setup_speed=setup_speed)
    result["raw"]["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
