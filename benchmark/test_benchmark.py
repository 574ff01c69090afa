"""Self-tests of the benchmark's inputs and tracing.

Run from the root of the repository with: python3 -m pytest benchmark -q
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkgen  # noqa: E402
import common  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

common.use_checkout_sources()

import amalgam.cli  # noqa: E402
import amalgam.properties  # noqa: E402
import amalgam.specdsl  # noqa: E402
import amalgam.theorems  # noqa: E402

HARNESS = [w for w in workloads.WORKLOADS.values() if w.kind == "harness"]


def _request_bytes(seed: int) -> bytes:
    return "".join(r["spec"] for r in workloads.check_requests(seed)).encode()


def test_same_seed_gives_identical_requests_and_another_seed_does_not():
    assert _request_bytes(7) == _request_bytes(7)
    assert _request_bytes(7) != _request_bytes(8)
    assert len(workloads.check_requests(7)) >= 100


def test_recorded_pool_is_what_the_generator_makes():
    recorded = [entry["spec"] for entry in workloads.load_refs()["pool"]]
    assert recorded == checkgen.build_pool(workloads.POOL_SIZE)


def test_every_generated_spec_parses_without_diagnostics():
    for entry in workloads.load_refs()["pool"]:
        model = amalgam.specdsl.parse_spec(entry["spec"])
        assert model.diagnostics == (), (entry["spec"], model.diagnostics)


class _Stop(Exception):
    pass


def test_harness_workloads_take_no_random_input(monkeypatch):
    """A harness job passes the same arguments to run_harness whatever the seed,
    and the requests it probes check latency on are a fixed slice of the pool."""
    import child

    calls = []

    def fake_run_harness(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Stop

    monkeypatch.setattr(amalgam.theorems, "run_harness", fake_run_harness)
    for w in HARNESS:
        for seed in (1, 2):
            with pytest.raises(_Stop):
                child.run_harness_job({"trace": False, "seed": seed}, w)
        assert calls[-1] == calls[-2]
    bursts = [workloads.probe_requests(b) for b in range(workloads.PROBE_BURSTS)]
    assert sum(bursts, []) == workloads.load_refs()["pool"][:: workloads.PROBE_STRIDE]


def test_speed_sampler_samples_while_the_program_runs_and_counts_its_own_time():
    handler = signal.getsignal(signal.SIGALRM)
    with common.SpeedSampler(interval_s=0.01) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    assert len(sampler.speeds) >= 5 and min(sampler.speeds) > 0
    assert 0 < sampler.paused_s < end - start
    assert sampler.speed(start, end) == pytest.approx(sum(sampler.speeds) / len(sampler.speeds))
    assert signal.getsignal(signal.SIGALRM) == handler and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with common.SpeedSampler(active=False) as idle:
        pass
    assert idle.speed(0.0, 1.0) == 1.0 and idle.paused_s == 0.0 and not idle.speeds


def test_no_workload_starts_more_workers_than_nproc():
    assert all(w.workers <= common.nproc() for w in workloads.WORKLOADS.values())


def _run_requests(requests: list[dict]) -> list[tuple]:
    outcomes = []
    for request in requests:
        amalgam.properties.clear_caches()
        model = amalgam.specdsl.parse_spec(request["spec"])
        code, envelope = amalgam.cli.execute_model(model, amalgam.cli.RunOptions(revalidate=True), emit=lambda line: None)
        outcomes.append((code, common.envelope_digest(envelope)))
    return outcomes


def test_tracing_changes_no_output_and_reports_every_layer_metric():
    requests = workloads.check_requests(3)[:40]
    expected = [(r["exit_code"], r["envelope_sha256"]) for r in requests]
    assert _run_requests(requests) == expected
    t = tracer.Tracer()
    t.install()
    try:
        assert _run_requests(requests) == expected
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert set(metrics) == set(tracer.layer_metric_units()) - {"trace.overhead_s"}
    assert metrics["properties.get_report.calls"] > 0
    assert metrics["properties.get_report.armendariz.miss_calls"] > 0
    assert len(t.span_start) == len(t.span_end) == t._next_span
    assert all(end >= start for start, end in zip(t.span_start, t.span_end))
