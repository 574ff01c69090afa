"""Paths and environment facts shared by the benchmark's scripts.

The benchmark measures the package in ``<checkout>/src``; it never falls back
to an installed copy, so a checkout without sources fails instead of timing
something else.
"""

from __future__ import annotations

import array
import bisect
import hashlib
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs.json"
OUT_DIR = ROOT / ".bench_out"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on sys.path and make sure amalgam comes from it."""
    if not (SRC / "amalgam" / "__init__.py").is_file():
        raise MissingProgram(f"no amalgam sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import amalgam

    origin = Path(amalgam.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"amalgam was imported from {origin}, not from {SRC}")


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit() -> str:
    """The git commit of the checkout, or 'unknown' where there is no repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, which names the code measured
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
    }


def envelope_digest(envelope: dict) -> str:
    """sha256 of the bytes `amalgam run --json` writes for this envelope."""
    return hashlib.sha256((json.dumps(envelope, indent=2) + "\n").encode()).hexdigest()


# The host's speed drifts, by up to 1.7x, over spans from under a second to
# minutes, and a run's medians drift with it.  While a child times its work, a
# SpeedSampler times a fixed loop that touches no part of the program, ten
# times a second, and turns each timing into a speed: CALIBRATION_REFERENCE_MS
# over the loop's CPU time.  child.py multiplies each time by the speed the
# sampler saw while it ran, so a time reads as it would on a host that runs
# the loop in the reference time; the raw times are kept next to it.
CALIBRATION_REFERENCE_MS = 2.0
SAMPLE_INTERVAL_S = 0.1
_CAL_N = 61
_CAL_TABLE = [[(i * j + 1) % _CAL_N for j in range(_CAL_N)] for i in range(_CAL_N)]


def _calibration_loop() -> int:
    """Table lookups and integer arithmetic, like the program's ring
    operations.  It allocates no object the garbage collector tracks, so it
    neither runs nor moves a collection of what the program holds."""
    table, n, acc, check = _CAL_TABLE, _CAL_N, 0, 0
    for k in range(20000):
        x = table[k % n][acc]
        acc = table[x][(k * 7) % n]
        check ^= x + acc
    return check


class SpeedSampler:
    """Samples the host's speed on a SIGALRM timer while the program runs.

    Each sample runs the calibration loop between two bytecodes of the main
    thread and records when it ran, the speed, and the wall and CPU time it
    took, so that callers can take that time back out of what they measured.
    The loop is timed in thread CPU time, so a sample taken while the process
    waits for the CPU (the parent of worker processes) still reads the speed
    at which it runs.  Samples go into arrays of floats, which allocate no
    tracked objects.  An inactive sampler takes no samples and reads speed 1.
    """

    def __init__(self, active: bool = True, interval_s: float = SAMPLE_INTERVAL_S):
        self.active = active
        self.interval_s = interval_s
        self.times = array.array("d")
        self.speeds = array.array("d")
        self.paused_s = 0.0  # wall time spent in samples so far
        self.paused_cpu_s = 0.0  # CPU time spent in samples so far
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start, cpu_start = time.perf_counter(), time.thread_time()
        _calibration_loop()
        cpu = time.thread_time() - cpu_start
        self.times.append(start)
        self.speeds.append(CALIBRATION_REFERENCE_MS / max(cpu * 1000.0, 1e-6))
        self.paused_cpu_s += cpu
        self.paused_s += time.perf_counter() - start

    def start(self) -> "SpeedSampler":
        if self.active:
            self.sample()
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self.sample()

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples taken from start to end, widened by one
        interval each way so that a short span still has some."""
        if not self.active:
            return 1.0
        lo = bisect.bisect_left(self.times, start - self.interval_s)
        hi = bisect.bisect_right(self.times, end + self.interval_s)
        window = self.speeds[lo:hi] or self.speeds[max(0, lo - 1) : lo + 1]
        return sum(window) / len(window)
