"""The benchmark's workloads and the inputs each one runs on.

The three harness workloads take no random input: the corpus is fixed by
their CorpusConfig, and the requests they measure check latency on are a
fixed slice of the recorded pool.  The checks workload draws its request
list from that pool with the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import checkgen
import common


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "harness" or "checks"
    degree: Optional[int] = None
    max_amalgam_size: int = 64
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("harness-d1", "harness", degree=1),
        Workload("harness-d2", "harness", degree=2, max_amalgam_size=32),
        Workload("harness-d1-w2", "harness", degree=1, workers=2),
        Workload("checks", "checks"),
    )
}

POOL_SIZE = 1200  # requests recorded in refs.json; a checks pass runs about half
PROBE_STRIDE = 4  # harness workloads probe check latency on every 4th pool entry
PROBE_BURSTS = 3  # ... in this many bursts between their timed jobs


@lru_cache(maxsize=1)
def load_refs() -> dict:
    with open(common.REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_requests(seed: int) -> list[dict]:
    """One pass of the checks workload: pool entries (spec text and recorded
    outcome) drawn with the seed."""
    pool = load_refs()["pool"]
    return [pool[i] for i in checkgen.request_stream([e["cost_ms"] for e in pool], seed)]


def probe_requests(burst: int) -> list[dict]:
    """One burst of the fixed request mix that harness workloads measure
    check latency on; the bursts together cover pool[::PROBE_STRIDE] once."""
    probe = load_refs()["pool"][::PROBE_STRIDE]
    size = -(-len(probe) // PROBE_BURSTS)
    return probe[burst * size : (burst + 1) * size]
