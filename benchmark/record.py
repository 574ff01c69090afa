"""Record the reference outputs the benchmark checks every run against.

Usage: python3 benchmark/record.py

Writes benchmark/refs.json with
* the sha256 of HarnessReport.to_json() for each harness workload;
* the checks request pool: each spec text with the exit code and the sha256
  of the `--json` envelope that `amalgam run --revalidate` gives for it, and
  its cold latency, which only orders the pool for the seeded stream.

Every polynomial verdict in the pool on a ring of at most 8 elements at
degree at most 1 is cross-checked against the brute-force oracle
naive_poly_check, so the references do not rest on the pruned engine alone.
Run it only at a commit whose outputs are trusted; the benchmark treats any
later difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkgen  # noqa: E402
import common  # noqa: E402
import workloads  # noqa: E402

common.use_checkout_sources()

from amalgam.cli import RunOptions, execute_model  # noqa: E402
from amalgam.properties import PropertyKind, clear_caches, naive_poly_check  # noqa: E402
from amalgam.specdsl import parse_spec  # noqa: E402
from amalgam.theorems import CorpusConfig, run_harness  # noqa: E402

ORACLE_MAX_SIZE = 8
ORACLE_MAX_DEGREE = 1


def _cross_check(model, envelope: dict) -> int:
    """Hold each small low-degree polynomial verdict to the oracle; returns checks made."""
    made = 0
    for block in envelope["reports"]:
        degree = block.get("degree")
        if degree is None or degree > ORACLE_MAX_DEGREE or block["size"] > ORACLE_MAX_SIZE:
            continue
        ring = model.resolve_ring(block["target"])
        verdict, witness, _ = naive_poly_check(ring, PropertyKind(block["property"]), degree)
        expected_witness = None
        if witness is not None:
            expected_witness = [list(witness.f_coeffs), list(witness.g_coeffs), witness.i, witness.j]
        got = block["witness"]
        got_witness = None if got is None else [got["f_indices"], got["g_indices"], got["i"], got["j"]]
        if verdict.value != block["verdict"] or expected_witness != got_witness:
            raise SystemExit(f"engine and oracle disagree on {block}: oracle {verdict.value} {expected_witness}")
        made += 1
    return made


def _execute(text: str):
    clear_caches()
    model = parse_spec(text)
    if model.diagnostics:
        raise SystemExit(f"generated spec does not parse: {model.diagnostics}\n{text}")
    code, envelope = execute_model(model, RunOptions(revalidate=True), emit=lambda line: None)
    if code != 0:
        raise SystemExit(f"request exits with {code}:\n{text}")
    return model, envelope


def record_request(text: str) -> tuple[dict, int]:
    """The reference entry of one request, and the number of oracle checks made.

    cost_ms, the faster of two cold executions, only orders the pool for
    request_stream; it is never compared against.
    """
    costs = []
    for _ in range(2):
        start = time.perf_counter()
        model, envelope = _execute(text)
        costs.append((time.perf_counter() - start) * 1000.0)
    entry = {
        "spec": text,
        "exit_code": 0,
        "envelope_sha256": common.envelope_digest(envelope),
        "cost_ms": round(min(costs), 3),
    }
    return entry, _cross_check(model, envelope)


def main() -> int:
    pool = []
    oracle_checks = 0
    for text in checkgen.build_pool(workloads.POOL_SIZE):
        entry, made = record_request(text)
        pool.append(entry)
        oracle_checks += made
    harness = {}
    for w in workloads.WORKLOADS.values():
        if w.kind == "harness":
            report = run_harness(CorpusConfig(max_amalgam_size=w.max_amalgam_size), degree=w.degree, workers=w.workers)
            harness[w.name] = hashlib.sha256(report.to_json().encode()).hexdigest()
    refs = {
        "recorded_with": common.environment(),
        "oracle_checks": oracle_checks,
        "harness": harness,
        "pool": pool,
    }
    common.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(pool)} requests ({oracle_checks} verdicts held to the oracle) and {len(harness)} harness digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
