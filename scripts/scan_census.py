"""Census of the direct annihilating-pair scans: the witness and node count
of every scan of the distinct rings of the capped harness scenarios, with
the holds verdict beside it.

Usage (from the root of a checkout):
    python scripts/scan_census.py [--cap 32] [--degrees 1 2] [--out census.json]
    python scripts/scan_census.py --compare parent.json change.json

The first form runs the engine's direct scan of R itself (no memo, degree
lift, nil ideal, factor split or Gaussian route) for each of the three
polynomial kinds at each degree on every distinct base, target, amalgam and
f(A)+J ring of the scenarios whose amalgams have at most --cap elements, and
writes one JSON record per scan.  Beside each scan it records holds(R, kind, d), computed
from an empty memo, so every shortcut is held to the scan: it prints each
record where the two verdicts disagree and exits 1 if any does.  Each
record also says whether R is Gaussian with one indecomposable factor
(`gaussian`), where holds answers Armendariz with no scan, and the census
prints how many holding Armendariz scans that route replaces.
The source tree on PYTHONPATH comes before this checkout's own `src`, so
`PYTHONPATH=other/src python scripts/scan_census.py` takes a census of
another checkout.  A cut in the scans that keeps every lex-minimal witness
shows as a compare with no witness mismatch and a smaller node total.

--compare matches the records of two census files by (ring, kind, degree),
prints every witness mismatch, the number of scans whose node counts differ
with the first few of them, and the node and time totals per degree.  It
exits 1 when any witness differs or a scan is missing from either file; node
counts do not set the exit status, since a new cut changes them by design,
and a change that keeps the walk must show 0 of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from amalgam.properties import (  # noqa: E402
    POLY_KINDS,
    PropertyKind,
    _indecomposable_factors,
    _is_gaussian,
    _kind_sets,
    _search_violation,
    clear_caches,
    holds,
)
from amalgam.theorems import CorpusConfig, build_scenarios  # noqa: E402


def scenario_rings(cap: int) -> list:
    """The distinct rings of the scenarios up to cap, one per table, in
    order of first appearance."""
    _, scenarios = build_scenarios(CorpusConfig(max_amalgam_size=cap))
    rings: dict = {}
    for s in scenarios:
        for R in (s.hom.domain, s.hom.codomain, s.am.ring, s.faj.ring):
            rings.setdefault(R.digest(), R)
    return list(rings.values())


def census(cap: int, degrees: list[int]) -> dict:
    rings = scenario_rings(cap)
    scans = []
    for d in degrees:
        for number, R in enumerate(rings, start=1):
            for kind in POLY_KINDS:
                sc, sv = _kind_sets(R, kind)
                start = time.perf_counter()
                wit, nodes = _search_violation(R, d, sc, sv, None)
                elapsed = time.perf_counter() - start
                clear_caches()
                scans.append({
                    "ring": R.digest(),
                    "size": R.size,
                    "kind": kind.value,
                    "d": d,
                    "witness": None if wit is None else [list(wit[0]), list(wit[1]), *wit[2:]],
                    "nodes": nodes,
                    "s": round(elapsed, 6),
                    "holds": holds(R, kind, d),
                    "gaussian": len(_indecomposable_factors(R)) == 1 and _is_gaussian(R),
                })
            print(f"d={d} ring {number}/{len(rings)} ({R.size} elements)", file=sys.stderr)
    return {"cap": cap, "degrees": degrees, "rings": len(rings), "scans": scans}


NODE_MISMATCHES_SHOWN = 5


def disagreements(result: dict) -> int:
    """Print every scan whose holds verdict is not the scan's; their number."""
    bad = [rec for rec in result["scans"] if rec["holds"] != (rec["witness"] is None)]
    for rec in bad:
        print(f"verdict mismatch: ring {rec['ring'][:12]} {rec['kind']} d={rec['d']}: "
              f"scan witness {rec['witness']}, holds {rec['holds']}", file=sys.stderr)
    print(f"{len(result['scans'])} scans, {len(bad)} holds verdicts disagree with the scan", file=sys.stderr)
    routed = [rec for rec in result["scans"] if rec["gaussian"] and rec["kind"] == PropertyKind.ARMENDARIZ.value]
    replaced = sum(rec["witness"] is None for rec in routed)
    print(f"{replaced} of {len(routed)} armendariz scans of local Gaussian rings hold, and the Gaussian route replaces them",
          file=sys.stderr)
    return len(bad)


def compare(old: dict, new: dict) -> int:
    """Print the witness and node mismatches and the totals; the number of
    scans with mismatched witnesses or unmatched."""
    before, after = ({(rec["ring"], rec["kind"], rec["d"]): rec for rec in side["scans"]} for side in (old, new))
    bad = 0
    for k in sorted(before.keys() ^ after.keys()):
        print(f"unmatched scan: ring {k[0][:12]} {k[1]} d={k[2]}")
        bad += 1
    shared = sorted(before.keys() & after.keys())
    for k in shared:
        if before[k]["witness"] != after[k]["witness"]:
            print(f"witness mismatch: ring {k[0][:12]} {k[1]} d={k[2]}: {before[k]['witness']} -> {after[k]['witness']}")
            bad += 1
    moved = [k for k in shared if before[k]["nodes"] != after[k]["nodes"]]
    for k in moved[:NODE_MISMATCHES_SHOWN]:
        print(f"node mismatch: ring {k[0][:12]} {k[1]} d={k[2]}: {before[k]['nodes']:,} -> {after[k]['nodes']:,}")
    for d in sorted({k[2] for k in shared}):
        keys = [k for k in shared if k[2] == d]
        n0, n1 = (sum(side[k]["nodes"] for k in keys) for side in (before, after))
        s0, s1 = (sum(side[k]["s"] for k in keys) for side in (before, after))
        change = f"{(n1 - n0) / n0:+.1%}" if n0 else "n/a"
        print(f"d={d}: {len(keys)} scans, nodes {n0:,} -> {n1:,} ({change}), scan time {s0:.1f} -> {s1:.1f} s")
    print(f"{len(shared)} scans matched, {bad} mismatched or unmatched, {len(moved)} with other node counts")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cap", type=int, default=32, help="largest amalgam of the scenarios (default 32)")
    parser.add_argument("--degrees", type=int, nargs="+", default=[1, 2], help="degree bounds to scan (default 1 2)")
    parser.add_argument("--out", type=Path, help="write the census here instead of standard output")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"), help="compare two census files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        return 1 if compare(old, new) else 0
    result = census(args.cap, args.degrees)
    text = json.dumps(result, indent=0)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 1 if disagreements(result) else 0


if __name__ == "__main__":
    sys.exit(main())
