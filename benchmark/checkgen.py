"""Spec requests for the `checks` workload.

A request is the text of one `amalgam run` spec: ring declarations chained by
name, one ideal given by generators, one hom (`canonical` or `map`), one
amalgam, and 1-3 `check` directives on the amalgam or its base.

``build_pool`` enumerates candidate requests from a fixed ring catalog and
draws the recorded pool from them with a fixed generator seed; ``record.py``
stores the pool with the reference output of each entry.  ``request_stream``
draws a run's requests from that pool with the workload seed.  The program
only ever sees the spec texts.
"""

from __future__ import annotations

import random
from typing import Optional

# Ring expressions: ("zmod", n) | (ctor, sub, k) for ctor in polyquot, upper,
# matrix | ("product", left, right).
Z2, Z3, Z4 = ("zmod", 2), ("zmod", 3), ("zmod", 4)
PQ22 = ("polyquot", Z2, 2)
PQ24 = ("polyquot", Z2, 4)  # the 16-element ring of acceptance criterion 9
ATOMS = (
    Z2,
    Z3,
    Z4,
    ("zmod", 5),
    ("zmod", 6),
    ("zmod", 8),
    PQ22,
    ("polyquot", Z2, 3),
    PQ24,
    ("polyquot", Z3, 2),
    ("upper", Z2, 2),
    ("matrix", Z2, 2),
    ("product", Z2, Z2),
    ("product", Z2, Z3),
    ("product", Z2, Z4),
    ("product", Z2, PQ22),
    ("product", Z4, Z4),
    ("product", Z2, ("upper", Z2, 2)),
)
BASE_MAX = 16
AMALGAM_MIN, AMALGAM_MAX = 4, 64
DEGREE2_MAX = 32  # degree-2 searches only on rings of at most 32 elements
POOL_GENERATOR_SEED = 20151103
ALWAYS_RUN = 8
POLY_PROPS = ("armendariz", "nil-armendariz", "weak-armendariz")


def build_ring(expr, cache: dict):
    from amalgam.constructions import direct_product, matrix_ring, poly_quotient, upper_triangular, zmod

    ring = cache.get(expr)
    if ring is None:
        ctor = expr[0]
        if ctor == "zmod":
            ring = zmod(expr[1])
        elif ctor == "product":
            ring = direct_product(build_ring(expr[1], cache), build_ring(expr[2], cache))
        else:
            construct = {"polyquot": poly_quotient, "upper": upper_triangular, "matrix": matrix_ring}[ctor]
            ring = construct(build_ring(expr[1], cache), expr[2])
        cache[expr] = ring
    return ring


def _declare(expr, names: dict, lines: list[str]) -> str:
    """Declare expr and everything it is built from; returns its name."""
    if expr in names:
        return names[expr]
    ctor = expr[0]
    if ctor == "zmod":
        rhs = f"zmod {expr[1]}"
    elif ctor == "product":
        rhs = f"product({_declare(expr[1], names, lines)}, {_declare(expr[2], names, lines)})"
    else:
        rhs = f"{ctor}({_declare(expr[1], names, lines)}, {expr[2]})"
    name = f"R{len(names) + 1}"
    names[expr] = name
    lines.append(f"ring {name} = {rhs}")
    return name


def _ideal_generators(J) -> list[int]:
    """A small generating set for J: adjoin members until they generate J."""
    from amalgam.morphisms import generated_ideal

    gens: list[int] = []
    current = (J.host.zero,)
    for x in J.members:
        if x not in current:
            gens.append(x)
            current = generated_ideal(J.host, gens).members
            if current == J.members:
                break
    return gens


def _ring_generators(R) -> list[int]:
    """Greedy generators beyond 0 and 1: adjoin the smallest element outside
    the subring generated so far.  Their images determine a hom."""
    from amalgam.constructions import subring_closure

    gens: list[int] = []
    known = set(subring_closure(R, ()).members)
    while len(known) < R.size:
        gens.append(min(set(range(R.size)) - known))
        known = set(subring_closure(R, gens).members)
    return gens


def spec_text(base, target, hom, ideal, checks, cache: dict, hom_count: int) -> str:
    """The spec of one request.  checks holds (on, prop, degree) with on in {"M", "A"}."""
    A = build_ring(base, cache)
    B = build_ring(target, cache)
    names: dict = {}
    lines: list[str] = []
    a_name = _declare(base, names, lines)
    b_name = _declare(target, names, lines)
    gens = ", ".join(B.label(g) for g in _ideal_generators(ideal))
    lines.append(f"ideal J of {b_name} = generated {{ {gens} }}" if gens else f"ideal J of {b_name} = generated {{ }}")
    if base == target or hom_count == 1:
        lines.append(f"hom f : {a_name} -> {b_name} = canonical")
    else:
        pairs = ", ".join(f"{A.label(g)} -> {B.label(hom.map[g])}" for g in _ring_generators(A))
        lines.append(f"hom f : {a_name} -> {b_name} = map {{ {pairs} }}")
    lines.append(f"amalgam M = {a_name} join f J")
    for on, prop, degree in checks:
        line = f"check {'M' if on == 'M' else a_name} {prop}"
        if degree is not None:
            line += f" degree {degree}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _check_options(base_size: int, amalgam_size: int) -> list[tuple[str, str, Optional[int]]]:
    options = []
    for on, size in (("M", amalgam_size), ("A", base_size)):
        options.append((on, "reduced", None))
        for prop in POLY_PROPS:
            for degree in (1, 2):
                if degree == 1 or size <= DEGREE2_MAX:
                    options.append((on, prop, degree))
    return options


def candidate_scenarios(cache: dict) -> list[tuple]:
    """Every (base, target, hom, ideal, hom_count) the catalog affords, in catalog order."""
    from amalgam.morphisms import enumerate_homs, enumerate_ideals

    out = []
    for base in ATOMS:
        A = build_ring(base, cache)
        if A.size > BASE_MAX:
            continue
        for target in ATOMS:
            B = build_ring(target, cache)
            homs = enumerate_homs(A, B)
            if not homs:
                continue
            ideals = [J for J in enumerate_ideals(B) if J.proper and AMALGAM_MIN <= A.size * len(J) <= AMALGAM_MAX]
            for hom in homs:
                for J in ideals:
                    out.append((base, target, hom, J, len(homs)))
    return out


def build_pool(size: int, cache: Optional[dict] = None) -> list[str]:
    """The recorded request pool: size spec texts drawn with the fixed pool seed.

    One request in ten is criterion 9's: the degree-2 armendariz check of
    polyquot(zmod 2, 4), on an amalgam built over it.
    """
    cache = {} if cache is None else cache
    rng = random.Random(POOL_GENERATOR_SEED)
    scenarios = candidate_scenarios(cache)
    crit9 = [s for s in scenarios if s[0] == PQ24]
    pool = []
    for index in range(size):
        source = crit9 if index % 10 == 0 else scenarios
        base, target, hom, ideal, hom_count = rng.choice(source)
        base_size = build_ring(base, cache).size
        options = _check_options(base_size, base_size * len(ideal))
        checks = rng.sample(options, rng.randint(1, 3))
        if source is crit9 and ("A", "armendariz", 2) not in checks:
            checks[0] = ("A", "armendariz", 2)
        pool.append(spec_text(base, target, hom, ideal, checks, cache, hom_count))
    return pool


def request_stream(costs: list[float], seed: int) -> list[int]:
    """Pool indices of one pass of the checks workload, in request order.

    costs are the recorded latencies of the pool entries.  The ALWAYS_RUN
    costliest entries run in every pass; the rest are paired by cost rank and
    the seed picks one entry of each pair.  So every seed runs a different
    request list with nearly the same cost profile, and the pass time does not
    swing with which of the few slow requests a seed happens to draw.
    """
    rng = random.Random(seed)
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    picked = order[:ALWAYS_RUN]
    rest = order[ALWAYS_RUN:]
    picked += [rng.choice(rest[k : k + 2]) for k in range(0, len(rest), 2)]
    rng.shuffle(picked)
    return picked
