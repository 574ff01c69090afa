"""Isomorphism invariance: relabeling a ring's elements changes no verdict,
and every witness, carried through the relabeling, still refutes."""

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.properties import POLY_KINDS, ElementWitness, PolyWitness, PropertyKind, TripleWitness, get_report
from amalgam.rings import induced_ring
from amalgam.theorems import CorpusConfig, build_scenarios


@pytest.fixture(scope="module")
def invariance_rings(corpus):
    """The corpus rings plus the distinct amalgams and f(A)+J rings of the
    scenarios up to 16 elements, one per table."""
    _, scenarios = build_scenarios(CorpusConfig(max_amalgam_size=16))
    rings = {}
    for R in [R for _, R in corpus] + [r for sc in scenarios for r in (sc.am.ring, sc.faj.ring)]:
        rings.setdefault(R.digest(), R)
    return list(rings.values())


def _relabeled(R, perm):
    """R with element x renamed perm[x]."""
    reps = sorted(range(R.size), key=perm.__getitem__)
    return induced_ring(R, reps, perm, R.one, provenance=f"relabel({R.provenance})", structure=("relabel", R, perm))


def _carried(witness, perm):
    if isinstance(witness, PolyWitness):
        return PolyWitness(
            tuple(perm[c] for c in witness.f_coeffs),
            tuple(perm[c] for c in witness.g_coeffs),
            witness.i,
            witness.j,
            perm[witness.product],
        )
    if isinstance(witness, ElementWitness):
        return ElementWitness(perm[witness.element])
    return TripleWitness(perm[witness.a], perm[witness.r], perm[witness.b])


def _queries(R):
    yield PropertyKind.REDUCED, None
    yield PropertyKind.SEMICOMMUTATIVE, None
    for d in (1, 2) if R.size <= 16 else (1,):
        for kind in POLY_KINDS:
            yield kind, d


@settings(max_examples=3)
@given(st.data())
def test_verdicts_invariant_under_relabeling(invariance_rings, data):
    for R in invariance_rings:
        perm = tuple(data.draw(st.permutations(range(R.size))))
        S = _relabeled(R, perm)
        for kind, d in _queries(R):
            before, after = get_report(R, kind, d), get_report(S, kind, d)
            assert after.verdict is before.verdict, (R.provenance, kind, d)
            if before.witness is not None:
                assert before.witness.problem(R, kind) is None
                assert _carried(before.witness, perm).problem(S, kind) is None, (R.provenance, kind, d)
