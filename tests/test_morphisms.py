"""Ideals and homomorphisms: validation, generation, enumeration, transport."""

import itertools

import pytest
from hypothesis import given, strategies as st

from amalgam.constructions import direct_product, matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.errors import NotAHomError, NotAnIdealError, SearchBudgetError, SizeBudgetError
from amalgam.morphisms import (
    SEARCH_SIZE_CAP,
    Ideal,
    RingHom,
    _hom_defect,
    _ideal_defect,
    enumerate_homs,
    enumerate_ideals,
    generated_ideal,
    identity_hom,
    is_radical_ideal,
    is_semicommutative_ideal,
    preimage_ideal,
)


def test_ideal_rejects_non_ideals(z4):
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (0, 1))  # not closed under multiplication by 2... wait: 1 absorbs to everything
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (0, 3))
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (2, 0))  # unsorted
    for members in [(0, 2, 2), (0, 9), (-1, 0)]:  # repeated, past the end, negative
        with pytest.raises(NotAnIdealError, match="strictly ascending elements"):
            Ideal(z4, members)
    with pytest.raises(NotAnIdealError, match="generator 7 is not an element"):
        generated_ideal(z4, [7])


def test_generated_ideal_of_two_in_z4(z4):
    J = generated_ideal(z4, [2])
    assert J.members == (0, 2)
    assert J.proper
    assert 2 in J and 1 not in J


def test_generated_ideal_absorbs(m2):
    e12 = 0b0100
    J = generated_ideal(m2, [e12])
    # E12 generates the whole ring as a two-sided ideal
    assert not J.proper
    assert len(J) == 16


def test_enumerate_ideals_z4(z4):
    ideals = enumerate_ideals(z4)
    assert [i.members for i in ideals] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_enumerate_ideals_z6():
    ideals = enumerate_ideals(zmod(6))
    members = [i.members for i in ideals]
    assert (0,) in members and (0, 3) in members and (0, 2, 4) in members
    assert len(members) == 4


def test_hom_validation(z4):
    assert isinstance(RingHom(z4, z4, (0, 1, 2, 3)), RingHom)
    with pytest.raises(NotAHomError) as bad:
        RingHom(z4, z4, (0, 1, 2, 0))
    assert bad.value.violation.law in ("add", "mul")
    with pytest.raises(ValueError):
        RingHom(z4, z4, (0, 0, 0, 0))  # not unital


def test_identity_hom_properties(z4):
    f = identity_hom(z4)
    assert f.injective
    assert f.image() == {0, 1, 2, 3}
    assert f.map[2] == 2


def test_enumerate_homs_counts(z4):
    assert len(enumerate_homs(z4, z4)) == 1
    assert len(enumerate_homs(zmod(4), zmod(3))) == 0
    assert len(enumerate_homs(zmod(6), zmod(3))) == 1
    assert len(enumerate_homs(zmod(2), zmod(4))) == 0
    P = direct_product(zmod(2), zmod(2))
    # projections-with-diagonal style endomorphisms: identity, swap, two collapses
    assert len(enumerate_homs(P, P)) == 4


def test_preimage_ideal_along_projection():
    Z6 = zmod(6)
    Z3 = zmod(3)
    f = enumerate_homs(Z6, Z3)[0]
    J = generated_ideal(Z3, [0])
    pre = preimage_ideal(f, J)
    assert pre.members == (0, 3)


def test_radical_ideal_detection(z4):
    assert is_radical_ideal(z4, generated_ideal(z4, [2]))
    Z8 = zmod(8)
    assert not is_radical_ideal(Z8, generated_ideal(Z8, [4]))
    assert is_radical_ideal(Z8, generated_ideal(Z8, [2]))


def _brute_semicommutative_ideal(R, J):
    for x in J.members:
        for y in J.members:
            for r in J.members:
                if R.mul[x][y] == R.zero and R.mul[R.mul[x][r]][y] != R.zero:
                    return False, (x, r, y)
    return True, None


def test_semicommutative_ideal_report(t2, m2):
    rings = (t2, m2, direct_product(zmod(2), zmod(4)))
    verdicts = set()
    for R in rings:
        for J in enumerate_ideals(R):
            result = is_semicommutative_ideal(R, J)
            assert result == _brute_semicommutative_ideal(R, J)
            verdicts.add(result[0])
    assert verdicts == {True, False}


@given(st.sampled_from([2, 3, 4, 6, 8, 9]))
def test_every_generated_ideal_is_closed(n):
    R = zmod(n)
    for g in range(n):
        J = generated_ideal(R, [g])
        assert [x for x in range(n) if x in J] == list(J.members)
        for x in J.members:
            for y in J.members:
                assert R.add[x][y] in J
            for r in range(n):
                assert R.mul[r][x] in J and R.mul[x][r] in J


@given(st.sampled_from([(6, 2), (6, 3), (4, 2)]))
def test_enumerated_homs_are_all_verified(params):
    n, m = params
    for f in enumerate_homs(zmod(n), zmod(m)):
        assert isinstance(RingHom(zmod(n), zmod(m), f.map), RingHom)


def test_size_caps_raise_budget_errors():
    with pytest.raises(SizeBudgetError):
        direct_product(zmod(16), zmod(17))
    with pytest.raises(SearchBudgetError):
        enumerate_ideals(zmod(65))


def test_enumerate_homs_is_held_to_every_map():
    """Where |B|^|A| <= 10^5, the homs are exactly the maps A -> B that pass
    _hom_defect, in the same order."""
    rings = [zmod(2), zmod(3), zmod(4), poly_quotient(zmod(2), 2), direct_product(zmod(2), zmod(2)), zmod(6)]
    rings += [upper_triangular(zmod(2), 2), matrix_ring(zmod(2), 2)]
    pairs = [(A, B) for A in rings for B in rings if B.size**A.size <= 10**5]
    assert len(pairs) == 52
    found = 0
    for A, B in pairs:
        every = [m for m in itertools.product(range(B.size), repeat=A.size) if _hom_defect(A, B, m) is None]
        assert [f.map for f in enumerate_homs(A, B)] == every
        found += len(every)
    assert found == 57


def _repeated_pass_propagate(A, B, amap):
    """Close a partial map under + and * on its domain; None on conflict."""
    addA, mulA = A.add, A.mul
    addB, mulB = B.add, B.mul
    current = dict(amap)
    changed = True
    while changed:
        changed = False
        items = list(current.items())
        for x, fx in items:
            nx = A.neg[x]
            fnx = B.neg[fx]
            if current.get(nx, fnx) != fnx:
                return None
            if nx not in current:
                current[nx] = fnx
                changed = True
            for y, fy in items:
                s, fs = addA[x][y], addB[fx][fy]
                if current.get(s, fs) != fs:
                    return None
                if s not in current:
                    current[s] = fs
                    changed = True
                p, fp = mulA[x][y], mulB[fx][fy]
                if current.get(p, fp) != fp:
                    return None
                if p not in current:
                    current[p] = fp
                    changed = True
    return current


def _repeated_pass_homs(A, B):
    """enumerate_homs over the repeated-pass closure, which re-closes the
    whole parent map for each candidate image.  The generators are greedy:
    each is the least element outside the subring that 1 and the ones
    before it generate, the domain of the closed identity map."""
    if A.size > SEARCH_SIZE_CAP or B.size > SEARCH_SIZE_CAP:
        raise SearchBudgetError(f"hom enumeration capped at size {SEARCH_SIZE_CAP}")
    gens: list[int] = []
    known = _repeated_pass_propagate(A, A, {A.zero: A.zero, A.one: A.one})
    while len(known) < A.size:
        gens.append(min(set(range(A.size)) - known.keys()))
        known = _repeated_pass_propagate(A, A, {**known, gens[-1]: gens[-1]})
    seed = _repeated_pass_propagate(A, B, {A.zero: B.zero, A.one: B.one})
    results: list[RingHom] = []
    if seed is None:
        return results

    def descend(level: int, amap: dict[int, int]) -> None:
        if level == len(gens):
            if len(amap) == A.size:
                try:
                    results.append(RingHom(A, B, tuple(amap[x] for x in range(A.size))))
                except NotAHomError:
                    pass
            return
        g = gens[level]
        if g in amap:
            descend(level + 1, amap)
            return
        for img in range(B.size):
            trial = dict(amap)
            trial[g] = img
            closed = _repeated_pass_propagate(A, B, trial)
            if closed is not None:
                descend(level + 1, closed)

    descend(0, seed)
    results.sort(key=lambda h: h.map)
    return results


def test_enumerate_homs_matches_the_repeated_pass_closure(corpus):
    """On all 841 corpus pairs the worklist closure finds the homs the
    repeated-pass closure finds."""
    rings = [R for _, R in corpus]
    homs = 0
    for A in rings:
        for B in rings:
            reference = [f.map for f in _repeated_pass_homs(A, B)]
            assert [f.map for f in enumerate_homs(A, B)] == reference, (A, B)
            homs += len(reference)
    assert (len(rings) ** 2, homs) == (841, 1001)


def test_ideal_closure_is_held_to_every_subset(corpus):
    """On the corpus rings of at most 12 elements, the ideal lattice is every
    member set that passes _ideal_defect, and the ideal generated by no, one
    or two elements is the least of them holding the generators."""
    small = [R for _, R in corpus if R.size <= 12]
    assert len(small) == 20 and any(R.structure[0] == "upper" for R in small)
    for R in small:
        subsets = (tuple(x for x in range(R.size) if mask >> x & 1) for mask in range(1 << R.size))
        ideals = [members for members in subsets if _ideal_defect(R, members) is None]
        assert [J.members for J in enumerate_ideals(R)] == sorted(ideals, key=lambda m: (len(m), m))
        for k in (0, 1, 2):
            for gens in itertools.combinations(range(R.size), k):
                least = set.intersection(*[set(m) for m in ideals if set(gens) <= set(m)])
                assert generated_ideal(R, gens).members == tuple(sorted(least)), (R, gens)
