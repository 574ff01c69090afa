"""Ideals and homomorphisms: validation, generation, enumeration, transport."""

import pytest
from hypothesis import given, strategies as st

from amalgam.constructions import direct_product, matrix_ring, upper_triangular, zmod
from amalgam.errors import NotAHomError, NotAnIdealError, SearchBudgetError, SizeBudgetError
from amalgam.morphisms import (
    Ideal,
    RingHom,
    enumerate_homs,
    enumerate_ideals,
    generated_ideal,
    identity_hom,
    is_radical_ideal,
    is_semicommutative_ideal,
    preimage_ideal,
    ring_generators,
)


def test_ideal_rejects_non_ideals(z4):
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (0, 1))  # not closed under multiplication by 2... wait: 1 absorbs to everything
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (0, 3))
    with pytest.raises(NotAnIdealError):
        Ideal(z4, (2, 0))  # unsorted


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
    assert f(2) == 2


def test_enumerate_homs_counts(z4):
    assert len(enumerate_homs(z4, z4)) == 1
    assert len(enumerate_homs(zmod(4), zmod(3))) == 0
    assert len(enumerate_homs(zmod(6), zmod(3))) == 1
    assert len(enumerate_homs(zmod(2), zmod(4))) == 0
    P = direct_product(zmod(2), zmod(2))
    # projections-with-diagonal style endomorphisms: identity, swap, two collapses
    assert len(enumerate_homs(P, P)) == 4


def test_ring_generators_cover(z4, m2):
    # 1 already generates all of Z/4, so nothing beyond the forced seed is needed
    assert ring_generators(z4) == ()
    gens_m2 = ring_generators(m2)
    assert gens_m2  # scalars alone do not span the matrix ring
    assert generated_ideal(m2, gens_m2).members == tuple(range(16))


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
