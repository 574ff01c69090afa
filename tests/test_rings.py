"""Table-level ring core: axiom scanning, element predicates, idempotent splitting."""

import pytest
from hypothesis import given, strategies as st

from amalgam.constructions import direct_product, matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.errors import InvalidRingError
from amalgam.rings import (
    FiniteRing,
    Law,
    central_idempotents,
    is_commutative,
    is_nilpotent,
    is_reduced,
    is_semicommutative_ring,
    is_unit,
    nilradical,
    power,
    regular_central,
    split_by_central_idempotent,
    units,
    verify_axioms,
)


def test_zmod_shape(z4):
    assert z4.size == 4
    assert z4.zero == 0 and z4.one == 1
    assert z4.add[3][2] == 1
    assert z4.mul[3][3] == 1
    assert z4.neg[1] == 3
    assert z4.sub(1, 3) == 2
    assert z4.label(2) == "2"


def test_from_tables_rejects_broken_associativity(z4):
    mul = [list(row) for row in z4.mul]
    mul[2][2] = 1
    violation = verify_axioms(z4.add, tuple(tuple(r) for r in mul))
    assert violation is not None
    assert violation.law is Law.MUL_ASSOC
    assert violation.witness == (2, 2, 3)
    with pytest.raises(InvalidRingError):
        FiniteRing.from_tables(z4.add, tuple(tuple(r) for r in mul))


def test_from_tables_rejects_out_of_range():
    violation = verify_axioms(((0, 1), (1, 9)), ((0, 0), (0, 1)))
    assert violation is not None and violation.law is Law.RANGE


def test_from_tables_rejects_tiny_tables():
    with pytest.raises(ValueError):
        FiniteRing.from_tables(((0,),), ((0,),))


def test_digest_is_structural(z4):
    again = zmod(4)
    assert z4.digest() == again.digest()
    assert z4.digest() != zmod(5).digest()


def test_power_and_nilpotence(z4):
    assert power(z4, 2, 2) == 0
    assert power(z4, 3, 0) == 1
    assert is_nilpotent(z4, 2) == (True, 2)
    assert is_nilpotent(z4, 1) == (False, None)
    assert is_nilpotent(z4, 0) == (True, 1)


def test_nilradical_known_values(z4, m2, pq22):
    assert nilradical(z4) == {0, 2}
    assert nilradical(m2) == {0, 2, 4, 15}
    assert nilradical(pq22) == {0, 1}
    assert nilradical(zmod(7)) == {0}


def test_reduced_verdicts(z4, m2):
    assert is_reduced(zmod(6))[0] is True
    held, witness = is_reduced(z4)
    assert held is False and witness == 2
    assert is_reduced(m2)[0] is False


def test_units_and_regular_central(z4):
    assert units(z4) == {1, 3}
    assert is_unit(z4, 3) and not is_unit(z4, 2)
    reg = regular_central(z4)
    assert reg == {1, 3}


def test_commutativity_flags(z4, t2, m2):
    assert is_commutative(z4)
    assert not is_commutative(m2)
    assert not is_commutative(t2)


def test_semicommutative_witness_in_triangular_ring(t2):
    held, witness = is_semicommutative_ring(t2)
    assert held is False
    assert witness == (4, 2, 1)
    a, r, b = witness
    assert t2.mul[a][b] == t2.zero
    assert t2.mul[t2.mul[a][r]][b] != t2.zero


def test_semicommutative_holds_for_commutative(z4):
    assert is_semicommutative_ring(z4) == (True, None)


def test_central_idempotents_of_z6():
    Z6 = zmod(6)
    assert central_idempotents(Z6) == (3, 4)
    left, right = split_by_central_idempotent(Z6, 3)
    assert {left.size, right.size} == {2, 3}
    for piece in (left, right):
        assert verify_axioms(piece.add, piece.mul) is None


def test_central_idempotents_of_indecomposables(z4, m2):
    assert central_idempotents(z4) == ()
    assert central_idempotents(m2) == ()


def test_split_tracks_product_structure():
    P = direct_product(zmod(2), zmod(3))
    idems = central_idempotents(P)
    assert idems
    left, right = split_by_central_idempotent(P, idems[0])
    assert left.size * right.size == P.size


@given(st.integers(min_value=2, max_value=9), st.data())
def test_ring_laws_hold_on_sampled_elements(n, data):
    R = zmod(n)
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    z = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert R.add[x][y] == R.add[y][x]
    assert R.add[R.add[x][y]][z] == R.add[x][R.add[y][z]]
    assert R.mul[R.mul[x][y]][z] == R.mul[x][R.mul[y][z]]
    assert R.mul[x][R.add[y][z]] == R.add[R.mul[x][y]][R.mul[x][z]]


@given(st.sampled_from([2, 3, 4, 6, 8]))
def test_nilradical_members_power_to_zero(n):
    R = zmod(n)
    for x in nilradical(R):
        held, k = is_nilpotent(R, x)
        assert held and power(R, x, k) == R.zero
