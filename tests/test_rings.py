"""Table-level ring core: axiom scanning, element predicates, idempotent splitting."""

from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.constructions import direct_product, matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.errors import InvalidRingError
from amalgam.rings import (
    FiniteRing,
    Law,
    central_idempotents,
    fill_products,
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
from amalgam.rings import _add_generators, _scan_laws


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


def test_units_by_row_are_the_two_sided_units(small_rings):
    """A right inverse is two-sided in a finite ring, so the one-sided row
    test of units() finds exactly the elements is_unit accepts."""
    for R in small_rings:
        assert units(R) == {x for x in range(R.size) if is_unit(R, x)}, R


def test_fill_products_rebuilds_each_table_from_its_generator_rows(small_rings):
    """Summing rows from the zero row gives back every product table, the
    non-commutative upper and matrix rings included, and asks row() only for
    the additive generators, in their order."""
    assert len(small_rings) == 128
    for R in small_rings:
        asked = []

        def row(x):
            asked.append(x)
            return R.mul[x]

        gens = _add_generators(R.add)
        assert fill_products(R.add, gens, R.zero, row) == R.mul, R
        assert asked == gens, R


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


_SMALL_RINGS = [zmod(n) for n in range(2, 9)] + [
    direct_product(zmod(2), zmod(2)),
    direct_product(zmod(2), zmod(3)),
    direct_product(zmod(2), zmod(4)),
    direct_product(direct_product(zmod(2), zmod(2)), zmod(2)),
    upper_triangular(zmod(2), 2),
    poly_quotient(zmod(2), 2),
    poly_quotient(zmod(2), 3),
]


def _relabel(table, p):
    """table with each element i renamed p[i]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[p[i]][p[j]] = p[v]
    return out


@st.composite
def _perturbed_tables(draw):
    """The tables of a ring of at most 8 elements after one or two edits:
    an entry changed, two entries of a row swapped, one or both tables
    relabeled, the opposite multiplication, or a symmetric change to add."""
    R = draw(st.sampled_from(_SMALL_RINGS))
    n = R.size
    add, mul = [list(row) for row in R.add], [list(row) for row in R.mul]
    elem = st.integers(min_value=0, max_value=n - 1)
    for edit in draw(st.lists(st.sampled_from(["entry", "swap", "relabel", "opposite", "symmetric"]), min_size=1, max_size=2)):
        table = draw(st.sampled_from([add, mul]))
        i, j, k = draw(elem), draw(elem), draw(elem)
        if edit == "entry":
            table[i][j] = k
        elif edit == "swap":
            table[i][j], table[i][k] = table[i][k], table[i][j]
        elif edit == "relabel":
            p = draw(st.permutations(range(n)))
            which = draw(st.sampled_from(["add", "mul", "both"]))
            if which != "mul":
                add = _relabel(add, p)
            if which != "add":
                mul = _relabel(mul, p)
        elif edit == "opposite":
            mul = [list(col) for col in zip(*mul)]
        else:
            add[i][j] = add[j][i] = k
    return add, mul


@settings(max_examples=400)
@given(_perturbed_tables())
def test_verify_axioms_equals_the_exhaustive_scan(tables):
    add, mul = tables
    assert verify_axioms(add, mul) == _scan_laws(add, mul)


_Z3_ADD = [[(a + b) % 3 for b in range(3)] for a in range(3)]
_Z4_ADD = [[(a + b) % 4 for b in range(4)] for a in range(4)]
_XOR4_ADD = [[a ^ b for b in range(4)] for a in range(4)]
_XOR8_ADD = [[a ^ b for b in range(8)] for a in range(8)]
# Associative with identity 1 and left distributive over xor, not right distributive.
_NEAR_RING = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 0, 3]]
# 0 absorbs and 1 is the identity, so products of 0 and 1, the generators
# of (Z4, +), associate; 2*(2*2) = 3 but (2*2)*2 = 2, and 2*(1+1) != 2*1 + 2*1.
_ASSOC_ON_GENERATORS = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 2, 0]]
# The F2-bilinear product on bit vectors over the basis 1, x = 2, y = 4 with
# identity 1, xy = 1 and x^2 = yx = y^2 = 0: distributive, but (xy)x != x(yx).
_BASIS_PRODUCTS = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 1): 2, (4, 1): 4, (2, 4): 1}
_NONASSOCIATIVE = [
    [reduce(xor, (_BASIS_PRODUCTS.get((i, j), 0) for i in (1, 2, 4) if u & i for j in (1, 2, 4) if v & j), 0) for v in range(8)]
    for u in range(8)
]
# The ring Z2^3 with the products of {2, 3} x {2, 3} xor-ed with 2: every law
# holds on the additive subgroup {0, 1}, so the check must reach 2 and 4.
_FLIPPED_BLOCK = [
    [v ^ 2 if a in (2, 3) and b in (2, 3) else v for b, v in enumerate(row)]
    for a, row in enumerate(direct_product(direct_product(zmod(2), zmod(2)), zmod(2)).mul)
]


@pytest.mark.parametrize(
    "law, add, mul",
    [
        (Law.ADD_COMM, [[0, 1], [0, 1]], [[0, 0], [0, 1]]),
        # x+x = x and x+y is the third element: commutative, not associative,
        # and the generators 0 and 1 generate no group.
        (Law.ADD_ASSOC, [[0, 2, 1], [2, 1, 0], [1, 0, 2]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]]),
        (Law.ADD_IDENTITY, [[0, 0], [0, 0]], [[0, 0], [0, 1]]),
        (Law.ADD_INVERSE, [[0, 1], [1, 1]], [[0, 0], [0, 1]]),
        (Law.MUL_ASSOC, _Z3_ADD, [[(a - b) % 3 for b in range(3)] for a in range(3)]),
        (Law.MUL_ASSOC, _Z4_ADD, _ASSOC_ON_GENERATORS),
        (Law.MUL_ASSOC, _XOR8_ADD, _NONASSOCIATIVE),
        (Law.MUL_IDENTITY, _Z3_ADD, [[0] * 3 for _ in range(3)]),
        (Law.MUL_IDENTITY, _Z3_ADD, _Z3_ADD),
        (Law.DISTRIB_L, _Z3_ADD, [[min(a, b) for b in range(3)] for a in range(3)]),
        (Law.DISTRIB_L, _XOR4_ADD, [list(col) for col in zip(*_NEAR_RING)]),
        (Law.DISTRIB_L, _XOR8_ADD, _FLIPPED_BLOCK),
        (Law.DISTRIB_R, _XOR4_ADD, _NEAR_RING),
    ],
)
def test_each_law_is_named_when_the_laws_before_it_hold(law, add, mul):
    violation = verify_axioms(add, mul)
    assert violation is not None and violation.law is law
    assert violation == _scan_laws(add, mul)


def test_assoc_on_generators_table_associates_on_generators():
    mul = _ASSOC_ON_GENERATORS
    assert all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a in (0, 1) for b in (0, 1) for c in (0, 1))
