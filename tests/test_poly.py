"""Polynomial arithmetic over table rings: exact convolution semantics."""

import random

import pytest
from hypothesis import given, strategies as st

from amalgam.constructions import matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.errors import HostMismatchError
from amalgam.poly import Polynomial, enumerate_polys, format_poly, poly_add, poly_mul


def test_polynomial_validation(z4):
    with pytest.raises(ValueError):
        Polynomial(z4, ())
    with pytest.raises(ValueError):
        Polynomial(z4, (0, 7))


def test_degree_ignores_trailing_zeros(z4):
    assert Polynomial(z4, (1, 2, 0)).degree() == 1
    assert Polynomial(z4, (0, 0)).degree() is None
    assert Polynomial(z4, (0,)).is_zero()


def test_equality_strips(z4):
    assert Polynomial(z4, (1, 2)) == Polynomial(z4, (1, 2, 0))
    assert Polynomial(z4, (1,)) != Polynomial(z4, (1, 1))


def test_add_and_mul_in_z4(z4):
    f = Polynomial(z4, (1, 2))       # 1 + 2x
    g = Polynomial(z4, (3, 2))       # 3 + 2x
    assert poly_add(f, g).coeffs == (0, 0)
    # (1 + 2x)(3 + 2x) = 3 + (2 + 6)x + 4x^2 = 3 + 0x + 0x^2
    assert poly_mul(f, g).coeffs == (3, 0, 0)


def test_mul_is_noncommutative_over_matrices(m2):
    e12, e21 = 0b0100, 0b0010
    f = Polynomial(m2, (e12,))
    g = Polynomial(m2, (e21,))
    assert poly_mul(f, g).coeffs != poly_mul(g, f).coeffs


def test_host_mismatch_raises(z4):
    other = zmod(5)
    with pytest.raises(HostMismatchError):
        poly_add(Polynomial(z4, (1,)), Polynomial(other, (1,)))


def test_enumerate_polys_counts(z4):
    assert sum(1 for _ in enumerate_polys(z4, 0)) == 4
    assert sum(1 for _ in enumerate_polys(z4, 1)) == 16
    polys = list(enumerate_polys(zmod(2), 2))
    assert len(polys) == 8
    assert [p.coeffs for p in polys[:3]] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]


def test_format_poly_readable(z4, pq22):
    assert format_poly(Polynomial(z4, (0,))) == "0"
    text = format_poly(Polynomial(z4, (1, 2)))
    assert "x" in text and "2" in text
    nested = format_poly(Polynomial(pq22, (1, 3)))
    assert "x" in nested


def test_thousand_random_triples_ring_laws():
    """Distributivity and associativity of the convolution, brute-forced."""
    rng = random.Random(0)
    rings = [zmod(4), zmod(6), upper_triangular(zmod(2), 2), poly_quotient(zmod(2), 2)]
    for _ in range(1000):
        R = rng.choice(rings)
        deg = rng.randint(0, 2)
        coeffs = lambda: tuple(rng.randrange(R.size) for _ in range(deg + 1))
        f, g, h = Polynomial(R, coeffs()), Polynomial(R, coeffs()), Polynomial(R, coeffs())
        assert poly_mul(f, poly_add(g, h)) == poly_add(poly_mul(f, g), poly_mul(f, h))
        assert poly_mul(poly_add(f, g), h) == poly_add(poly_mul(f, h), poly_mul(g, h))
        assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))


@given(
    st.sampled_from([2, 3, 4, 5]),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
)
def test_mul_matches_integer_convolution(n, fc, gc):
    """Over zmod the table convolution must agree with integer arithmetic."""
    R = zmod(n)
    f = Polynomial(R, tuple(c % n for c in fc))
    g = Polynomial(R, tuple(c % n for c in gc))
    got = poly_mul(f, g).coeffs
    want = [0] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            want[i + j] += a * b
    assert got == tuple(w % n for w in want)


@given(st.data())
def test_add_commutes(data):
    R = zmod(data.draw(st.integers(min_value=2, max_value=8)))
    n = R.size
    fc = tuple(data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
    gc = tuple(data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(3))
    assert poly_add(Polynomial(R, fc), Polynomial(R, gc)) == poly_add(Polynomial(R, gc), Polynomial(R, fc))
