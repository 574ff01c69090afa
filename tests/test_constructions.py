"""Ring constructors and the amalgamation: shapes, labels, algebraic identities."""

import pytest
from hypothesis import given, strategies as st

from amalgam.constructions import (
    AmalgamRing,
    direct_product,
    duplication,
    embedding_into_product,
    f_plus_j,
    matrix_ring,
    poly_quotient,
    quotient_ring,
    subring_closure,
    upper_triangular,
    zmod,
)
from amalgam.isos import check_canonical_isos
from amalgam.morphisms import Ideal, RingHom, enumerate_homs, generated_ideal, identity_hom
from amalgam.rings import is_commutative, verify_axioms


def test_zmod_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        zmod(1)
    with pytest.raises(ValueError):
        zmod(0)


def test_direct_product_componentwise():
    P = direct_product(zmod(2), zmod(3))
    assert P.size == 6
    assert P.structure[0] == "product"
    assert P.label(P.one) == "(1,1)"
    # (1,2) + (1,2) = (0,1); (1,2) * (1,2) = (1,1)
    x = 1 * 3 + 2
    assert P.add[x][x] == 0 * 3 + 1
    assert P.mul[x][x] == P.one
    assert verify_axioms(P.add, P.mul) is None


def test_upper_triangular_shape(t2):
    assert t2.size == 8
    assert t2.structure == ("upper", t2.structure[1], 2)
    assert t2.label(t2.one) == "[[1,0],[0,1]]"
    assert not is_commutative(t2)
    assert verify_axioms(t2.add, t2.mul) is None


def test_matrix_ring_shape(m2):
    assert m2.size == 16
    assert m2.label(m2.one) == "[[1,0],[0,1]]"
    e12 = 0b0100  # digits row-major: [[0,1],[0,0]]
    e21 = 0b0010
    assert m2.mul[e12][e21] == 0b1000
    assert m2.mul[e21][e12] == 0b0001
    assert verify_axioms(m2.add, m2.mul) is None


def test_poly_quotient_truncates(pq22):
    assert pq22.size == 4
    t = 1  # coefficient tuple (0, 1); leading coefficient is most significant
    assert pq22.label(t) == "t"
    assert pq22.mul[t][t] == pq22.zero
    Q = poly_quotient(zmod(2), 3)
    t = 2  # coefficient tuple (0,1,0) with c0 most significant
    t2_ = Q.mul[t][t]
    assert Q.label(t2_) == "t^2" and t2_ == 1
    assert Q.mul[t2_][t] == Q.zero
    assert verify_axioms(Q.add, Q.mul) is None


def test_quotient_ring_collapses_ideal(z4):
    J = generated_ideal(z4, [2])
    Q, surj = quotient_ring(z4, J)
    assert Q.size == 2
    assert surj[0] == surj[2] == Q.zero
    assert surj[1] == surj[3] == Q.one
    assert verify_axioms(Q.add, Q.mul) is None


def test_subring_closure_finds_unital_core(m2):
    emb = subring_closure(m2, [m2.one])
    assert emb.members[emb.ring.one] == m2.one
    assert emb.ring.size == 2
    scalars = subring_closure(m2, [])
    assert scalars.members == (0, m2.one) or m2.one in scalars.members


def test_f_plus_j_is_whole_ring_for_identity(z4):
    J = generated_ideal(z4, [2])
    emb = f_plus_j(identity_hom(z4), J)
    assert emb.members == (0, 1, 2, 3)
    assert emb.ring.size == 4


def test_duplication_of_z4_along_evens(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    assert isinstance(am, AmalgamRing)
    R = am.ring
    assert R.size == 8
    assert R.label(R.zero) == "(0,0)"
    assert R.label(R.one) == "(1,1)"
    assert [R.label(i) for i in range(4)] == ["(0,0)", "(0,2)", "(1,1)", "(1,3)"]
    assert verify_axioms(R.add, R.mul) is None


def test_amalgam_operations_match_componentwise(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    R = am.ring
    for x in range(R.size):
        ax, bx = am.decode[x]
        for y in range(R.size):
            ay, by = am.decode[y]
            sa, sb = am.decode[R.add[x][y]]
            assert (sa, sb) == (z4.add[ax][ay], z4.add[bx][by])
            pa, pb = am.decode[R.mul[x][y]]
            assert (pa, pb) == (z4.mul[ax][ay], z4.mul[bx][by])


def test_amalgam_requires_proper_ideal(z4):
    full = generated_ideal(z4, [1])
    with pytest.raises(ValueError):
        duplication(z4, full)


def test_amalgam_jpart_consistency(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    fmap = am.hom.map
    B = am.target
    for idx, (a, b) in enumerate(am.decode):
        assert B.add[fmap[a]][am.jpart[idx]] == b
        assert am.proj_a[idx] == a and am.proj_b[idx] == b


def test_embedding_into_product_is_faithful(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    emb = embedding_into_product(am)
    assert len(emb.members) == am.ring.size
    assert emb.members[emb.ring.one] == emb.host.one


def test_canonical_isos_on_duplication(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    report = check_canonical_isos(am)
    assert report.all_ok()
    assert report.quotient_by_ideal_part_iso_base
    assert report.quotient_by_kernel_part_iso_faj
    # the identity map is never disjoint from a nonzero ideal
    assert not report.disjoint_applicable


def test_canonical_isos_disjoint_case():
    # Z/2 -> Z/2 x Z/2 diagonal-free corner: image meets the ideal only at zero
    A = zmod(2)
    B = direct_product(zmod(2), zmod(2))
    homs = enumerate_homs(A, B)
    assert len(homs) == 1
    f = homs[0]
    J = Ideal(B, (0, 1))  # {(0,0), (0,1)}
    am = None
    from amalgam.constructions import amalgamation
    am = amalgamation(f, J)
    report = check_canonical_isos(am)
    assert report.all_ok()
    assert report.disjoint_applicable
    assert report.disjoint_iso is True


@given(st.sampled_from([2, 3, 4, 5, 6]), st.sampled_from([2, 3, 4, 5, 6]))
def test_products_stay_rings(n, m):
    P = direct_product(zmod(n), zmod(m))
    assert verify_axioms(P.add, P.mul) is None
    assert P.size == n * m


@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (4, 2)]))
def test_poly_quotients_stay_rings(params):
    n, k = params
    Q = poly_quotient(zmod(n), k)
    assert verify_axioms(Q.add, Q.mul) is None
    assert Q.size == n ** k
