"""Ring constructors and the amalgamation: shapes, labels, algebraic identities."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

import amalgam.theorems as theorems
from amalgam import notation, rings
from amalgam.constructions import (
    AmalgamRing,
    amalgamation,
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
from amalgam.morphisms import Ideal, RingHom, enumerate_homs, enumerate_ideals, generated_ideal, identity_hom
from amalgam.properties import clear_caches
from amalgam.rings import FiniteRing, central_idempotents, is_commutative, split_by_central_idempotent, verify_axioms
from amalgam.theorems import CorpusConfig, build_scenarios, run_harness


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
    assert subring_closure(m2, []).members == (m2.zero, m2.one)


def test_subring_closure_is_held_to_every_subset(corpus):
    """On the corpus rings of at most 12 elements, the subring generated by
    no, one or two seeds is the least member set that holds 0, 1 and the
    seeds and is closed under + and *, found among every subset."""
    small = [R for _, R in corpus if R.size <= 12]
    assert len(small) == 20 and any(R.structure[0] == "upper" for R in small)
    for R in small:
        subsets = (
            {x for x in range(R.size) if mask >> x & 1}
            for mask in range(1 << R.size)
            if mask >> R.zero & mask >> R.one & 1
        )
        subrings = [s for s in subsets if all(R.add[x][y] in s and R.mul[x][y] in s for x in s for y in s)]
        for k in (0, 1, 2):
            for seeds in itertools.combinations(range(R.size), k):
                least = set.intersection(*[s for s in subrings if set(seeds) <= s])
                assert subring_closure(R, seeds).members == tuple(sorted(least)), (R, seeds)


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


# sha256 over the amalgam and f(A)+J of every scenario up to 16 elements:
# digest, zero, one, labels, provenance and decode of the amalgam; digest,
# labels, provenance and members of f(A)+J.  Tables shared between scenarios
# must leave every one of these as a per-scenario build makes it.
SCENARIO_FINGERPRINT = "01220c51410e53bc892fc2d5f786ce6c5d09b1a767c78a04de8e8e80c16a5675"


def test_scenario_rings_are_frozen(small_scenarios):
    h = hashlib.sha256()
    for sc in small_scenarios:
        R, F = sc.am.ring, sc.faj.ring
        fields = (sc.key, R.digest(), R.zero, R.one, R.labels, R.provenance, sc.am.decode)
        h.update(repr(fields + (F.digest(), F.labels, F.provenance, sc.faj.members)).encode())
    assert len(small_scenarios) == 1619
    assert h.hexdigest() == SCENARIO_FINGERPRINT


def test_scenario_rings_match_their_definition(small_scenarios):
    """Every amalgam is the set of pairs (a, f(a) + j) with the operations of
    A x B, and every f(A) + J is a subring of B, read through decode and members."""
    for sc in small_scenarios:
        A, B, R, decode = sc.base, sc.target, sc.am.ring, sc.am.decode
        assert decode[R.zero] == (A.zero, B.zero) and decode[R.one] == (A.one, B.one)
        for x, (ax, bx) in enumerate(decode):
            for y, (ay, by) in enumerate(decode):
                assert decode[R.add[x][y]] == (A.add[ax][ay], B.add[bx][by])
                assert decode[R.mul[x][y]] == (A.mul[ax][ay], B.mul[bx][by])
        F, members = sc.faj.ring, sc.faj.members
        assert members[F.zero] == B.zero and members[F.one] == B.one
        for x, bx in enumerate(members):
            for y, by in enumerate(members):
                assert members[F.add[x][y]] == B.add[bx][by]
                assert members[F.mul[x][y]] == B.mul[bx][by]


def test_coordinate_rings_at_the_size_budget_match_their_definition():
    """All 65,536 products of the 256-element rings matrix_ring(zmod(4), 2)
    and poly_quotient(zmod(2), 8), each index read as its base-|R| digits:
    the 2x2 matrix product mod 4 and the convolution mod 2 truncated at t^8."""

    def digits(x: int, base: int, width: int) -> tuple[int, ...]:
        return tuple(x // base ** (width - 1 - i) % base for i in range(width))

    M = matrix_ring(zmod(4), 2)
    entries = [digits(x, 4, 4) for x in range(M.size)]
    for (a, b, c, d), row in zip(entries, M.mul):
        expected = [
            ((a * e + b * g) % 4, (a * f + b * h) % 4, (c * e + d * g) % 4, (c * f + d * h) % 4)
            for e, f, g, h in entries
        ]
        assert [entries[z] for z in row] == expected
    P = poly_quotient(zmod(2), 8)
    coeffs = [digits(x, 2, 8) for x in range(P.size)]
    for p, row in zip(coeffs, P.mul):
        expected = [tuple(sum(p[i] * q[k - i] for i in range(k + 1)) % 2 for k in range(8)) for q in coeffs]
        assert [coeffs[z] for z in row] == expected
    assert M.size == P.size == 256


def test_equal_keys_share_tables_until_clear_caches(z4):
    """zmod(4) joined with (2) along the identity and along x -> (x, x mod 2)
    into zmod(4) x zmod(2): f(A) acts on J alike, so the tables are one
    object while labels, decode and structure stay each amalgam's own.  So
    are the tables of f(A) + 0 for zmod(4) and zmod(8) mapped onto zmod(4)."""
    clear_caches()
    B = direct_product(z4, zmod(2))
    f = RingHom(z4, B, tuple(2 * x + x % 2 for x in range(4)))
    one = duplication(z4, generated_ideal(z4, [2]))
    two = amalgamation(f, generated_ideal(B, [4]))
    assert one.ring.mul is two.ring.mul and one.ring.add is two.ring.add and one.ring.neg is two.ring.neg
    assert one.ring.digest() == two.ring.digest()
    assert one.ring.labels[2:4] == ("(1,1)", "(1,3)") and two.ring.labels[2:4] == ("(1,(1,1))", "(1,(3,1))")
    assert one.decode != two.decode
    assert one.ring.structure == ("amalgam", one) and two.ring.structure == ("amalgam", two)
    zero_ideal = generated_ideal(z4, [0])
    faj1 = f_plus_j(identity_hom(z4), zero_ideal)
    faj2 = f_plus_j(RingHom(zmod(8), z4, tuple(x % 4 for x in range(8))), zero_ideal)
    assert faj1.ring.mul is faj2.ring.mul
    assert faj1.ring.provenance == "faj(zmod(4)->zmod(4))" and faj2.ring.provenance == "faj(zmod(8)->zmod(4))"
    clear_caches()
    assert rings._MEMO == {}
    again = duplication(z4, generated_ideal(z4, [2]))
    assert again.ring.mul is not one.ring.mul and again.ring.mul == one.ring.mul


def test_amalgams_with_one_sum_table_in_j_share_their_add_table(z4, small_scenarios):
    """As a group the amalgam is A x J whatever f is.  zmod(4) joined with
    (2) along the identity and with {(0,0),(0,1)} along x -> (x mod 2, x mod 2)
    into zmod(2) x zmod(2): J adds alike but multiplies apart, so the add
    tables are one object and the mul tables differ."""
    clear_caches()
    B = direct_product(zmod(2), zmod(2))
    one = duplication(z4, generated_ideal(z4, [2]))
    two = amalgamation(RingHom(z4, B, tuple(3 * (x % 2) for x in range(4))), generated_ideal(B, [1]))
    assert one.ring.add is two.ring.add and one.ring.mul != two.ring.mul
    clear_caches()
    again = duplication(z4, generated_ideal(z4, [2]))
    assert again.ring.add is not one.ring.add and again.ring.add == one.ring.add
    keys = set()
    for sc in small_scenarios:
        T, members = sc.target, sc.ideal.members
        jadd = tuple(tuple(members.index(T.add[x][y]) for y in members) for x in members)
        keys.add((sc.base.digest(), jadd))
    assert len({id(sc.am.ring.add) for sc in small_scenarios}) == len(keys) == 47


def test_harness_formats_no_element_and_builds_no_decode(monkeypatch):
    """A full harness run formats no element and builds no decode, since its
    verdict queries split bare copies; read afterwards, the labels of each
    amalgam are its pairs (a, f(a) + j) and those of each f(A) + J its host's."""
    formatted, runs = [], []
    real = notation.format_element
    for module in (notation, rings):
        monkeypatch.setattr(module, "format_element", lambda R, idx: formatted.append(idx) or real(R, idx))
    monkeypatch.setattr(theorems, "build_scenarios", lambda config: runs.append(build_scenarios(config)) or runs[-1])
    clear_caches()
    report = run_harness(CorpusConfig(max_amalgam_size=16), degree=1)
    scenarios = runs[0][1]
    assert report.scenario_count == len(scenarios) == 1619
    assert formatted == [] and not any("decode" in vars(sc.am) for sc in scenarios)
    for sc in scenarios:
        A, B, fmap, members = sc.base, sc.target, sc.hom.map, sc.ideal.members
        for idx, (a, b) in enumerate(sc.am.decode):
            assert B.sub(b, fmap[a]) == members[idx % len(members)] and a == idx // len(members)
        assert sc.am.ring.labels == tuple(f"({A.label(a)},{B.label(b)})" for a, b in sc.am.decode)
        assert sc.faj.ring.labels == tuple(B.label(x) for x in sc.faj.members)


def test_amalgam_requires_proper_ideal(z4):
    full = generated_ideal(z4, [1])
    with pytest.raises(ValueError):
        duplication(z4, full)


def test_amalgam_jpart_consistency(z4):
    am = duplication(z4, generated_ideal(z4, [2]))
    fmap = am.hom.map
    B = am.target
    J = am.ideal
    for idx, (a, b) in enumerate(am.decode):
        assert B.sub(b, fmap[a]) == J.members[idx % len(J.members)]
        assert a == idx // len(J.members)


def test_amalgams_along_one_ideal_share_one_jpart():
    """The J-part of an amalgam depends on J alone: two homs into B along
    one Ideal read the one J.jpart it builds, and each amalgam still has the
    pairs (a, f(a) + j)."""
    B = direct_product(zmod(2), zmod(2))
    J = Ideal(B, (0, 1))
    f, g = enumerate_homs(B, B)[:2]
    assert f.map != g.map
    ams = [amalgamation(f, J), amalgamation(g, J)]
    jpart = vars(J)["jpart"]  # built by the first amalgamation, read by the second
    assert J.jpart is jpart
    jpos, zpos, jrows, jadd, jmul = jpart
    assert jpos == {0: 0, 1: 1} and zpos == jpos[B.zero]
    assert jrows == tuple(B.mul[j] for j in J.members)
    assert jadd == tuple(tuple(jpos[B.add[x][y]] for y in J.members) for x in J.members)
    assert jmul == tuple(tuple(jpos[B.mul[x][y]] for y in J.members) for x in J.members)
    for am in ams:
        fmap, nj = am.hom.map, len(J.members)
        for idx, (a, b) in enumerate(am.decode):
            assert B.sub(b, fmap[a]) == J.members[idx % nj]
            assert a == idx // nj


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


def _frozen(value):
    """A structure tuple with every ring in it replaced by its digest."""
    if isinstance(value, FiniteRing):
        return value.digest()
    if isinstance(value, tuple):
        return tuple(_frozen(v) for v in value)
    return value


# sha256 over the rings below.  Spec element literals, recorded witnesses and
# benchmark/refs.json all name elements by index, so any change to an
# element's index, label, provenance or structure must move this on purpose.
CONSTRUCTOR_FINGERPRINT = "e09db958d844e869dd86c83620bd909c641bf2dfe5c8f99f4815d6af825ed064"


def test_constructor_indexing_is_frozen(corpus):
    bases = [R for _, R in corpus] + [
        upper_triangular(zmod(3), 2),
        matrix_ring(zmod(3), 2),
        poly_quotient(zmod(4), 3),
        upper_triangular(zmod(2), 3),
    ]
    rings = []
    for R in bases:
        rings.append(R)
        if R.size <= 32:
            rings += [quotient_ring(R, I)[0] for I in enumerate_ideals(R) if I.proper]
            for e in central_idempotents(R):
                rings += split_by_central_idempotent(R, e)
        rings.append(subring_closure(R, [R.size - 1]).ring)
    h = hashlib.sha256()
    for R in rings:
        h.update(repr((R.digest(), R.labels, R.provenance, _frozen(R.structure))).encode())
    assert len(rings) == 266
    assert h.hexdigest() == CONSTRUCTOR_FINGERPRINT
    assert all(verify_axioms(R.add, R.mul) is None for R in rings)
