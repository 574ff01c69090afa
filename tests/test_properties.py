"""Polynomial annihilation properties: the pruned engine against the brute
oracle, frozen refutation witnesses, fast-path agreement, and the audit."""

import functools
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, strategies as st

import amalgam.properties as properties
from amalgam.constructions import amalgamation, direct_product, matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.errors import SearchBudgetError
from amalgam.morphisms import Ideal, RingHom
from amalgam.poly import Polynomial, poly_mul
from amalgam.properties import (
    POLY_KINDS,
    PolyWitness,
    PropertyKind,
    Verdict,
    annihilating_pairs,
    check_armendariz,
    check_nil_armendariz,
    check_reduced,
    check_semicommutative,
    check_weak_armendariz,
    clear_caches,
    get_report,
    holds,
    naive_annihilating_pairs,
    naive_poly_check,
    property_profile,
    _Tables,
    _cut_values,
    _indecomposable_factors,
    _is_gaussian,
    _kind_sets,
    _nil_is_ideal,
    _scan_block_d1,
    _scan_block_d2,
    _scan_block_generic,
    _search_violation,
)
from amalgam.rings import FiniteRing, induced_ring, is_commutative, is_nilpotent, is_semicommutative_ring, nilradical


ORACLE_RINGS_SMALL = [zmod(2), zmod(3), zmod(4), zmod(5), zmod(6), poly_quotient(zmod(2), 2), direct_product(zmod(2), zmod(2))]
ORACLE_RINGS_MEDIUM = [upper_triangular(zmod(2), 2), poly_quotient(zmod(2), 3), zmod(8), zmod(9)]


def test_engine_matches_oracle_small_rings_all_degrees():
    """Verdict AND witness equality against brute enumeration, degrees 0-2."""
    for R in ORACLE_RINGS_SMALL:
        for kind in POLY_KINDS:
            for d in (0, 1, 2):
                want_verdict, want_witness, _ = naive_poly_check(R, kind, d)
                report = get_report(R, kind, d)
                assert report.verdict is want_verdict, (R.provenance, kind, d)
                assert report.witness == want_witness, (R.provenance, kind, d)


def test_engine_matches_oracle_medium_rings_degree_one():
    for R in ORACLE_RINGS_MEDIUM:
        for kind in POLY_KINDS:
            want_verdict, want_witness, _ = naive_poly_check(R, kind, 1)
            report = get_report(R, kind, 1)
            assert report.verdict is want_verdict, (R.provenance, kind)
            assert report.witness == want_witness, (R.provenance, kind)


def test_matrix_ring_armendariz_witness_frozen(m2):
    report = check_armendariz(m2, 1)
    assert report.verdict is Verdict.REFUTED
    assert report.witness == PolyWitness((1, 2), (4, 1), 0, 1, 1)
    # the witness really multiplies to zero as polynomials
    f = Polynomial(m2, report.witness.f_coeffs)
    g = Polynomial(m2, report.witness.g_coeffs)
    assert all(c == m2.zero for c in poly_mul(f, g).coeffs)
    # and the flagged coefficient product is nonzero
    assert m2.mul[1][1] == 1 != m2.zero


def test_triangular_ring_armendariz_witness_frozen(t2):
    report = check_armendariz(t2, 1)
    assert report.verdict is Verdict.REFUTED
    assert report.witness == PolyWitness((2, 4), (2, 1), 0, 1, 2)


def test_triangular_ring_weak_and_nil_hold(t2):
    assert check_weak_armendariz(t2, 1).holds
    assert check_nil_armendariz(t2, 1).holds
    assert check_weak_armendariz(t2, 2).holds


def test_matrix_ring_weak_refuted_with_non_nilpotent_product(m2):
    weak = check_weak_armendariz(m2, 1)
    assert weak.verdict is Verdict.REFUTED
    nil = nilradical(m2)
    assert weak.witness.product not in nil
    # the same pair also refutes the nil-style property
    nil_report = check_nil_armendariz(m2, 1)
    assert nil_report.verdict is Verdict.REFUTED


def test_zmod_rings_hold_everything():
    for n in (2, 3, 4, 8, 9):
        R = zmod(n)
        assert check_armendariz(R, 2).holds
        assert check_nil_armendariz(R, 2).holds
        assert check_weak_armendariz(R, 2).holds


def test_witness_is_lex_minimal(t2):
    """First refuting pair in (f, g) lexicographic order, by construction."""
    report = check_armendariz(t2, 1)
    wit = report.witness
    for f, g in naive_annihilating_pairs(t2, 1, {t2.zero}):
        bad = None
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                if t2.mul[a][b] != t2.zero:
                    bad = (i, j, t2.mul[a][b])
                    break
            if bad:
                break
        if bad:
            assert f.coeffs == wit.f_coeffs and g.coeffs == wit.g_coeffs
            assert (wit.i, wit.j, wit.product) == bad
            return
    pytest.fail("oracle found no refutation where the engine did")


def test_stream_counts_match_naive(small_rings):
    """annihilating_pairs yields the pairs of the naive double loop, pair
    for pair in the same order, on every ring up to 8 elements at degrees
    0 to 2, for the constraint sets {0} and the nilpotents."""
    for R in small_rings:
        if R.size > 8:
            continue
        for sc in {frozenset((R.zero,)), nilradical(R)}:
            for d in (0, 1, 2):
                fast = [(f.coeffs, g.coeffs) for f, g in annihilating_pairs(R, d, sc)]
                slow = [(f.coeffs, g.coeffs) for f, g in naive_annihilating_pairs(R, d, sc)]
                assert fast == slow, (R.provenance, sorted(sc), d)


def test_stream_yields_lex_order_and_includes_zero(z4):
    pairs = list(annihilating_pairs(z4, 1, {z4.zero}))
    keys = [(f.coeffs, g.coeffs) for f, g in pairs]
    assert keys == sorted(keys)
    assert ((0, 0), (0, 0)) in keys


def test_node_budget_raises(m2):
    clear_caches()
    with pytest.raises(SearchBudgetError):
        check_armendariz(m2, 2, node_budget=5)
    clear_caches()


def test_nil_ideal_fast_path_agrees_with_naive():
    """Rings whose nilpotents form an ideal hold nil and weak Armendariz
    with no search."""
    for R in (zmod(4), zmod(8), poly_quotient(zmod(2), 3), upper_triangular(zmod(2), 2)):
        assert _nil_is_ideal(R), R.provenance
        for kind in (PropertyKind.NIL_ARMENDARIZ, PropertyKind.WEAK_ARMENDARIZ):
            for d in (1, 2):
                want, _, _ = naive_poly_check(R, kind, d)
                assert get_report(R, kind, d).verdict is want


def test_factor_fast_path_agrees_with_naive():
    """Decomposable rings go through the idempotent splitting."""
    for R in (zmod(6), direct_product(zmod(2), zmod(2)), direct_product(zmod(2), zmod(3))):
        for kind in POLY_KINDS:
            want, _, _ = naive_poly_check(R, kind, 2)
            assert get_report(R, kind, 2).verdict is want


def test_refutation_monotone_in_degree(t2, m2):
    for R in (t2, m2):
        assert check_armendariz(R, 1).verdict is Verdict.REFUTED
        assert check_armendariz(R, 2).verdict is Verdict.REFUTED


def test_lifted_verdicts_match_the_direct_search(small_rings):
    """holds may answer from the degree lift, the nil ideal, the factor
    split or the Gaussian route; every answer must still be the verdict of
    R's own direct scan, each side computed from an empty memo, and each
    route must decide some verdict.  Degree 3 only up to 4 elements: the
    nil scans of 8-element rings take up to 1.6 s each there."""
    decided = {"lift": 0, "nil ideal": 0, "factor split": 0, "gaussian": 0}
    for R in small_rings:
        queries = [(kind, d) for kind in POLY_KINDS for d in ((1, 2, 3) if R.size <= 4 else (1, 2))]
        clear_caches()
        lifted = {(kind, d): holds(R, kind, d) for kind, d in queries}
        clear_caches()
        direct = {(kind, d): _search_violation(R, d, *_kind_sets(R, kind), None)[0] is None for kind, d in queries}
        assert lifted == direct, R.provenance
        for kind, d in queries:
            if d >= 2 and not direct[kind, d - 1]:
                decided["lift"] += 1
            elif kind is not PropertyKind.ARMENDARIZ and _nil_is_ideal(R):
                decided["nil ideal"] += 1
            elif len(_indecomposable_factors(R)) > 1:
                decided["factor split"] += 1
            elif kind is PropertyKind.ARMENDARIZ and _is_gaussian(R):
                decided["gaussian"] += 1
    clear_caches()
    assert all(decided.values()), decided


def test_budgeted_lift_falls_back_to_the_degree_d_report(monkeypatch, m2):
    """When the degree-1 probe runs out of budget, holds at degree 2 returns
    or raises exactly what the degree-2 report does, after trying it."""
    kind = PropertyKind.ARMENDARIZ
    real_scan = properties._search_violation
    degrees = []

    def recording_scan(R, d, sc, sv, node_budget):
        degrees.append(d)
        return real_scan(R, d, sc, sv, node_budget)

    def outcome(query):
        clear_caches()
        try:
            return query()
        except SearchBudgetError as exc:
            return repr(exc)

    # m2's degree-1 scan walks 152 nodes; each budget stops it short
    for budget in (5, 100, 140):
        assert outcome(lambda: get_report(m2, kind, 1, node_budget=budget)).startswith("SearchBudgetError")
        want = outcome(lambda: get_report(m2, kind, 2, node_budget=budget).holds)
        monkeypatch.setattr(properties, "_search_violation", recording_scan)
        degrees.clear()
        assert outcome(lambda: holds(m2, kind, 2, node_budget=budget)) == want
        monkeypatch.undo()
        assert degrees == [1, 2]
    clear_caches()


CHECKS = dict(zip(POLY_KINDS, (check_armendariz, check_nil_armendariz, check_weak_armendariz)))


def test_reports_are_held_to_the_bare_scan(monkeypatch, small_rings):
    """get_report takes its verdict from holds and scans only a refuted
    ring, or reuses holds' own scan; from an empty memo its verdict and
    witness must be those of R's own direct scan, which check_* run with no
    route and no memo."""
    routes = ("holds", "_nil_is_ideal", "_indecomposable_factors", "_is_gaussian")
    for R in small_rings:
        for kind, check in CHECKS.items():
            for d in (1, 2):
                clear_caches()
                report = get_report(R, kind, d)
                clear_caches()
                wit = _search_violation(R, d, *_kind_sets(R, kind), None)[0]
                for name in routes:
                    monkeypatch.setattr(properties, name, None)
                bare = check(R, d)
                monkeypatch.undo()
                assert bare.witness == (None if wit is None else PolyWitness(*wit)), (R.provenance, kind, d)
                assert (report.verdict, report.witness) == (bare.verdict, bare.witness), (R.provenance, kind, d)
                assert {(kind, d), ("holds", kind, d)}.isdisjoint(properties._MEMO.get(R.digest(), {})), R.provenance
    clear_caches()


@pytest.mark.parametrize("kind", POLY_KINDS, ids=lambda k: k.value)
def test_negative_degree_bound_is_rejected(kind, z4):
    """Z4's nilpotents form an ideal and Z4 is Gaussian, so a route that
    answered before the guard would call every kind holding at d = -1."""
    for query in (lambda: holds(z4, kind, -1), lambda: get_report(z4, kind, -1), lambda: CHECKS[kind](z4, -1)):
        clear_caches()
        with pytest.raises(ValueError, match="non-negative"):
            query()
    clear_caches()


def test_degree_zero_never_refutes():
    """Constant polynomials cannot violate: the pair product is the constraint."""
    for R in ORACLE_RINGS_SMALL + ORACLE_RINGS_MEDIUM:
        for kind in POLY_KINDS:
            assert get_report(R, kind, 0).holds


def test_reduced_and_semicommutative_reports(z4, m2):
    r = check_reduced(z4)
    assert r.verdict is Verdict.REFUTED and r.witness.element == 2
    assert check_reduced(zmod(6)).verdict is Verdict.HOLDS_EXACT
    s = check_semicommutative(m2)
    assert s.verdict is Verdict.REFUTED
    a, mid, b = s.witness.a, s.witness.r, s.witness.b
    assert m2.mul[a][b] == m2.zero and m2.mul[m2.mul[a][mid]][b] != m2.zero


def test_property_profile_audit_clean(t2, m2, z4):
    for R in (t2, m2, z4, zmod(6), poly_quotient(zmod(2), 2)):
        profile = property_profile(R, 2)
        findings = profile.audit()
        fatal = [f for f in findings if f.fatal]
        assert not fatal, (R.provenance, fatal)


def test_report_cache_returns_identical_object(z4):
    a = get_report(z4, PropertyKind.ARMENDARIZ, 2)
    b = get_report(z4, PropertyKind.ARMENDARIZ, 2)
    assert a is b


def test_equal_tables_share_one_report(z4):
    twin = FiniteRing.from_tables(z4.add, z4.mul)
    assert twin is not z4
    for kind in PropertyKind:
        d = 1 if kind in POLY_KINDS else None
        assert get_report(twin, kind, d) is get_report(z4, kind, d)


def test_route_facts_do_not_keep_their_ring_alive():
    """The memo keys facts by digest; the factor split stores bare pieces,
    so asking a ring's verdicts does not pin the ring."""
    clear_caches()
    rings = [
        direct_product(zmod(2), zmod(4)),
        poly_quotient(zmod(2), 3),
        direct_product(upper_triangular(zmod(2), 2), zmod(2)),
    ]
    for R in rings:
        for kind in POLY_KINDS:
            for d in (1, 2):
                holds(R, kind, d)
    refs = [weakref.ref(R) for R in rings]
    del rings, R
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
    clear_caches()


def test_unit_orbit_reps_are_a_transversal(small_rings):
    """The first half of _cut_values: ascending, each least in its orbit
    {r*u : u a unit}, and every element is r*u for exactly one
    representative r, with units found by brute force.  The second half,
    the non-units least in their coset x + K, is their brute force on a
    commutative ring and empty on any other."""
    for R in small_rings:
        rng = range(R.size)
        us = [u for u in rng if any(R.mul[u][v] == R.one == R.mul[v][u] for v in rng)]
        reps, rep_mask, least, least_mask = _cut_values(R)
        assert list(reps) == sorted(set(reps)), R.provenance
        assert rep_mask == sum(1 << r for r in reps), R.provenance
        want = _ann_cosets_by_brute_force(R)[1:] if is_commutative(R) else ((), 0)
        assert (least, least_mask) == want, R.provenance
        owners = {x: [] for x in rng}
        for r in reps:
            orbit = {R.mul[r][u] for u in us}
            assert r == min(orbit), R.provenance
            for x in orbit:
                owners[x].append(r)
        assert all(len(rs) == 1 for rs in owners.values()), R.provenance


def test_orbit_cut_keeps_the_criterion_9_witness_and_walks_less():
    """The unreduced walk of this check examined 130,800 nodes, the walk
    cut by unit orbits alone 74,155, the walk with the reversal and
    leading-zero cuts too 43,010, the walk with the swap cut too 21,163,
    the walk with the McCoy cut too 5,477, and the walk with the coset cut
    too 187."""
    report = check_armendariz(poly_quotient(zmod(2), 4), 2)
    assert report.verdict is Verdict.HOLDS_UP_TO_BOUND and report.witness is None
    assert report.pairs_examined < 43_010


def _holding_amalgam() -> FiniteRing:
    """A 16-element amalgam of the max_amalgam_size=16 scenarios on which all
    three kinds hold at degree 2, so every scan of it walks to the end."""
    A, B = direct_product(zmod(2), zmod(4)), direct_product(zmod(2), zmod(2))
    return amalgamation(RingHom(A, B, (0, 0, 0, 0, 3, 3, 3, 3)), Ideal(B, (0, 1))).ring


@pytest.mark.parametrize("d, unrolled", [(1, _scan_block_d1), (2, _scan_block_d2)])
def test_unrolled_scans_match_generic_scan(d, unrolled):
    rings = [
        zmod(4),
        zmod(8),
        poly_quotient(zmod(2), 3),
        upper_triangular(zmod(2), 2),
        matrix_ring(zmod(2), 2),
        direct_product(zmod(2), zmod(4)),
        # wide last levels: 16 elements, and a walk with no early witness
        poly_quotient(zmod(2), 4),
        direct_product(zmod(4), zmod(4)),
        _holding_amalgam(),
    ]
    for R in rings:
        for kind in POLY_KINDS:
            sc, sv = _kind_sets(R, kind)
            want = _scan_block_generic(R, d, sc, sv, None)
            assert unrolled(R, sc, sv, None) == want, (R.provenance, kind)


def _lex_first_witness(R: FiniteRing, d: int, sc: frozenset, sv: frozenset):
    """The first pair of the full lex stream of annihilating_pairs with a
    cross product outside sv, as a scan reports it, or None."""
    for f, g in annihilating_pairs(R, d, sc):
        for i, a in enumerate(f.coeffs):
            row = R.mul[a]
            for j, b in enumerate(g.coeffs):
                if row[b] not in sv:
                    return f.coeffs, g.coeffs, i, j, row[b]
    return None


def _orbit_test_rings(small_rings) -> list[FiniteRing]:
    """small_rings plus the wide rings of test_unrolled_scans_match_generic_scan."""
    rings = {R.digest(): R for R in small_rings}
    for R in (poly_quotient(zmod(2), 4), direct_product(zmod(4), zmod(4)), _holding_amalgam()):
        rings.setdefault(R.digest(), R)
    return list(rings.values())


def _relabelings(R: FiniteRing) -> list[FiniteRing]:
    """Two copies of R with its elements renamed, reversed and shuffled, so
    that zero and one sit at other indices and the lex order changes."""
    n = R.size
    shuffler = random.Random(R.digest())
    perms = [tuple(range(n - 1, -1, -1))]
    while len(perms) < 2:
        perm = list(range(n))
        shuffler.shuffle(perm)
        if perm[R.zero] != R.zero and perm[R.one] != R.one:
            perms.append(tuple(perm))
    return [_relabel(R, perm) for perm in perms]


def _relabel(R: FiniteRing, perm: tuple[int, ...]) -> FiniteRing:
    """R with each element x renamed perm[x]."""
    return induced_ring(
        R, sorted(range(R.size), key=perm.__getitem__), perm, R.one,
        provenance=f"relabel({R.provenance})", structure=("relabel", R, perm),
    )


def test_orbit_cut_scans_find_the_lex_first_witness_of_the_full_walk(small_rings):
    """The scans skip every f and g that _lex_leader_cut rules out; the
    witness must still be the first of the unreduced lex stream, which shares
    no cut code.  The unrolled scans at degree 1 on every ring and at degree
    2 up to 8 elements; the generic scan at degrees 1 and 2 up to 8
    elements, and at degree 3 up to 4 elements and on the rings up to 8
    elements that refute at degree 2 (padding keeps them refuted, so their
    streams stop early).  Each refuting query up to 8 elements at degrees 1
    and 2 runs again on two relabelings of its ring (a relabeled holding
    ring holds, and a cut scan finds nothing there either).  Past 8
    elements a holding ring streams up to millions of pairs at degree 2, so
    test_orbit_cut_scans_match_the_uncut_walk covers degree 2 up to 16
    elements."""
    for R in _orbit_test_rings(small_rings):
        copies = _relabelings(R) if R.size <= 8 else []
        for kind in POLY_KINDS:
            refuted = False
            for d in (1, 2, 3) if R.size <= 8 else (1,):
                if d == 3 and R.size > 4 and not refuted:
                    break
                for S in [R, *copies] if d < 3 else [R]:
                    sc, sv = _kind_sets(S, kind)
                    want = _lex_first_witness(S, d, sc, sv)
                    if d < 3:
                        unrolled = _scan_block_d1(S, sc, sv, None) if d == 1 else _scan_block_d2(S, sc, sv, None)
                        assert unrolled[0] == want, (S.provenance, kind, d)
                    if S.size <= 8:
                        assert _scan_block_generic(S, d, sc, sv, None)[0] == want, (S.provenance, kind, d)
                    refuted = want is not None
                    if not refuted:
                        break


def _uncut(R: FiniteRing, sc: frozenset, sv: frozenset):
    """_lex_leader_cut with every cut disabled: every a0 with every b0, every
    value for every coefficient, among them a lead one and f's last one,
    and no swap."""
    n = R.size
    return -1, tuple(range(n)), [range(n)] * n, False


def test_orbit_cut_scans_match_the_uncut_walk(monkeypatch, small_rings):
    """At degrees 1 and 2 up to 16 elements, and through the generic scan
    at degree 3 up to 4 elements, the cut scans find the witness of the same
    scans walking every f and g, in no more nodes, and in fewer on some
    rings at each degree.  Uncut, criterion 9's check walks all 130,800
    nodes of its unreduced walk, so _uncut turns off every cut, the McCoy
    cut included."""
    rings = [R for R in _orbit_test_rings(small_rings) if R.size <= 16]
    scans = [
        (1, _scan_block_d1),
        (2, _scan_block_d2),
        (3, lambda R, sc, sv, budget: _scan_block_generic(R, 3, sc, sv, budget)),
    ]
    queries = [
        (d, scan, R, kind, *_kind_sets(R, kind))
        for d, scan in scans
        for R in rings
        if d < 3 or R.size <= 4
        for kind in POLY_KINDS
    ]
    cut = [scan(R, sc, sv, None) for d, scan, R, kind, sc, sv in queries]
    monkeypatch.setattr(properties, "_lex_leader_cut", _uncut)
    shrunk = {1: 0, 2: 0, 3: 0}
    for (d, scan, R, kind, sc, sv), (wit, nodes) in zip(queries, cut):
        want, full = scan(R, sc, sv, None)
        assert wit == want and nodes <= full, (R.provenance, kind, d)
        shrunk[d] += nodes < full
    assert all(shrunk.values()), shrunk
    assert check_armendariz(poly_quotient(zmod(2), 4), 2).pairs_examined == 130_800


def test_mccoy_cut_drops_no_violating_pair(small_rings):
    """On a commutative ring, a pair with f*g = 0 and a cross product
    outside {0}, and so outside every target set, has no unit coefficient:
    the pairs the McCoy cut drops are never violating.  Held to the naive
    stream of every commutative ring of _orbit_test_rings with one
    indecomposable factor, at degree 1 up to 16 elements and at degree 2 up
    to 8, with units found by brute force.  A pair over a product of rings
    is a pair over each factor, with a unit coefficient in each and a
    nonzero cross product in one, so the claim for a product follows from
    its factors."""
    checked = {1: 0, 2: 0}
    for R in _orbit_test_rings(small_rings):
        if not is_commutative(R) or len(_indecomposable_factors(R)) > 1:
            continue
        rng, mul, zero = range(R.size), R.mul, R.zero
        us = {u for u in rng if R.one in mul[u]}
        for d in (1, 2) if R.size <= 8 else (1,) if R.size <= 16 else ():
            for f, g in naive_annihilating_pairs(R, d, {zero}):
                if us.intersection(f.coeffs + g.coeffs):
                    assert all(mul[a][b] == zero for a in f.coeffs for b in g.coeffs), (R.provenance, f, g)
                    checked[d] += 1
    assert all(checked.values()), checked


def _ann_cosets_by_brute_force(R: FiniteRing) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """K = {k : k*x = 0 for every non-unit x}, ascending, and the non-units
    least in their coset x + K, ascending and as a bitmask, with units found
    by brute force."""
    rng, add, mul, zero = range(R.size), R.add, R.mul, R.zero
    nonunits = [x for x in rng if R.one not in mul[x]]
    K = tuple(k for k in rng if all(mul[k][x] == zero for x in nonunits))
    least = tuple(x for x in nonunits if x == min(add[x][k] for k in K))
    return K, least, sum(1 << x for x in least)


def test_coset_cut_drops_no_violating_pair(small_rings):
    """On a commutative ring, a pair with f*g = 0, f != 0 and g != 0 has no
    unit coefficient (McCoy), so K = {k : k*x = 0 for every non-unit x}
    kills every coefficient.  Moving any one coefficient within its coset
    x + K then keeps every cross product, and so f*g = 0, whose
    coefficients are sums of them: a violating pair stays violating for
    every kind with constraint set {0}, and the values the coset cut drops
    start no lex-first violation.  Held to the naive stream of every
    commutative ring of _orbit_test_rings with one indecomposable factor
    and of the three non-Gaussian local rings, which have violating pairs,
    at degree 1 up to 16 elements and at degree 2 up to 8, with K found by
    brute force.  On a ring with two or more factors K = {0}, so the cut
    does nothing there.  The coset half of _cut_values is held to its
    definition on these rings and on two relabelings of each up to 8
    elements, some of which move zero above another element of K."""
    rings = [R for R in _orbit_test_rings(small_rings) + _non_gaussian_local_rings() if is_commutative(R)]
    zero_not_least = 0
    for R in rings + [S for R in rings if R.size <= 8 for S in _relabelings(R)]:
        want = _ann_cosets_by_brute_force(R)
        assert _cut_values(R)[2:] == want[1:], R.provenance
        zero_not_least += want[0][0] != R.zero
    assert zero_not_least
    moved = {1: 0, 2: 0}
    violating = 0
    for R in rings:
        add, mul, zero = R.add, R.mul, R.zero
        K = _ann_cosets_by_brute_force(R)[0]
        if len(_indecomposable_factors(R)) > 1:
            assert K == (zero,), R.provenance
            continue
        shifts = [k for k in K if k != zero]
        for d in (1, 2) if R.size <= 8 else (1,) if R.size <= 16 else ():
            for f, g in naive_annihilating_pairs(R, d, {zero}):
                if f.is_zero() or g.is_zero():
                    continue
                cross = [mul[a][b] for a in f.coeffs for b in g.coeffs]
                violating += cross.count(zero) < len(cross)
                for pos, k in itertools.product(range(2 * d + 2), shifts):
                    pair = list(f.coeffs + g.coeffs)
                    pair[pos] = add[pair[pos]][k]
                    fc, gc = pair[: d + 1], pair[d + 1 :]
                    assert [mul[a][b] for a in fc for b in gc] == cross, (R.provenance, f, g, pos, k)
                    moved[d] += 1
    assert all(moved.values()) and violating, (moved, violating)


def test_coset_cut_keeps_the_witness_when_zero_is_not_least_in_K():
    """When zero is not least in K, the coset cut drops zero from every
    coefficient: replacing a zero coefficient of a violating pair by min(K)
    keeps every cross product and gives a lex-smaller pair, so the
    lex-first witness has no zero coefficient.  Held to the first violating
    pair of the naive stream on three relabelings of each non-Gaussian
    local ring that put zero above min(K), through the unrolled and generic
    scans: at degree 1 for every kind, and at degree 2 for the kinds that
    refute at degree 1."""
    refuted = {1: 0, 2: 0}
    for R in _non_gaussian_local_rings():
        K = _ann_cosets_by_brute_force(R)[0]
        shuffler = random.Random(R.digest())
        perms = []
        while len(perms) < 3:
            perm = list(range(R.size))
            shuffler.shuffle(perm)
            if perm[R.zero] > min(perm[k] for k in K):
                perms.append(tuple(perm))
        for S in map(functools.partial(_relabel, R), perms):
            assert S.zero not in _cut_values(S)[2], S.provenance
            for kind in POLY_KINDS:
                sc, sv = _kind_sets(S, kind)
                for d in (1, 2):
                    want = naive_poly_check(S, kind, d)[1]
                    for wit, _ in (_search_violation(S, d, sc, sv, None), _scan_block_generic(S, d, sc, sv, None)):
                        assert (wit and PolyWitness(*wit)) == want, (S.provenance, kind, d)
                    if want is None:
                        break
                    refuted[d] += 1
    assert all(refuted.values()), refuted


def test_commutativity_is_one_memo_fact_held_to_its_definition(monkeypatch, small_rings):
    """is_commutative agrees with x*y = y*x on every small ring; the
    semicommutative check and the scans read it as one memo fact, computed
    once per table.  The fact is a bool, so it pins no ring, and
    clear_caches forgets it."""
    computed = []
    real_memo = properties.ring_memo

    def recording_memo(R, key, compute):
        if key != "commutative":
            return real_memo(R, key, compute)
        return real_memo(R, key, lambda: computed.append(R.digest()) or compute())

    monkeypatch.setattr("amalgam.rings.ring_memo", recording_memo)
    clear_caches()
    for R in small_rings:
        rng = range(R.size)
        assert is_commutative(R) is all(R.mul[x][y] == R.mul[y][x] for x in rng for y in rng), R.provenance
        is_semicommutative_ring(R)
        _scan_block_d1(R, *_kind_sets(R, PropertyKind.ARMENDARIZ), None)
    assert sorted(computed) == sorted(R.digest() for R in small_rings)
    monkeypatch.undo()
    R = direct_product(zmod(2), zmod(4))
    assert is_commutative(R)
    digest, ref = R.digest(), weakref.ref(R)
    assert properties._MEMO[digest]["commutative"] is True
    del R
    gc.collect()
    assert ref() is None
    clear_caches()
    assert digest not in properties._MEMO


# d = 2 armendariz node counts of full walks, without and with the swap cut;
# before the McCoy cut they were (110_312, 60_264), (43_010, 21_163) and
# (80_198, 42_584), and before the coset cut polyquot(zmod(2),4)'s was
# (10_656, 5_477)
SWAP_CUT_NODES = {
    "holding amalgam": (86_696, 48_597),
    "polyquot(zmod(2),4)": (334, 187),
    "product(zmod(4),zmod(4))": (47_400, 25_849),
}


def test_swap_cut_keeps_every_witness_and_acts_only_on_commutative_rings(monkeypatch, small_rings):
    """At degrees 1 and 2 up to 16 elements, the scans with the swap cut
    find the witness of the same scans with _lex_leader_cut reporting no
    ring commutative.  They walk strictly fewer nodes on every commutative
    ring whose scan walks to the end through at least one node, and exactly
    as many on every non-commutative ring, where (g, f) need not violate
    when (f, g) does.  The McCoy cut can leave no node to swap: on a field f
    has no nonzero non-unit coefficient, and for weak Armendariz on zmod(4)
    every non-unit is nilpotent, so no f can make a leaf bad."""
    holding = _holding_amalgam().digest()
    rings = [R for R in _orbit_test_rings(small_rings) if R.size <= 16]
    queries = [
        (d, scan, R, kind, *_kind_sets(R, kind))
        for d, scan in ((1, _scan_block_d1), (2, _scan_block_d2))
        for R in rings
        for kind in POLY_KINDS
    ]
    swapped = [scan(R, sc, sv, None) for d, scan, R, kind, sc, sv in queries]
    real_cut = properties._lex_leader_cut
    monkeypatch.setattr(properties, "_lex_leader_cut", lambda *args: (*real_cut(*args)[:3], False))
    full_walks = {True: 0, False: 0}
    named = {}
    for (d, scan, R, kind, sc, sv), (wit, nodes) in zip(queries, swapped):
        want, unswapped = scan(R, sc, sv, None)
        assert wit == want, (R.provenance, kind, d)
        commutative = is_commutative(R)
        if not commutative:
            assert nodes == unswapped, (R.provenance, kind, d)
        elif wit is None and unswapped:
            assert nodes < unswapped, (R.provenance, kind, d)
        else:
            assert nodes <= unswapped, (R.provenance, kind, d)
        full_walks[commutative] += wit is None
        if d == 2 and kind is PropertyKind.ARMENDARIZ:
            named["holding amalgam" if R.digest() == holding else R.provenance] = (unswapped, nodes)
    assert all(full_walks.values()), full_walks
    assert {name: named[name] for name in SWAP_CUT_NODES} == SWAP_CUT_NODES


def _gaussian_on_linear(R: FiniteRing) -> bool:
    """c(fg) = c(f)c(g) for every f and g of degree at most 1, where c is
    the ideal the coefficients generate: the sum of their principal
    ideals.  c(fg) lies in c(f)c(g), so this asks whether every a_i*b_j
    lies in c(fg)."""
    add, mul = R.add, R.mul

    @functools.cache
    def ideal(gens: frozenset) -> frozenset:
        out = {R.zero}
        for g in gens:
            out = {add[x][y] for x in out for y in set(mul[g])}
        return frozenset(out)

    for a0, a1, b0, b1 in itertools.product(range(R.size), repeat=4):
        content = ideal(frozenset((mul[a0][b0], add[mul[a0][b1]][mul[a1][b0]], mul[a1][b1])))
        if not {mul[a0][b0], mul[a0][b1], mul[a1][b0], mul[a1][b1]} <= content:
            return False
    return True


def _z8_x2_is_4() -> FiniteRing:
    """Z8[x]/(x^2 - 4, 2x): a + bx with a mod 8 and b mod 2, whose product
    is (ac + 4bd) + (ad + bc)x.  Without its ab = 0 clause the Gaussian
    criterion would call this ring Gaussian."""
    pairs = [(a, b) for b in range(2) for a in range(8)]
    index = {p: i for i, p in enumerate(pairs)}
    add = [[index[(a + c) % 8, (b + d) % 2] for c, d in pairs] for a, b in pairs]
    mul = [[index[(a * c + 4 * b * d) % 8, (a * d + b * c) % 2] for c, d in pairs] for a, b in pairs]
    return FiniteRing.from_tables(add, mul, provenance="Z8[x]/(x^2-4,2x)")


def _non_gaussian_local_rings() -> list[FiniteRing]:
    """Three commutative local 16-element rings that refute Armendariz."""
    return [poly_quotient(zmod(4), 2), poly_quotient(poly_quotient(zmod(2), 2), 2), _z8_x2_is_4()]


def test_gaussian_route_is_held_to_its_definition_and_to_the_scan(monkeypatch, small_rings):
    """On every commutative indecomposable ring up to 16 elements, and on
    three non-Gaussian local rings, _is_gaussian is the brute-force test
    of c(fg) = c(f)c(g) on linear f and g; where it says True, the
    Armendariz scans find nothing at degrees 1 and 2.  holds and get_report
    take the route with no scan, while check_armendariz, criterion 9's
    query, still walks the whole degree-2 search of the Gaussian
    poly_quotient(zmod(2), 4): 21,163 nodes before the McCoy cut and 5,477
    before the coset cut."""
    armendariz = PropertyKind.ARMENDARIZ
    declined = _non_gaussian_local_rings()
    rings = [
        R for R in _orbit_test_rings(small_rings) + declined
        if R.size <= 16 and is_commutative(R) and len(_indecomposable_factors(R)) == 1
    ]
    assert all(R in rings for R in declined)
    verdicts = {True: 0, False: 0}
    for R in rings:
        gaussian = _is_gaussian(R)
        assert gaussian is _gaussian_on_linear(R), R.provenance
        verdicts[gaussian] += 1
        if gaussian:
            for d in (1, 2):
                assert _search_violation(R, d, *_kind_sets(R, armendariz), None)[0] is None, (R.provenance, d)
    assert all(verdicts.values()), verdicts
    assert not any(map(_is_gaussian, declined))
    assert check_armendariz(declined[2], 1).verdict is Verdict.REFUTED
    chain = poly_quotient(zmod(2), 4)
    assert _is_gaussian(chain)
    monkeypatch.setattr(properties, "_search_violation", None)
    clear_caches()
    assert holds(chain, armendariz, 2)
    clear_caches()
    assert get_report(chain, armendariz, 2).verdict is Verdict.HOLDS_UP_TO_BOUND
    monkeypatch.undo()
    clear_caches()
    assert check_armendariz(chain, 2).pairs_examined == 187
    clear_caches()


def _kind_tests(R: FiniteRing, kind: PropertyKind):
    """Membership in kind's constraint and target sets, from is_nilpotent."""

    def nilpotent(x: int) -> bool:
        return is_nilpotent(R, x)[0]

    def is_zero(x: int) -> bool:
        return x == R.zero

    return (nilpotent if kind is PropertyKind.NIL_ARMENDARIZ else is_zero), (
        is_zero if kind is PropertyKind.ARMENDARIZ else nilpotent
    )


def _annihilates(R: FiniteRing, kind: PropertyKind, fc: tuple, gc: tuple) -> bool:
    in_constraint = _kind_tests(R, kind)[0]
    return all(map(in_constraint, poly_mul(Polynomial(R, fc), Polynomial(R, gc)).coeffs))


def _violates(R: FiniteRing, kind: PropertyKind, fc: tuple, gc: tuple) -> bool:
    """(f, g) refutes kind, from poly_mul and is_nilpotent alone."""
    in_target = _kind_tests(R, kind)[1]
    return _annihilates(R, kind, fc, gc) and not all(in_target(R.mul[a][b]) for a in fc for b in gc)


T2, M2 = upper_triangular(zmod(2), 2), matrix_ring(zmod(2), 2)
# commutative, 16 elements, armendariz refuted at degree bound 1
PQ42 = poly_quotient(zmod(4), 2)
SYMMETRY_RINGS = [zmod(4), poly_quotient(zmod(2), 2), PQ42, T2, M2]
# the rings and kinds with violating pairs at degree bound 1
VIOLATED = [
    (T2, PropertyKind.ARMENDARIZ),
    (PQ42, PropertyKind.ARMENDARIZ),
    *((M2, kind) for kind in sorted(POLY_KINDS, key=lambda k: k.value)),
]


@functools.cache
def _violating_pairs(R: FiniteRing, kind: PropertyKind) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every violating pair of degree bound 1 in R, by brute force."""
    tuples = list(itertools.product(range(R.size), repeat=2))
    return [(fc, gc) for fc in tuples for gc in tuples if _violates(R, kind, fc, gc)]


@given(st.data())
def test_violation_is_invariant_under_the_scan_symmetries(data):
    """The maps behind _lex_leader_cut, checked with no scan code: reversing
    both coefficient tuples, f -> f/x when a0 = 0, and (f*u, u^-1*g) for a
    unit u keep a pair violating or not; for armendariz so does (f, g*u),
    and on a commutative ring so does the swap (g, f).  Half the pairs are
    drawn from the violating pairs of degree bound 1, the rest are random
    pairs of degree bound 1 to 3."""
    if data.draw(st.booleans(), label="violating"):
        R, kind = data.draw(st.sampled_from(VIOLATED), label="ring and kind")
        fc, gc = data.draw(st.sampled_from(_violating_pairs(R, kind)), label="pair")
    else:
        R = data.draw(st.sampled_from(SYMMETRY_RINGS), label="ring")
        kind = data.draw(st.sampled_from(sorted(POLY_KINDS, key=lambda k: k.value)), label="kind")
        d = data.draw(st.integers(1, 3), label="d")
        coeffs = st.lists(st.integers(0, R.size - 1), min_size=d + 1, max_size=d + 1)
        fc, gc = tuple(data.draw(coeffs, label="f")), tuple(data.draw(coeffs, label="g"))
    rng = range(R.size)
    u, u_inv = data.draw(st.sampled_from([(u, v) for u in rng for v in rng if R.mul[u][v] == R.one == R.mul[v][u]]))
    violates = _violates(R, kind, fc, gc)
    assert _violates(R, kind, fc[::-1], gc[::-1]) == violates
    if fc[0] == R.zero:
        assert _violates(R, kind, fc[1:] + (R.zero,), gc) == violates
    assert _violates(R, kind, tuple(R.mul[a][u] for a in fc), tuple(R.mul[u_inv][b] for b in gc)) == violates
    if kind is PropertyKind.ARMENDARIZ:
        assert _violates(R, kind, fc, tuple(R.mul[b][u] for b in gc)) == violates
    if is_commutative(R):
        assert _violates(R, kind, gc, fc) == violates


def test_swap_map_needs_a_commutative_ring():
    """The degree-1 armendariz witness of t2 has g before f, and its swap
    does not violate, so the swap cut must stay off non-commutative rings;
    on the commutative PQ42 the witness of the scan is its own swap."""
    kind = PropertyKind.ARMENDARIZ
    assert _violates(T2, kind, (2, 4), (2, 1))
    assert not _violates(T2, kind, (2, 1), (2, 4))
    assert check_armendariz(PQ42, 1).witness == PolyWitness((1, 8), (1, 8), 0, 1, 2)
    assert _violating_pairs(PQ42, kind)[0] == ((1, 8), (1, 8))


def test_search_tables_match_their_definition(small_rings):
    """close and bad, which _Tables builds up front by one membership pass
    per row, and the cand and mask rows, which it builds on first read from
    one grouping of the row by product value, held to their definitions
    over coeffs, the values of the cut: the non-units least in their coset
    x + K on a commutative ring with constraint set {0}, else all of R.  A
    row is filled by its own read and no other."""
    for R in small_rings:
        rng = range(R.size)
        for kind in POLY_KINDS:
            sc, sv = _kind_sets(R, kind)
            tables = _Tables(R, sc, sv)
            assert tables.cand == tables.mask == [None] * R.size
            coset_cut = is_commutative(R) and sc == {R.zero}
            assert tuple(tables.coeffs) == (_ann_cosets_by_brute_force(R)[1] if coset_cut else tuple(rng)), R.provenance
            for a in rng:
                row = R.mul[a]
                assert tables.close[a] == sum(1 << b for b in rng if row[b] in sc)
                assert tables.bad[a] == sum(1 << b for b in rng if row[b] not in sv)
                assert tables.row(a) == (tables.cand[a], tables.mask[a])
                assert tables.cand[a + 1 :] == [None] * (R.size - a - 1)
                for p in rng:
                    want = tuple(b for b in tables.coeffs if R.add[p][row[b]] in sc)
                    assert tables.cand[a][p] == want
                    assert tables.mask[a][p] == sum(1 << b for b in want)


def test_refuting_degree_one_scans_fill_only_the_rows_of_the_heads_they_walk(monkeypatch, t2, m2, scenario_data):
    """A refuting degree-1 scan builds the cand and mask rows of its tables'
    leads up to and including its witness's a0 and of no other element, on t2,
    m2 and the first non-Armendariz 64-element amalgam of the default
    scenarios."""
    big = next(
        s.am.ring for s in scenario_data[1] if s.am.ring.size == 64 and not holds(s.am.ring, PropertyKind.ARMENDARIZ, 1)
    )
    made = []

    class Recorded(_Tables):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(properties, "_Tables", Recorded)
    for R in (t2, m2, big):
        refuted = 0
        for kind in POLY_KINDS:
            sc, sv = _kind_sets(R, kind)
            made.clear()
            wit, _ = _scan_block_d1(R, sc, sv, None)
            if wit is None:
                continue
            refuted += 1
            (tables,) = made
            leads = tables.tails[R.zero]
            walked = leads[: leads.index(wit[0][0]) + 1]
            assert [a for a in range(R.size) if tables.cand[a] is not None] == sorted(walked), (R.provenance, kind)
            assert [a for a in range(R.size) if tables.mask[a] is not None] == sorted(walked), (R.provenance, kind)
        assert refuted, R.provenance
    assert len(walked) < big.size


def test_holding_amalgam_holds_at_degree_two():
    R = _holding_amalgam()
    assert R.size == 16
    assert all(get_report(R, kind, 2).holds for kind in POLY_KINDS)


def test_search_tables_are_not_memoized(m2):
    """A search builds its candidate tables, masks and bad masks and drops
    them; the memo keeps only facts that are read again."""
    clear_caches()
    for kind, check in zip(POLY_KINDS, (check_armendariz, check_nil_armendariz, check_weak_armendariz)):
        assert check(m2, 2).pairs_examined > 0
        get_report(m2, kind, 2)
        holds(m2, kind, 2)
    facts = properties._MEMO[m2.digest()]
    assert {(kind, 2) for kind in POLY_KINDS} <= facts.keys()
    assert {("holds", kind, 2) for kind in POLY_KINDS} <= facts.keys()
    for facts in properties._MEMO.values():
        for key, value in facts.items():
            assert not isinstance(value, list), key


def test_pairs_examined_counts_effort(t2):
    report = check_armendariz(t2, 1)
    assert report.pairs_examined > 0


@given(st.sampled_from(ORACLE_RINGS_SMALL), st.sampled_from(sorted(POLY_KINDS, key=lambda k: k.value)))
def test_any_refutation_witness_revalidates(R, kind):
    report = get_report(R, kind, 2)
    if report.verdict is not Verdict.REFUTED:
        return
    w = report.witness
    f = Polynomial(R, w.f_coeffs)
    g = Polynomial(R, w.g_coeffs)
    sc_nil = nilradical(R)
    prod = poly_mul(f, g).coeffs
    if kind is PropertyKind.ARMENDARIZ:
        assert all(c == R.zero for c in prod)
        assert w.product != R.zero
    elif kind is PropertyKind.NIL_ARMENDARIZ:
        assert all(c in sc_nil for c in prod)
        assert w.product not in sc_nil
    else:
        assert all(c == R.zero for c in prod)
        assert w.product not in sc_nil
    assert R.mul[w.f_coeffs[w.i]][w.g_coeffs[w.j]] == w.product


@given(st.sampled_from([2, 3, 5, 7]))
def test_fields_hold_exactly(p):
    """A field has no zero divisors, so every kind holds at any bound."""
    R = zmod(p)
    for kind in POLY_KINDS:
        assert get_report(R, kind, 2).holds
