"""Polynomial annihilation properties: the pruned engine against the brute
oracle, frozen refutation witnesses, fast-path agreement, and the audit."""

import itertools

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
    _kind_sets,
    _scan_block_d1,
    _scan_block_d2,
    _scan_block_generic,
)
from amalgam.rings import FiniteRing, nilradical


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


def test_stream_counts_match_naive(t2):
    fast = sum(1 for _ in annihilating_pairs(t2, 1, {t2.zero}))
    slow = sum(1 for _ in naive_annihilating_pairs(t2, 1, {t2.zero}))
    assert fast == slow
    nil = nilradical(t2)
    assert sum(1 for _ in annihilating_pairs(t2, 1, nil)) == sum(
        1 for _ in naive_annihilating_pairs(t2, 1, nil)
    )


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


def test_quotient_fast_path_agrees_with_naive():
    """Rings whose nilpotents form an ideal go through the projected check."""
    for R in (zmod(4), zmod(8), poly_quotient(zmod(2), 3), upper_triangular(zmod(2), 2)):
        for d in (1, 2):
            want, _, _ = naive_poly_check(R, PropertyKind.NIL_ARMENDARIZ, d)
            assert get_report(R, PropertyKind.NIL_ARMENDARIZ, d).verdict is want


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


CHECKS = {
    PropertyKind.ARMENDARIZ: check_armendariz,
    PropertyKind.NIL_ARMENDARIZ: check_nil_armendariz,
    PropertyKind.WEAK_ARMENDARIZ: check_weak_armendariz,
}


def test_lifted_verdicts_match_the_direct_search(small_rings):
    """holds may answer REFUTED at d from a refutation at d-1; every answer
    must still be the verdict of the full search at d, each side computed
    from an empty memo."""
    lifted_refutations = 0
    for R in small_rings:
        queries = [(kind, d) for kind in POLY_KINDS for d in ((1, 2, 3) if R.size <= 8 else (1, 2))]
        clear_caches()
        lifted = {(kind, d): holds(R, kind, d) for kind, d in queries}
        clear_caches()
        direct = {(kind, d): CHECKS[kind](R, d).holds for kind, d in queries}
        assert lifted == direct, R.provenance
        lifted_refutations += sum(1 for kind, d in queries if d >= 2 and not direct[kind, d - 1])
    clear_caches()
    assert lifted_refutations > 0


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

    for budget in (5, 100, 900):
        assert outcome(lambda: get_report(m2, kind, 1, node_budget=budget)).startswith("SearchBudgetError")
        want = outcome(lambda: get_report(m2, kind, 2, node_budget=budget).holds)
        monkeypatch.setattr(properties, "_search_violation", recording_scan)
        degrees.clear()
        assert outcome(lambda: holds(m2, kind, 2, node_budget=budget)) == want
        monkeypatch.undo()
        assert degrees == [1, 2]
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
