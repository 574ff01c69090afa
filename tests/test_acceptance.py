"""Acceptance gate: the nine checks the workbench must pass, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines print
as the criteria complete.  Every criterion is self-contained and asserts the
frozen expected values; a failure anywhere fails the whole gate.
"""

import json
import time

import pytest

from amalgam.constructions import matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.isos import check_canonical_isos
from amalgam.poly import Polynomial, poly_mul
from amalgam.properties import (
    POLY_KINDS,
    PolyWitness,
    PropertyKind,
    Verdict,
    annihilating_pairs,
    check_armendariz,
    check_nil_armendariz,
    check_weak_armendariz,
    clear_caches,
    get_report,
    naive_annihilating_pairs,
    naive_poly_check,
    property_profile,
)
from amalgam.rings import FiniteRing, nilradical
from amalgam.specdsl import parse_spec
from amalgam.cli import RunOptions, execute_model
from amalgam.theorems import (
    CorpusConfig,
    OutcomeStatus,
    clause_registry,
    evaluate_clause,
    run_harness,
)

VACUOUS_IDS = ["T2.2-3", "T3.1-3", "T4.1-3"]


@pytest.fixture(scope="module")
def harness_d2():
    started = time.perf_counter()
    report = run_harness(CorpusConfig(), degree=2, workers=1)
    report_elapsed = time.perf_counter() - started
    return report, report_elapsed


def _distinct_rings(scenario_data):
    corpus, scenarios = scenario_data
    seen = {}
    for _, ring in corpus:
        seen.setdefault(ring.digest(), ring)
    for sc in scenarios:
        seen.setdefault(sc.am.ring.digest(), sc.am.ring)
    return list(seen.values())


def test_criterion_1_reduction_equivalence_both_directions(scenario_data):
    """The amalgam is reduced exactly when the base is reduced and the ideal
    carries no nonzero nilpotents of the target, on every scenario."""
    corpus, scenarios = scenario_data
    registry = {c.clause_id: c for c in clause_registry()}
    clauses = [registry["P2.1"], registry["P2.1a"], registry["P2.1b"]]
    started = time.perf_counter()
    bad = []
    forward_applied = backward_applied = 0
    for sc in scenarios:
        for clause in clauses:
            outcome = evaluate_clause(clause, sc, 1)
            if outcome.status in (OutcomeStatus.HARD_VIOLATION, OutcomeStatus.VIOLATION_CANDIDATE, OutcomeStatus.SKIPPED_BUDGET):
                bad.append((clause.clause_id, sc.key, outcome.status))
        if evaluate_clause(registry["P2.1a"], sc, 1).status is OutcomeStatus.PASSED:
            forward_applied += 1
        if evaluate_clause(registry["P2.1b"], sc, 1).status is OutcomeStatus.PASSED:
            backward_applied += 1
    elapsed = time.perf_counter() - started
    assert not bad, bad[:5]
    assert forward_applied > 0 and backward_applied > 0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"\nPASS: criterion 1 - reduction equivalence both directions on all {len(scenarios)} scenarios, no violations, {elapsed:.1f}s")


def test_criterion_2_harness_clean_both_degrees(harness_d1, harness_d2):
    d2, d2_elapsed = harness_d2
    for rep, label in ((harness_d1, "degree 1"), (d2, "degree 2")):
        assert rep.hard_violation_count == 0, f"{label}: hard violations"
        assert rep.vacuous_clause_ids() == VACUOUS_IDS, f"{label}: vacuous set"
        by_id = {s.clause_id: s for s in rep.summaries}
        for cid in VACUOUS_IDS:
            summary = by_id[cid]
            assert summary.tested > 0 and summary.hypothesis_failed == summary.tested
            assert "unit" in summary.note and "proper ideal" in summary.note
    assert d2_elapsed < 1800, f"degree 2 harness took {d2_elapsed:.0f}s"
    print(f"\nPASS: criterion 2 - harness clean at degree 1 and 2, vacuous set {VACUOUS_IDS} explained, degree 2 in {d2_elapsed:.0f}s")


def test_criterion_3_triangular_refutes_armendariz_but_not_weak(t2):
    report = check_armendariz(t2, 1)
    assert report.verdict is Verdict.REFUTED
    wit = report.witness
    assert wit == PolyWitness((2, 4), (2, 1), 0, 1, 2)
    f = Polynomial(t2, wit.f_coeffs)
    g = Polynomial(t2, wit.g_coeffs)
    assert all(c == t2.zero for c in poly_mul(f, g).coeffs), "witness product is not zero"
    assert t2.mul[wit.f_coeffs[wit.i]][wit.g_coeffs[wit.j]] == wit.product != t2.zero
    weak = check_weak_armendariz(t2, 1)
    assert weak.holds
    print("\nPASS: criterion 3 - triangular 2x2 over F2 refutes the zero-product property at degree 1 (witness re-validated) yet satisfies the weak variant")


def test_criterion_4_matrix_ring_weak_refutation_non_nilpotent(m2):
    weak = check_weak_armendariz(m2, 1)
    assert weak.verdict is Verdict.REFUTED
    nil = nilradical(m2)
    assert weak.witness.product not in nil, "weak refutation must produce a non-nilpotent product"
    nil_report = check_nil_armendariz(m2, 1)
    assert nil_report.verdict is Verdict.REFUTED
    assert nil_report.witness.f_coeffs == weak.witness.f_coeffs
    assert nil_report.witness.g_coeffs == weak.witness.g_coeffs
    print("\nPASS: criterion 4 - full 2x2 matrices over F2 refute the weak variant at degree 1 with a non-nilpotent product; the same pair refutes the nil variant")


def _gf4():
    def mul(a, b):
        a0, a1 = a & 1, a >> 1
        b0, b1 = b & 1, b >> 1
        c0 = (a0 & b0) ^ (a1 & b1)
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
        return c0 | (c1 << 1)

    add = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    mult = tuple(tuple(mul(a, b) for b in range(4)) for a in range(4))
    return FiniteRing.from_tables(add, mult, provenance="gf(4)")


def test_criterion_5_engine_matches_oracle_on_all_tiny_rings(t2):
    """Every unital ring with at most four elements, checked against brute
    enumeration for verdicts AND minimal witnesses at degrees 0 through 2."""
    from amalgam.constructions import direct_product

    tiny = [
        zmod(2),
        zmod(3),
        zmod(4),
        poly_quotient(zmod(2), 2),
        direct_product(zmod(2), zmod(2)),
        _gf4(),
    ]
    mismatches = []
    for R in tiny:
        for kind in POLY_KINDS:
            for d in (0, 1, 2):
                want_verdict, want_witness, _ = naive_poly_check(R, kind, d)
                report = get_report(R, kind, d)
                if report.verdict is not want_verdict or report.witness != want_witness:
                    mismatches.append((R.provenance, kind.value, d))
    assert not mismatches, mismatches
    fast = sum(1 for _ in annihilating_pairs(t2, 1, {t2.zero}))
    slow = sum(1 for _ in naive_annihilating_pairs(t2, 1, {t2.zero}))
    assert fast == slow, f"pair streams disagree: {fast} vs {slow}"
    print(f"\nPASS: criterion 5 - engine matches the brute oracle on all 6 rings of size <= 4 (verdicts and witnesses, degrees 0-2); pair counts agree on the triangular ring ({fast})")


def test_criterion_6_audit_clean_and_monotone(scenario_data, harness_d2):
    rings = _distinct_rings(scenario_data)
    fatal_findings = []
    non_monotone = []
    for R in rings:
        for d in (1, 2):
            profile = property_profile(R, d)
            fatal_findings.extend((R.provenance, d, f) for f in profile.audit() if f.fatal)
        for kind in POLY_KINDS:
            if get_report(R, kind, 1).verdict is Verdict.REFUTED:
                if get_report(R, kind, 2).verdict is not Verdict.REFUTED:
                    non_monotone.append((R.provenance, kind.value))
    assert not fatal_findings, fatal_findings[:5]
    assert not non_monotone, non_monotone[:5]
    print(f"\nPASS: criterion 6 - audit clean on all {len(rings)} distinct rings at degrees 1 and 2; every degree-1 refutation persists at degree 2")


def test_criterion_7_canonical_isos_and_disjoint_profiles(scenario_data):
    corpus, scenarios = scenario_data
    registry = {c.clause_id: c for c in clause_registry()}
    failures = []
    disjoint_checked = 0
    for sc in scenarios:
        report = check_canonical_isos(sc.am, sc.faj)
        if not report.all_ok():
            failures.append(sc.key)
            continue
        if sc.hom_injective() and sc.image_meets_ideal_only_at_zero():
            disjoint_checked += 1
            am_profile = property_profile(sc.am.ring, 2).verdicts()
            faj_profile = property_profile(sc.faj.ring, 2).verdicts()
            if am_profile != faj_profile:
                failures.append((sc.key, am_profile, faj_profile))
    assert not failures, failures[:3]
    assert disjoint_checked == 243
    print(f"\nPASS: criterion 7 - canonical quotient maps are isomorphisms on all {len(scenarios)} scenarios; all {disjoint_checked} disjoint-image cases have identical amalgam and subring profiles")


def test_criterion_8_reports_deterministic(harness_d1):
    baseline = harness_d1.to_json()
    for workers in (4, 8):
        again = run_harness(CorpusConfig(), degree=1, workers=workers)
        assert again.to_json() == baseline, f"workers={workers} diverged"
    repeat = run_harness(CorpusConfig(), degree=1, workers=1)
    assert repeat.to_json() == baseline, "second consecutive run diverged"

    model = parse_spec(
        "ring A = zmod 4\nideal J of A = generated { 2 }\nhom f : A -> A = canonical\n"
        "amalgam AM = A join f J\ncheck AM reduced\ncheck AM armendariz degree 1\n"
        "check A nil-armendariz degree 2\n"
    )
    assert model.ok
    _, envelope_one = execute_model(model, RunOptions(), emit=lambda line: None)
    _, envelope_two = execute_model(model, RunOptions(), emit=lambda line: None)
    assert json.dumps(envelope_one) == json.dumps(envelope_two)
    print("\nPASS: criterion 8 - harness reports byte-identical across 1/4/8 workers and consecutive runs; checker reports byte-identical across runs")


def test_criterion_9_degree_two_sixteen_element_ring_under_a_minute():
    clear_caches()
    R = poly_quotient(zmod(2), 4)
    assert R.size == 16
    started = time.perf_counter()
    report = check_armendariz(R, 2)
    elapsed = time.perf_counter() - started
    assert report.holds
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nPASS: criterion 9 - full degree-2 search on a 16-element ring finished in {elapsed:.2f}s (limit 60s)")
