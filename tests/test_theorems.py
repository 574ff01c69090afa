"""Clause registry and corpus harness: hypotheses gate correctly, conclusions
hold corpus-wide, escalation separates hard failures from bound artifacts."""

import hashlib
import json

import pytest

import amalgam.properties as properties
import amalgam.theorems as theorems
from amalgam.constructions import zmod
from amalgam.morphisms import generated_ideal, identity_hom
from amalgam.properties import POLY_KINDS, PropertyKind, clear_caches, holds
from amalgam.theorems import (
    ClauseOutcome,
    CorpusConfig,
    OutcomeStatus,
    Scenario,
    TheoremClause,
    build_scenarios,
    clause_registry,
    evaluate_clause,
    evaluate_scenario,
    run_harness,
)

EXPECTED_CLAUSE_IDS = [
    "P2.1", "P2.1a", "P2.1b",
    "T2.2-1", "T2.2-2", "T2.2-3", "T2.2-4", "T2.2-5",
    "T3.1-1", "T3.1-2", "T3.1-3", "T3.1-4", "T3.1-5", "T3.1-6i", "T3.1-6ii",
    "T4.1-1", "T4.1-2", "T4.1-3", "T4.1-4", "T4.1-5", "T4.1-6i", "T4.1-6ii",
    "T4.1-7", "T4.1-8",
]


@pytest.fixture(scope="module")
def dup_scenario(z4):
    return Scenario("zmod(4)", "zmod(4)", identity_hom(z4), generated_ideal(z4, [2]))


def test_registry_ids_and_order():
    registry = clause_registry()
    assert [c.clause_id for c in registry] == EXPECTED_CLAUSE_IDS
    assert len(registry) == 24
    for clause in registry:
        assert clause.summary
        assert clause.shape in ("iff", "implication", "transfer", "equivalence")


def test_registry_vacuity_notes_present():
    registry = {c.clause_id: c for c in clause_registry()}
    for cid in ("T2.2-3", "T3.1-3", "T4.1-3"):
        assert "unit" in registry[cid].vacuity_note
        assert "proper ideal" in registry[cid].vacuity_note


def test_scenario_key_is_stable(dup_scenario):
    assert dup_scenario.key == "zmod(4)->zmod(4)|f=[0,1,2,3]|J=[0,2]"


def test_scenario_predicates_on_duplication(dup_scenario):
    sc = dup_scenario
    assert sc.am.ring.size == 8
    assert not sc.base_reduced()
    assert not sc.am_reduced()
    assert sc.hom_injective()
    assert not sc.image_meets_ideal_only_at_zero()  # 2 sits in both
    assert sc.ideal_inside_nil_target()
    assert not sc.ideal_contains_regular_central()
    assert sc.preimage.members == (0, 2)
    assert sc.base_holds(PropertyKind.ARMENDARIZ, 1)
    assert sc.am_holds(PropertyKind.ARMENDARIZ, 1)


def test_clear_caches_forgets_scenario_facts(monkeypatch, z4):
    calls = {"semicommutative_ideal": 0, "regular_central": 0}
    real_semi, real_regular = theorems.is_semicommutative_ideal, theorems.regular_central

    def counting_semi(R, J):
        calls["semicommutative_ideal"] += 1
        return real_semi(R, J)

    def counting_regular(R):
        calls["regular_central"] += 1
        return real_regular(R)

    monkeypatch.setattr(theorems, "is_semicommutative_ideal", counting_semi)
    monkeypatch.setattr(theorems, "regular_central", counting_regular)

    def query_fresh_scenario():
        sc = Scenario("zmod(4)", "zmod(4)", identity_hom(z4), generated_ideal(z4, [2]))
        sc.ideal_semicommutative()
        sc.ideal_contains_regular_central()

    clear_caches()
    query_fresh_scenario()
    query_fresh_scenario()
    assert calls == {"semicommutative_ideal": 1, "regular_central": 1}
    clear_caches()
    query_fresh_scenario()
    assert calls == {"semicommutative_ideal": 2, "regular_central": 2}


def test_evaluate_clause_statuses(dup_scenario):
    registry = {c.clause_id: c for c in clause_registry()}
    outcome = evaluate_clause(registry["P2.1"], dup_scenario, 1)
    assert outcome.status is OutcomeStatus.PASSED
    outcome = evaluate_clause(registry["T2.2-3"], dup_scenario, 1)
    assert outcome.status is OutcomeStatus.HYPOTHESIS_FAILED


def _always(sc, d):
    return True


# One clause for each escalation path: a hard failure without escalation,
# a hard failure sustained at the next bound, and two candidates, one whose
# conclusion recovers and one whose hypothesis lapses at the next bound.
SYNTHETIC_CLAUSES = (
    TheoremClause("X-1", "synthetic", "implication", _always, lambda sc, d: False, degree_sensitive=False),
    TheoremClause("X-2", "synthetic", "implication", _always, lambda sc, d: False),
    TheoremClause("X-3", "synthetic", "implication", _always, lambda sc, d: d >= 2),
    TheoremClause("X-4", "synthetic", "implication", lambda sc, d: d == 1, lambda sc, d: False),
)


def test_evaluate_clause_escalation_paths(dup_scenario):
    hard_insensitive, hard_sustained, recovers, hyp_gone = SYNTHETIC_CLAUSES
    out = evaluate_clause(hard_insensitive, dup_scenario, 1)
    assert out.status is OutcomeStatus.HARD_VIOLATION
    assert "does not depend" in out.detail

    out = evaluate_clause(hard_sustained, dup_scenario, 1)
    assert out.status is OutcomeStatus.HARD_VIOLATION
    assert "degree bounds 1 and 2" in out.detail

    out = evaluate_clause(recovers, dup_scenario, 1)
    assert out.status is OutcomeStatus.VIOLATION_CANDIDATE
    assert "not sustained" in out.detail

    out = evaluate_clause(hyp_gone, dup_scenario, 1)
    assert out.status is OutcomeStatus.VIOLATION_CANDIDATE


def test_evaluate_scenario_orders_outcomes(dup_scenario):
    registry = clause_registry()
    outcomes = evaluate_scenario(dup_scenario, registry, 1)
    assert [o.clause_id for o in outcomes] == EXPECTED_CLAUSE_IDS
    assert all(isinstance(o, ClauseOutcome) for o in outcomes)


def test_corpus_inventory(corpus):
    names = [name for name, _ in corpus]
    assert len(names) == 29
    assert names[0] == "zmod(2)"
    assert "matrix(zmod(2),2)" in names
    assert "polyquot(zmod(3),2)" in names
    assert sum(1 for n in names if n.startswith("product(")) == 17
    sizes = {name: ring.size for name, ring in corpus}
    assert max(sizes.values()) <= 16


def test_scenario_enumeration_shape(scenario_data):
    corpus, scenarios = scenario_data
    assert len(scenarios) == 4285
    keys = [sc.key for sc in scenarios]
    assert len(set(keys)) == len(keys)
    assert all(sc.am.ring.size <= 64 for sc in scenarios)


def test_harness_degree_one_clean(harness_d1):
    rep = harness_d1
    assert rep.degree == 1
    assert rep.scenario_count == 4285
    assert rep.hard_violation_count == 0
    assert rep.candidate_count == 0
    assert rep.skipped_count == 0
    assert rep.vacuous_clause_ids() == ["T2.2-3", "T3.1-3", "T4.1-3"]
    by_id = {s.clause_id: s for s in rep.summaries}
    assert by_id["P2.1"].hypothesis_satisfied == 4285
    assert by_id["P2.1a"].hypothesis_satisfied == 152
    assert by_id["T2.2-1"].hypothesis_satisfied == 2664
    assert by_id["T3.1-6i"].hypothesis_satisfied == 243
    assert by_id["T4.1-8"].hypothesis_satisfied == 4205
    for cid in ("T2.2-3", "T3.1-3", "T4.1-3"):
        assert by_id[cid].vacuous_corpus_wide
        assert by_id[cid].note


def test_harness_json_omits_volatile_fields(harness_d1):
    payload = json.loads(harness_d1.to_json())
    assert "elapsed" not in payload and "workers" not in payload
    assert payload["degree"] == 1
    assert payload["corpus"]["scenario_count"] == 4285
    assert set(payload["clauses"].keys()) == set(EXPECTED_CLAUSE_IDS)
    assert harness_d1.to_json() == harness_d1.to_json()


SMALL_CONFIG = CorpusConfig(max_amalgam_size=8)


@pytest.mark.parametrize("budget", [5, 50, 500])
def test_budgeted_harness_skips_clauses_whose_search_runs_out(budget):
    """A verdict that runs out of budget is not memoized, so every clause
    that asks for it searches again under the same budget and is
    SKIPPED_BUDGET.  The skip counts move with any change to a scan's node
    count, so they are asserted here rather than named in the test id.  A
    budget of 500 runs out nowhere, so its report is the unbudgeted one."""
    skipped = {5: 240, 50: 240, 500: 0}[budget]
    clear_caches()
    report = run_harness(CorpusConfig(max_amalgam_size=8, node_budget=budget), degree=1).to_json()
    clear_caches()
    assert sum(len(c["skipped_budget"]) for c in json.loads(report)["clauses"].values()) == skipped
    assert "node_budget" not in report
    pinned = {50: "8b9ab46d4ff9", 500: "50d50fd30454"}
    if budget in pinned:
        assert hashlib.sha256(report.encode()).hexdigest().startswith(pinned[budget])


def test_degree_three_harness_report_is_pinned():
    """The cap-32 degree-3 harness report, pinned by its sha256.  Its four
    holding Armendariz walks on the non-Gaussian commutative local
    32-element rings walked 161,921,487 nodes before the coset cut (about
    115 s on a 2-core host) and 6,696 with it, so a lost cut shows as a
    slow test and a broken one as a failed test."""
    clear_caches()
    report = run_harness(CorpusConfig(max_amalgam_size=32), degree=3).to_json()
    clear_caches()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == "f841c8520fc34e5b4e3a7091f26d513f83e81141070efd7c701d3dd1da72e142"


def test_harness_skips_scans_a_lower_degree_refutes(monkeypatch):
    """The harness asks holds, so no degree-d scan runs on a ring whose
    degree-(d-1) scan, with the same constraint sets, already refutes.  At
    this cap the Gaussian route decides every ring that would reach a
    degree-2 scan, so it is turned off to leave the lift something to skip."""
    real_scan = properties._search_violation
    scans = []

    def recording_scan(R, d, sc, sv, node_budget):
        scans.append((R, d, sc, sv))
        return real_scan(R, d, sc, sv, node_budget)

    clear_caches()
    monkeypatch.setattr(properties, "_search_violation", recording_scan)
    monkeypatch.setattr(properties, "_is_gaussian", lambda R: False)
    report = run_harness(SMALL_CONFIG, degree=2)
    monkeypatch.undo()
    assert report.hard_violation_count == 0
    assert any(d == 2 for _, d, _, _ in scans)
    wasted = [(R.provenance, d) for R, d, sc, sv in scans if d >= 2 and real_scan(R, d - 1, sc, sv, None)[0] is not None]
    assert not wasted, wasted[:5]
    _, scenarios = build_scenarios(SMALL_CONFIG)
    assert any(not holds(sc.am.ring, kind, 1) for sc in scenarios if sc.am.ring.size == 8 for kind in POLY_KINDS)
    clear_caches()


def test_harness_tallies_match_a_fold_of_evaluate_clause(monkeypatch):
    """run_harness tallies statuses without building outcomes; its summaries
    must be exactly what folding evaluate_clause over every (scenario,
    clause) in the same order gives: counts, list order and details."""
    registry = clause_registry() + SYNTHETIC_CLAUSES
    monkeypatch.setattr(theorems, "clause_registry", lambda: registry)
    seen = set()
    for budget in (None, 5):
        config = CorpusConfig(max_amalgam_size=16, node_budget=budget)
        clear_caches()
        report = run_harness(config, degree=1)
        clear_caches()
        _, scenarios = build_scenarios(config)
        folded = {c.clause_id: {status: [] for status in OutcomeStatus} for c in registry}
        for sc in scenarios:
            for o in evaluate_scenario(sc, registry, 1):
                folded[o.clause_id][o.status].append((o.scenario_key, o.detail))
        clear_caches()
        assert [s.clause_id for s in report.summaries] == [c.clause_id for c in registry]
        for s in report.summaries:
            by_status = folded[s.clause_id]
            seen.update(status for status, outcomes in by_status.items() if outcomes)
            assert s.tested == len(scenarios)
            assert s.passed == len(by_status[OutcomeStatus.PASSED])
            assert s.hypothesis_failed == len(by_status[OutcomeStatus.HYPOTHESIS_FAILED])
            assert s.violation_candidates == by_status[OutcomeStatus.VIOLATION_CANDIDATE]
            assert s.hard_violations == by_status[OutcomeStatus.HARD_VIOLATION]
            assert s.skipped_budget == by_status[OutcomeStatus.SKIPPED_BUDGET]
    assert seen == set(OutcomeStatus)
