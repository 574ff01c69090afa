"""Clause registry, scenario corpus, and the cross-checking harness.

A scenario is one quadruple (base ring A, target ring B, homomorphism f,
proper ideal J of B) together with the derived amalgam and the subring
f(A) + J.  A clause pairs a hypothesis predicate with a conclusion predicate
over a scenario at a degree bound.  The harness enumerates all scenarios a
ring catalog affords, evaluates every clause on every scenario, escalates any
failed conclusion to the next degree bound before calling it hard, and
aggregates per-clause tallies into a deterministic report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .constructions import amalgamation, direct_product, f_plus_j, matrix_ring, poly_quotient, upper_triangular, zmod
from .errors import SearchBudgetError
from .morphisms import (
    Ideal,
    RingHom,
    enumerate_homs,
    enumerate_ideals,
    is_radical_ideal,
    is_semicommutative_ideal,
    preimage_ideal,
)
from .properties import PropertyKind, get_report, holds, nil_set
from .rings import FiniteRing, regular_central, ring_memo

__all__ = [
    "Scenario",
    "TheoremClause",
    "OutcomeStatus",
    "ClauseOutcome",
    "ClauseSummary",
    "HarnessReport",
    "CorpusConfig",
    "clause_registry",
    "build_corpus",
    "build_scenarios",
    "evaluate_clause",
    "evaluate_scenario",
    "run_harness",
]

ARM = PropertyKind.ARMENDARIZ
NIL = PropertyKind.NIL_ARMENDARIZ
WEAK = PropertyKind.WEAK_ARMENDARIZ

def _regular_central_set(R: FiniteRing) -> frozenset:
    return ring_memo(R, "regular_central", lambda: regular_central(R))


def _semicommutative_ideal_holds(R: FiniteRing, J: Ideal) -> bool:
    return ring_memo(R, ("semicommutative_ideal", J.members), lambda: is_semicommutative_ideal(R, J)[0])


class Scenario:
    """One harness instance: A, B, f, J with the amalgam, f(A) + J and f^{-1}(J).

    Facts about a single ring (property verdicts, nilpotent sets, regular
    central elements, semicommutative ideals) go through the ring memo,
    keyed by table digest, so scenarios that share a base, target or amalgam
    table compute them once; the amalgam and f(A) + J tables are themselves
    memo facts of A and B, built once and shared between scenarios; and
    clear_caches() resets them all.  The structural predicates are set
    expressions over those facts, so a scenario keeps no memo of its own.
    Its verdict queries search under node_budget, fixed at construction.
    """

    __slots__ = ("base_name", "target_name", "hom", "ideal", "am", "faj", "preimage", "node_budget")

    def __init__(self, base_name: str, target_name: str, hom: RingHom, ideal: Ideal, node_budget: Optional[int] = None):
        self.base_name = base_name
        self.target_name = target_name
        self.hom = hom
        self.ideal = ideal
        self.am = amalgamation(hom, ideal)
        self.faj = f_plus_j(hom, ideal)
        self.preimage = preimage_ideal(hom, ideal)
        self.node_budget = node_budget

    @property
    def key(self) -> str:
        """The scenario's report name, written on each read."""
        fmap = ",".join(map(str, self.hom.map))
        members = ",".join(map(str, self.ideal.members))
        return f"{self.base_name}->{self.target_name}|f=[{fmap}]|J=[{members}]"

    @property
    def base(self) -> FiniteRing:
        return self.hom.domain

    @property
    def target(self) -> FiniteRing:
        return self.hom.codomain

    # property verdicts -----------------------------------------------------

    def base_holds(self, kind: PropertyKind, d: int) -> bool:
        return holds(self.base, kind, d, node_budget=self.node_budget)

    def am_holds(self, kind: PropertyKind, d: int) -> bool:
        return holds(self.am.ring, kind, d, node_budget=self.node_budget)

    def faj_holds(self, kind: PropertyKind, d: int) -> bool:
        return holds(self.faj.ring, kind, d, node_budget=self.node_budget)

    def base_reduced(self) -> bool:
        return get_report(self.base, PropertyKind.REDUCED).holds

    def target_reduced(self) -> bool:
        return get_report(self.target, PropertyKind.REDUCED).holds

    def am_reduced(self) -> bool:
        return get_report(self.am.ring, PropertyKind.REDUCED).holds

    # structural predicates ---------------------------------------------------

    def nil_target_meets_ideal_only_at_zero(self) -> bool:
        return nil_set(self.target) & frozenset(self.ideal.members) == {self.target.zero}

    def ideal_radical(self) -> bool:
        return is_radical_ideal(self.target, self.ideal)

    def ideal_inside_nil_target(self) -> bool:
        return frozenset(self.ideal.members) <= nil_set(self.target)

    def preimage_meets_nil_base_only_at_zero(self) -> bool:
        return frozenset(self.preimage.members) & nil_set(self.base) == {self.base.zero}

    def preimage_inside_nil_base(self) -> bool:
        return frozenset(self.preimage.members) <= nil_set(self.base)

    def hom_injective(self) -> bool:
        return self.hom.injective

    def image_meets_ideal_only_at_zero(self) -> bool:
        return frozenset(self.hom.map) & frozenset(self.ideal.members) == {self.target.zero}

    def ideal_contains_regular_central(self) -> bool:
        return bool(_regular_central_set(self.target) & frozenset(self.ideal.members))

    def ideal_semicommutative(self) -> bool:
        return _semicommutative_ideal_holds(self.target, self.ideal)

    def preimage_semicommutative(self) -> bool:
        return _semicommutative_ideal_holds(self.base, self.preimage)


@dataclass(frozen=True)
class TheoremClause:
    """One registered implication or equivalence over a scenario."""

    clause_id: str
    summary: str
    shape: str
    hypothesis: Callable[[Scenario, int], bool]
    conclusion: Callable[[Scenario, int], bool]
    vacuity_note: str = ""
    degree_sensitive: bool = True


_REGULAR_CENTRAL_NOTE = (
    "the hypothesis asks for a regular central element of the target inside a "
    "proper ideal; over finite tables a regular element has injective, hence "
    "surjective, translation maps, making it a unit, and a proper ideal that "
    "contains a unit would be the whole ring, so no finite scenario can satisfy "
    "this hypothesis"
)


def _shared_triple(kind: PropertyKind, prefix: str, word: str) -> list[TheoremClause]:
    """The three clauses every polynomial property carries: amalgam pushes down
    to the base, base plus subring push up to the amalgam, and a regular
    central element in the ideal upgrades the pair to an equivalence."""
    return [
        TheoremClause(
            f"{prefix}-1",
            f"a {word} amalgam forces a {word} base ring",
            "implication",
            lambda s, d, k=kind: s.am_holds(k, d),
            lambda s, d, k=kind: s.base_holds(k, d),
        ),
        TheoremClause(
            f"{prefix}-2",
            f"a {word} base and a {word} image-plus-ideal subring force a {word} amalgam",
            "implication",
            lambda s, d, k=kind: s.base_holds(k, d) and s.faj_holds(k, d),
            lambda s, d, k=kind: s.am_holds(k, d),
        ),
        TheoremClause(
            f"{prefix}-3",
            f"with a regular central element in the ideal, the amalgam is {word} "
            f"exactly when the base and the image-plus-ideal subring both are",
            "equivalence",
            lambda s, d: s.ideal_contains_regular_central(),
            lambda s, d, k=kind: s.am_holds(k, d) == (s.base_holds(k, d) and s.faj_holds(k, d)),
            vacuity_note=_REGULAR_CENTRAL_NOTE,
        ),
    ]


def clause_registry() -> tuple[TheoremClause, ...]:
    """All checkable clauses, in canonical report order."""
    clauses: list[TheoremClause] = [
        TheoremClause(
            "P2.1",
            "the amalgam is reduced exactly when the base is reduced and the "
            "ideal meets the target's nilpotents only at zero",
            "equivalence",
            lambda s, d: True,
            lambda s, d: s.am_reduced() == (s.base_reduced() and s.nil_target_meets_ideal_only_at_zero()),
            degree_sensitive=False,
        ),
        TheoremClause(
            "P2.1a",
            "a reduced base and a reduced target force a reduced amalgam",
            "implication",
            lambda s, d: s.base_reduced() and s.target_reduced(),
            lambda s, d: s.am_reduced(),
            degree_sensitive=False,
        ),
        TheoremClause(
            "P2.1b",
            "over a radical ideal, a reduced amalgam forces both the base and the target reduced",
            "implication",
            lambda s, d: s.ideal_radical() and s.am_reduced(),
            lambda s, d: s.base_reduced() and s.target_reduced(),
            degree_sensitive=False,
        ),
    ]
    clauses += _shared_triple(ARM, "T2.2", "armendariz")
    clauses += [
        TheoremClause(
            "T2.2-4",
            "when the ideal meets the target's nilpotents only at zero, the "
            "amalgam is armendariz exactly when the base is",
            "equivalence",
            lambda s, d: s.nil_target_meets_ideal_only_at_zero(),
            lambda s, d: s.am_holds(ARM, d) == s.base_holds(ARM, d),
        ),
        TheoremClause(
            "T2.2-5",
            "when the ideal's preimage meets the base's nilpotents only at zero, "
            "an armendariz image-plus-ideal subring forces an armendariz amalgam",
            "implication",
            lambda s, d: s.preimage_meets_nil_base_only_at_zero() and s.faj_holds(ARM, d),
            lambda s, d: s.am_holds(ARM, d),
        ),
    ]
    clauses += _shared_triple(NIL, "T3.1", "nil-armendariz")
    clauses += [
        TheoremClause(
            "T3.1-4",
            "when the ideal consists of nilpotents of the target, the amalgam "
            "is nil-armendariz exactly when the base is",
            "equivalence",
            lambda s, d: s.ideal_inside_nil_target(),
            lambda s, d: s.am_holds(NIL, d) == s.base_holds(NIL, d),
        ),
        TheoremClause(
            "T3.1-5",
            "when the ideal's preimage consists of nilpotents of the base, the "
            "amalgam is nil-armendariz exactly when the image-plus-ideal subring is",
            "equivalence",
            lambda s, d: s.preimage_inside_nil_base(),
            lambda s, d: s.am_holds(NIL, d) == s.faj_holds(NIL, d),
        ),
        TheoremClause(
            "T3.1-6i",
            "for an injective map whose image meets the ideal only at zero, the "
            "amalgam is nil-armendariz exactly when the image-plus-ideal subring is",
            "equivalence",
            lambda s, d: s.hom_injective() and s.image_meets_ideal_only_at_zero(),
            lambda s, d: s.am_holds(NIL, d) == s.faj_holds(NIL, d),
        ),
        TheoremClause(
            "T3.1-6ii",
            "for an injective map with the ideal inside the target's nilpotents, "
            "the amalgam is nil-armendariz exactly when the image-plus-ideal subring is",
            "equivalence",
            lambda s, d: s.hom_injective() and s.ideal_inside_nil_target(),
            lambda s, d: s.am_holds(NIL, d) == s.faj_holds(NIL, d),
        ),
    ]
    clauses += _shared_triple(WEAK, "T4.1", "weak-armendariz")
    clauses += [
        TheoremClause(
            "T4.1-4",
            "when the ideal consists of nilpotents of the target, the base is "
            "weak-armendariz exactly when the amalgam is",
            "equivalence",
            lambda s, d: s.ideal_inside_nil_target(),
            lambda s, d: s.base_holds(WEAK, d) == s.am_holds(WEAK, d),
        ),
        TheoremClause(
            "T4.1-5",
            "when the ideal's preimage consists of nilpotents of the base, a "
            "weak-armendariz image-plus-ideal subring forces a weak-armendariz amalgam",
            "implication",
            lambda s, d: s.preimage_inside_nil_base() and s.faj_holds(WEAK, d),
            lambda s, d: s.am_holds(WEAK, d),
        ),
        TheoremClause(
            "T4.1-6i",
            "for an injective map whose image meets the ideal only at zero, the "
            "amalgam is weak-armendariz exactly when the image-plus-ideal subring is",
            "equivalence",
            lambda s, d: s.hom_injective() and s.image_meets_ideal_only_at_zero(),
            lambda s, d: s.am_holds(WEAK, d) == s.faj_holds(WEAK, d),
        ),
        TheoremClause(
            "T4.1-6ii",
            "for an injective map with the ideal inside the target's nilpotents, "
            "a weak-armendariz image-plus-ideal subring forces a weak-armendariz amalgam",
            "implication",
            lambda s, d: s.hom_injective() and s.ideal_inside_nil_target() and s.faj_holds(WEAK, d),
            lambda s, d: s.am_holds(WEAK, d),
        ),
        TheoremClause(
            "T4.1-7",
            "a semicommutative ideal and a weak-armendariz base force a weak-armendariz amalgam",
            "implication",
            lambda s, d: s.ideal_semicommutative() and s.base_holds(WEAK, d),
            lambda s, d: s.am_holds(WEAK, d),
        ),
        TheoremClause(
            "T4.1-8",
            "a semicommutative ideal preimage and a weak-armendariz "
            "image-plus-ideal subring force a weak-armendariz amalgam",
            "implication",
            lambda s, d: s.preimage_semicommutative() and s.faj_holds(WEAK, d),
            lambda s, d: s.am_holds(WEAK, d),
        ),
    ]
    return tuple(clauses)


class OutcomeStatus(Enum):
    HYPOTHESIS_FAILED = "HYPOTHESIS_FAILED"
    PASSED = "PASSED"
    VIOLATION_CANDIDATE = "VIOLATION_CANDIDATE"
    HARD_VIOLATION = "HARD_VIOLATION"
    SKIPPED_BUDGET = "SKIPPED_BUDGET"


@dataclass(frozen=True)
class ClauseOutcome:
    clause_id: str
    scenario_key: str
    status: OutcomeStatus
    detail: str = ""


_PASSED = (OutcomeStatus.PASSED, "")
_HYPOTHESIS_FAILED = (OutcomeStatus.HYPOTHESIS_FAILED, "")


def _judge(clause: TheoremClause, scenario: Scenario, degree: int) -> tuple[OutcomeStatus, str]:
    """The status and detail of one clause on one scenario at one degree bound.

    A failed conclusion is re-examined at the next degree bound before being
    declared hard: bound-qualified verdicts can flip when the bound rises, so
    only a failure that survives escalation counts as a refutation.  Clauses
    about exact element-level properties skip the escalation, since nothing in
    them depends on the bound.
    """
    try:
        if not clause.hypothesis(scenario, degree):
            return _HYPOTHESIS_FAILED
        if clause.conclusion(scenario, degree):
            return _PASSED
    except SearchBudgetError as exc:
        return OutcomeStatus.SKIPPED_BUDGET, str(exc)
    if not clause.degree_sensitive:
        return OutcomeStatus.HARD_VIOLATION, "conclusion fails and does not depend on the degree bound"
    try:
        hyp_up = clause.hypothesis(scenario, degree + 1)
        concl_up = clause.conclusion(scenario, degree + 1) if hyp_up else True
    except SearchBudgetError as exc:
        return (
            OutcomeStatus.VIOLATION_CANDIDATE,
            f"fails at degree bound {degree}; escalation hit the search budget: {exc}",
        )
    if hyp_up and not concl_up:
        return OutcomeStatus.HARD_VIOLATION, f"conclusion fails at degree bounds {degree} and {degree + 1}"
    return OutcomeStatus.VIOLATION_CANDIDATE, f"fails at degree bound {degree} but is not sustained at {degree + 1}"


def evaluate_clause(clause: TheoremClause, scenario: Scenario, degree: int) -> ClauseOutcome:
    """Evaluate one clause on one scenario at one degree bound (see _judge)."""
    return ClauseOutcome(clause.clause_id, scenario.key, *_judge(clause, scenario, degree))


def evaluate_scenario(scenario: Scenario, registry: tuple[TheoremClause, ...], degree: int) -> list[ClauseOutcome]:
    return [evaluate_clause(clause, scenario, degree) for clause in registry]


# --------------------------------------------------------------------------
# corpus

ZMOD_MODULI = range(2, 9)
MAX_PRODUCT_SIZE = 16


@dataclass(frozen=True)
class CorpusConfig:
    """The largest amalgam a scenario may build, and the node budget of every
    search a verdict starts (None: unbounded; not part of the report).

    The ring catalog itself is fixed: zmod(n) for n in ZMOD_MODULI, the 2x2
    upper-triangular and full matrix rings over zmod(2), three truncated
    polynomial rings, and every product of two of these with at most
    MAX_PRODUCT_SIZE elements.
    """

    max_amalgam_size: int = 64
    node_budget: Optional[int] = None


def build_corpus() -> list[tuple[str, FiniteRing]]:
    """Named atoms plus all unordered products of two atoms under the size cap."""
    atoms = [(f"zmod({n})", zmod(n)) for n in ZMOD_MODULI]
    atoms += [
        ("upper(zmod(2),2)", upper_triangular(zmod(2), 2)),
        ("matrix(zmod(2),2)", matrix_ring(zmod(2), 2)),
        ("polyquot(zmod(2),2)", poly_quotient(zmod(2), 2)),
        ("polyquot(zmod(2),3)", poly_quotient(zmod(2), 3)),
        ("polyquot(zmod(3),2)", poly_quotient(zmod(3), 2)),
    ]
    rings = list(atoms)
    for i, (name_i, ring_i) in enumerate(atoms):
        for name_j, ring_j in atoms[i:]:
            if ring_i.size * ring_j.size <= MAX_PRODUCT_SIZE:
                rings.append((f"product({name_i},{name_j})", direct_product(ring_i, ring_j)))
    return rings


def build_scenarios(config: CorpusConfig = CorpusConfig()) -> tuple[list[tuple[str, FiniteRing]], list[Scenario]]:
    """Every (A, B, f, J) the corpus affords within the amalgam size cap.

    Scenario order is canonical: corpus order for A and B, homomorphisms
    sorted by image table, ideals sorted by size then membership.
    """
    corpus = build_corpus()
    ideal_cache: dict[str, list[Ideal]] = {}
    scenarios: list[Scenario] = []
    for base_name, A in corpus:
        if A.size * 1 > config.max_amalgam_size:
            continue
        for target_name, B in corpus:
            bkey = B.digest()
            if bkey not in ideal_cache:
                ideal_cache[bkey] = [J for J in enumerate_ideals(B) if J.proper]
            usable = [J for J in ideal_cache[bkey] if A.size * len(J.members) <= config.max_amalgam_size]
            if not usable:
                continue
            for hom in enumerate_homs(A, B):
                for J in usable:
                    scenarios.append(Scenario(base_name, target_name, hom, J, config.node_budget))
    return corpus, scenarios


# --------------------------------------------------------------------------
# harness

@dataclass
class ClauseSummary:
    clause_id: str
    summary: str
    shape: str
    tested: int = 0
    hypothesis_failed: int = 0
    passed: int = 0
    violation_candidates: list[tuple[str, str]] = field(default_factory=list)
    hard_violations: list[tuple[str, str]] = field(default_factory=list)
    skipped_budget: list[tuple[str, str]] = field(default_factory=list)
    vacuous_corpus_wide: bool = False
    note: str = ""

    @property
    def hypothesis_satisfied(self) -> int:
        return self.tested - self.hypothesis_failed


@dataclass
class HarnessReport:
    """Per-clause tallies over one corpus run, and nothing about how it ran.

    The tallies are folded in scenario order.
    """

    degree: int
    config: CorpusConfig
    ring_names: list[str]
    scenario_count: int
    summaries: list[ClauseSummary]

    @property
    def hard_violation_count(self) -> int:
        return sum(len(s.hard_violations) for s in self.summaries)

    @property
    def candidate_count(self) -> int:
        return sum(len(s.violation_candidates) for s in self.summaries)

    @property
    def skipped_count(self) -> int:
        return sum(len(s.skipped_budget) for s in self.summaries)

    def vacuous_clause_ids(self) -> list[str]:
        return [s.clause_id for s in self.summaries if s.vacuous_corpus_wide]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "corpus": {
                "rings": list(self.ring_names),
                "scenario_count": self.scenario_count,
                "max_product_size": MAX_PRODUCT_SIZE,
                "max_amalgam_size": self.config.max_amalgam_size,
            },
            "clauses": {
                s.clause_id: {
                    "summary": s.summary,
                    "shape": s.shape,
                    "tested": s.tested,
                    "hypothesis_satisfied": s.hypothesis_satisfied,
                    "passed": s.passed,
                    "violation_candidates": [list(v) for v in s.violation_candidates],
                    "hard_violations": [list(v) for v in s.hard_violations],
                    "skipped_budget": [list(v) for v in s.skipped_budget],
                    "vacuous_corpus_wide": s.vacuous_corpus_wide,
                    "note": s.note,
                }
                for s in self.summaries
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def run_harness(config: Optional[CorpusConfig] = None, *, degree: int = 2, workers: int = 1) -> HarnessReport:
    """Evaluate every clause on every scenario and aggregate the tallies.

    The clauses run in scenario order, in this process.  Each asks holds
    for the verdicts it needs, and the ring memo keeps every decided verdict
    by table, so only a search that ran out of node_budget runs again.  The
    loop tallies each clause's status and writes a scenario's key only for
    the outcomes the report lists; evaluate_clause gives the same status as
    a ClauseOutcome.  workers must be at least 1 and does not change how
    the run proceeds.
    """
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    config = config or CorpusConfig()
    registry = clause_registry()
    corpus, scenarios = build_scenarios(config)
    pairs = [(c, ClauseSummary(c.clause_id, c.summary, c.shape)) for c in registry]
    for scenario in scenarios:
        for clause, s in pairs:
            status, detail = _judge(clause, scenario, degree)
            if status is OutcomeStatus.PASSED:
                s.passed += 1
            elif status is OutcomeStatus.HYPOTHESIS_FAILED:
                s.hypothesis_failed += 1
            elif status is OutcomeStatus.VIOLATION_CANDIDATE:
                s.violation_candidates.append((scenario.key, detail))
            elif status is OutcomeStatus.HARD_VIOLATION:
                s.hard_violations.append((scenario.key, detail))
            else:
                s.skipped_budget.append((scenario.key, detail))
    for clause, s in pairs:
        s.tested = len(scenarios)
        if s.tested > 0 and s.hypothesis_failed == s.tested:
            s.vacuous_corpus_wide = True
            s.note = clause.vacuity_note or "hypothesis never satisfied on this corpus"

    return HarnessReport(
        degree=degree,
        config=config,
        ring_names=[name for name, _ in corpus],
        scenario_count=len(scenarios),
        summaries=[s for _, s in pairs],
    )
