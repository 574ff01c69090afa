"""Finite-ring workbench for amalgamated constructions and annihilating-pair
properties of bounded-degree polynomials."""

from .constructions import (
    AmalgamRing,
    Embedding,
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
from .errors import (
    HostMismatchError,
    InternalInvariantError,
    InvalidRingError,
    NotAHomError,
    NotAnIdealError,
    SearchBudgetError,
    SizeBudgetError,
)
from .isos import IsoReport, check_canonical_isos
from .morphisms import (
    Ideal,
    RingHom,
    enumerate_homs,
    enumerate_ideals,
    generated_ideal,
    identity_hom,
    is_radical_ideal,
    is_semicommutative_ideal,
    preimage_ideal,
)
from .poly import Polynomial, enumerate_polys, format_poly, poly_add, poly_mul, product_coeffs_in_set
from .properties import (
    PropertyKind,
    PropertyProfile,
    PropertyReport,
    Verdict,
    annihilating_pairs,
    check_armendariz,
    check_nil_armendariz,
    check_reduced,
    check_semicommutative,
    check_weak_armendariz,
    get_report,
    holds,
    naive_annihilating_pairs,
    property_profile,
)
from .rings import (
    AxiomViolation,
    FiniteRing,
    Law,
    central_idempotents,
    induced_ring,
    is_commutative,
    is_nilpotent,
    is_reduced,
    is_semicommutative_ring,
    is_unit,
    nilradical,
    power,
    regular_central,
    semicommutative_scan,
    split_by_central_idempotent,
    units,
    verify_axioms,
)
from .theorems import (
    ClauseOutcome,
    ClauseSummary,
    CorpusConfig,
    HarnessReport,
    OutcomeStatus,
    Scenario,
    TheoremClause,
    build_corpus,
    build_scenarios,
    clause_registry,
    evaluate_clause,
    run_harness,
)

__version__ = "0.1.0"
