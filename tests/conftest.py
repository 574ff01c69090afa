"""Shared fixtures: small named rings, the generated corpus, the small
scenarios and their distinct rings, and one degree-1 harness run reused by
every test that only reads it."""

import pytest
from hypothesis import settings

from amalgam.constructions import matrix_ring, poly_quotient, upper_triangular, zmod
from amalgam.theorems import CorpusConfig, build_corpus, build_scenarios, run_harness

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def z4():
    return zmod(4)


@pytest.fixture(scope="session")
def t2():
    """Upper triangular 2x2 over the two-element field."""
    return upper_triangular(zmod(2), 2)


@pytest.fixture(scope="session")
def m2():
    """Full 2x2 matrices over the two-element field."""
    return matrix_ring(zmod(2), 2)


@pytest.fixture(scope="session")
def pq22():
    """Truncated polynomials over the two-element field, t^2 = 0."""
    return poly_quotient(zmod(2), 2)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def scenario_data():
    """(corpus, scenarios) at the default configuration; built once."""
    return build_scenarios(CorpusConfig())


@pytest.fixture(scope="session")
def small_scenarios():
    """The scenarios with amalgams of at most 16 elements."""
    return build_scenarios(CorpusConfig(max_amalgam_size=16))[1]


@pytest.fixture(scope="session")
def small_rings(corpus, small_scenarios):
    """The corpus rings plus the distinct amalgams and f(A)+J rings of the
    scenarios up to 16 elements, one per table."""
    rings = {}
    for R in [R for _, R in corpus] + [r for sc in small_scenarios for r in (sc.am.ring, sc.faj.ring)]:
        rings.setdefault(R.digest(), R)
    return list(rings.values())


@pytest.fixture(scope="session")
def harness_d1():
    return run_harness(CorpusConfig(), degree=1, workers=1)
