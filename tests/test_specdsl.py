"""Declarative front end: total parsing, elaboration, literals, round-trips."""

import pytest

from amalgam.constructions import direct_product, matrix_ring, poly_quotient, quotient_ring, upper_triangular, zmod
from amalgam.morphisms import generated_ideal
from amalgam.specdsl import (
    CheckDirective,
    HarnessDirective,
    LiteralError,
    SearchDirective,
    format_element,
    parse_element,
    parse_spec,
    pretty_print,
)

DUP_SPEC = """\
# duplication of the integers mod 4 along its even ideal
ring A = zmod 4
ideal J of A = generated { 2 }
hom f : A -> A = canonical
amalgam AM = A join f J
check AM reduced
check AM armendariz degree 2 assert holds
harness degree 1
search weak-not-nil degree 2 max-size 16
"""


def test_parse_dup_spec_elaborates():
    m = parse_spec(DUP_SPEC)
    assert m.ok
    assert len(m.statements) == 8
    assert m.ideals["J"].members == (0, 2)
    assert m.amalgams["AM"].ring.size == 8
    assert m.resolve_ring("AM").size == 8
    assert m.resolve_ring("A").size == 4
    assert m.resolve_ring("nope") is None


def test_directive_statement_shapes():
    m = parse_spec(DUP_SPEC)
    checks = [s for s in m.statements if isinstance(s, CheckDirective)]
    assert checks[0] == CheckDirective("AM", "reduced", None, None)
    assert checks[1] == CheckDirective("AM", "armendariz", 2, "holds")
    assert HarnessDirective(1) in m.statements
    assert SearchDirective("weak-not-nil", 2, 16) in m.statements


def test_round_trip_fixed_point():
    m = parse_spec(DUP_SPEC)
    text = pretty_print(m)
    m2 = parse_spec(text)
    assert m2.ok
    assert m2.statements == m.statements
    assert pretty_print(m2) == text


def test_round_trip_with_structured_literals():
    spec = """\
ring A = zmod 2
ring P = product(A, A)
ring U = upper(A, 2)
ring Q = polyquot(A, 3)
ideal JP of P = generated { (0,1) }
ideal JU of U = generated { [[0,1],[0,0]] }
ideal JQ of Q = generated { t }
hom h : P -> P = map { (0,1) -> (1,0) }
check P armendariz degree 1
"""
    m = parse_spec(spec)
    assert m.ok, [d.render() for d in m.diagnostics]
    assert m.ideals["JP"].members == (0, 1)
    assert m.ideals["JU"].members  # strictly upper corner ideal
    assert m.homs["h"].map == (0, 2, 1, 3)
    text = pretty_print(m)
    m2 = parse_spec(text)
    assert m2.ok and m2.statements == m.statements
    assert pretty_print(m2) == text


def test_table_constructor_round_trip():
    spec = "ring F2 = table { add = [[0,1],[1,0]] mul = [[0,0],[0,1]] }\ncheck F2 reduced\n"
    m = parse_spec(spec)
    assert m.ok
    assert m.rings["F2"].size == 2
    m2 = parse_spec(pretty_print(m))
    assert m2.ok and m2.statements == m.statements


def test_table_constructor_rejects_non_ring():
    m = parse_spec("ring X = table { add = [[0,1],[1,0]] mul = [[0,1],[1,1]] }\n")
    assert not m.ok
    assert m.diagnostics[0].code == "CONSTRAINT"


def test_element_literals_round_trip_all_structures():
    rings = [
        zmod(4),
        direct_product(zmod(2), zmod(3)),
        upper_triangular(zmod(2), 2),
        matrix_ring(zmod(2), 2),
        poly_quotient(zmod(3), 2),
        direct_product(zmod(2), poly_quotient(zmod(2), 2)),
    ]
    Z4 = rings[0]
    Q, _ = quotient_ring(Z4, generated_ideal(Z4, [2]))
    rings.append(Q)
    for R in rings:
        for idx in range(R.size):
            assert parse_element(R, format_element(R, idx)) == idx, (R.provenance, idx)


def test_element_literal_conveniences(z4, pq22):
    assert parse_element(z4, "6") == 2
    assert parse_element(z4, "#3") == 3
    assert parse_element(pq22, "1 + 1 + t + t") == 0
    assert parse_element(pq22, "1 + t") == parse_element(pq22, "t + 1")


def test_element_literal_rejections(z4, t2=None):
    U = upper_triangular(zmod(2), 2)
    Q = poly_quotient(zmod(2), 2)
    cases = [
        (z4, "x"),
        (z4, "#9"),
        (U, "[[1,1],[1,1]]"),
        (U, "[[1,1]]"),
        (Q, "t^5"),
        (Q, ""),
    ]
    for R, lit in cases:
        with pytest.raises(LiteralError):
            parse_element(R, lit)


def test_amalgam_element_literals():
    m = parse_spec(DUP_SPEC)
    am = m.amalgams["AM"].ring
    assert parse_element(am, "(0,2)") == 1
    assert parse_element(am, "(1,3)") == 3
    for idx in range(am.size):
        assert parse_element(am, format_element(am, idx)) == idx
    with pytest.raises(LiteralError):
        parse_element(am, "(1,0)")


def test_diagnostics_cover_all_codes():
    bad = parse_spec(
        "ring A = zmod 4\n"
        "ring A = zmod 2\n"
        "ring B = frobnicate 3\n"
        "ring C = zmod 1\n"
        "ideal J of NOPE = generated { 1 }\n"
        "hom f : A -> A = map { 2 -> 1 }\n"
        "check A primality\n"
        "search for-the-grail\n"
        "check A armendariz degree\n"
        "zork\n"
    )
    codes = {d.code for d in bad.diagnostics}
    assert codes == {"DUPLICATE_NAME", "UNKNOWN_CONSTRUCTOR", "CONSTRAINT", "UNRESOLVED_NAME", "SYNTAX"}
    assert all(d.line > 0 and d.col > 0 for d in bad.diagnostics)
    assert "line 2:" in bad.diagnostics[0].render()


def test_parsing_is_total_and_continues():
    m = parse_spec("ring A = zmod 4\nzork\ncheck A reduced\n")
    assert len(m.diagnostics) == 1
    assert any(isinstance(s, CheckDirective) for s in m.statements)


def test_hom_map_completion_and_conflicts():
    ok = parse_spec("ring R = zmod 6\nhom g : R -> R = map { 5 -> 5 }\n")
    assert ok.ok and ok.homs["g"].map == (0, 1, 2, 3, 4, 5)

    under = parse_spec("ring A = zmod 2\nring P = product(A, A)\nhom h : P -> P = map { }\n")
    assert any("does not determine" in d.message for d in under.diagnostics)

    conflict = parse_spec(
        "ring A = zmod 2\nring P = product(A, A)\n"
        "hom j : P -> P = map { (0,1) -> (1,1), (1,0) -> (1,1) }\n"
    )
    assert any(d.code == "CONSTRAINT" for d in conflict.diagnostics)

    dupimg = parse_spec(
        "ring A = zmod 2\nring P = product(A, A)\n"
        "hom j : P -> P = map { (0,1) -> (1,1), (0,1) -> (0,1) }\n"
    )
    assert any("conflicting images" in d.message for d in dupimg.diagnostics)


def test_canonical_hom_requires_uniqueness():
    none_found = parse_spec("ring A = zmod 4\nring B = zmod 3\nhom f : A -> B = canonical\n")
    assert any("found 0" in d.message for d in none_found.diagnostics)
    unique = parse_spec("ring A = zmod 6\nring B = zmod 3\nhom f : A -> B = canonical\n")
    assert unique.ok and unique.homs["f"].map == (0, 1, 2, 0, 1, 2)


def test_canonical_hom_budget_is_a_diagnostic():
    m = parse_spec("ring A = zmod 100\nring B = zmod 10\nhom f : A -> B = canonical\n")
    assert not m.ok
    assert m.diagnostics[0].code == "CONSTRAINT"


def test_amalgam_constraints():
    wrong_domain = parse_spec(
        "ring A = zmod 4\nring B = zmod 6\nideal J of A = generated { 2 }\n"
        "hom f : B -> B = canonical\namalgam AM = A join f J\n"
    )
    assert any("does not start at" in d.message for d in wrong_domain.diagnostics)

    improper = parse_spec(
        "ring A = zmod 4\nideal J of A = generated { 1 }\n"
        "hom f : A -> A = canonical\namalgam AM = A join f J\n"
    )
    assert any("proper ideal" in d.message for d in improper.diagnostics)


def test_empty_generated_braces_gives_zero_ideal():
    m = parse_spec("ring A = zmod 4\nideal Z of A = generated { }\n")
    assert m.ok and m.ideals["Z"].members == (0,)
    m2 = parse_spec(pretty_print(m))
    assert m2.ok and m2.statements == m.statements


def test_comments_and_blank_lines_ignored():
    m = parse_spec("\n# full line comment\nring A = zmod 4  # trailing comment\n\n")
    assert m.ok and m.rings["A"].size == 4


def test_raw_index_literals_are_not_comments():
    m = parse_spec("ring A = zmod 4\nideal J of A = generated { #2 }  #note, #3 inside a comment\n")
    assert m.ok and m.ideals["J"].members == (0, 2)
    bad = parse_spec("ring A = zmod 4\nideal J of A = generated { #9 }\n")
    assert [d.code for d in bad.diagnostics] == ["CONSTRAINT"]
