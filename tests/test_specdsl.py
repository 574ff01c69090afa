"""Declarative front end: total parsing, elaboration, literals, round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from amalgam.constructions import (
    amalgamation,
    direct_product,
    f_plus_j,
    matrix_ring,
    poly_quotient,
    quotient_ring,
    subring_closure,
    upper_triangular,
    zmod,
)
from amalgam.morphisms import RingHom, generated_ideal
from amalgam.rings import central_idempotents, split_by_central_idempotent
from amalgam.specdsl import (
    CheckDirective,
    HarnessDirective,
    GOALS,
    LiteralError,
    PROPS,
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
ring P2 = polyquot(A, 2)
ring PP = polyquot(P2, 2)
ideal JP of P = generated { (0,1) }
ideal JU of U = generated { [[0,1],[0,0]] }
ideal JQ of Q = generated { t }
ideal JPP of PP = generated { #4 }
hom h : P -> P = map { (0,1) -> (1,0) }
check P armendariz degree 1
"""
    m = parse_spec(spec)
    assert m.ok, [d.render() for d in m.diagnostics]
    assert m.ideals["JP"].members == (0, 1)
    assert m.ideals["JU"].members  # strictly upper corner ideal
    assert m.ideals["JPP"].members == (0, 1, 4, 5)
    assert m.homs["h"].map == (0, 2, 1, 3)
    text = pretty_print(m)
    m2 = parse_spec(text)
    assert m2.ok and m2.statements == m.statements
    assert {k: I.members for k, I in m2.ideals.items()} == {k: I.members for k, I in m.ideals.items()}
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
    Z4, P = rings[0], rings[-1]
    Q, _ = quotient_ring(Z4, generated_ideal(Z4, [2]))
    rings.append(Q)
    B = direct_product(Z4, zmod(2))
    f = RingHom(Z4, B, tuple(2 * x + x % 2 for x in range(4)))
    rings += [
        subring_closure(P, [1]).ring,
        *split_by_central_idempotent(P, central_idempotents(P)[0]),
        f_plus_j(f, generated_ideal(B, [4])).ring,
        amalgamation(f, generated_ideal(B, [4])).ring,
        poly_quotient(poly_quotient(zmod(2), 2), 2),
        poly_quotient(subring_closure(poly_quotient(zmod(2), 3), [1]).ring, 2),
    ]
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


OVER_BUDGET_PRODUCT = "ring A = zmod 16\nring R = product(A, A)\nring S = product(R, A)\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        (OVER_BUDGET_PRODUCT, "direct product would have 4096 elements, budget is 256"),
        ("ring R = zmod 257\n", "zmod would have 257 elements, budget is 256"),
    ],
    ids=["product", "zmod"],
)
def test_over_budget_constructor_is_a_constraint_diagnostic(spec, message):
    m = parse_spec(spec)
    assert [(d.line, d.col, d.code, d.message) for d in m.diagnostics] == [(spec.count("\n"), 10, "CONSTRAINT", message)]
    assert len(m.statements) == spec.count("\n") - 1


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


def test_negative_integer_options_are_positioned_constraints():
    m = parse_spec("ring A = zmod 4\ncheck A armendariz degree -1\nharness degree -2\nsearch weak-not-nil max-size -3\n")
    assert [(d.line, d.col, d.code) for d in m.diagnostics] == [(2, 27, "CONSTRAINT"), (3, 16, "CONSTRAINT"), (4, 30, "CONSTRAINT")]
    assert "must be non-negative, got -1" in m.diagnostics[0].message
    assert [type(s).__name__ for s in m.statements] == ["RingDecl"]


# Every diagnostic site of the parser, reached by one malformed line after a
# clean prelude, with the exact (col, code, message) of each diagnostic.  The
# lines bind nothing, so one parse of all of them gives each line's
# diagnostics on its own line number.  The completed-map NotAHomError branch
# of `hom ... = map` is absent: the closure checks every sum and product of
# the finished map, so no map reaches RingHom broken.
FROZEN_PRELUDE = """\
ring A = zmod 4
ring B = zmod 2
ring P = product(B, B)
ring U = upper(B, 2)
ring Q = polyquot(B, 2)
ring T = table { add = [[0,1],[1,0]] mul = [[0,0],[0,1]] }
ring C = zmod 65
ring D = zmod 3
ideal J of A = generated { 2 }
ideal K of B = generated { }
ideal W of A = generated { 1 }
hom f : A -> A = canonical
hom g : A -> B = canonical
amalgam AM = A join f J
"""

FROZEN_DIAGNOSTICS = [
    ('ring R zmod 4', [(1, 'SYNTAX', 'expected: ring NAME = CONSTRUCTOR args')]),
    ('ring 9R = zmod 4', [(6, 'SYNTAX', "bad name '9R'")]),
    ('ring A = zmod 2', [(6, 'DUPLICATE_NAME', "'A' is already bound")]),
    ('ring R = 9', [(10, 'SYNTAX', "expected a constructor, got '9'")]),
    ('ring R = zmod', [(10, 'ARITY', 'zmod needs one integer argument')]),
    ('ring R = zmod x', [(10, 'ARITY', 'zmod needs one integer argument')]),
    ('ring R = zmod 1', [(10, 'CONSTRAINT', 'zmod needs n >= 2, got 1')]),
    ('ring R = product A, B', [(10, 'SYNTAX', 'product needs parenthesized arguments')]),
    ('ring R = product(A)', [(10, 'ARITY', 'product needs exactly two arguments')]),
    ('ring R = product(X, A)', [(10, 'UNRESOLVED_NAME', "no ring named 'X'")]),
    ('ring R = product(A, X)', [(10, 'UNRESOLVED_NAME', "no ring named 'X'")]),
    ('ring R = product(A, AM)', [(10, 'UNRESOLVED_NAME', "no ring named 'AM'")]),
    ('ring R = upper(A, x)', [(10, 'ARITY', 'upper needs a ring name and an integer')]),
    ('ring R = matrix(A, 0)', [(10, 'CONSTRAINT', 'matrix dimension must be at least 1')]),
    ('ring R = polyquot(A, 9)', [(10, 'CONSTRAINT', 'polynomial quotient would have 262144 elements, budget is 256')]),
    ('ring R = table ( )', [(10, 'SYNTAX', 'table needs { add = [[..],..] mul = [[..],..] }')]),
    ('ring R = table { add = 1 }', [(10, 'SYNTAX', 'table body must be: add = [[..],..] mul = [[..],..]')]),
    ('ring R = table { add = [[0,x]] mul = [[0]] }', [(10, 'SYNTAX', "expected an integer, got 'x'")]),
    ('ring R = table { add = [1],[2] mul = [[0]] }', [(10, 'SYNTAX', "expected [[..],[..]], got '[1],[2]'")]),
    ('ring R = table { add = [[0,1],1] mul = [[0]] }', [(10, 'SYNTAX', "expected a [..] row, got '1'")]),
    (
        'ring R = table { add = [[0,1],[1,0]] mul = [[0,1],[1,1]] }',
        [
            (10, 'CONSTRAINT', 'tables break a ring axiom: MUL_IDENTITY at ()'),
        ],
    ),
    ('ring R = frobnicate 3', [(10, 'UNKNOWN_CONSTRUCTOR', "unknown ring constructor 'frobnicate'")]),
    ('ring 9R = frobnicate', [(6, 'SYNTAX', "bad name '9R'")]),
    ('ring A = frobnicate', [(6, 'DUPLICATE_NAME', "'A' is already bound")]),
    ('ideal I of A generated { 1 }', [(1, 'SYNTAX', 'expected: ideal NAME of RING = generated { elems }')]),
    ('ideal J of A = generated { 1 }', [(7, 'DUPLICATE_NAME', "'J' is already bound")]),
    ('ideal I of NOPE = generated { 1 }', [(12, 'UNRESOLVED_NAME', "no ring or amalgam named 'NOPE'")]),
    ('ideal I of A = generated { 1 } { 2 }', [(26, 'SYNTAX', 'expected { elem, ... }')]),
    (
        'ideal I of U = generated { 5, [[1,1],[1,1]], [[0,1],[0,0]], [[1,1]], [1,1], #1x, #9 }',
        [
            (28, 'CONSTRAINT', "expected a [[..],[..]] matrix, got '5'"),
            (31, 'CONSTRAINT', 'entry (1,0) must be zero in an upper-triangular ring'),
            (61, 'CONSTRAINT', "expected a 2x2 matrix, got '[[1,1]]'"),
            (70, 'CONSTRAINT', "expected a [..] row, got '1'"),
            (77, 'CONSTRAINT', "bad raw index literal '#1x'"),
            (82, 'CONSTRAINT', 'raw index 9 out of range for a ring of size 8'),
        ],
    ),
    (
        'ideal I of P = generated { 1, (1), (0,1) }',
        [
            (28, 'CONSTRAINT', "expected a (left,right) pair, got '1'"),
            (31, 'CONSTRAINT', "expected two components in '(1)'"),
        ],
    ),
    (
        'ideal I of Q = generated { t^5, 1 + , t }',
        [
            (28, 'CONSTRAINT', 'power t^5 out of range; the ring truncates at t^2'),
            (33, 'CONSTRAINT', "empty term in '1 +'"),
        ],
    ),
    (
        'ideal I of T = generated { x, 7, 1 }',
        [
            (28, 'CONSTRAINT', "expected an element index for this ring, got 'x'"),
            (31, 'CONSTRAINT', 'index 7 out of range for a ring of size 2'),
        ],
    ),
    (
        'ideal I of AM = generated { (1,0), (0,2) }',
        [
            (29, 'CONSTRAINT', "pair '(1,0)' is not an element of the amalgam: second component minus the image is outside the ideal"),
        ],
    ),
    ('ideal I of A = generated { y }', [(28, 'CONSTRAINT', "expected an integer modulo 4, got 'y'")]),
    ('ideal I of NOPE = generated { 1 } { 2 }', [(12, 'UNRESOLVED_NAME', "no ring or amalgam named 'NOPE'")]),
    ('hom h A -> A = canonical', [(1, 'SYNTAX', 'expected: hom NAME : A -> B = canonical | map { x -> y, ... }')]),
    ('hom f : A -> A = canonical', [(5, 'DUPLICATE_NAME', "'f' is already bound")]),
    (
        'hom h : X -> Y = canonical',
        [
            (9, 'UNRESOLVED_NAME', "no ring or amalgam named 'X'"),
            (14, 'UNRESOLVED_NAME', "no ring or amalgam named 'Y'"),
        ],
    ),
    ('hom h : X -> A = canonical', [(9, 'UNRESOLVED_NAME', "no ring or amalgam named 'X'")]),
    ('hom h : A -> Y = canonical', [(14, 'UNRESOLVED_NAME', "no ring or amalgam named 'Y'")]),
    ('hom h : C -> A = canonical', [(18, 'CONSTRAINT', 'hom enumeration capped at size 64')]),
    ('hom h : A -> D = canonical', [(18, 'CONSTRAINT', 'canonical needs exactly one homomorphism A -> D, found 0')]),
    ('hom h : P -> B = canonical', [(18, 'CONSTRAINT', 'canonical needs exactly one homomorphism P -> B, found 2')]),
    (
        'hom h : X -> X = canonical',
        [
            (9, 'UNRESOLVED_NAME', "no ring or amalgam named 'X'"),
            (14, 'UNRESOLVED_NAME', "no ring or amalgam named 'X'"),
        ],
    ),
    ('hom h : X -> A = map 1', [(9, 'UNRESOLVED_NAME', "no ring or amalgam named 'X'")]),
    ('hom h : A -> A = map 1 -> 1', [(18, 'SYNTAX', 'expected map { x -> y, ... }')]),
    ('hom mapper : A -> A = map 1 -> 1', [(23, 'SYNTAX', 'expected map { x -> y, ... }')]),
    ('hom h : A -> A = map { 1 }', [(24, 'SYNTAX', "expected x -> y, got '1'")]),
    ('hom h : A -> A = map { x -> 1 }', [(24, 'CONSTRAINT', "expected an integer modulo 4, got 'x'")]),
    ('hom h : A -> A = map { 1 -> x }', [(24, 'CONSTRAINT', "expected an integer modulo 4, got 'x'")]),
    ('hom h : P -> P = map { (0,1) -> (1,1), (0,1) -> (0,1) }', [(40, 'CONSTRAINT', 'conflicting images for element (0,1)')]),
    ('hom h : A -> A = map { 2 -> 1 }', [(1, 'CONSTRAINT', 'the given images are inconsistent with + and *')]),
    ('hom h : P -> P = map { }', [(1, 'CONSTRAINT', 'the map does not determine the image of (0,1); add a mapping for it')]),
    ('hom h : A -> A = bogus thing', [(18, 'UNKNOWN_CONSTRUCTOR', "expected canonical or map, got 'bogus'")]),
    ('amalgam X = A join f', [(1, 'SYNTAX', 'expected: amalgam NAME = BASE join HOM IDEAL')]),
    ('amalgam X = NOPE join nope J', [(23, 'UNRESOLVED_NAME', "no homomorphism named 'nope'")]),
    ('amalgam AM = A join f J', [(9, 'DUPLICATE_NAME', "'AM' is already bound")]),
    ('amalgam X = A join nope J', [(20, 'UNRESOLVED_NAME', "no homomorphism named 'nope'")]),
    ('amalgam X = A join f nope', [(22, 'UNRESOLVED_NAME', "no ideal named 'nope'")]),
    ('amalgam X = NOPE join f J', [(13, 'UNRESOLVED_NAME', "no ring or amalgam named 'NOPE'")]),
    ('amalgam X = B join f J', [(20, 'CONSTRAINT', "'f' does not start at 'B'")]),
    ('amalgam X = A join f K', [(22, 'CONSTRAINT', "'K' does not live in the codomain of 'f'")]),
    ('amalgam X = A join f W', [(22, 'CONSTRAINT', 'amalgamation needs a proper ideal')]),
    ('check A', [(1, 'ARITY', 'expected: check TARGET PROPERTY [degree INT] [assert holds|refuted]')]),
    (
        'check A primality',
        [
            (9, 'UNKNOWN_CONSTRUCTOR', "unknown property 'primality'; expected one of reduced, semicommutative, armendariz, nil-armendariz, weak-armendariz"),
        ],
    ),
    ('check NOPE reduced', [(7, 'UNRESOLVED_NAME', "no ring or amalgam named 'NOPE'")]),
    (
        'check NOPE primality',
        [
            (12, 'UNKNOWN_CONSTRUCTOR', "unknown property 'primality'; expected one of reduced, semicommutative, armendariz, nil-armendariz, weak-armendariz"),
        ],
    ),
    ('check A armendariz frobs 2', [(20, 'SYNTAX', "unexpected token 'frobs'")]),
    ('check A armendariz degree', [(20, 'SYNTAX', "option 'degree' needs a value")]),
    ('check A armendariz degree two', [(27, 'SYNTAX', "option 'degree' needs an integer, got 'two'")]),
    ('check A armendariz degree -1', [(27, 'CONSTRAINT', "option 'degree' must be non-negative, got -1")]),
    ('check A armendariz assert maybe', [(27, 'SYNTAX', "assert takes holds or refuted, got 'maybe'")]),
    ('check A armendariz assert maybe degree two', [(27, 'SYNTAX', "assert takes holds or refuted, got 'maybe'")]),
    ('check A armendariz assert', [(20, 'SYNTAX', "option 'assert' needs a value")]),
    ('harness degree x', [(16, 'SYNTAX', "option 'degree' needs an integer, got 'x'")]),
    ('harness verbose', [(9, 'SYNTAX', "unexpected token 'verbose'")]),
    ('harness degree', [(9, 'SYNTAX', "option 'degree' needs a value")]),
    ('harness degree -2', [(16, 'CONSTRAINT', "option 'degree' must be non-negative, got -2")]),
    ('search', [(1, 'ARITY', 'expected: search GOAL [degree INT] [max-size INT]')]),
    ('search grail', [(8, 'UNKNOWN_CONSTRUCTOR', "unknown goal 'grail'; expected one of weak-not-nil, armendariz-refutation")]),
    ('search weak-not-nil max-size -3', [(30, 'CONSTRAINT', "option 'max-size' must be non-negative, got -3")]),
    ('search weak-not-nil size 3', [(21, 'SYNTAX', "unexpected token 'size'")]),
    ('search weak-not-nil degree x', [(28, 'SYNTAX', "option 'degree' needs an integer, got 'x'")]),
    ('search weak-not-nil max-size', [(21, 'SYNTAX', "option 'max-size' needs a value")]),
    ('zork', [(1, 'SYNTAX', "unknown statement 'zork'")]),
    ('   zork it', [(4, 'SYNTAX', "unknown statement 'zork'")]),
]


def test_frozen_diagnostics():
    lines = [line for line, _ in FROZEN_DIAGNOSTICS]
    m = parse_spec(FROZEN_PRELUDE + "\n".join(lines) + "\n")
    first = FROZEN_PRELUDE.count("\n") + 1
    expected = [
        (first + i, col, code, message)
        for i, (_, problems) in enumerate(FROZEN_DIAGNOSTICS)
        for col, code, message in problems
    ]
    assert [(d.line, d.col, d.code, d.message) for d in m.diagnostics] == expected
    assert len(m.statements) == FROZEN_PRELUDE.count("\n")


@pytest.mark.parametrize(
    "spec, col, inner",
    [
        ("ring R = product((A, A)\n", 10, "(A, A"),
        ("ring R = zmod 4\nideal J of R = generated {((2}\n", 26, "((2"),
        ("ring R = zmod 4\nhom f : R -> R = map {((1 -> 1}\n", 18, "((1 -> 1"),
    ],
    ids=["ring", "ideal", "hom"],
)
def test_unbalanced_inner_brackets_are_syntax_diagnostics(spec, col, inner):
    m = parse_spec(spec)
    assert [(d.line, d.col, d.code, d.message) for d in m.diagnostics] == [
        (spec.count("\n"), col, "SYNTAX", f"unbalanced brackets in {inner!r}")
    ]


@pytest.mark.parametrize(
    "line, name",
    [
        ("ideal 9x of A = generated { 2 }", "9x"),
        ("hom f-g : A -> A = canonical", "f-g"),
        ("amalgam a,b = A join f J", "a,b"),
        ("ring 9R = zmod 4", "9R"),
    ],
    ids=["ideal", "hom", "amalgam", "ring"],
)
def test_every_binding_name_is_an_identifier(line, name):
    m = parse_spec("ring A = zmod 4\nideal J of A = generated { 2 }\nhom f : A -> A = canonical\n" + line + "\n")
    assert [(d.line, d.col, d.code, d.message) for d in m.diagnostics] == [
        (4, line.find(name) + 1, "SYNTAX", f"bad name {name!r}")
    ]
    assert len(m.statements) == 3


@pytest.mark.parametrize(
    "line, col, code",
    [
        ("ring g = zmod 2", 6, "DUPLICATE_NAME"),
        ("ideal d of A = generated { 2 }", 7, "DUPLICATE_NAME"),
        ("hom m : A -> A = canonical", 5, "DUPLICATE_NAME"),
        ("amalgam a = A join f J", 9, "DUPLICATE_NAME"),
        ("ring n = n", 10, "UNKNOWN_CONSTRUCTOR"),
        ("check c reduced", 7, "UNRESOLVED_NAME"),
        ("amalgam m = A join a J", 20, "UNRESOLVED_NAME"),
        ("search sea", 8, "UNKNOWN_CONSTRUCTOR"),
    ],
    ids=["ring", "ideal", "hom", "amalgam", "constructor", "check-target", "amalgam-hom", "search-goal"],
)
def test_a_name_inside_the_keyword_is_reported_at_its_own_column(line, col, code):
    m = parse_spec("ring A = zmod 4\nideal J of A = generated { 2 }\nhom f : A -> A = canonical\n" + line + "\n" + line + "\n")
    assert [(d.col, d.code) for d in m.diagnostics if d.line == 5] == [(col, code)]


# DSL fragments for the totality property: a line is a statement shape whose
# slots are drawn from good and bad names, constructors, brace bodies,
# literals and options, plus an optional stray bracket or comment.  Unbound
# good names come first, so most lines get past the binder.
_NAMES = ["R", "J", "f", "I", "A", "9x", "f-g", "a,b"]
_RINGS = ["A", "R", "NOPE", "(A"]
_CTORS = [
    "zmod 2", "zmod x", "product(A, A)", "product((A, A)", "upper(A, 2)", "polyquot(A, 9)",
    "table { add = [[0,1],[1,0]] mul = [[0,0],[0,1]] }", "table { add = [[0,1],[1,0] mul = [[0]] }", "frob 3",
]
_BODIES = ["{ }", "{ 1, 3 }", "{((2}", "{ [1 }", "{ (0,1) }", "{ #9 }", "{ 1 } { 2 }"]
_HOMS = ["canonical", "map { 1 -> 1 }", "map {((1 -> 1}", "map { 1 -> 1, 2 }", "map 1", "bogus"]
_WORDS = [*PROPS, *GOALS, "primality", "(("]
_OPTIONS = ["", "degree 1", "degree -1", "degree", "degree x", "max-size 4", "assert holds", "assert maybe", "frob"]
_SHAPES = [
    ("ring", _NAMES, "=", _CTORS),
    ("ideal", _NAMES, "of", _RINGS, "= generated", _BODIES),
    ("hom", _NAMES, ":", _RINGS, "->", _RINGS, "=", _HOMS),
    ("amalgam", _NAMES, "=", _RINGS, "join", _NAMES, _NAMES),
    ("check", _RINGS, _WORDS, _OPTIONS),
    ("harness", _OPTIONS),
    ("search", _WORDS, _OPTIONS),
    (_WORDS, _NAMES),
]
_TAILS = ["", " )", " ((", " ]", " # note", " #3"]


@st.composite
def _spec_lines(draw):
    shape = draw(st.sampled_from(_SHAPES))
    line = " ".join(draw(st.sampled_from(part)) if isinstance(part, list) else part for part in shape)
    return line + draw(st.sampled_from(_TAILS))


@settings(max_examples=300)
@given(st.lists(_spec_lines(), min_size=1, max_size=12))
def test_parse_spec_is_total(lines):
    lines = ["ring A = zmod 2", *lines]
    m = parse_spec("\n".join(lines) + "\n")
    codes = {"SYNTAX", "UNKNOWN_CONSTRUCTOR", "UNRESOLVED_NAME", "ARITY", "CONSTRAINT", "DUPLICATE_NAME"}
    for d in m.diagnostics:
        assert 1 <= d.line <= len(lines) and d.col >= 1 and d.code in codes, d
