"""Line-oriented declarative front end: ring bindings, ideals, homomorphisms,
amalgams, and check/harness/search directives.

The language is deliberately flat: one statement per line, constructor
application only, no expressions.  parse_spec is total; every problem becomes
a positioned diagnostic and parsing continues on the next line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .constructions import amalgamation, direct_product, matrix_ring, poly_quotient, upper_triangular, zmod
from .errors import InvalidRingError, NotAHomError, SearchBudgetError
from .morphisms import Ideal, RingHom, enumerate_homs, generated_ideal, _propagate
from .notation import LiteralError, _parse_rows, _split_top, _strip_outer, format_element, parse_element
from .rings import FiniteRing

__all__ = [
    "Diagnostic",
    "SpecModel",
    "RingDecl",
    "IdealDecl",
    "HomDecl",
    "AmalgamDecl",
    "CheckDirective",
    "HarnessDirective",
    "SearchDirective",
    "parse_spec",
    "pretty_print",
    "parse_element",
    "format_element",
    "LiteralError",
]


@dataclass(frozen=True)
class Diagnostic:
    """A positioned parse or elaboration problem; never an exception."""

    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"line {self.line}:{self.col}: {self.code}: {self.message}"


# statement nodes; model equality (for round-trip checks) compares these only

@dataclass(frozen=True)
class RingDecl:
    name: str
    ctor: str
    args: tuple


@dataclass(frozen=True)
class IdealDecl:
    name: str
    host: str
    gens: tuple[str, ...]


@dataclass(frozen=True)
class HomDecl:
    name: str
    domain: str
    codomain: str
    mode: str
    pairs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AmalgamDecl:
    name: str
    base: str
    hom: str
    ideal: str


@dataclass(frozen=True)
class CheckDirective:
    target: str
    prop: str
    degree: Optional[int] = None
    assertion: Optional[str] = None


@dataclass(frozen=True)
class HarnessDirective:
    degree: Optional[int] = None


@dataclass(frozen=True)
class SearchDirective:
    goal: str
    degree: Optional[int] = None
    max_size: Optional[int] = None


Statement = Union[RingDecl, IdealDecl, HomDecl, AmalgamDecl, CheckDirective, HarnessDirective, SearchDirective]

PROPS = ("reduced", "semicommutative", "armendariz", "nil-armendariz", "weak-armendariz")
GOALS = ("weak-not-nil", "armendariz-refutation")


@dataclass
class SpecModel:
    """Parsed statements plus the elaborated objects they bind.

    Only the statement list participates in equality, so a parse of the
    pretty-printed form compares equal to the original model.
    """

    statements: tuple[Statement, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()
    rings: dict[str, FiniteRing] = field(default_factory=dict, compare=False)
    ideals: dict[str, Ideal] = field(default_factory=dict, compare=False)
    homs: dict[str, RingHom] = field(default_factory=dict, compare=False)
    amalgams: dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def resolve_ring(self, name: str) -> Optional[FiniteRing]:
        if name in self.rings:
            return self.rings[name]
        if name in self.amalgams:
            return self.amalgams[name].ring
        return None


# --------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# A '#' followed by a digit is a raw index literal (#k); any other '#' starts a comment.
_COMMENT_RE = re.compile(r"#(?!\d)")


class _Problem(Exception):
    """What is wrong with the statement being parsed, as (col, code, message)
    triples; parse_spec's line loop turns them into diagnostics."""

    def __init__(self, *problems: tuple[int, str, str]):
        super().__init__(problems)
        self.problems = problems


class _Line:
    """A statement's text and its columns.  A LiteralError that escapes a
    handler is a SYNTAX problem at arg_col, the column of the bracketed
    argument the handler was reading."""

    def __init__(self, text: str):
        self.text = text
        self.col0 = self.arg_col = len(text) - len(text.lstrip()) + 1

    def words(self) -> list[tuple[str, int]]:
        """The whitespace-separated words after the keyword, each with its column."""
        return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", self.text)][1:]


def _parse_int(token: str) -> Optional[int]:
    try:
        return int(token)
    except ValueError:
        return None


def _int_entry(text: str) -> int:
    value = _parse_int(text.strip())
    if value is None:
        raise LiteralError(f"expected an integer, got {text.strip()!r}")
    return value


def _match(pattern: str, ln: _Line, usage: str) -> re.Match:
    m = re.match(pattern, ln.text)
    if not m:
        raise _Problem((ln.col0, "SYNTAX", f"expected: {usage}"))
    return m


def _bind(model: SpecModel, m: re.Match) -> None:
    """Admit the name a ring, ideal, hom or amalgam statement binds, the first
    group of its pattern: an identifier that is not bound yet."""
    name, col = m.group(1), m.start(1) + 1
    if not _NAME_RE.match(name):
        raise _Problem((col, "SYNTAX", f"bad name {name!r}"))
    if any(name in table for table in (model.rings, model.ideals, model.homs, model.amalgams)):
        raise _Problem((col, "DUPLICATE_NAME", f"{name!r} is already bound"))


def _items(body: str, start: int) -> list[tuple[str, int]]:
    """The non-empty comma-separated items of body, stripped, each with its
    column in a line where body starts at index start."""
    items = []
    for text in _split_top(body, ","):
        if text.strip():
            items.append((text.strip(), start + len(text) - len(text.lstrip()) + 1))
        start += len(text) + 1
    return items


def _resolve(model: SpecModel, *names: tuple[str, int]) -> list[FiniteRing]:
    """The ring (or amalgam's ring) bound to each (name, column); every
    unbound name is a problem at its column."""
    rings = [model.resolve_ring(name) for name, _ in names]
    unbound = [
        (col, "UNRESOLVED_NAME", f"no ring or amalgam named {name!r}") for (name, col), R in zip(names, rings) if R is None
    ]
    if unbound:
        raise _Problem(*unbound)
    return rings


def _parse_options(words: list[tuple[str, int]], allowed: dict[str, tuple[str, ...]]) -> dict[str, object]:
    """Parse trailing `key value` option pairs, given as (word, column);
    allowed maps key -> the words its value may be, or () for a non-negative
    int.  The first bad pair is the problem, at the column of its bad word."""
    opts: dict[str, object] = {}
    for i in range(0, len(words), 2):
        key, key_col = words[i]
        if key not in allowed:
            raise _Problem((key_col, "SYNTAX", f"unexpected token {key!r}"))
        if i + 1 >= len(words):
            raise _Problem((key_col, "SYNTAX", f"option {key!r} needs a value"))
        value, col = words[i + 1]
        if allowed[key]:
            if value not in allowed[key]:
                raise _Problem((col, "SYNTAX", f"{key} takes {' or '.join(allowed[key])}, got {value!r}"))
            opts[key] = value
            continue
        parsed = _parse_int(value)
        if parsed is None:
            raise _Problem((col, "SYNTAX", f"option {key!r} needs an integer, got {value!r}"))
        if parsed < 0:
            raise _Problem((col, "CONSTRAINT", f"option {key!r} must be non-negative, got {parsed}"))
        opts[key] = parsed
    return opts


def _ring(model: SpecModel, ln: _Line) -> RingDecl:
    m = _match(r"^\s*ring\s+(\S+)\s*=\s*(.+)$", ln, "ring NAME = CONSTRUCTOR args")
    name, rhs = m.groups()
    _bind(model, m)
    ln.arg_col = m.start(2) + 1
    decl, model.rings[name] = _parse_ring_rhs(name, rhs, model.rings, ln.arg_col)
    return decl


def _ideal(model: SpecModel, ln: _Line) -> IdealDecl:
    m = _match(
        r"^\s*ideal\s+(\S+)\s+of\s+(\S+)\s*=\s*generated\s*(\{.*\})\s*$", ln, "ideal NAME of RING = generated { elems }"
    )
    name, host_name, braces = m.groups()
    _bind(model, m)
    (host,) = _resolve(model, (host_name, m.start(2) + 1))
    ln.arg_col = m.start(3) + 1
    body = _strip_outer(braces, "{", "}")
    if body is None:
        raise _Problem((ln.arg_col, "SYNTAX", "expected { elem, ... }"))
    gens, problems = [], []
    for g, col in _items(body, m.start(3) + 1):
        try:
            gens.append(parse_element(host, g))
        except LiteralError as exc:
            problems.append((col, "CONSTRAINT", str(exc)))
    if problems:
        raise _Problem(*problems)
    model.ideals[name] = generated_ideal(host, gens)
    return IdealDecl(name, host_name, tuple(format_element(host, g) for g in gens))


def _hom(model: SpecModel, ln: _Line) -> HomDecl:
    m = _match(
        r"^\s*hom\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*=\s*(.+)$", ln, "hom NAME : A -> B = canonical | map { x -> y, ... }"
    )
    name, dom_name, cod_name, rhs = m.groups()
    _bind(model, m)
    dom, cod = _resolve(model, (dom_name, m.start(2) + 1), (cod_name, m.start(3) + 1))
    rhs_col = m.start(4) + 1
    if rhs == "canonical":
        if dom is cod:
            candidates = [RingHom(dom, cod, tuple(range(dom.size)))]
        else:
            try:
                candidates = enumerate_homs(dom, cod)
            except SearchBudgetError as exc:
                raise _Problem((rhs_col, "CONSTRAINT", str(exc)))
        if len(candidates) != 1:
            raise _Problem((
                rhs_col, "CONSTRAINT",
                f"canonical needs exactly one homomorphism {dom_name} -> {cod_name}, found {len(candidates)}",
            ))
        model.homs[name] = candidates[0]
        return HomDecl(name, dom_name, cod_name, "canonical")
    if not rhs.startswith("map"):
        raise _Problem((rhs_col, "UNKNOWN_CONSTRUCTOR", f"expected canonical or map, got {rhs.split()[0]!r}"))
    ln.arg_col = rhs_col
    body = _strip_outer(rhs[3:], "{", "}")
    if body is None:
        raise _Problem((ln.arg_col, "SYNTAX", "expected map { x -> y, ... }"))
    pairs = []
    for pair_text, col in _items(body, ln.text.index("{", m.start(4)) + 1):
        sides = pair_text.split("->")
        if len(sides) != 2:
            raise _Problem((col, "SYNTAX", f"expected x -> y, got {pair_text!r}"))
        try:
            pairs.append((parse_element(dom, sides[0]), parse_element(cod, sides[1]), col))
        except LiteralError as exc:
            raise _Problem((col, "CONSTRAINT", str(exc)))
    amap = {dom.zero: cod.zero, dom.one: cod.one}
    for x, y, col in pairs:
        if amap.get(x, y) != y:
            raise _Problem((col, "CONSTRAINT", f"conflicting images for element {format_element(dom, x)}"))
        amap[x] = y
    closed = _propagate(dom, cod, amap)
    if closed is None:
        raise _Problem((ln.col0, "CONSTRAINT", "the given images are inconsistent with + and *"))
    missing = [x for x in range(dom.size) if x not in closed]
    if missing:
        raise _Problem((
            ln.col0, "CONSTRAINT",
            f"the map does not determine the image of {format_element(dom, missing[0])}; add a mapping for it",
        ))
    try:
        model.homs[name] = RingHom(dom, cod, tuple(closed[x] for x in range(dom.size)))
    except NotAHomError as exc:
        v = exc.violation
        raise _Problem((ln.col0, "CONSTRAINT", f"the completed map is not a homomorphism: breaks {v.law} at {v.witness}"))
    return HomDecl(
        name, dom_name, cod_name, "map", tuple((format_element(dom, x), format_element(cod, y)) for x, y, _ in pairs)
    )


def _amalgam(model: SpecModel, ln: _Line) -> AmalgamDecl:
    m = _match(
        r"^\s*amalgam\s+(\S+)\s*=\s*(\S+)\s+join\s+(\S+)\s+(\S+)\s*$", ln, "amalgam NAME = BASE join HOM IDEAL"
    )
    name, base_name, hom_name, ideal_name = m.groups()
    _bind(model, m)
    hom_col, ideal_col = m.start(3) + 1, m.start(4) + 1
    hom, ideal = model.homs.get(hom_name), model.ideals.get(ideal_name)
    if hom is None:
        raise _Problem((hom_col, "UNRESOLVED_NAME", f"no homomorphism named {hom_name!r}"))
    if ideal is None:
        raise _Problem((ideal_col, "UNRESOLVED_NAME", f"no ideal named {ideal_name!r}"))
    (base,) = _resolve(model, (base_name, m.start(2) + 1))
    if hom.domain is not base:
        raise _Problem((hom_col, "CONSTRAINT", f"{hom_name!r} does not start at {base_name!r}"))
    if ideal.host is not hom.codomain:
        raise _Problem((ideal_col, "CONSTRAINT", f"{ideal_name!r} does not live in the codomain of {hom_name!r}"))
    if not ideal.proper:
        raise _Problem((ideal_col, "CONSTRAINT", "amalgamation needs a proper ideal"))
    model.amalgams[name] = amalgamation(hom, ideal)
    return AmalgamDecl(name, base_name, hom_name, ideal_name)


def _check(model: SpecModel, ln: _Line) -> CheckDirective:
    rest = ln.words()
    if len(rest) < 2:
        raise _Problem((ln.col0, "ARITY", "expected: check TARGET PROPERTY [degree INT] [assert holds|refuted]"))
    (target, target_col), (prop, prop_col) = rest[:2]
    if prop not in PROPS:
        raise _Problem((prop_col, "UNKNOWN_CONSTRUCTOR", f"unknown property {prop!r}; expected one of {', '.join(PROPS)}"))
    _resolve(model, (target, target_col))
    opts = _parse_options(rest[2:], {"degree": (), "assert": ("holds", "refuted")})
    return CheckDirective(target, prop, opts.get("degree"), opts.get("assert"))


def _harness(model: SpecModel, ln: _Line) -> HarnessDirective:
    return HarnessDirective(_parse_options(ln.words(), {"degree": ()}).get("degree"))


def _search(model: SpecModel, ln: _Line) -> SearchDirective:
    rest = ln.words()
    if not rest:
        raise _Problem((ln.col0, "ARITY", "expected: search GOAL [degree INT] [max-size INT]"))
    goal, goal_col = rest[0]
    if goal not in GOALS:
        raise _Problem((goal_col, "UNKNOWN_CONSTRUCTOR", f"unknown goal {goal!r}; expected one of {', '.join(GOALS)}"))
    opts = _parse_options(rest[1:], {"degree": (), "max-size": ()})
    return SearchDirective(goal, opts.get("degree"), opts.get("max-size"))


def _unknown(model: SpecModel, ln: _Line) -> Statement:
    raise _Problem((ln.col0, "SYNTAX", f"unknown statement {ln.text.split()[0]!r}"))


_HANDLERS: dict[str, Callable[[SpecModel, _Line], Statement]] = {
    "ring": _ring,
    "ideal": _ideal,
    "hom": _hom,
    "amalgam": _amalgam,
    "check": _check,
    "harness": _harness,
    "search": _search,
}


def parse_spec(text: str) -> SpecModel:
    """Parse and elaborate a spec; diagnostics accumulate, parsing never aborts."""
    model = SpecModel()
    statements: list[Statement] = []
    diags: list[Diagnostic] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, 1)[0].rstrip()
        if not line.strip():
            continue
        ln = _Line(line)
        try:
            statements.append(_HANDLERS.get(line.split()[0], _unknown)(model, ln))
        except _Problem as exc:
            diags.extend(Diagnostic(line_no, *problem) for problem in exc.problems)
        except LiteralError as exc:
            diags.append(Diagnostic(line_no, ln.arg_col, "SYNTAX", str(exc)))
    model.statements, model.diagnostics = tuple(statements), tuple(diags)
    return model


def _parse_ring_rhs(
    name: str, rhs: str, rings: dict[str, FiniteRing], col: int
) -> tuple[RingDecl, FiniteRing]:
    m0 = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(.*)$", rhs)
    if not m0:
        raise _Problem((col, "SYNTAX", f"expected a constructor, got {rhs!r}"))
    ctor, rest = m0.group(1), m0.group(2).strip()

    if ctor == "zmod":
        n = _parse_int(rest)
        if n is None:
            raise _Problem((col, "ARITY", "zmod needs one integer argument"))
        try:
            return RingDecl(name, "zmod", (n,)), zmod(n)
        except ValueError as exc:
            raise _Problem((col, "CONSTRAINT", str(exc)))

    if ctor in ("product", "upper", "matrix", "polyquot"):
        inner = _strip_outer(rest, "(", ")")
        if inner is None:
            raise _Problem((col, "SYNTAX", f"{ctor} needs parenthesized arguments"))
        parts = [p.strip() for p in _split_top(inner, ",")]
        if len(parts) != 2:
            raise _Problem((col, "ARITY", f"{ctor} needs exactly two arguments"))
        first = rings.get(parts[0])
        if first is None:
            raise _Problem((col, "UNRESOLVED_NAME", f"no ring named {parts[0]!r}"))
        if ctor == "product":
            second = rings.get(parts[1])
            if second is None:
                raise _Problem((col, "UNRESOLVED_NAME", f"no ring named {parts[1]!r}"))
            args, build = (parts[0], parts[1]), lambda: direct_product(first, second)
        else:
            k = _parse_int(parts[1])
            if k is None:
                raise _Problem((col, "ARITY", f"{ctor} needs a ring name and an integer"))
            builder = {"upper": upper_triangular, "matrix": matrix_ring, "polyquot": poly_quotient}[ctor]
            args, build = (parts[0], k), lambda: builder(first, k)
        try:
            return RingDecl(name, ctor, args), build()
        except ValueError as exc:
            raise _Problem((col, "CONSTRAINT", str(exc)))

    if ctor == "table":
        body = _strip_outer(rest, "{", "}")
        if body is None:
            raise _Problem((col, "SYNTAX", "table needs { add = [[..],..] mul = [[..],..] }"))
        m = re.match(r"^\s*add\s*=\s*(\[.*\])\s*[,;]?\s*mul\s*=\s*(\[.*\])\s*$", body)
        if not m:
            raise _Problem((col, "SYNTAX", "table body must be: add = [[..],..] mul = [[..],..]"))
        add, mul = (_parse_rows(t, _int_entry, "[[..],[..]]") for t in m.groups())
        try:
            ring = FiniteRing.from_tables(add, mul, provenance=f"table({name})")
        except InvalidRingError as exc:
            raise _Problem((col, "CONSTRAINT", f"tables break a ring axiom: {exc.violation.law.value} at {exc.violation.witness}"))
        return RingDecl(name, "table", (add, mul)), ring

    raise _Problem((col, "UNKNOWN_CONSTRUCTOR", f"unknown ring constructor {ctor!r}"))


# --------------------------------------------------------------------------
# pretty printing

def _format_statement(stmt: Statement) -> str:
    if isinstance(stmt, RingDecl):
        if stmt.ctor == "zmod":
            return f"ring {stmt.name} = zmod {stmt.args[0]}"
        if stmt.ctor == "table":
            add, mul = stmt.args
            fmt = lambda t: "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in t) + "]"
            return f"ring {stmt.name} = table {{ add = {fmt(add)} mul = {fmt(mul)} }}"
        return f"ring {stmt.name} = {stmt.ctor}({stmt.args[0]}, {stmt.args[1]})"
    if isinstance(stmt, IdealDecl):
        body = ", ".join(stmt.gens)
        return f"ideal {stmt.name} of {stmt.host} = generated {{ {body} }}" if body else f"ideal {stmt.name} of {stmt.host} = generated {{ }}"
    if isinstance(stmt, HomDecl):
        if stmt.mode == "canonical":
            return f"hom {stmt.name} : {stmt.domain} -> {stmt.codomain} = canonical"
        body = ", ".join(f"{x} -> {y}" for x, y in stmt.pairs)
        return f"hom {stmt.name} : {stmt.domain} -> {stmt.codomain} = map {{ {body} }}"
    if isinstance(stmt, AmalgamDecl):
        return f"amalgam {stmt.name} = {stmt.base} join {stmt.hom} {stmt.ideal}"
    if isinstance(stmt, CheckDirective):
        out = f"check {stmt.target} {stmt.prop}"
        if stmt.degree is not None:
            out += f" degree {stmt.degree}"
        if stmt.assertion is not None:
            out += f" assert {stmt.assertion}"
        return out
    if isinstance(stmt, HarnessDirective):
        return "harness" if stmt.degree is None else f"harness degree {stmt.degree}"
    if isinstance(stmt, SearchDirective):
        out = f"search {stmt.goal}"
        if stmt.degree is not None:
            out += f" degree {stmt.degree}"
        if stmt.max_size is not None:
            out += f" max-size {stmt.max_size}"
        return out
    raise TypeError(f"unknown statement type {type(stmt)!r}")


def pretty_print(model: SpecModel) -> str:
    """Canonical text form; parsing it back yields an equal model."""
    return "\n".join(_format_statement(s) for s in model.statements) + "\n"
