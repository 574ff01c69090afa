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
# element literals

class LiteralError(ValueError):
    pass


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator character at bracket depth zero."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise LiteralError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise LiteralError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    return parts


def _strip_outer(text: str, open_ch: str, close_ch: str) -> Optional[str]:
    """The inside of one outer bracket pair, or None if text is not wrapped."""
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        return None
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0 and i != len(text) - 1:
                return None
    return text[1:-1]


_TERM_RE = re.compile(r"^(?:(?P<coeff>.+?)\s*)?\bt(?:\^(?P<power>\d+))?$")


def parse_element(R: FiniteRing, text: str) -> int:
    """Parse an element literal in the ring's native notation into its index.

    The notation follows the ring's construction: integers for modular rings,
    (a,b) pairs for products and amalgams, [[..],[..]] row lists for matrix
    shapes, c0 + c1 t + ... for truncated polynomial rings, [r] for quotient
    cosets, and the universal escape #k for a raw element index.
    """
    text = text.strip()
    if not text:
        raise LiteralError("empty element literal")
    if text.startswith("#"):
        try:
            idx = int(text[1:])
        except ValueError:
            raise LiteralError(f"bad raw index literal {text!r}") from None
        if not 0 <= idx < R.size:
            raise LiteralError(f"raw index {idx} out of range for a ring of size {R.size}")
        return idx

    tag = R.structure[0] if R.structure else None

    if tag == "zmod":
        n = R.structure[1]
        try:
            return int(text) % n
        except ValueError:
            raise LiteralError(f"expected an integer modulo {n}, got {text!r}") from None

    if tag == "product":
        _, R1, R2 = R.structure
        inner = _strip_outer(text, "(", ")")
        if inner is None:
            raise LiteralError(f"expected a (left,right) pair, got {text!r}")
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise LiteralError(f"expected two components in {text!r}")
        return parse_element(R1, parts[0]) * R2.size + parse_element(R2, parts[1])

    if tag in ("upper", "matrix"):
        _, R0, k = R.structure
        inner = _strip_outer(text, "[", "]")
        if inner is None:
            raise LiteralError(f"expected a [[..],[..]] matrix, got {text!r}")
        rows = _split_top(inner, ",")
        row_entries: list[list[int]] = []
        for row_text in rows:
            row_inner = _strip_outer(row_text, "[", "]")
            if row_inner is None:
                raise LiteralError(f"expected a [..] row, got {row_text.strip()!r}")
            row_entries.append([parse_element(R0, e) for e in _split_top(row_inner, ",")])
        if len(row_entries) != k or any(len(r) != k for r in row_entries):
            raise LiteralError(f"expected a {k}x{k} matrix, got {text!r}")
        if tag == "upper":
            positions = [(r, c) for r in range(k) for c in range(r, k)]
            for r in range(k):
                for c in range(r):
                    if row_entries[r][c] != R0.zero:
                        raise LiteralError(f"entry ({r},{c}) must be zero in an upper-triangular ring")
        else:
            positions = [(r, c) for r in range(k) for c in range(k)]
        idx = 0
        for r, c in positions:
            idx = idx * R0.size + row_entries[r][c]
        return idx

    if tag == "polyquot":
        _, R0, k = R.structure
        coeffs = [R0.zero] * k
        for term in _split_top(text, "+"):
            term = term.strip()
            if not term:
                raise LiteralError(f"empty term in {text!r}")
            m = _TERM_RE.match(term)
            if m:
                power = int(m.group("power") or 1)
                coeff_text = m.group("coeff")
                coeff = R0.one if coeff_text is None else parse_element(R0, coeff_text)
            else:
                power = 0
                coeff = parse_element(R0, term)
            if power >= k:
                raise LiteralError(f"power t^{power} out of range; the ring truncates at t^{k}")
            coeffs[power] = R0.add[coeffs[power]][coeff]
        idx = 0
        for c in coeffs:
            idx = idx * R0.size + c
        return idx

    if tag == "quotient":
        _, host, surjection = R.structure
        inner = _strip_outer(text, "[", "]")
        if inner is not None:
            return surjection[parse_element(host, inner)]
        raise LiteralError(f"expected a [representative] coset literal, got {text!r}")

    if tag in ("subring", "factor"):
        _, host, members = R.structure
        host_idx = parse_element(host, text)
        try:
            return members.index(host_idx)
        except ValueError:
            raise LiteralError(f"element {text!r} lies outside the subring") from None

    if tag == "amalgam":
        am = R.structure[1]
        A, B = am.base, am.target
        inner = _strip_outer(text, "(", ")")
        if inner is None:
            raise LiteralError(f"expected an (a,b) pair, got {text!r}")
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise LiteralError(f"expected two components in {text!r}")
        a = parse_element(A, parts[0])
        b = parse_element(B, parts[1])
        j = B.sub(b, am.hom.map[a])
        members = am.ideal.members
        if j not in members:
            raise LiteralError(f"pair {text!r} is not an element of the amalgam: second component minus the image is outside the ideal")
        return a * len(members) + members.index(j)

    try:
        idx = int(text)
    except ValueError:
        raise LiteralError(f"expected an element index for this ring, got {text!r}") from None
    if not 0 <= idx < R.size:
        raise LiteralError(f"index {idx} out of range for a ring of size {R.size}")
    return idx


def format_element(R: FiniteRing, idx: int) -> str:
    """Canonical display form of an element; inverse of parse_element."""
    return R.label(idx)


# --------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# A '#' followed by a digit is a raw index literal (#k); any other '#' starts a comment.
_COMMENT_RE = re.compile(r"#(?!\d)")


def _diag(diags: list[Diagnostic], line_no: int, col: int, code: str, message: str) -> None:
    diags.append(Diagnostic(line_no, col, code, message))


def _parse_int(token: str) -> Optional[int]:
    try:
        return int(token)
    except ValueError:
        return None


def _brace_body(rest: str) -> Optional[str]:
    rest = rest.strip()
    body = _strip_outer(rest, "{", "}")
    return body


def _parse_options(tokens: list[str], allowed: dict[str, bool]) -> tuple[dict[str, object], Optional[str]]:
    """Parse trailing `key value` option pairs; allowed maps key -> wants int."""
    opts: dict[str, object] = {}
    i = 0
    while i < len(tokens):
        key = tokens[i]
        if key not in allowed:
            return opts, f"unexpected token {key!r}"
        if i + 1 >= len(tokens):
            return opts, f"option {key!r} needs a value"
        value = tokens[i + 1]
        if allowed[key]:
            parsed = _parse_int(value)
            if parsed is None:
                return opts, f"option {key!r} needs an integer, got {value!r}"
            opts[key] = parsed
        else:
            opts[key] = value
        i += 2
    return opts, None


def parse_spec(text: str) -> SpecModel:
    """Parse and elaborate a spec; diagnostics accumulate, parsing never aborts."""
    statements: list[Statement] = []
    diags: list[Diagnostic] = []
    rings: dict[str, FiniteRing] = {}
    ideals: dict[str, Ideal] = {}
    ideal_hosts: dict[str, str] = {}
    homs: dict[str, RingHom] = {}
    amalgams: dict[str, object] = {}

    def defined(name: str) -> bool:
        return name in rings or name in ideals or name in homs or name in amalgams

    def lookup_ring(name: str, line_no: int, col: int) -> Optional[FiniteRing]:
        if name in rings:
            return rings[name]
        if name in amalgams:
            return amalgams[name].ring
        _diag(diags, line_no, col, "UNRESOLVED_NAME", f"no ring or amalgam named {name!r}")
        return None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, 1)[0].rstrip()
        if not line.strip():
            continue
        col0 = len(line) - len(line.lstrip()) + 1
        tokens = line.split()
        head = tokens[0]

        if head == "ring":
            m = re.match(r"^\s*ring\s+(\S+)\s*=\s*(.+)$", line)
            if not m:
                _diag(diags, line_no, col0, "SYNTAX", "expected: ring NAME = CONSTRUCTOR args")
                continue
            name, rhs = m.group(1), m.group(2).strip()
            if not _NAME_RE.match(name):
                _diag(diags, line_no, line.find(name) + 1, "SYNTAX", f"bad name {name!r}")
                continue
            if defined(name):
                _diag(diags, line_no, line.find(name) + 1, "DUPLICATE_NAME", f"{name!r} is already bound")
                continue
            decl, ring = _parse_ring_rhs(name, rhs, rings, diags, line_no, line.find(rhs) + 1)
            if decl is not None:
                statements.append(decl)
            if ring is not None:
                rings[name] = ring

        elif head == "ideal":
            m = re.match(r"^\s*ideal\s+(\S+)\s+of\s+(\S+)\s*=\s*generated\s*(\{.*\})\s*$", line)
            if not m:
                _diag(diags, line_no, col0, "SYNTAX", "expected: ideal NAME of RING = generated { elems }")
                continue
            name, host_name, braces = m.groups()
            if defined(name):
                _diag(diags, line_no, line.find(name) + 1, "DUPLICATE_NAME", f"{name!r} is already bound")
                continue
            host = lookup_ring(host_name, line_no, line.find(host_name) + 1)
            if host is None:
                continue
            body = _brace_body(braces)
            if body is None:
                _diag(diags, line_no, line.find("{") + 1, "SYNTAX", "expected { elem, ... }")
                continue
            gen_texts = [g.strip() for g in _split_top(body, ",") if g.strip()] if body.strip() else []
            gen_indices = []
            bad = False
            for g in gen_texts:
                try:
                    gen_indices.append(parse_element(host, g))
                except LiteralError as exc:
                    _diag(diags, line_no, line.find(g) + 1, "CONSTRAINT", str(exc))
                    bad = True
            if bad:
                continue
            ideal = generated_ideal(host, gen_indices)
            ideals[name] = ideal
            ideal_hosts[name] = host_name
            statements.append(
                IdealDecl(name, host_name, tuple(format_element(host, g) for g in gen_indices))
            )

        elif head == "hom":
            m = re.match(r"^\s*hom\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*=\s*(.+)$", line)
            if not m:
                _diag(diags, line_no, col0, "SYNTAX", "expected: hom NAME : A -> B = canonical | map { x -> y, ... }")
                continue
            name, dom_name, cod_name, rhs = m.groups()
            if defined(name):
                _diag(diags, line_no, line.find(name) + 1, "DUPLICATE_NAME", f"{name!r} is already bound")
                continue
            dom = lookup_ring(dom_name, line_no, line.find(dom_name) + 1)
            cod = lookup_ring(cod_name, line_no, line.find(cod_name) + 1)
            if dom is None or cod is None:
                continue
            rhs = rhs.strip()
            if rhs == "canonical":
                if dom is cod:
                    hom = RingHom(dom, cod, tuple(range(dom.size)))
                else:
                    try:
                        candidates = enumerate_homs(dom, cod)
                    except SearchBudgetError as exc:
                        _diag(diags, line_no, line.find(rhs) + 1, "CONSTRAINT", str(exc))
                        continue
                    if len(candidates) != 1:
                        _diag(
                            diags, line_no, line.find(rhs) + 1, "CONSTRAINT",
                            f"canonical needs exactly one homomorphism {dom_name} -> {cod_name}, found {len(candidates)}",
                        )
                        continue
                    hom = candidates[0]
                homs[name] = hom
                statements.append(HomDecl(name, dom_name, cod_name, "canonical"))
            elif rhs.startswith("map"):
                body = _brace_body(rhs[3:])
                if body is None:
                    _diag(diags, line_no, line.find("map") + 1, "SYNTAX", "expected map { x -> y, ... }")
                    continue
                pairs = []
                bad = False
                for pair_text in _split_top(body, ","):
                    pair_text = pair_text.strip()
                    if not pair_text:
                        continue
                    sides = pair_text.split("->")
                    if len(sides) != 2:
                        _diag(diags, line_no, line.find(pair_text) + 1, "SYNTAX", f"expected x -> y, got {pair_text!r}")
                        bad = True
                        break
                    try:
                        x = parse_element(dom, sides[0])
                        y = parse_element(cod, sides[1])
                    except LiteralError as exc:
                        _diag(diags, line_no, line.find(pair_text) + 1, "CONSTRAINT", str(exc))
                        bad = True
                        break
                    pairs.append((x, y))
                if bad:
                    continue
                amap = {dom.zero: cod.zero, dom.one: cod.one}
                for x, y in pairs:
                    if amap.get(x, y) != y:
                        _diag(diags, line_no, col0, "CONSTRAINT", f"conflicting images for element {format_element(dom, x)}")
                        bad = True
                        break
                    amap[x] = y
                if bad:
                    continue
                closed = _propagate(dom, cod, amap)
                if closed is None:
                    _diag(diags, line_no, col0, "CONSTRAINT", "the given images are inconsistent with + and *")
                    continue
                missing = [x for x in range(dom.size) if x not in closed]
                if missing:
                    _diag(
                        diags, line_no, col0, "CONSTRAINT",
                        f"the map does not determine the image of {format_element(dom, missing[0])}; add a mapping for it",
                    )
                    continue
                try:
                    homs[name] = RingHom(dom, cod, tuple(closed[x] for x in range(dom.size)))
                except NotAHomError as exc:
                    v = exc.violation
                    _diag(diags, line_no, col0, "CONSTRAINT", f"the completed map is not a homomorphism: breaks {v.law} at {v.witness}")
                    continue
                statements.append(
                    HomDecl(
                        name, dom_name, cod_name, "map",
                        tuple((format_element(dom, x), format_element(cod, y)) for x, y in pairs),
                    )
                )
            else:
                _diag(diags, line_no, line.find(rhs) + 1, "UNKNOWN_CONSTRUCTOR", f"expected canonical or map, got {rhs.split()[0]!r}")

        elif head == "amalgam":
            m = re.match(r"^\s*amalgam\s+(\S+)\s*=\s*(\S+)\s+join\s+(\S+)\s+(\S+)\s*$", line)
            if not m:
                _diag(diags, line_no, col0, "SYNTAX", "expected: amalgam NAME = BASE join HOM IDEAL")
                continue
            name, base_name, hom_name, ideal_name = m.groups()
            if defined(name):
                _diag(diags, line_no, line.find(name) + 1, "DUPLICATE_NAME", f"{name!r} is already bound")
                continue
            if hom_name not in homs:
                _diag(diags, line_no, line.find(hom_name) + 1, "UNRESOLVED_NAME", f"no homomorphism named {hom_name!r}")
                continue
            if ideal_name not in ideals:
                _diag(diags, line_no, line.find(ideal_name) + 1, "UNRESOLVED_NAME", f"no ideal named {ideal_name!r}")
                continue
            hom = homs[hom_name]
            ideal = ideals[ideal_name]
            base = lookup_ring(base_name, line_no, line.find(base_name) + 1)
            if base is None:
                continue
            if hom.domain is not base:
                _diag(diags, line_no, line.find(hom_name) + 1, "CONSTRAINT", f"{hom_name!r} does not start at {base_name!r}")
                continue
            if ideal.host is not hom.codomain:
                _diag(diags, line_no, line.find(ideal_name) + 1, "CONSTRAINT", f"{ideal_name!r} does not live in the codomain of {hom_name!r}")
                continue
            if not ideal.proper:
                _diag(diags, line_no, line.find(ideal_name) + 1, "CONSTRAINT", "amalgamation needs a proper ideal")
                continue
            amalgams[name] = amalgamation(hom, ideal)
            statements.append(AmalgamDecl(name, base_name, hom_name, ideal_name))

        elif head == "check":
            rest = tokens[1:]
            if len(rest) < 2:
                _diag(diags, line_no, col0, "ARITY", "expected: check TARGET PROPERTY [degree INT] [assert holds|refuted]")
                continue
            target, prop = rest[0], rest[1]
            if prop not in PROPS:
                _diag(diags, line_no, line.find(prop) + 1, "UNKNOWN_CONSTRUCTOR", f"unknown property {prop!r}; expected one of {', '.join(PROPS)}")
                continue
            if lookup_ring(target, line_no, line.find(target) + 1) is None:
                continue
            opts, err = _parse_options(rest[2:], {"degree": True, "assert": False})
            if err:
                _diag(diags, line_no, col0, "SYNTAX", err)
                continue
            assertion = opts.get("assert")
            if assertion is not None and assertion not in ("holds", "refuted"):
                _diag(diags, line_no, col0, "SYNTAX", f"assert takes holds or refuted, got {assertion!r}")
                continue
            statements.append(CheckDirective(target, prop, opts.get("degree"), assertion))

        elif head == "harness":
            opts, err = _parse_options(tokens[1:], {"degree": True})
            if err:
                _diag(diags, line_no, col0, "SYNTAX", err)
                continue
            statements.append(HarnessDirective(opts.get("degree")))

        elif head == "search":
            rest = tokens[1:]
            if not rest:
                _diag(diags, line_no, col0, "ARITY", "expected: search GOAL [degree INT] [max-size INT]")
                continue
            goal = rest[0]
            if goal not in GOALS:
                _diag(diags, line_no, line.find(goal) + 1, "UNKNOWN_CONSTRUCTOR", f"unknown goal {goal!r}; expected one of {', '.join(GOALS)}")
                continue
            opts, err = _parse_options(rest[1:], {"degree": True, "max-size": True})
            if err:
                _diag(diags, line_no, col0, "SYNTAX", err)
                continue
            statements.append(SearchDirective(goal, opts.get("degree"), opts.get("max-size")))

        else:
            _diag(diags, line_no, col0, "SYNTAX", f"unknown statement {head!r}")

    return SpecModel(
        statements=tuple(statements),
        diagnostics=tuple(diags),
        rings=rings,
        ideals=ideals,
        homs=homs,
        amalgams=amalgams,
    )


def _parse_ring_rhs(
    name: str,
    rhs: str,
    rings: dict[str, FiniteRing],
    diags: list[Diagnostic],
    line_no: int,
    col: int,
) -> tuple[Optional[RingDecl], Optional[FiniteRing]]:
    m0 = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(.*)$", rhs)
    if not m0:
        _diag(diags, line_no, col, "SYNTAX", f"expected a constructor, got {rhs!r}")
        return None, None
    ctor, rest = m0.group(1), m0.group(2).strip()

    if ctor == "zmod":
        n = _parse_int(rest)
        if n is None:
            _diag(diags, line_no, col, "ARITY", "zmod needs one integer argument")
            return None, None
        try:
            return RingDecl(name, "zmod", (n,)), zmod(n)
        except ValueError as exc:
            _diag(diags, line_no, col, "CONSTRAINT", str(exc))
            return None, None

    if ctor in ("product", "upper", "matrix", "polyquot"):
        inner = _strip_outer(rest, "(", ")")
        if inner is None:
            _diag(diags, line_no, col, "SYNTAX", f"{ctor} needs parenthesized arguments")
            return None, None
        parts = [p.strip() for p in _split_top(inner, ",")]
        if len(parts) != 2:
            _diag(diags, line_no, col, "ARITY", f"{ctor} needs exactly two arguments")
            return None, None
        first = rings.get(parts[0])
        if first is None:
            _diag(diags, line_no, col, "UNRESOLVED_NAME", f"no ring named {parts[0]!r}")
            return None, None
        if ctor == "product":
            second = rings.get(parts[1])
            if second is None:
                _diag(diags, line_no, col, "UNRESOLVED_NAME", f"no ring named {parts[1]!r}")
                return None, None
            return RingDecl(name, "product", (parts[0], parts[1])), direct_product(first, second)
        k = _parse_int(parts[1])
        if k is None:
            _diag(diags, line_no, col, "ARITY", f"{ctor} needs a ring name and an integer")
            return None, None
        try:
            builder = {"upper": upper_triangular, "matrix": matrix_ring, "polyquot": poly_quotient}[ctor]
            return RingDecl(name, ctor, (parts[0], k)), builder(first, k)
        except ValueError as exc:
            _diag(diags, line_no, col, "CONSTRAINT", str(exc))
            return None, None

    if ctor == "table":
        body = _brace_body(rest)
        if body is None:
            _diag(diags, line_no, col, "SYNTAX", "table needs { add = [[..],..] mul = [[..],..] }")
            return None, None
        m = re.match(r"^\s*add\s*=\s*(\[.*\])\s*[,;]?\s*mul\s*=\s*(\[.*\])\s*$", body)
        if not m:
            _diag(diags, line_no, col, "SYNTAX", "table body must be: add = [[..],..] mul = [[..],..]")
            return None, None
        try:
            add = _parse_int_matrix(m.group(1))
            mul = _parse_int_matrix(m.group(2))
        except LiteralError as exc:
            _diag(diags, line_no, col, "SYNTAX", str(exc))
            return None, None
        try:
            ring = FiniteRing.from_tables(add, mul, provenance=f"table({name})")
        except InvalidRingError as exc:
            _diag(diags, line_no, col, "CONSTRAINT", f"tables break a ring axiom: {exc.violation.law.value} at {exc.violation.witness}")
            return None, None
        return RingDecl(name, "table", (add, mul)), ring

    _diag(diags, line_no, col, "UNKNOWN_CONSTRUCTOR", f"unknown ring constructor {ctor!r}")
    return None, None


def _parse_int_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    inner = _strip_outer(text, "[", "]")
    if inner is None:
        raise LiteralError(f"expected [[..],[..]], got {text!r}")
    rows = []
    for row_text in _split_top(inner, ","):
        row_inner = _strip_outer(row_text, "[", "]")
        if row_inner is None:
            raise LiteralError(f"expected a [..] row, got {row_text.strip()!r}")
        row = []
        for entry in _split_top(row_inner, ","):
            v = _parse_int(entry.strip())
            if v is None:
                raise LiteralError(f"expected an integer, got {entry.strip()!r}")
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


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
