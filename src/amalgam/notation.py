"""Element literals, written and read from R.structure alone: integers mod n,
(a,b) pairs for products and amalgams, [[..],[..]] rows for matrix shapes,
c0 + c1 t + ... for truncated polynomials, [r] for quotient cosets, the host's
notation for subrings and factors, and the bare index for any other ring."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from .rings import FiniteRing

__all__ = ["LiteralError", "matrix_slots", "parse_element", "format_element"]


class LiteralError(ValueError):
    pass


def matrix_slots(tag: str, k: int) -> list[tuple[int, int]]:
    """The free (row, col) slots of a k x k "upper" or "matrix" ring, row-major;
    an element is the tuple of its entries there, read as base-|R| digits."""
    return [(r, c) for r in range(k) for c in range(r if tag == "upper" else 0, k)]


def _digits(idx: int, base: int, width: int) -> list[int]:
    """idx as width base-`base` digits, most significant first."""
    out = [0] * width
    for i in range(width - 1, -1, -1):
        idx, out[i] = divmod(idx, base)
    return out


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


def _parse_rows(text: str, entry: Callable[[str], int], shape: str) -> tuple[tuple[int, ...], ...]:
    """The entries of a [[..],[..]] row list, each read by entry; shape names
    the expected form in the error for text that is not one bracketed list."""
    inner = _strip_outer(text, "[", "]")
    if inner is None:
        raise LiteralError(f"expected {shape}, got {text!r}")
    rows = []
    for row_text in _split_top(inner, ","):
        row_inner = _strip_outer(row_text, "[", "]")
        if row_inner is None:
            raise LiteralError(f"expected a [..] row, got {row_text.strip()!r}")
        rows.append(tuple(entry(e) for e in _split_top(row_inner, ",")))
    return tuple(rows)


_TERM_RE = re.compile(r"^(?:(?P<coeff>.+?)\s*)?\bt(?:\^(?P<power>\d+))?$")


def _pair(text: str, shape: str) -> list[str]:
    """The two components of an (x,y) literal; shape names it in the error."""
    inner = _strip_outer(text, "(", ")")
    if inner is None:
        raise LiteralError(f"expected {shape} pair, got {text!r}")
    parts = _split_top(inner, ",")
    if len(parts) != 2:
        raise LiteralError(f"expected two components in {text!r}")
    return parts


def parse_element(R: FiniteRing, text: str) -> int:
    """Parse an element literal in the ring's native notation into its index.

    Besides the notation of the ring's construction, the universal escape #k
    names the raw element index k.
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
        left, right = _pair(text, "a (left,right)")
        return parse_element(R1, left) * R2.size + parse_element(R2, right)

    if tag in ("upper", "matrix"):
        _, R0, k = R.structure
        row_entries = _parse_rows(text, lambda e: parse_element(R0, e), "a [[..],[..]] matrix")
        if len(row_entries) != k or any(len(r) != k for r in row_entries):
            raise LiteralError(f"expected a {k}x{k} matrix, got {text!r}")
        slots = matrix_slots(tag, k)
        for r in range(k):
            for c in range(k):
                if row_entries[r][c] != R0.zero and (r, c) not in slots:
                    raise LiteralError(f"entry ({r},{c}) must be zero in an upper-triangular ring")
        idx = 0
        for r, c in slots:
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
            power, coeff_text = (int(m.group("power") or 1), m.group("coeff")) if m else (0, term)
            # format_element puts a coefficient that holds t or + in parentheses; a pair keeps its own.
            inner = _strip_outer(coeff_text or "", "(", ")")
            if inner is not None and len(_split_top(inner, ",")) == 1:
                coeff_text = inner
            coeff = R0.one if coeff_text is None else parse_element(R0, coeff_text)
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
        left, right = _pair(text, "an (a,b)")
        a, b = parse_element(am.base, left), parse_element(am.target, right)
        j = am.target.sub(b, am.hom.map[a])
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
    """Canonical display form of an element; inverse of parse_element.

    A quotient coset is written by its least member, an amalgam element as
    the pair (a, f(a) + j) that its decode gives.
    """
    tag = R.structure[0] if R.structure else None

    if tag == "product":
        _, R1, R2 = R.structure
        a, b = divmod(idx, R2.size)
        return f"({format_element(R1, a)},{format_element(R2, b)})"

    if tag in ("upper", "matrix"):
        _, R0, k = R.structure
        slots = matrix_slots(tag, k)
        entry = dict(zip(slots, _digits(idx, R0.size, len(slots))))
        rows = (",".join(format_element(R0, entry.get((r, c), R0.zero)) for c in range(k)) for r in range(k))
        return "[" + ",".join(f"[{row}]" for row in rows) + "]"

    if tag == "polyquot":
        _, R0, k = R.structure
        terms = []
        for i, c in enumerate(_digits(idx, R0.size, k)):
            if c == R0.zero:
                continue
            base = format_element(R0, c)
            if ("t" in base or "+" in base) and _strip_outer(base, "(", ")") is None and _strip_outer(base, "[", "]") is None:
                base = f"({base})"
            if i == 0:
                terms.append(base)
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == R0.one else f"{base} {t}")
        return " + ".join(terms) if terms else format_element(R0, R0.zero)

    if tag == "quotient":
        _, host, surjection = R.structure
        return f"[{format_element(host, surjection.index(idx))}]"

    if tag in ("subring", "factor"):
        _, host, members = R.structure
        return format_element(host, members[idx])

    if tag == "amalgam":
        am = R.structure[1]
        a, b = am.decode[idx]
        return f"({format_element(am.base, a)},{format_element(am.target, b)})"

    return str(idx)
