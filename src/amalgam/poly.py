"""Dense polynomials over a finite ring, indexed by coefficient position."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import HostMismatchError
from .rings import FiniteRing

__all__ = [
    "Polynomial",
    "poly_add",
    "poly_mul",
    "enumerate_polys",
    "format_poly",
]


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Coefficient tuple over a host ring; coeffs[i] multiplies x**i."""

    host: FiniteRing
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        n = self.host.size
        for c in self.coeffs:
            if not (0 <= c < n):
                raise ValueError(f"coefficient {c} out of range for ring of size {n}")

    def degree(self) -> Optional[int]:
        """Largest i with coeffs[i] nonzero, or None for the zero polynomial."""
        zero = self.host.zero
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != zero:
                return i
        return None

    def is_zero(self) -> bool:
        return self.degree() is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.host is other.host and _strip(self) == _strip(other)

    def __hash__(self) -> int:
        return hash((id(self.host), _strip(self)))

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


def _strip(f: Polynomial) -> tuple[int, ...]:
    d = f.degree()
    return f.coeffs[: d + 1] if d is not None else ()


def _check_hosts(f: Polynomial, g: Polynomial) -> FiniteRing:
    if f.host is not g.host:
        raise HostMismatchError("polynomials over different host rings")
    return f.host


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficient-wise sum, padded to the longer length."""
    R = _check_hosts(f, g)
    add = R.add
    zero = R.zero
    m = max(len(f.coeffs), len(g.coeffs))
    fc = f.coeffs + (zero,) * (m - len(f.coeffs))
    gc = g.coeffs + (zero,) * (m - len(g.coeffs))
    return Polynomial(R, tuple(add[a][b] for a, b in zip(fc, gc)))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Convolution product; result length is len(f) + len(g) - 1 exactly."""
    R = _check_hosts(f, g)
    add = R.add
    mul = R.mul
    zero = R.zero
    out = [zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a == zero:
            continue
        row = mul[a]
        for j, b in enumerate(g.coeffs):
            k = i + j
            out[k] = add[out[k]][row[b]]
    return Polynomial(R, tuple(out))


def enumerate_polys(R: FiniteRing, d: int) -> Iterator[Polynomial]:
    """All coefficient tuples of length d+1 in lexicographic order, zero first."""
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    n = R.size
    coeffs = [0] * (d + 1)
    while True:
        yield Polynomial(R, tuple(coeffs))
        pos = d
        while pos >= 0 and coeffs[pos] == n - 1:
            coeffs[pos] = 0
            pos -= 1
        if pos < 0:
            return
        coeffs[pos] += 1


def _wrap(label: str) -> str:
    if any(ch in label for ch in "+ ,"):
        return f"({label})"
    return label


def format_poly(f: Polynomial) -> str:
    """Render with element labels, e.g. 'c0 + c1*x + c2*x^2'; zero terms are dropped."""
    R = f.host
    zero = R.zero
    terms = []
    for i, c in enumerate(f.coeffs):
        if c == zero:
            continue
        lab = _wrap(R.label(c))
        if i == 0:
            terms.append(lab)
        elif i == 1:
            terms.append(f"{lab}*x")
        else:
            terms.append(f"{lab}*x^{i}")
    if not terms:
        return R.label(zero)
    return " + ".join(terms)
