"""Constructors for the ring catalog: modular, product, matrix, truncated
polynomial, quotient, subring, and amalgamated rings."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import SizeBudgetError
from .morphisms import Ideal, RingHom, identity_hom
from .rings import FiniteRing, induced_ring, ring_closure

__all__ = [
    "DEFAULT_SIZE_BUDGET",
    "Embedding",
    "AmalgamRing",
    "zmod",
    "direct_product",
    "upper_triangular",
    "matrix_ring",
    "poly_quotient",
    "quotient_ring",
    "subring_closure",
    "f_plus_j",
    "amalgamation",
    "duplication",
    "embedding_into_product",
]

DEFAULT_SIZE_BUDGET = 256


def _check_budget(size: int, what: str) -> None:
    if size > DEFAULT_SIZE_BUDGET:
        raise SizeBudgetError(f"{what} would have {size} elements, budget is {DEFAULT_SIZE_BUDGET}")


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n, for n >= 2."""
    if n < 2:
        raise ValueError(f"zmod needs n >= 2, got {n}")
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteRing.from_tables(
        add, mul, labels=[str(i) for i in range(n)], provenance=f"zmod({n})", structure=("zmod", n)
    )


def _componentwise(tables: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """The componentwise operation on tuples whose i-th entry is an index
    into tables[i], with tuples indexed lexicographically."""
    out: list[list[int]] = [[0]]
    for T in tables:
        m = len(T)
        out = [[u * m + v for u in row for v in T[a]] for row in out for a in range(m)]
    return tuple(map(tuple, out))


def direct_product(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """Componentwise product ring; element (r, s) is encoded as r*|S| + s."""
    _check_budget(R.size * S.size, "direct product")
    return FiniteRing.from_tables(
        _componentwise((R.add, S.add)),
        _componentwise((R.mul, S.mul)),
        labels=[f"({R.label(r)},{S.label(s)})" for r in range(R.size) for s in range(S.size)],
        provenance=f"product({R.provenance},{S.provenance})",
        structure=("product", R, S),
    )


def _tuple_ring(
    R: FiniteRing,
    width: int,
    mul: Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]],
    label: Callable[[tuple[int, ...]], str],
    what: str,
    provenance: str,
    structure: tuple,
) -> FiniteRing:
    """The ring on width-tuples over R, added componentwise and multiplied by mul.

    Tuples are indexed lexicographically, as base-|R| digits.
    """
    _check_budget(R.size**width, what)
    tuples = list(itertools.product(range(R.size), repeat=width))
    index = {t: i for i, t in enumerate(tuples)}
    return FiniteRing.from_tables(
        _componentwise((R.add,) * width),
        [[index[mul(x, y)] for y in tuples] for x in tuples],
        labels=[label(t) for t in tuples],
        provenance=provenance,
        structure=structure,
    )


def _matrix_like(
    R: FiniteRing,
    k: int,
    positions: list[tuple[int, int]],
    provenance: str,
    structure: tuple,
) -> FiniteRing:
    """Shared builder for full and upper-triangular matrix rings over R.

    positions lists the free (row, col) slots in row-major order; all other
    entries are fixed at zero.  An element is the tuple of its free entries.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    zero, addR, mulR = R.zero, R.add, R.mul
    free = set(positions)

    def square(x: tuple[int, ...]) -> list[list[int]]:
        m = [[zero] * k for _ in range(k)]
        for (r, c), d in zip(positions, x):
            m[r][c] = d
        return m

    def mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        a, b = square(x), square(y)
        p = {}
        for r in range(k):
            for c in range(k):
                acc = zero
                for t in range(k):
                    acc = addR[acc][mulR[a[r][t]][b[t][c]]]
                if acc != zero and (r, c) not in free:
                    raise ValueError("product left the configured matrix shape")
                p[r, c] = acc
        return tuple(p[rc] for rc in positions)

    def label(x: tuple[int, ...]) -> str:
        rows = ",".join("[" + ",".join(R.label(v) for v in row) + "]" for row in square(x))
        return f"[{rows}]"

    return _tuple_ring(R, len(positions), mul, label, provenance, provenance, structure)


def upper_triangular(R: FiniteRing, k: int) -> FiniteRing:
    """Upper-triangular k x k matrices over R; |R|**(k(k+1)/2) elements."""
    positions = [(r, c) for r in range(k) for c in range(r, k)]
    return _matrix_like(R, k, positions, f"upper({R.provenance},{k})", ("upper", R, k))


def matrix_ring(R: FiniteRing, k: int) -> FiniteRing:
    """Full k x k matrices over R; |R|**(k*k) elements."""
    positions = [(r, c) for r in range(k) for c in range(k)]
    return _matrix_like(R, k, positions, f"matrix({R.provenance},{k})", ("matrix", R, k))


def poly_quotient(R: FiniteRing, k: int) -> FiniteRing:
    """R[t] modulo t**k, as coefficient tuples (c0, ..., c_{k-1})."""
    if k < 1:
        raise ValueError("truncation order must be at least 1")
    zero, addR, mulR = R.zero, R.add, R.mul

    def mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        p = [zero] * k
        for i, a in enumerate(x):
            if a != zero:
                for j, b in enumerate(y[: k - i]):
                    p[i + j] = addR[p[i + j]][mulR[a][b]]
        return tuple(p)

    def label(coeffs: tuple[int, ...]) -> str:
        terms = []
        for i, c in enumerate(coeffs):
            if c == zero:
                continue
            base = R.label(c)
            if i == 0:
                terms.append(base)
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == R.one else f"{base} {t}")
        return " + ".join(terms) if terms else R.label(zero)

    return _tuple_ring(
        R, k, mul, label, "polynomial quotient", f"polyquot({R.provenance},{k})", ("polyquot", R, k)
    )


def quotient_ring(R: FiniteRing, I: Ideal) -> tuple[FiniteRing, tuple[int, ...]]:
    """R modulo a two-sided ideal, with the index-level surjection R -> R/I.

    Cosets are represented by their smallest member and ordered by that
    representative, so the zero coset is always index 0.  Tables are
    well-defined because I absorbs on both sides, so the axiom scan is skipped.
    """
    if I.host is not R:
        raise ValueError("ideal lives in a different ring")
    members = I.members
    add = R.add
    coset_rep: dict[int, int] = {}
    for x in range(R.size):
        if x in coset_rep:
            continue
        coset = sorted(add[x][i] for i in members)
        rep = coset[0]
        for y in coset:
            coset_rep[y] = rep
    reps = sorted(set(coset_rep.values()))
    rep_index = {rep: i for i, rep in enumerate(reps)}
    surjection = tuple(rep_index[coset_rep[x]] for x in range(R.size))
    Q = induced_ring(
        R,
        reps,
        surjection,
        R.one,
        labels=[f"[{R.label(rep)}]" for rep in reps],
        provenance=f"quotient({R.provenance} / {len(members)})",
        structure=("quotient", R, surjection),
    )
    return Q, surjection


@dataclass(frozen=True)
class Embedding:
    """A unital subring of a host ring: its sorted host members and the
    re-indexed ring, whose identity is the host's."""

    host: FiniteRing
    members: tuple[int, ...]
    ring: FiniteRing

    def sub_index(self, host_idx: int) -> int:
        try:
            return self.members.index(host_idx)
        except ValueError:
            raise ValueError(f"element {host_idx} is not in the subring") from None


def _build_embedding(R: FiniteRing, members: tuple[int, ...], provenance: str) -> Embedding:
    """Re-index a member set that holds R's identity and is closed under the operations."""
    pos = {x: i for i, x in enumerate(members)}
    ring = induced_ring(R, members, pos, R.one, provenance=provenance, structure=("subring", R, members))
    return Embedding(host=R, members=members, ring=ring)


def subring_closure(R: FiniteRing, seed: Iterable[int]) -> Embedding:
    """The smallest unital subring of R containing the seed."""
    members = tuple(sorted(ring_closure(R, {R.one, *seed})))
    return _build_embedding(R, members, f"subring({R.provenance})")


def f_plus_j(f: RingHom, J: Ideal) -> Embedding:
    """The subring f(A) + J of the codomain; it contains 1 = f(1) + 0."""
    if J.host is not f.codomain:
        raise ValueError("ideal must live in the codomain of the homomorphism")
    B = f.codomain
    members = tuple(sorted({B.add[f.map[a]][j] for a in range(f.domain.size) for j in J.members}))
    return _build_embedding(B, members, f"faj({f.domain.provenance}->{B.provenance})")


@dataclass(frozen=True)
class AmalgamRing:
    """The amalgamation of A with the ideal J along f: pairs (a, f(a) + j).

    decode maps each element index to (a, b) with a in A and b = f(a) + j in B;
    it is the only element map: the j summand is b - f(a).
    """

    ring: FiniteRing
    hom: RingHom
    ideal: Ideal
    decode: tuple[tuple[int, int], ...]

    @property
    def base(self) -> FiniteRing:
        return self.hom.domain

    @property
    def target(self) -> FiniteRing:
        return self.hom.codomain


def amalgamation(f: RingHom, J: Ideal) -> AmalgamRing:
    """Construct A joined with J along f inside A x B.

    Elements are indexed as a * |J| + (position of j in J.members); the
    second coordinate stored in decode is the full B-part f(a) + j.
    """
    if J.host is not f.codomain:
        raise ValueError("ideal must live in the codomain of the homomorphism")
    if not J.proper:
        raise ValueError("amalgamation requires a proper ideal")
    A = f.domain
    B = f.codomain
    members = J.members
    nj = len(members)
    n = A.size * nj
    _check_budget(n, "amalgamation")
    jpos = {j: p for p, j in enumerate(members)}
    addB, mulA, mulB = B.add, A.mul, B.mul
    fmap = f.map
    decode = tuple((a, addB[fmap[a]][j]) for a in range(A.size) for j in members)
    minus_f = [B.neg[b] for b in fmap]
    mul_rows = []
    for a1, b1 in decode:
        row_a, row_b = mulA[a1], mulB[b1]
        mul_rows.append(tuple(row_a[a2] * nj + jpos[addB[row_b[b2]][minus_f[row_a[a2]]]] for a2, b2 in decode))
    ring = FiniteRing(
        size=n,
        add=_componentwise((A.add, [[jpos[addB[x][y]] for y in members] for x in members])),
        mul=tuple(mul_rows),
        zero=A.zero * nj + jpos[B.zero],
        one=A.one * nj + jpos[B.zero],
        labels=tuple(f"({A.label(a)},{B.label(b)})" for a, b in decode),
        provenance=f"amalgam({A.provenance}, {B.provenance}, |J|={nj})",
    )
    am = AmalgamRing(ring=ring, hom=f, ideal=J, decode=decode)
    object.__setattr__(ring, "structure", ("amalgam", am))
    return am


def duplication(R: FiniteRing, I: Ideal) -> AmalgamRing:
    """Amalgamated duplication: the amalgamation of R with I along the identity."""
    return amalgamation(identity_hom(R), I)


def embedding_into_product(am: AmalgamRing) -> Embedding:
    """The amalgam as a subring of the direct product A x B, for cross-checks."""
    A, B = am.base, am.target
    P = direct_product(A, B)
    members = tuple(sorted(a * B.size + b for a, b in am.decode))
    return _build_embedding(P, members, f"subring({P.provenance})")
