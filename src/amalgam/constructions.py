"""Constructors for the ring catalog: modular, product, matrix, truncated
polynomial, quotient, subring, and amalgamated rings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SizeBudgetError
from .morphisms import Ideal, RingHom, identity_hom
from .rings import FiniteRing, ring_closure

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


def direct_product(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """Componentwise product ring; element (r, s) is encoded as r*|S| + s."""
    n = R.size * S.size
    _check_budget(n, "direct product")
    ns = S.size
    add = []
    mul = []
    for r in range(R.size):
        for s in range(ns):
            add_row = []
            mul_row = []
            addR, mulR = R.add[r], R.mul[r]
            addS, mulS = S.add[s], S.mul[s]
            for r2 in range(R.size):
                base_a = addR[r2] * ns
                base_m = mulR[r2] * ns
                for s2 in range(ns):
                    add_row.append(base_a + addS[s2])
                    mul_row.append(base_m + mulS[s2])
            add.append(tuple(add_row))
            mul.append(tuple(mul_row))
    labels = [f"({R.label(r)},{S.label(s)})" for r in range(R.size) for s in range(S.size)]
    return FiniteRing.from_tables(
        tuple(add),
        tuple(mul),
        labels=labels,
        provenance=f"product({R.provenance},{S.provenance})",
        structure=("product", R, S),
    )


def _tuple_to_index(entries: Sequence[int], radix: int) -> int:
    idx = 0
    for e in entries:
        idx = idx * radix + e
    return idx


def _index_to_tuple(idx: int, radix: int, width: int) -> tuple[int, ...]:
    out = [0] * width
    for pos in range(width - 1, -1, -1):
        out[pos] = idx % radix
        idx //= radix
    return tuple(out)


def _matrix_like(
    R: FiniteRing,
    k: int,
    positions: list[tuple[int, int]],
    provenance: str,
    structure: tuple,
) -> FiniteRing:
    """Shared builder for full and upper-triangular matrix rings over R.

    positions lists the free (row, col) slots in row-major order; all other
    entries are fixed at zero.  The element index encodes the free entries as
    base-|R| digits in that order.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    width = len(positions)
    n = R.size**width
    _check_budget(n, provenance)
    pos_index = {p: i for i, p in enumerate(positions)}
    zero = R.zero
    addR = R.add
    mulR = R.mul

    def decode(idx: int) -> list[list[int]]:
        digits = _index_to_tuple(idx, R.size, width)
        m = [[zero] * k for _ in range(k)]
        for (r, c), d in zip(positions, digits):
            m[r][c] = d
        return m

    def encode(m: Sequence[Sequence[int]]) -> int:
        return _tuple_to_index([m[r][c] for (r, c) in positions], R.size)

    mats = [decode(i) for i in range(n)]
    add = []
    mul = []
    for x in mats:
        add_row = []
        mul_row = []
        for y in mats:
            s = [[addR[x[r][c]][y[r][c]] for c in range(k)] for r in range(k)]
            add_row.append(encode(s))
            p = [[zero] * k for _ in range(k)]
            for r in range(k):
                for c in range(k):
                    acc = zero
                    for t in range(k):
                        acc = addR[acc][mulR[x[r][t]][y[t][c]]]
                    p[r][c] = acc
            if any(p[r][c] != zero and (r, c) not in pos_index for r in range(k) for c in range(k)):
                raise ValueError("product left the configured matrix shape")
            mul_row.append(encode(p))
        add.append(tuple(add_row))
        mul.append(tuple(mul_row))

    def fmt(m: Sequence[Sequence[int]]) -> str:
        rows = ",".join("[" + ",".join(R.label(v) for v in row) + "]" for row in m)
        return f"[{rows}]"

    labels = [fmt(m) for m in mats]
    return FiniteRing.from_tables(
        tuple(add), tuple(mul), labels=labels, provenance=provenance, structure=structure
    )


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
    width = k
    n = R.size**width
    _check_budget(n, "polynomial quotient")
    addR, mulR = R.add, R.mul
    zero = R.zero
    tuples = [_index_to_tuple(i, R.size, width) for i in range(n)]
    add = []
    mul = []
    for x in tuples:
        add_row = []
        mul_row = []
        for y in tuples:
            s = tuple(addR[a][b] for a, b in zip(x, y))
            add_row.append(_tuple_to_index(s, R.size))
            p = [zero] * width
            for i, a in enumerate(x):
                if a == zero:
                    continue
                for j, b in enumerate(y):
                    if i + j < width:
                        p[i + j] = addR[p[i + j]][mulR[a][b]]
            mul_row.append(_tuple_to_index(p, R.size))
        add.append(tuple(add_row))
        mul.append(tuple(mul_row))

    def fmt(coeffs: tuple[int, ...]) -> str:
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

    labels = [fmt(t) for t in tuples]
    return FiniteRing.from_tables(
        tuple(add),
        tuple(mul),
        labels=labels,
        provenance=f"polyquot({R.provenance},{k})",
        structure=("polyquot", R, k),
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
    qadd = tuple(
        tuple(surjection[R.add[a][b]] for b in reps) for a in reps
    )
    qmul = tuple(
        tuple(surjection[R.mul[a][b]] for b in reps) for a in reps
    )
    Q = FiniteRing(
        size=len(reps),
        add=qadd,
        mul=qmul,
        zero=surjection[R.zero],
        one=surjection[R.one],
        labels=tuple(f"[{R.label(rep)}]" for rep in reps),
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
    ring = FiniteRing(
        size=len(members),
        add=tuple(tuple(pos[R.add[x][y]] for y in members) for x in members),
        mul=tuple(tuple(pos[R.mul[x][y]] for y in members) for x in members),
        zero=pos[R.zero],
        one=pos[R.one],
        labels=tuple(R.label(x) for x in members),
        provenance=provenance,
        structure=("subring", R, members),
    )
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
    jpart gives the j summand; proj_a and proj_b are the coordinate maps.
    """

    ring: FiniteRing
    hom: RingHom
    ideal: Ideal
    decode: tuple[tuple[int, int], ...]
    jpart: tuple[int, ...]
    proj_a: tuple[int, ...]
    proj_b: tuple[int, ...]

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
    addB, mulB = B.add, B.mul
    negB = B.neg
    fmap = f.map

    decode = []
    jpart = []
    for a in range(A.size):
        fa = fmap[a]
        for j in members:
            decode.append((a, addB[fa][j]))
            jpart.append(j)

    add_rows = []
    mul_rows = []
    addA, mulA = A.add, A.mul
    for idx1 in range(n):
        a1, b1 = decode[idx1]
        j1 = jpart[idx1]
        add_row = []
        mul_row = []
        for idx2 in range(n):
            a2, b2 = decode[idx2]
            j2 = jpart[idx2]
            add_row.append(addA[a1][a2] * nj + jpos[addB[j1][j2]])
            ap = mulA[a1][a2]
            bp = mulB[b1][b2]
            jp = addB[bp][negB[fmap[ap]]]
            mul_row.append(ap * nj + jpos[jp])
        add_rows.append(tuple(add_row))
        mul_rows.append(tuple(mul_row))

    ring = FiniteRing(
        size=n,
        add=tuple(add_rows),
        mul=tuple(mul_rows),
        zero=A.zero * nj + jpos[B.zero],
        one=A.one * nj + jpos[B.zero],
        labels=tuple(f"({A.label(a)},{B.label(b)})" for a, b in decode),
        provenance=f"amalgam({A.provenance}, {B.provenance}, |J|={nj})",
    )
    am = AmalgamRing(
        ring=ring,
        hom=f,
        ideal=J,
        decode=tuple(decode),
        jpart=tuple(jpart),
        proj_a=tuple(a for a, _ in decode),
        proj_b=tuple(b for _, b in decode),
    )
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
