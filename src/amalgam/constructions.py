"""Constructors for the ring catalog: modular, product, matrix, truncated
polynomial, quotient, subring, and amalgamated rings."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import SizeBudgetError
from .morphisms import Ideal, RingHom, identity_hom
from .notation import matrix_slots
from .rings import FiniteRing, _add_generators, fill_products, induced_ring, ring_closure, ring_memo, shared_ring

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
    _check_budget(n, "zmod")
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return FiniteRing.from_tables(add, mul, provenance=f"zmod({n})", structure=("zmod", n))


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
        provenance=f"product({R.provenance},{S.provenance})",
        structure=("product", R, S),
    )


def _tuple_ring(
    R: FiniteRing,
    width: int,
    mul: Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]],
    what: str,
    provenance: str,
    structure: tuple,
) -> FiniteRing:
    """The ring on width-tuples over R, added componentwise; fill_products calls mul
    only on generator rows.  Tuples are indexed lexicographically, as base-|R| digits.
    """
    _check_budget(R.size**width, what)
    tuples = list(itertools.product(range(R.size), repeat=width))
    index = {t: i for i, t in enumerate(tuples)}
    add = _componentwise((R.add,) * width)
    return FiniteRing.from_tables(
        add,
        fill_products(
            add, _add_generators(add), index[(R.zero,) * width], lambda g: [index[mul(tuples[g], y)] for y in tuples]
        ),
        provenance=provenance,
        structure=structure,
    )


def _matrix_like(R: FiniteRing, tag: str, k: int) -> FiniteRing:
    """Shared builder for full ("matrix") and upper-triangular ("upper") k x k
    matrix rings over R.  An element is the tuple of its entries in the free
    slots, notation.matrix_slots(tag, k); all other entries are fixed at zero.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    zero, addR, mulR = R.zero, R.add, R.mul
    positions = matrix_slots(tag, k)
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

    provenance = f"{tag}({R.provenance},{k})"
    return _tuple_ring(R, len(positions), mul, provenance, provenance, (tag, R, k))


def upper_triangular(R: FiniteRing, k: int) -> FiniteRing:
    """Upper-triangular k x k matrices over R; |R|**(k(k+1)/2) elements."""
    return _matrix_like(R, "upper", k)


def matrix_ring(R: FiniteRing, k: int) -> FiniteRing:
    """Full k x k matrices over R; |R|**(k*k) elements."""
    return _matrix_like(R, "matrix", k)


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

    return _tuple_ring(R, k, mul, "polynomial quotient", f"polyquot({R.provenance},{k})", ("polyquot", R, k))


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
    """Re-index a member set that holds R's identity and is closed under the
    operations; the tables are built once per (R, members) and shared."""

    def build() -> FiniteRing:
        return induced_ring(R, members, {x: i for i, x in enumerate(members)}, R.one, provenance="", structure=())

    emb = Embedding(host=R, members=members, ring=shared_ring(R, ("subring", members), build))
    emb.ring.provenance, emb.ring.structure = provenance, ("subring", R, members)
    return emb


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
    it is the only element map: the j summand is b - f(a).  It is built on
    its first read, which the harness never makes; the ring's labels are
    written from it.
    """

    ring: FiniteRing
    hom: RingHom
    ideal: Ideal

    @cached_property
    def decode(self) -> tuple[tuple[int, int], ...]:
        addB, fmap = self.target.add, self.hom.map
        return tuple((a, addB[fmap[a]][j]) for a in range(self.base.size) for j in self.ideal.members)

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

    As a group the amalgam is A x J whatever f is, so its add table and that
    table's generators are one fact of A, keyed by the sum table of J in
    J-positions, and shared by every amalgam with that key.  The B-part of
    (a1, f(a1) + j1) * (a2, f(a2) + j2) is f(a1 a2) + f(a1) j2 + j1 f(a2) +
    j1 j2, so the product table is built once per A and key: that sum table,
    f(a) j and j f(a), and the product in J.  From them, fill_products needs
    the closed form only on generator rows.
    """
    if J.host is not f.codomain:
        raise ValueError("ideal must live in the codomain of the homomorphism")
    if not J.proper:
        raise ValueError("amalgamation requires a proper ideal")
    A, B = f.domain, f.codomain
    members = J.members
    nj = len(members)
    n = A.size * nj
    _check_budget(n, "amalgamation")
    jpos = {j: p for p, j in enumerate(members)}
    addB, mulB, fmap = B.add, B.mul, f.map
    zpos = jpos[B.zero]
    jrows = [mulB[x] for x in members]
    jadd = tuple([tuple([jpos[row[y]] for y in members]) for row in [addB[x] for x in members]])
    left = tuple([tuple([jpos[row[y]] for y in members]) for row in [mulB[fa] for fa in fmap]])
    right = tuple([tuple([jpos[row[fa]] for fa in fmap]) for row in jrows])
    jmul = tuple([tuple([jpos[row[y]] for y in members]) for row in jrows])

    def row(x: int) -> list[int]:
        # (a1, p) * (a2, q) = (a1 a2, right[p][a2] + left[a1][q] + jmul[p][q])
        a1, p = divmod(x, nj)
        lm = [jadd[u][v] for u, v in zip(left[a1], jmul[p])]
        return [a * nj + jadd[r][s] for a, r in zip(A.mul[a1], right[p]) for s in lm]

    def additive() -> tuple[tuple, list[int]]:
        add = _componentwise((A.add, jadd))
        return add, _add_generators(add)

    def build() -> FiniteRing:
        add, gens = ring_memo(A, ("amalgam add", jadd), additive)
        zero = A.zero * nj + zpos
        return FiniteRing(n, add, fill_products(add, gens, zero, row), zero, A.one * nj + zpos)

    ring = shared_ring(A, ("amalgam", zpos, jadd, left, right, jmul), build)
    am = AmalgamRing(ring=ring, hom=f, ideal=J)
    ring.structure = ("amalgam", am)
    ring.provenance = f"amalgam({A.provenance}, {B.provenance}, |J|={nj})"
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
