"""Finite unital rings as explicit operation tables, with exact element-level predicates.

Elements of a ring of size n are the indices 0..n-1.  The additive and
multiplicative structure is carried entirely by two n x n tables; labels are
display strings and never participate in computation.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import InvalidRingError
from .notation import format_element

__all__ = [
    "Law",
    "AxiomViolation",
    "FiniteRing",
    "verify_axioms",
    "fill_products",
    "ring_memo",
    "clear_caches",
    "shared_ring",
    "induced_ring",
    "power",
    "is_nilpotent",
    "nilradical",
    "ring_closure",
    "is_reduced",
    "is_unit",
    "units",
    "regular_central",
    "central_idempotents",
    "split_by_central_idempotent",
    "is_commutative",
    "semicommutative_scan",
    "is_semicommutative_ring",
]


class Law(Enum):
    """Ring axioms in the order the verifier scans them."""

    ADD_COMM = "ADD_COMM"
    ADD_ASSOC = "ADD_ASSOC"
    ADD_IDENTITY = "ADD_IDENTITY"
    ADD_INVERSE = "ADD_INVERSE"
    MUL_ASSOC = "MUL_ASSOC"
    MUL_IDENTITY = "MUL_IDENTITY"
    DISTRIB_L = "DISTRIB_L"
    DISTRIB_R = "DISTRIB_R"
    RANGE = "RANGE"


@dataclass(frozen=True)
class AxiomViolation:
    """First failing law found by the exhaustive scan, with its witness indices.

    The witness holds up to three element indices, in the scan's loop order.
    RANGE violations carry the offending table position instead.
    """

    law: Law
    witness: tuple[int, ...]


def verify_axioms(add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]]) -> Optional[AxiomViolation]:
    """Check candidate tables against every ring axiom; None means the tables pass.

    Exact in O(n^2 * g) on a ring, g the size of a greedy generating set of
    (R, +): each law is proved on generators.  Tables the proof rejects go
    through the O(n^3) scan, which names the first failing law in the order
    of the Law enum with its lexicographically smallest witness.
    """
    n = len(add)
    # Structural well-formedness first: nothing else can be evaluated without it.
    for table in (add, mul):
        if len(table) != n:
            return AxiomViolation(Law.RANGE, ())
        for i, row in enumerate(table):
            if len(row) != n:
                return AxiomViolation(Law.RANGE, (i,))
            for j, v in enumerate(row):
                if not isinstance(v, int) or not (0 <= v < n):
                    return AxiomViolation(Law.RANGE, (i, j))
    if n < 2:
        return AxiomViolation(Law.RANGE, ())
    if _holds_on_generators(tuple(map(tuple, add)), tuple(map(tuple, mul))):
        return None
    return _scan_laws(add, mul)


def _add_generators(add: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generators of (R, +) for a commutative add, used by the axiom proof and
    by fill_products: each is the least element outside the closure of those before it."""
    inside = [False] * len(add)
    members: list[int] = []
    gens = []
    for g in range(len(add)):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        members.append(g)
        # Each sum of two members is taken once, when the later is reached, until all are inside.
        i = len(members) - 1
        while i < len(members) < len(add):
            row = add[members[i]]
            for y in members[: i + 1]:
                z = row[y]
                if not inside[z]:
                    inside[z] = True
                    members.append(z)
            i += 1
    return gens


def fill_products(
    add: Sequence[Sequence[int]], gens: Sequence[int], zero: int, row: Callable[[int], Sequence[int]]
) -> tuple:
    """The product table whose row x is row(x), calling row only on gens, the
    generators _add_generators(add) picks, in order.  As (x+g)*y = x*y + g*y, a
    walk from the zero row, one generator at a time, sums each other row from a
    reached row and a generator row: one read add[g*y][x*y] = x*y + g*y per
    entry (add commutes)."""
    gens = [(g, [add[v] for v in row(g)]) for g in gens]
    reached, rows = [zero], [None] * len(add)
    rows[zero] = (zero,) * len(add)
    for g, sums in gens:
        for x in reached:
            z = add[x][g]
            if rows[z] is None:
                rows[z] = tuple([s[u] for s, u in zip(sums, rows[x])])
                reached.append(z)
    return tuple(rows)


def _additive(
    maps: Iterable[Sequence[int]], add: Sequence[Sequence[int]], shifts: list[tuple[int, itemgetter]]
) -> bool:
    """Whether every map m, given as its table of values, has m[x+s] = m[x]+m[s]
    for all x and each (s, x -> s+x) in shifts; add is commutative."""
    for m in maps:
        image = itemgetter(*m)
        for s, shift in shifts:
            if shift(m) != image(add[m[s]]):
                return False
    return True


def _holds_on_generators(add: tuple[tuple[int, ...], ...], mul: tuple[tuple[int, ...], ...]) -> bool:
    """Whether in-range tables of size n >= 2 satisfy every ring law, proved
    on a generating set G of (R, +).

    The elements s with (a+s)+c = a+(s+c) for all a, c are closed under +, so
    + is associative once G passes (Light's test).  The s with
    phi(x+s) = phi(x)+phi(s) for all x are closed under + too, so x -> a*x and
    x -> x*a are additive once G passes.  Then (ab)c and a(bc) are additive in
    each argument, and agree everywhere once they agree on G^3.
    """
    rng = range(len(add))
    if tuple(zip(*add)) != add:
        return False
    gens = _add_generators(add)
    shifts = [(s, itemgetter(*add[s])) for s in gens]
    if any(shift(add[a]) != add[add[a][s]] for s, shift in shifts for a in rng):
        return False
    zero = _find_add_identity(add)
    if zero is None or any(zero not in row for row in add):
        return False
    one = _find_mul_identity(mul)
    if one is None or one == zero:
        return False
    if not (_additive(mul, add, shifts) and _additive(zip(*mul), add, shifts)):
        return False
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a in gens for b in gens for c in gens)


def _scan_laws(add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]]) -> Optional[AxiomViolation]:
    """The first law that in-range tables of size n >= 2 break, by an O(n^3)
    scan in Law order; witnesses lexicographically smallest within each law."""
    n = len(add)
    rng = range(n)
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                return AxiomViolation(Law.ADD_COMM, (a, b))
    for a in rng:
        for b in rng:
            ab = add[a][b]
            row_a = add[a]
            for c in rng:
                if add[ab][c] != row_a[add[b][c]]:
                    return AxiomViolation(Law.ADD_ASSOC, (a, b, c))
    zero = _find_add_identity(add)
    if zero is None:
        return AxiomViolation(Law.ADD_IDENTITY, ())
    for a in rng:
        if zero not in add[a]:
            return AxiomViolation(Law.ADD_INVERSE, (a,))
    for a in rng:
        row_a = mul[a]
        for b in rng:
            ab = mul[a][b]
            row_b = mul[b]
            for c in rng:
                if mul[ab][c] != row_a[row_b[c]]:
                    return AxiomViolation(Law.MUL_ASSOC, (a, b, c))
    one = _find_mul_identity(mul)
    if one is None or one == zero:
        return AxiomViolation(Law.MUL_IDENTITY, ())
    for a in rng:
        row_a = mul[a]
        for b in rng:
            for c in rng:
                if row_a[add[b][c]] != add[row_a[b]][row_a[c]]:
                    return AxiomViolation(Law.DISTRIB_L, (a, b, c))
    for a in rng:
        for b in rng:
            ab = add[a][b]
            for c in rng:
                if mul[ab][c] != add[mul[a][c]][mul[b][c]]:
                    return AxiomViolation(Law.DISTRIB_R, (a, b, c))
    return None


def _find_add_identity(add: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(add)
    for z in range(n):
        if all(add[z][x] == x for x in range(n)):
            return z
    return None


def _find_mul_identity(mul: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(mul)
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            return e
    return None


class FiniteRing:
    """A finite unital ring; immutable after construction.

    Do not mutate the tables.  Equality is object identity; structural
    comparison goes through digest().  structure names the construction, and
    labels are written from it on demand by notation.format_element, so no
    ring stores them.
    """

    def __init__(
        self,
        size: int,
        add: tuple[tuple[int, ...], ...],
        mul: tuple[tuple[int, ...], ...],
        zero: int,
        one: int,
        provenance: str = "table",
        structure: Optional[tuple] = None,
    ) -> None:
        self.size, self.add, self.mul, self.zero, self.one = size, add, mul, zero, one
        self.provenance, self.structure = provenance, structure
        self.neg = tuple(add[x].index(zero) for x in range(size))
        self._digest: Optional[str] = None

    @classmethod
    def from_tables(
        cls,
        add: Sequence[Sequence[int]],
        mul: Sequence[Sequence[int]],
        *,
        provenance: str = "table",
        structure: Optional[tuple] = None,
    ) -> "FiniteRing":
        """Validate tables with verify_axioms and build the ring; raises InvalidRingError."""
        violation = verify_axioms(add, mul)
        if violation is not None:
            raise InvalidRingError(violation)
        add_t = tuple(tuple(row) for row in add)
        mul_t = tuple(tuple(row) for row in mul)
        zero = _find_add_identity(add_t)
        one = _find_mul_identity(mul_t)
        assert zero is not None and one is not None
        return cls(len(add_t), add_t, mul_t, zero, one, provenance, structure)

    def label(self, x: int) -> str:
        return format_element(self, x)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(map(self.label, range(self.size)))

    def bare(self) -> "FiniteRing":
        """A copy with the same tables, neg and digest, and no provenance or
        structure, so its labels are its indices.  The factor split works on
        bare copies, so no memo fact pins the ring."""
        ring = copy.copy(self)
        ring.provenance, ring.structure = "table", None
        return ring

    def digest(self) -> str:
        """Structural fingerprint of (size, tables, zero, one); stable across runs."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(self.size.to_bytes(4, "big"))
            h.update(self.zero.to_bytes(4, "big"))
            h.update(self.one.to_bytes(4, "big"))
            for row in self.add:
                h.update(bytes(row) if self.size <= 256 else repr(row).encode())
            for row in self.mul:
                h.update(bytes(row) if self.size <= 256 else repr(row).encode())
            self._digest = h.hexdigest()
        return self._digest

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def __repr__(self) -> str:
        return f"FiniteRing({self.provenance}, size={self.size})"


# --------------------------------------------------------------------------
# ring memo

T = TypeVar("T")
_MISSING = object()
_MEMO: dict[str, dict] = {}


def ring_memo(R: FiniteRing, key: Hashable, compute: Callable[[], T]) -> T:
    """R's derived fact named key, computed on first request.

    Facts are keyed by R.digest(), so rings with equal tables share them;
    clear_caches() forgets them all.
    """
    digest = R.digest()
    facts = _MEMO.get(digest)
    if facts is None:
        facts = _MEMO[digest] = {}
    value = facts.get(key, _MISSING)
    if value is _MISSING:
        value = facts[key] = compute()
    return value


def _stored(R: FiniteRing, key: Hashable):
    """R's fact named key if it is stored, else None (for facts never None)."""
    facts = _MEMO.get(R.digest())
    return None if facts is None else facts.get(key)


def clear_caches() -> None:
    """Forget every memoized fact about every ring."""
    _MEMO.clear()


def shared_ring(owner: FiniteRing, key: Hashable, build: Callable[[], FiniteRing]) -> FiniteRing:
    """A copy of the ring build() makes; its provenance and structure are the
    caller's to set.

    build() must depend only on owner's tables and key: its ring is stored as
    owner's fact named key, and every copy made for that fact shares its add,
    mul and neg tuples and its digest.
    """
    template = ring_memo(owner, key, build)
    template.digest()
    return copy.copy(template)


def induced_ring(
    R: FiniteRing,
    reps: Sequence[int],
    index: Mapping[int, int] | Sequence[int],
    one: int,
    *,
    provenance: str,
    structure: tuple,
) -> FiniteRing:
    """The ring on reps whose sums and products are R's, read back through index.

    index sends each element of R that a sum or product of reps reaches to its
    position in reps: a position map for a subring, the surjection for a
    quotient.  one is the element of R whose position is the identity.  The
    caller guarantees the tables form a ring (a closed member set, or cosets
    of a two-sided ideal), so the axiom scan is skipped.
    """
    add, mul = R.add, R.mul
    return FiniteRing(
        size=len(reps),
        add=tuple(tuple(index[add[x][y]] for y in reps) for x in reps),
        mul=tuple(tuple(index[mul[x][y]] for y in reps) for x in reps),
        zero=index[R.zero],
        one=index[one],
        provenance=provenance,
        structure=structure,
    )


def power(R: FiniteRing, a: int, k: int) -> int:
    """a**k in R for k >= 0, with a**0 = one."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    result = R.one
    base = a
    mul = R.mul
    while k:
        if k & 1:
            result = mul[result][base]
        base = mul[base][base]
        k >>= 1
    return result


def is_nilpotent(R: FiniteRing, a: int) -> tuple[bool, Optional[int]]:
    """Whether a is nilpotent, and the least k >= 1 with a**k = 0 when it is.

    Power iteration with cycle detection: in a ring of size n the sequence of
    powers repeats within n steps, so the loop always terminates.
    """
    mul = R.mul
    zero = R.zero
    p = a
    seen = set()
    k = 1
    while True:
        if p == zero:
            return True, k
        if p in seen:
            return False, None
        seen.add(p)
        p = mul[p][a]
        k += 1


def nilradical(R: FiniteRing) -> frozenset[int]:
    """The set of nilpotent elements.  A set, not an ideal: closure is not assumed."""
    return frozenset(x for x in range(R.size) if is_nilpotent(R, x)[0])


def ring_closure(R: FiniteRing, seed: Iterable[int]) -> set[int]:
    """The smallest set holding zero and the seed that is closed under
    negation, addition and multiplication."""
    current = {R.zero}
    current.update(seed)
    add, mul = R.add, R.mul
    while True:
        new = set()
        elems = list(current)
        for x in elems:
            if R.neg[x] not in current:
                new.add(R.neg[x])
            for y in elems:
                if add[x][y] not in current:
                    new.add(add[x][y])
                if mul[x][y] not in current:
                    new.add(mul[x][y])
        if not new:
            return current
        current.update(new)


def is_reduced(R: FiniteRing) -> tuple[bool, Optional[int]]:
    """Whether R has no nonzero nilpotents; returns the least witness with x*x = 0.

    Scanning squares suffices for the verdict: if x**k = 0 with k minimal >= 2,
    then x**(k-1) is a nonzero element whose square is zero.
    """
    mul = R.mul
    zero = R.zero
    for x in range(R.size):
        if x != zero and mul[x][x] == zero:
            return False, x
    return True, None


def is_unit(R: FiniteRing, a: int) -> bool:
    """Whether a has a two-sided multiplicative inverse."""
    one = R.one
    mul = R.mul
    for b in range(R.size):
        if mul[a][b] == one and mul[b][a] == one:
            return True
    return False


def units(R: FiniteRing) -> frozenset[int]:
    """The elements with a right inverse: in a finite ring a*b = 1 forces b*a = 1."""
    return frozenset(x for x, row in enumerate(R.mul) if R.one in row)


def regular_central(R: FiniteRing) -> frozenset[int]:
    """Central elements that are neither left nor right zero divisors.

    In a finite ring both translation maps of a regular element are bijections,
    so every regular element is in fact a unit; units() makes that checkable.
    """
    n = R.size
    mul = R.mul
    members = []
    for e in range(n):
        row = mul[e]
        if any(row[x] != mul[x][e] for x in range(n)):
            continue
        if len(set(row)) != n:
            continue
        if len({mul[x][e] for x in range(n)}) != n:
            continue
        members.append(e)
    return frozenset(members)


def central_idempotents(R: FiniteRing) -> tuple[int, ...]:
    """Nontrivial central idempotents of R, ascending; empty when R is
    directly indecomposable."""
    mul = R.mul
    n = R.size
    out = []
    for e in range(n):
        if e == R.zero or e == R.one or mul[e][e] != e:
            continue
        row = mul[e]
        if all(row[x] == mul[x][e] for x in range(n)):
            out.append(e)
    return tuple(out)


def split_by_central_idempotent(R: FiniteRing, e: int) -> tuple[FiniteRing, FiniteRing]:
    """Split R as e*R x (1-e)*R for a nontrivial central idempotent e.

    Each piece is closed under both operations, with e (resp. 1-e) as its
    identity, and the map x -> (e*x, (1-e)*x) is a ring isomorphism onto the
    product, so polynomial identities can be checked factor by factor.
    """
    mul = R.mul
    n = R.size
    if mul[e][e] != e or e in (R.zero, R.one) or any(mul[e][x] != mul[x][e] for x in range(n)):
        raise ValueError(f"element {e} is not a nontrivial central idempotent")
    comp = R.sub(R.one, e)

    def piece(idem: int) -> FiniteRing:
        members = tuple(sorted({mul[idem][x] for x in range(n)}))
        pos = {x: i for i, x in enumerate(members)}
        return induced_ring(R, members, pos, idem, provenance=f"factor({R.provenance})", structure=("factor", R, members))

    return piece(e), piece(comp)


def is_commutative(R: FiniteRing) -> bool:
    """Whether x*y = y*x for all x, y: the table equals its transpose.  One
    memo fact per ring, read by the semicommutative check and the scans."""
    mul = R.mul
    return ring_memo(R, "commutative", lambda: list(map(tuple, mul)) == list(zip(*mul)))


def semicommutative_scan(
    R: FiniteRing, elems: Sequence[int], middles: Sequence[int]
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether a*b = 0 forces a*r*b = 0 for a, b in elems and r in middles.

    Scans (a, b) pairs lexicographically and then r, so the witness (a, r, b)
    is the lexicographically smallest (a, b, r) that violates the law.
    """
    mul = R.mul
    zero = R.zero
    for a in elems:
        row_a = mul[a]
        for b in elems:
            if row_a[b] != zero:
                continue
            for r in middles:
                if mul[row_a[r]][b] != zero:
                    return False, (a, r, b)
    return True, None


def is_semicommutative_ring(R: FiniteRing) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether a*b = 0 forces a*r*b = 0 for every a, b, r; witness (a, r, b)
    otherwise, as semicommutative_scan picks it.

    Commutative rings satisfy it outright (a*r*b = r*a*b = 0), so the triple
    scan only runs on noncommutative tables.
    """
    if is_commutative(R):
        return True, None
    elems = range(R.size)
    return semicommutative_scan(R, elems, elems)
