"""Two-sided ideals, unital ring homomorphisms, and their enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import NotAHomError, NotAnIdealError, SearchBudgetError
from .rings import FiniteRing, ring_closure, semicommutative_scan

__all__ = [
    "Ideal",
    "RingHom",
    "HomViolation",
    "SEARCH_SIZE_CAP",
    "generated_ideal",
    "enumerate_ideals",
    "identity_hom",
    "enumerate_homs",
    "preimage_ideal",
    "is_radical_ideal",
    "is_semicommutative_ideal",
]

SEARCH_SIZE_CAP = 64


def _ideal_defect(R: FiniteRing, members: Sequence[int]) -> Optional[str]:
    """Why the member set is not a two-sided ideal, or None if it is one."""
    mem = set(members)
    if R.zero not in mem:
        return "missing zero"
    add = R.add
    mul = R.mul
    for x in members:
        if R.neg[x] not in mem:
            return f"not closed under negation at {x}"
        for y in members:
            if add[x][y] not in mem:
                return f"not closed under addition at ({x}, {y})"
    for r in range(R.size):
        row = mul[r]
        for x in members:
            if row[x] not in mem:
                return f"not absorbing on the left at ({r}, {x})"
            if mul[x][r] not in mem:
                return f"not absorbing on the right at ({x}, {r})"
    return None


@dataclass(frozen=True)
class Ideal:
    """A verified two-sided ideal; construction re-checks closure and absorption."""

    host: FiniteRing
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        defect = _ideal_defect(self.host, self.members)
        if defect is not None:
            raise NotAnIdealError(f"{list(self.members)} in {self.host.provenance}: {defect}")
        if tuple(sorted(self.members)) != self.members:
            raise NotAnIdealError("ideal members must be sorted ascending")

    @property
    def proper(self) -> bool:
        return len(self.members) < self.host.size

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def jpart(self) -> tuple:
        """What an amalgam along J reads of the host whatever the hom is: the
        position of each member, the position of zero, the host's product rows
        at the members, and the sum and product tables of J in J-positions."""
        host, members = self.host, self.members
        jpos = {j: p for p, j in enumerate(members)}
        jrows = tuple([host.mul[x] for x in members])
        jadd = tuple([tuple([jpos[row[y]] for y in members]) for row in [host.add[x] for x in members]])
        jmul = tuple([tuple([jpos[row[y]] for y in members]) for row in jrows])
        return jpos, jpos[host.zero], jrows, jadd, jmul


def generated_ideal(R: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators.

    Fixpoint closure under addition, negation, and one-sided multiples; with an
    identity present this reaches every finite sum of r*x*s sandwiches.
    """
    add = R.add
    mul = R.mul
    current = {R.zero}
    current.update(gens)
    while True:
        new = set()
        elems = list(current)
        for x in elems:
            if R.neg[x] not in current:
                new.add(R.neg[x])
            for y in elems:
                if add[x][y] not in current:
                    new.add(add[x][y])
            for r in range(R.size):
                if mul[r][x] not in current:
                    new.add(mul[r][x])
                if mul[x][r] not in current:
                    new.add(mul[x][r])
        if not new:
            break
        current.update(new)
    return Ideal(R, tuple(sorted(current)))


def enumerate_ideals(R: FiniteRing) -> list[Ideal]:
    """All two-sided ideals, ordered by size then lexicographically by members.

    Grows the ideal lattice from the zero ideal by adjoining one new generator
    at a time, memoizing closures; complete because every ideal is reached by
    adding its members in some order.  No efficiency claim beyond |R| <= 16;
    rings above SEARCH_SIZE_CAP raise SearchBudgetError.
    """
    if R.size > SEARCH_SIZE_CAP:
        raise SearchBudgetError(f"ideal enumeration capped at size {SEARCH_SIZE_CAP}, ring has {R.size}")
    zero_ideal = generated_ideal(R, ())
    seen = {zero_ideal.members: zero_ideal}
    frontier = [zero_ideal.members]
    while frontier:
        base = frontier.pop()
        base_set = set(base)
        for x in range(R.size):
            if x in base_set:
                continue
            ideal = generated_ideal(R, base + (x,))
            if ideal.members not in seen:
                seen[ideal.members] = ideal
                frontier.append(ideal.members)
    return sorted(seen.values(), key=lambda ideal: (len(ideal.members), ideal.members))


@dataclass(frozen=True)
class HomViolation:
    """First law a candidate map breaks: 'unital', 'add', or 'mul', with witness."""

    law: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class RingHom:
    """A verified unital ring homomorphism, stored as an image table;
    construction raises NotAHomError with the first violation."""

    domain: FiniteRing
    codomain: FiniteRing
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        violation = _hom_defect(self.domain, self.codomain, self.map)
        if violation is not None:
            raise NotAHomError(violation)

    @property
    def injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def image(self) -> frozenset[int]:
        return frozenset(self.map)


def _hom_defect(A: FiniteRing, B: FiniteRing, m: Sequence[int]) -> Optional[HomViolation]:
    if len(m) != A.size or any(not (0 <= v < B.size) for v in m):
        return HomViolation("range", ())
    if m[A.one] != B.one:
        return HomViolation("unital", (A.one,))
    for x in range(A.size):
        for y in range(A.size):
            if m[A.add[x][y]] != B.add[m[x]][m[y]]:
                return HomViolation("add", (x, y))
            if m[A.mul[x][y]] != B.mul[m[x]][m[y]]:
                return HomViolation("mul", (x, y))
    return None


def identity_hom(R: FiniteRing) -> RingHom:
    return RingHom(R, R, tuple(range(R.size)))


def ring_generators(R: FiniteRing) -> tuple[int, ...]:
    """Greedy generating sequence beyond {0, 1}: repeatedly adjoin the smallest
    element outside the current ring closure."""
    gens: list[int] = []
    known = ring_closure(R, (R.one,))
    while len(known) < R.size:
        x = min(i for i in range(R.size) if i not in known)
        gens.append(x)
        known = ring_closure(R, known | {x})
    return tuple(gens)


def _propagate(A: FiniteRing, B: FiniteRing, amap: dict[int, int]) -> Optional[dict[int, int]]:
    """Close a partial map under + and * on its domain; None on conflict."""
    addA, mulA = A.add, A.mul
    addB, mulB = B.add, B.mul
    current = dict(amap)
    changed = True
    while changed:
        changed = False
        items = list(current.items())
        for x, fx in items:
            nx = A.neg[x]
            fnx = B.neg[fx]
            if current.get(nx, fnx) != fnx:
                return None
            if nx not in current:
                current[nx] = fnx
                changed = True
            for y, fy in items:
                s, fs = addA[x][y], addB[fx][fy]
                if current.get(s, fs) != fs:
                    return None
                if s not in current:
                    current[s] = fs
                    changed = True
                p, fp = mulA[x][y], mulB[fx][fy]
                if current.get(p, fp) != fp:
                    return None
                if p not in current:
                    current[p] = fp
                    changed = True
    return current


def enumerate_homs(A: FiniteRing, B: FiniteRing) -> list[RingHom]:
    """All unital homomorphisms A -> B, sorted by image table.

    Backtracks over images of a generating set; the image of 1 is forced and
    constraint propagation through additive and multiplicative words prunes
    inconsistent branches early.  Rings above SEARCH_SIZE_CAP raise
    SearchBudgetError.
    """
    if A.size > SEARCH_SIZE_CAP or B.size > SEARCH_SIZE_CAP:
        raise SearchBudgetError(f"hom enumeration capped at size {SEARCH_SIZE_CAP}")
    gens = ring_generators(A)
    seed = _propagate(A, B, {A.zero: B.zero, A.one: B.one})
    results: list[RingHom] = []
    if seed is None:
        return results

    def descend(level: int, amap: dict[int, int]) -> None:
        if level == len(gens):
            if len(amap) == A.size:
                try:
                    results.append(RingHom(A, B, tuple(amap[x] for x in range(A.size))))
                except NotAHomError:
                    pass
            return
        g = gens[level]
        if g in amap:
            descend(level + 1, amap)
            return
        for img in range(B.size):
            trial = dict(amap)
            trial[g] = img
            closed = _propagate(A, B, trial)
            if closed is not None:
                descend(level + 1, closed)

    descend(0, seed)
    results.sort(key=lambda h: h.map)
    return results


def preimage_ideal(f: RingHom, J: Ideal) -> Ideal:
    """f^{-1}(J) as a verified ideal of the domain."""
    if J.host is not f.codomain:
        raise ValueError("ideal must live in the codomain of the homomorphism")
    mem = set(J.members)
    members = tuple(x for x in range(f.domain.size) if f.map[x] in mem)
    return Ideal(f.domain, members)


def is_radical_ideal(R: FiniteRing, J: Ideal) -> bool:
    """Whether x*x in J forces x in J; equivalent to the quotient being reduced."""
    mem = set(J.members)
    mul = R.mul
    return all(x in mem for x in range(R.size) if mul[x][x] in mem)


def is_semicommutative_ideal(R: FiniteRing, J: Ideal) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether x*y = 0 forces x*r*y = 0 for x, y, r in J; witness (x, r, y)
    otherwise, as semicommutative_scan picks it."""
    return semicommutative_scan(R, J.members, J.members)
