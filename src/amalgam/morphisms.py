"""Two-sided ideals, unital ring homomorphisms, and their enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import NotAHomError, NotAnIdealError, SearchBudgetError
from .rings import FiniteRing, semicommutative_scan

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
        members, size = self.members, self.host.size
        if any(not 0 <= x < size for x in members) or any(x >= y for x, y in zip(members, members[1:])):
            defect = "members must be strictly ascending elements of the ring"
        else:
            defect = _ideal_defect(self.host, members)
        if defect is not None:
            raise NotAnIdealError(f"{list(members)} in {self.host.provenance}: {defect}")

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


def _close_ideal(R: FiniteRing, base: Sequence[int], gens: Sequence[int]) -> tuple[int, ...]:
    """Members of the least ideal holding the closed ideal base and gens.

    A worklist closure: each new member x adds x + y for every member y, and
    r*x and x*r for every r (-x = (-1)*x among them); with an identity this
    reaches every finite sum of r*x*s sandwiches.
    """
    add, mul = R.add, R.mul
    members, inside = list(base), set(base)
    todo = [g for g in dict.fromkeys(gens) if g not in inside]
    inside.update(todo)
    for x in todo:
        members.append(x)
        ax = add[x]
        new = {ax[y] for y in members}.union(mul[x], [row[x] for row in mul]) - inside
        inside |= new
        todo += new
    return tuple(sorted(members))


def generated_ideal(R: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators: the worklist
    closure of {0} and gens.  A generator outside R raises NotAnIdealError."""
    gens = (R.zero, *gens)
    outside = [g for g in gens if not 0 <= g < R.size]
    if outside:
        raise NotAnIdealError(f"generator {outside[0]} is not an element of {R.provenance}")
    return Ideal(R, _close_ideal(R, (), gens))


def enumerate_ideals(R: FiniteRing) -> list[Ideal]:
    """All two-sided ideals, ordered by size then lexicographically by members.

    Grows the ideal lattice from the zero ideal: each ideal found is extended
    by each element outside it, and the closure starts from its members, so
    only the new element's sums and multiples are walked.  Complete because
    every ideal is reached by adding its members in some order.  Rings above
    SEARCH_SIZE_CAP raise SearchBudgetError.
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
            members = _close_ideal(R, base, (x,))
            if members not in seen:
                seen[members] = Ideal(R, members)
                frontier.append(members)
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


def _close_map(A: FiniteRing, B: FiniteRing, m: list[int], known: list[int], todo: list[int]) -> bool:
    """Close the partial map m (-1 where unset) in place under + and *.

    known lists the mapped elements whose sums and products are mapped
    already; todo lists the other mapped elements.  Each x taken from todo
    joins known and meets each y in it once (x+y, x*y); an element newly
    mapped joins todo.  False on a conflict, with m and known left part-way.

    No step maps -x or y*x.  Once todo runs out, the mapped set S is closed
    under + and so an additive group (-x is a sum of copies of x), m is
    additive on S, and for x met after y, S holds x*y, x^2 and y^2 with m
    multiplicative there.  So y*x = (x+y)^2 - x^2 - y^2 - x*y lies in S and
    m(y*x) = m(y)*m(x).  Every image set is forced by the seeds, so a y*x
    step would change neither the closed map nor the result.  On success S
    is the subring the seeds generate, whatever their images.
    """
    addA, mulA = A.add, A.mul
    addB, mulB = B.add, B.mul
    for x in todo:
        fx = m[x]
        known.append(x)
        ax, mx, bax, bmx = addA[x], mulA[x], addB[fx], mulB[fx]
        for y in known:
            fy = m[y]
            z, fz = ax[y], bax[fy]
            v = m[z]
            if v < 0:
                m[z] = fz
                todo.append(z)
            elif v != fz:
                return False
            z, fz = mx[y], bmx[fy]
            v = m[z]
            if v < 0:
                m[z] = fz
                todo.append(z)
            elif v != fz:
                return False
    return True


def enumerate_homs(A: FiniteRing, B: FiniteRing) -> list[RingHom]:
    """All unital homomorphisms A -> B, sorted by image table.

    Backtracks over images of greedy generators: the images of 0 and 1 are
    forced, and the next generator is the least element the closed map
    leaves unmapped.  Each candidate image of a generator is closed by
    _close_map from the parent's closed map, so only pairs holding a newly
    mapped element are examined, and a conflict prunes the branch.  Rings
    above SEARCH_SIZE_CAP raise SearchBudgetError.
    """
    if A.size > SEARCH_SIZE_CAP or B.size > SEARCH_SIZE_CAP:
        raise SearchBudgetError(f"hom enumeration capped at size {SEARCH_SIZE_CAP}")
    results: list[RingHom] = []

    def descend(m: list[int], known: list[int], todo: list[int]) -> None:
        if not _close_map(A, B, m, known, todo):
            return
        if len(known) == A.size:
            results.append(RingHom(A, B, tuple(m)))
            return
        g = m.index(-1)
        for img in range(B.size):
            trial = m[:]
            trial[g] = img
            descend(trial, known[:], [g])

    seed = [-1] * A.size
    seed[A.zero] = B.zero
    seed[A.one] = B.one
    descend(seed, [], sorted({A.zero, A.one}))
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
    return semicommutative_scan(R, J.members)
