"""Armendariz-style property checks, a pruned annihilating-pair engine, and a
naive enumeration oracle to hold it to account.

All polynomial properties are degree-bounded: a HOLDS verdict means "no
counterexample among pairs with both degrees at most d", a REFUTED verdict is
exact and carries a re-validated witness.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import InternalInvariantError, SearchBudgetError
from .morphisms import _ideal_defect
from .poly import Polynomial, poly_mul
from .rings import (
    _MEMO,
    FiniteRing,
    _stored,
    central_idempotents,
    clear_caches,
    is_commutative,
    is_nilpotent,
    is_reduced,
    is_semicommutative_ring,
    nilradical,
    ring_memo,
    split_by_central_idempotent,
    units,
)

__all__ = [
    "PropertyKind",
    "Verdict",
    "PolyWitness",
    "ElementWitness",
    "TripleWitness",
    "PropertyReport",
    "PropertyProfile",
    "AuditFinding",
    "annihilating_pairs",
    "naive_annihilating_pairs",
    "naive_poly_check",
    "check_reduced",
    "check_semicommutative",
    "check_armendariz",
    "check_nil_armendariz",
    "check_weak_armendariz",
    "property_profile",
    "get_report",
    "holds",
    "ring_memo",
    "nil_set",
    "clear_caches",
]


class PropertyKind(Enum):
    REDUCED = "reduced"
    SEMICOMMUTATIVE = "semicommutative"
    ARMENDARIZ = "armendariz"
    NIL_ARMENDARIZ = "nil-armendariz"
    WEAK_ARMENDARIZ = "weak-armendariz"

    # Every verdict key holds a kind, so hash by identity in C rather than
    # by name in Enum.__hash__: members are singletons and Enum.__eq__ is
    # identity.  A set of kinds may iterate in another order in another
    # run, and no output iterates one.
    __hash__ = object.__hash__


class Verdict(Enum):
    HOLDS_EXACT = "HOLDS_EXACT"
    HOLDS_UP_TO_BOUND = "HOLDS_UP_TO_BOUND"
    REFUTED = "REFUTED"


POLY_KINDS = (PropertyKind.ARMENDARIZ, PropertyKind.NIL_ARMENDARIZ, PropertyKind.WEAK_ARMENDARIZ)


@dataclass(frozen=True)
class PolyWitness:
    """A refuting pair: every coefficient of f*g lies in the constraint set,
    yet coefficient i of f times coefficient j of g escapes the target set."""

    f_coeffs: tuple[int, ...]
    g_coeffs: tuple[int, ...]
    i: int
    j: int
    product: int

    def to_json(self, R: FiniteRing) -> dict:
        return {
            "f": [R.label(c) for c in self.f_coeffs],
            "g": [R.label(c) for c in self.g_coeffs],
            "f_indices": list(self.f_coeffs),
            "g_indices": list(self.g_coeffs),
            "i": self.i,
            "j": self.j,
            "product": R.label(self.product),
            "product_index": self.product,
        }

    def text(self, R: FiniteRing) -> str:
        f = " + ".join(f"({R.label(c)})x^{k}" if k else f"({R.label(c)})" for k, c in enumerate(self.f_coeffs))
        g = " + ".join(f"({R.label(c)})x^{k}" if k else f"({R.label(c)})" for k, c in enumerate(self.g_coeffs))
        return f"f = {f}; g = {g}; coefficient pair ({self.i},{self.j}) multiplies to {R.label(self.product)}"

    def problem(self, R: FiniteRing, kind: PropertyKind) -> Optional[str]:
        """Why this pair does not refute kind in R, or None when it does.

        Recomputed from R's own tables by polynomial multiplication and power
        iteration, so the check shares nothing with the search it audits.
        """
        zero = R.zero

        def nilpotent(x: int) -> bool:
            return is_nilpotent(R, x)[0]

        in_constraint = nilpotent if kind is PropertyKind.NIL_ARMENDARIZ else (lambda x: x == zero)
        in_target = (lambda x: x == zero) if kind is PropertyKind.ARMENDARIZ else nilpotent
        prod = poly_mul(Polynomial(R, self.f_coeffs), Polynomial(R, self.g_coeffs)).coeffs
        if not all(in_constraint(c) for c in prod):
            return "witness polynomials do not satisfy the product constraint"
        if R.mul[self.f_coeffs[self.i]][self.g_coeffs[self.j]] != self.product:
            return "witness product does not match the stated coefficients"
        if in_target(self.product):
            return "witness product is not actually a violation"
        return None


@dataclass(frozen=True)
class ElementWitness:
    """A nonzero nilpotent element, refuting reducedness."""

    element: int

    def to_json(self, R: FiniteRing) -> dict:
        return {"element": R.label(self.element), "element_index": self.element}

    def text(self, R: FiniteRing) -> str:
        return f"element {R.label(self.element)}"

    def problem(self, R: FiniteRing, kind: PropertyKind) -> Optional[str]:
        if self.element == R.zero or not is_nilpotent(R, self.element)[0]:
            return "reduced witness is not a nonzero nilpotent"
        return None


@dataclass(frozen=True)
class TripleWitness:
    """a*b = 0 while a*r*b != 0, refuting semicommutativity."""

    a: int
    r: int
    b: int

    def to_json(self, R: FiniteRing) -> dict:
        return {
            "a": R.label(self.a),
            "r": R.label(self.r),
            "b": R.label(self.b),
            "indices": [self.a, self.r, self.b],
        }

    def text(self, R: FiniteRing) -> str:
        return f"a = {R.label(self.a)}, r = {R.label(self.r)}, b = {R.label(self.b)}"

    def problem(self, R: FiniteRing, kind: PropertyKind) -> Optional[str]:
        if R.mul[self.a][self.b] != R.zero:
            return "semicommutative witness pair does not annihilate"
        if R.mul[R.mul[self.a][self.r]][self.b] == R.zero:
            return "semicommutative witness triple vanishes"
        return None


Witness = Union[PolyWitness, ElementWitness, TripleWitness, None]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check.

    pairs_examined counts the candidate coefficient choices the search walked
    through; the pruned walk discards provably harmless pairs wholesale, so
    this measures effort, not the number of annihilating pairs that exist.
    It counts the walk after the cuts of _lex_leader_cut.  It is the node
    count of R's own direct scan, 0 when a route of holds (nil ideal,
    factor split, Gaussian) confirmed the verdict, and is in neither the
    harness report nor the check envelopes.
    A REFUTED report always takes its witness from R's own scan.  A report
    is a fact about a table: rings with equal tables share one.
    """

    kind: PropertyKind
    degree_bound: Optional[int]
    verdict: Verdict
    witness: Witness
    pairs_examined: int

    @property
    def holds(self) -> bool:
        return self.verdict is not Verdict.REFUTED


# --------------------------------------------------------------------------
# ring facts (ring_memo, its store _MEMO and clear_caches live in rings, where
# the constructors store tables too, and are re-exported from here)

def nil_set(R: FiniteRing) -> frozenset:
    """The nilpotent elements of R."""
    return ring_memo(R, "nil", lambda: nilradical(R))


def _nil_is_ideal(R: FiniteRing) -> bool:
    """Whether the nilpotents of R form a two-sided ideal."""
    return ring_memo(R, "nil_ideal", lambda: _ideal_defect(R, sorted(nil_set(R))) is None)


def _indecomposable_factors(R: FiniteRing) -> tuple[FiniteRing, ...]:
    """Split R along central idempotents until no factor splits further.

    Always splits at the smallest nontrivial central idempotent, so the factor
    list is canonical for a given table.  R's bare copy is split, and the
    factors are bare tables, with no structure, so the memo never keeps R
    alive.
    """

    def compute() -> tuple[FiniteRing, ...]:
        idems = central_idempotents(R)
        if not idems:
            return (R.bare(),)
        left, right = split_by_central_idempotent(R.bare(), idems[0])
        return _indecomposable_factors(left) + _indecomposable_factors(right)

    return ring_memo(R, "factors", compute)


def _is_gaussian(R: FiniteRing) -> bool:
    """Whether R is a commutative Gaussian ring (c(fg) = c(f)c(g) for the
    ideals c of the coefficients), read as a local one.  A Gaussian ring is
    Armendariz at every bound: fg = 0 gives c(f)c(g) = 0 (Anderson & Camillo,
    Comm. Algebra 26, 1998).  A local ring is Gaussian iff for all a, b,
    (a,b)^2 = (a^2) or (b^2), and (a,b)^2 = (a^2) with ab = 0 forces b^2 = 0
    (Bazzoni & Glaz, J. Algebra 310, 2007, Thm 2.2); (a,b)^2 = (a^2) iff ab
    and b^2 lie in a^2 R, the values of row a^2 of mul.  Callers ask only of
    rings with one indecomposable factor, which are local when commutative.
    """

    def compute() -> bool:
        if not is_commutative(R):
            return False
        mul, zero = R.mul, R.zero
        squares = [mul[a][a] for a in range(R.size)]
        ideal = {s: sum({1 << v for v in mul[s]}) for s in set(squares)}
        for a, row in enumerate(mul):
            by_a = ideal[squares[a]]
            for b, ab in enumerate(row):
                bb = squares[b]
                if (by_a >> ab) & (by_a >> bb) & 1:
                    if ab == zero and bb != zero:
                        return False
                elif not (ideal[bb] >> ab) & (ideal[bb] >> squares[a]) & 1:
                    return False
        return True

    return ring_memo(R, "gaussian", compute)


class _Tables:
    """The tables of one annihilating-pair search, for the constraint set sc
    and the target set sv, over the values its cut keeps.

    close[a] is the bitmask of the b with a*b in sc, and bad[a] the bitmask
    of the b with a*b outside sv; both are built up front, by one membership
    pass over each row.  heads, coeffs, tails and swap are the cut of
    _lex_leader_cut, taken here so every row is built over coeffs.
    cand[a][p], the b in coeffs ascending with p + a*b in sc, and mask[a][p],
    the same b as a bitmask, are built by row(a) on first read and are None
    until then: a refuting degree-1 scan stops after a few heads, so it
    reads a few of the n rows.  p + a*b is in sc exactly when a*b = s - p
    for an s in sc, so a row groups the b in coeffs by a*b and joins the
    groups of those values (for sc = {0}, the group of -p).  The tables are
    per search and never memoized: scans seldom repeat a (ring, sc) pair,
    so stored tables would cost memory for no reuse.
    """

    __slots__ = ("close", "bad", "cand", "mask", "heads", "coeffs", "tails", "swap", "_mul", "_neg", "_wanted")

    def __init__(self, R: FiniteRing, sc: frozenset, sv: frozenset) -> None:
        n = R.size
        bits = [1 << b for b in range(n)]
        full = (1 << n) - 1
        self.close = [sum(itertools.compress(bits, map(sc.__contains__, row))) for row in R.mul]
        if sc == sv:
            self.bad = [full ^ m for m in self.close]
        else:
            self.bad = [full ^ sum(itertools.compress(bits, map(sv.__contains__, row))) for row in R.mul]
        add, neg = R.add, R.neg
        self._wanted = None if sc == {R.zero} else [[add[s][neg[p]] for s in sorted(sc)] for p in range(n)]
        self._mul, self._neg = R.mul, neg
        self.heads, self.coeffs, self.tails, self.swap = _lex_leader_cut(R, sc, sv, self.close)
        self.cand: list = [None] * n
        self.mask: list = [None] * n

    def row(self, a: int) -> tuple[list, list]:
        """cand[a] and mask[a], built on first read."""
        if self.cand[a] is None:
            n = len(self._mul)
            groups: list[list[int]] = [[] for _ in range(n)]
            bits = [0] * n
            mul_a = self._mul[a]
            for b in self.coeffs:
                v = mul_a[b]
                groups[v].append(b)
                bits[v] |= 1 << b
            if self._wanted is None:
                self.cand[a] = [tuple(groups[v]) for v in self._neg]
                self.mask[a] = [bits[v] for v in self._neg]
            else:
                # the groups of distinct values are disjoint, so sum is union
                self.cand[a] = [tuple(sorted(itertools.chain.from_iterable([groups[v] for v in vs]))) for vs in self._wanted]
                self.mask[a] = [sum([bits[v] for v in vs]) for vs in self._wanted]
        return self.cand[a], self.mask[a]


def _bits(m: int) -> tuple[int, ...]:
    """The set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _cut_values(R: FiniteRing) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    """The values the cuts keep: the least element of each orbit {x*u : u a
    unit} of R, ascending and as a bitmask; then, on a commutative R only
    (else empty), the non-units least in their coset x + K, ascending and as
    a bitmask, where K is the set of elements that kill every non-unit.

    Right multiplication by the unit group partitions R, and walking R in
    ascending order meets each orbit first at its least element.  On a ring
    with two or more factors K = {0}: k kills e and 1 - e for an idempotent
    e != 0, 1.
    """

    def compute() -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
        us = units(R)
        reps = []
        seen = 0
        for x in range(R.size):
            if not (seen >> x) & 1:
                reps.append(x)
                row = R.mul[x]
                for u in us:
                    seen |= 1 << row[u]
        least: tuple[int, ...] = ()
        if is_commutative(R):
            add, zero = R.add, R.zero
            nonunits = [x for x in range(R.size) if x not in us]
            kills = [k for k, row in enumerate(R.mul) if all(row[x] == zero for x in nonunits)]
            least = tuple(x for x in nonunits if min([add[x][k] for k in kills]) == x)
        return tuple(reps), sum(1 << x for x in reps), least, sum(1 << x for x in least)

    return ring_memo(R, "cut_values", compute)


def _lex_leader_cut(
    R: FiniteRing, sc: frozenset, sv: frozenset, close: list
) -> tuple[Iterator[tuple[int, tuple[int, ...]]], Sequence[int], dict, bool]:
    """What the scans walk, as (heads, coeffs, tails, swap); _Tables takes
    it and builds its rows over coeffs.

    coeffs are the values any coefficient takes, ascending: all of R, or
    under the McCoy and coset cuts the non-units least in their coset x + K.
    leads = tails[zero] are the values f's first nonzero coefficient a_k
    takes: the least element of each unit orbit in coeffs (zero is an orbit
    of its own).  tails[x], for x in leads, are the coeffs from x on, the
    values f's last coefficient takes after a first nonzero a_k = x, k < d.
    heads yields each a0 in leads with the b0 it walks, the bits of
    close[a0] (the b with a0*b in sc) in coeffs, as each scan reaches it;
    when sc and sv are both {0} the b0 are cut to leads, and so is each
    later b_k short of the last whose predecessors are all zero, which
    leaves the same level.  swap says whether R is commutative; then the
    scans walk only g >= f: b0 starts at a0, each later b_k at a_k while g
    ties f, and on the last coefficient the mask keeps the bits >= a_d.

    Three maps send a violating pair (f, g) to a violating pair: (f*u,
    u^-1*g) for a unit u keeps every product coefficient and cross product;
    reversing both coefficient tuples reverses the product coefficients and
    keeps the set of cross products a_i*b_j; and f/x, when a0 = 0, shifts
    the product coefficients down and adds only zero cross products, and 0
    lies in both sets.  Reversal after k shifts sends (0^k, a_k, ..., a_d)
    to (0^k, a_d, ..., a_k), so the lex-first violation has a_k <= a_d and
    a_k least in its orbit.  When both sets are {0}, (f, g*u) multiplies
    every product coefficient and cross product on the right by a unit,
    which keeps zero and nonzero apart, so g's first nonzero coefficient is
    least in its orbit too.  On a commutative ring a fourth map, the swap
    (g, f), keeps the product coefficients (gf = fg) and the cross products
    (b_j*a_i = a_i*b_j), so the lex-first violation has f <= g.  The cut
    walk keeps its lex order, so it finds the first witness of the full
    walk.  The level of g's last coefficient is never cut by a map, only
    masked: the unrolled scans take its lowest valid bit, and every scan
    counts it whole.  The McCoy cut, on a commutative ring with sc = {0}: a
    violating pair has fg = 0, f != 0 and g != 0, so some c != 0 kills every
    coefficient of f (McCoy, Amer. Math. Monthly 49, 1942), and none is a
    unit; gf = 0 does the same for g.  The coset cut, in the same case: K,
    the elements that kill every non-unit, kills every coefficient of f and
    g, so adding k in K to one keeps fg and every cross product, and the
    lex-first violation has each coefficient least in its coset x + K.
    When zero is not least in K, zero leaves coeffs: replacing a zero
    coefficient by min(K) gives a lex-smaller violating pair, so the
    lex-first one has no zero coefficient and the scans' zero branches never
    fire.  Disabling every cut means replacing this one function.
    """
    reps, rep_mask, least, least_mask = _cut_values(R)
    zero = R.zero
    swap = is_commutative(R)
    coeffs: Sequence[int] = range(R.size)
    cut = rep_mask if sc == sv == {zero} else -1
    if swap and sc == {zero}:
        coeffs = least
        cut &= least_mask
        reps = tuple(x for x in reps if (least_mask >> x) & 1)
    tails = {x: coeffs[bisect_left(coeffs, x) :] for x in reps}
    tails[zero] = reps
    heads = ((a0, _bits(close[a0] & cut)) for a0 in reps)
    return heads, coeffs, tails, swap


# --------------------------------------------------------------------------
# pruned search

def _first_bad_product(
    mul: tuple[tuple[int, ...], ...], sv: frozenset, fc: tuple[int, ...], gc: tuple[int, ...]
) -> tuple:
    for i, a in enumerate(fc):
        row = mul[a]
        for j, b in enumerate(gc):
            p = row[b]
            if p not in sv:
                return (fc, gc, i, j, p)
    raise InternalInvariantError(f"violating leaf without a bad product: f={fc} g={gc}")


def _scan_block_generic(
    R: FiniteRing,
    d: int,
    sc: frozenset,
    sv: frozenset,
    node_budget: Optional[int],
) -> tuple[Optional[tuple], int]:
    """Reference scan for any degree bound (the d=1 and d=2 hot paths are
    unrolled separately but must traverse in exactly this order).

    f runs in lexicographic coefficient order, g is built by
    backtracking: choosing g's k-th coefficient closes the k-th convolution
    constraint, so infeasible prefixes are cut immediately.  At the final
    coefficient, candidates that cannot complete a violation are skipped, so
    the walk only ever lands on leaves that refute the property.  Returns the
    first such leaf as (f, g, i, j, product) plus the count of candidate nodes
    visited.  Its bad masks come from their definition, not from _Tables,
    so it checks the unrolled scans' masks independently.  It walks only the
    f and g coefficients that _lex_leader_cut keeps, as the unrolled scans
    do; tied says g's coefficients so far equal f's, which the swap cut
    needs.
    """
    tables = _Tables(R, sc, sv)
    bad = [sum([1 << b for b, p in enumerate(row) if p not in sv]) for row in R.mul]
    add, mul = R.add, R.mul
    zero = R.zero
    f = [0] * (d + 1)
    g = [0] * (d + 1)
    pend = [zero] * (2 * d + 1)
    state = {"nodes": 0, "fbad": 0, "level0": (), "cand0": []}
    tails = tables.tails
    lead_set = set(tails[zero])

    def descend(k: int, flag: int, g_zero: bool, tied: bool) -> bool:
        fbad = state["fbad"]
        last = k == d
        # with b_0..b_{k-1} zero, pend[k] is zero and the cut level is level0
        level = state["level0"] if not k or (g_zero and not last) else state["cand0"][pend[k]]
        low = f[k] if tied else 0
        if not last:
            level = level[bisect_left(level, low) :]
        state["nodes"] += len(level)
        if node_budget is not None and state["nodes"] > node_budget:
            raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
        for b in level:
            nf = flag | ((fbad >> b) & 1)
            if last and (not nf or b < low):
                continue
            g[k] = b
            if d:
                saved = pend[k + 1 : k + d + 1]
                for m in range(k + 1, k + d + 1):
                    pend[m] = add[pend[m]][mul[f[m - k]][b]]
            if last:
                ok = True
                for m in range(d + 1, 2 * d + 1):
                    if pend[m] not in sc:
                        ok = False
                        break
                if ok:
                    if d:
                        pend[k + 1 : k + d + 1] = saved
                    return True
            elif descend(k + 1, nf, g_zero and b == zero, tied and b == f[k]):
                if d:
                    pend[k + 1 : k + d + 1] = saved
                return True
            if d:
                pend[k + 1 : k + d + 1] = saved
        return False

    for a0, level0 in tables.heads:
        fb0 = bad[a0]
        state["level0"] = level0
        state["cand0"] = tables.row(a0)[0]
        for rest in itertools.product(tables.coeffs, repeat=d):
            fc = (a0, *rest)
            lead = next((a for a in fc[:d] if a != zero), zero)
            if lead not in lead_set or fc[d] not in tails[lead]:
                continue
            fb = fb0
            for a in rest:
                fb |= bad[a]
            if fb == 0:
                continue
            f[:] = fc
            state["fbad"] = fb
            if descend(0, 0, True, tables.swap):
                return _first_bad_product(mul, sv, tuple(f), tuple(g)), state["nodes"]
    return None, state["nodes"]


def _scan_block_d1(
    R: FiniteRing,
    sc: frozenset,
    sv: frozenset,
    node_budget: Optional[int],
) -> tuple[Optional[tuple], int]:
    """_scan_block_generic unrolled for degree bound 1.

    g's last coefficient is chosen by mask intersection, not by a loop: the
    b1 closing both open constraints (a0*b1 + a1*b0 and a1*b1 in sc) are
    mask[a0][a1*b0] & close[a1], narrowed to fbad unless b0 already makes
    the leaf bad, and the lowest set bit is the lex-first witness.  nodes
    still adds the whole candidate level, so the count is the generic one.
    Only the rows of the heads the walk reaches are built, over the cut's
    coeffs.  On a commutative ring b0 starts at a0, and when b0 = a0 (tie0)
    the mask keeps b1 >= a1.
    """
    tables = _Tables(R, sc, sv)
    close, bad, tails = tables.close, tables.bad, tables.tails
    mul = R.mul
    nodes = 0
    for a0, level0 in tables.heads:
        fb0 = bad[a0]
        cand0, mask0 = tables.row(a0)
        tie0 = a0 if tables.swap else -1
        level0 = level0[bisect_left(level0, tie0) :]
        for a1 in tails[a0]:
            fbad = fb0 | bad[a1]
            if fbad == 0:
                continue
            mul1 = mul[a1]
            close1 = close[a1]
            nodes += len(level0)
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
            for b0 in level0:
                p1 = mul1[b0]
                nodes += len(cand0[p1])
                m = mask0[p1] & close1
                if not (fbad >> b0) & 1:
                    m &= fbad
                if b0 == tie0:
                    m &= -1 << a1
                if m:
                    b1 = (m & -m).bit_length() - 1
                    return _first_bad_product(mul, sv, (a0, a1), (b0, b1)), nodes
    return None, nodes


def _scan_block_d2(
    R: FiniteRing,
    sc: frozenset,
    sv: frozenset,
    node_budget: Optional[int],
) -> tuple[Optional[tuple], int]:
    """_scan_block_generic unrolled for degree bound 2.

    As in _scan_block_d1, g's last coefficient is the lowest set bit of
    mask[a0][a1*b1 + a2*b0] & mask[a1][a2*b1] & close[a2], narrowed to
    fbad unless b0 or b1 already makes the leaf bad.  With b0 = 0, b1's
    level cand[a0][0] is the level of b0 before the swap cut, cut the same
    way.  On a commutative ring b0 starts at a0, b1 at a1 when b0 = a0, and
    the mask keeps b2 >= a2 when b1 = a1 too (tie1).  a1 runs over the
    cut's coeffs, and a row over them is built when the walk first reads
    it, with no call on later reads.
    """
    tables = _Tables(R, sc, sv)
    close, bad, mask, coeffs, tails = tables.close, tables.bad, tables.mask, tables.coeffs, tables.tails
    add, mul = R.add, R.mul
    zero = R.zero
    nodes = 0
    for a0, level0 in tables.heads:
        fb0 = bad[a0]
        cand0, mask0 = tables.row(a0)
        tie0 = a0 if tables.swap else -1
        walk0 = level0[bisect_left(level0, tie0) :]
        for a1 in coeffs if a0 != zero else tails[zero]:
            fb01 = fb0 | bad[a1]
            mul1 = mul[a1]
            mask1 = mask[a1] or tables.row(a1)[1]
            for a2 in tails[a0 if a0 != zero else a1]:
                fbad = fb01 | bad[a2]
                if fbad == 0:
                    continue
                mul2 = mul[a2]
                close2 = close[a2]
                nodes += len(walk0)
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
                for b0 in walk0:
                    flag0 = (fbad >> b0) & 1
                    plus_p2 = add[mul2[b0]]
                    level1 = cand0[mul1[b0]] if b0 != zero else level0
                    tie1 = -1
                    if b0 == tie0:
                        tie1 = a1
                        level1 = level1[bisect_left(level1, a1) :]
                    nodes += len(level1)
                    for b1 in level1:
                        q2 = plus_p2[mul1[b1]]
                        nodes += len(cand0[q2])
                        m = mask0[q2] & mask1[mul2[b1]] & close2
                        if not (flag0 or (fbad >> b1) & 1):
                            m &= fbad
                        if b1 == tie1:
                            m &= -1 << a2
                        if m:
                            b2 = (m & -m).bit_length() - 1
                            return (
                                _first_bad_product(mul, sv, (a0, a1, a2), (b0, b1, b2)),
                                nodes,
                            )
    return None, nodes


def _search_violation(
    R: FiniteRing,
    d: int,
    sc: frozenset,
    sv: frozenset,
    node_budget: Optional[int],
) -> tuple[Optional[tuple], int]:
    """The lexicographically first violating leaf, or None, and the node count."""
    if d == 1:
        return _scan_block_d1(R, sc, sv, node_budget)
    if d == 2:
        return _scan_block_d2(R, sc, sv, node_budget)
    return _scan_block_generic(R, d, sc, sv, node_budget)


# --------------------------------------------------------------------------
# pair streams

def annihilating_pairs(R: FiniteRing, d: int, members: Iterable[int]) -> Iterator[tuple[Polynomial, Polynomial]]:
    """Stream every pair (f, g) of degree bound d with all coefficients of f*g
    inside the member set, in lexicographic (f coefficients, g coefficients)
    order.  For each f, g grows one coefficient at a time in lex order: b_k
    is one of the b with p + a0*b in the set, p the sum of the a_i*b_(k-i)
    with i > 0, so coefficient k of f*g closes as b_k is chosen.  It shares
    no table and no cut with the scans.
    """
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    sc = frozenset(members)
    add, mul, rng = R.add, R.mul, range(R.size)
    for a0 in rng:
        cand = [tuple(b for b in rng if add[p][mul[a0][b]] in sc) for p in rng]
        for rest in itertools.product(rng, repeat=d):
            rows = [mul[a] for a in rest]
            # each prefix b_0..b_(k-1) of g with coefficients k..2d of f*g
            grown = [((), (R.zero,) * (2 * d + 1))]
            for _ in range(d + 1):
                grown = [
                    (gc + (b,), tuple([add[p][row[b]] for p, row in zip(pend[1:], rows)]) + pend[d + 1 :])
                    for gc, pend in grown
                    for b in cand[pend[0]]
                ]
            f = Polynomial(R, (a0, *rest))
            for gc, pend in grown:
                if sc.issuperset(pend):
                    yield f, Polynomial(R, gc)


def naive_annihilating_pairs(R: FiniteRing, d: int, members: Iterable[int]) -> Iterator[tuple[Polynomial, Polynomial]]:
    """Reference double enumeration: test every pair of coefficient tuples,
    dropping it at the first product coefficient outside the set."""
    allowed = frozenset(members)
    add, zero = R.add, R.zero
    tuples = list(itertools.product(range(R.size), repeat=d + 1))
    terms = [[(i, k - i) for i in range(max(0, k - d), min(k, d) + 1)] for k in range(2 * d + 1)]
    for fc in tuples:
        f = Polynomial(R, fc)
        rows = [R.mul[a] for a in fc]
        for gc in tuples:
            for term in terms:
                c = zero
                for i, j in term:
                    c = add[c][rows[i][gc[j]]]
                if c not in allowed:
                    break
            else:
                yield f, Polynomial(R, gc)


def _kind_sets(R: FiniteRing, kind: PropertyKind) -> tuple[frozenset, frozenset]:
    zero_key = frozenset((R.zero,))
    if kind is PropertyKind.ARMENDARIZ:
        return zero_key, zero_key
    if kind is PropertyKind.NIL_ARMENDARIZ:
        nil = nil_set(R)
        return nil, nil
    if kind is PropertyKind.WEAK_ARMENDARIZ:
        return zero_key, nil_set(R)
    raise ValueError(f"not a polynomial property: {kind}")


def naive_poly_check(R: FiniteRing, kind: PropertyKind, d: int) -> tuple[Verdict, Optional[PolyWitness], int]:
    """Oracle checker by brute double enumeration; returns (verdict, witness, pairs)."""
    sc, sv = _kind_sets(R, kind)
    pairs = 0
    for f, g in naive_annihilating_pairs(R, d, sc):
        pairs += 1
        for i, a in enumerate(f.coeffs):
            row = R.mul[a]
            for j, b in enumerate(g.coeffs):
                if row[b] not in sv:
                    return Verdict.REFUTED, PolyWitness(f.coeffs, g.coeffs, i, j, row[b]), pairs
    return Verdict.HOLDS_UP_TO_BOUND, None, pairs


# --------------------------------------------------------------------------
# checkers

def _direct_scan(
    R: FiniteRing,
    kind: PropertyKind,
    d: int,
    node_budget: Optional[int],
) -> PropertyReport:
    """R's own direct scan, with no route and no memo, so a refutation's
    witness is the lex-minimal one in R's indexing."""
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    wit, examined = _search_violation(R, d, *_kind_sets(R, kind), node_budget)
    if wit is None:
        return PropertyReport(kind, d, Verdict.HOLDS_UP_TO_BOUND, None, examined)
    witness = PolyWitness(*wit)
    problem = witness.problem(R, kind)
    if problem is not None:
        raise InternalInvariantError(f"{problem}: {witness}")
    return PropertyReport(kind, d, Verdict.REFUTED, witness, examined)


def check_armendariz(
    R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None
) -> PropertyReport:
    """Does f*g = 0 force every product of coefficients to vanish, for degrees <= d?"""
    return _direct_scan(R, PropertyKind.ARMENDARIZ, d, node_budget)


def check_nil_armendariz(
    R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None
) -> PropertyReport:
    """Does f*g having nilpotent coefficients force nilpotent coefficient products?"""
    return _direct_scan(R, PropertyKind.NIL_ARMENDARIZ, d, node_budget)


def check_weak_armendariz(
    R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None
) -> PropertyReport:
    """Does f*g = 0 force every product of coefficients to be nilpotent?"""
    return _direct_scan(R, PropertyKind.WEAK_ARMENDARIZ, d, node_budget)


def check_reduced(R: FiniteRing) -> PropertyReport:
    ok, witness = is_reduced(R)
    return PropertyReport(
        PropertyKind.REDUCED,
        None,
        Verdict.HOLDS_EXACT if ok else Verdict.REFUTED,
        None if ok else ElementWitness(witness),
        0,
    )


def check_semicommutative(R: FiniteRing) -> PropertyReport:
    ok, witness = is_semicommutative_ring(R)
    return PropertyReport(
        PropertyKind.SEMICOMMUTATIVE,
        None,
        Verdict.HOLDS_EXACT if ok else Verdict.REFUTED,
        None if ok else TripleWitness(*witness),
        0,
    )


# --------------------------------------------------------------------------
# profiles and cached access

def get_report(R: FiniteRing, kind: PropertyKind, d: Optional[int] = None, *, node_budget: Optional[int] = None) -> PropertyReport:
    """Memoized property report; polynomial kinds require a degree bound.

    A polynomial kind takes its verdict from holds.  A holding verdict
    returns the report of holds' own scan of R when it made one, else a HOLDS
    report with 0 nodes.  A refuted one returns R's own direct scan, so the
    witness is the lex-minimal one in R's indexing whichever route refuted.
    """
    poly = kind in POLY_KINDS
    if poly and d is None:
        raise ValueError("polynomial properties need a degree bound")
    key = (kind, d if poly else None)
    report = _stored(R, key)
    if report is not None:
        return report
    if poly:
        if holds(R, kind, d, node_budget=node_budget):
            return ring_memo(R, key, lambda: PropertyReport(kind, d, Verdict.HOLDS_UP_TO_BOUND, None, 0))
        return ring_memo(R, key, lambda: _direct_scan(R, kind, d, node_budget))
    if kind is PropertyKind.REDUCED:
        return ring_memo(R, key, lambda: check_reduced(R))
    return ring_memo(R, key, lambda: check_semicommutative(R))


def holds(R: FiniteRing, kind: PropertyKind, d: Optional[int] = None, *, node_budget: Optional[int] = None) -> bool:
    """Memoized verdict of kind on R, without a witness: the one place the
    routes live.

    A polynomial kind tries, in order, the memo, the degree lift, the nil
    ideal, the factor split and the Gaussian route, and scans R only when
    none decides; that scan's report is stored as get_report's.

    Degree lift: a refutation at degree d-1 padded with zeros refutes at
    degree d, since the product coefficients are the same plus zeros and 0
    lies in every constraint set.  So degree d-1 is asked first, from d = 2
    on (degree 0 never refutes).  A probe that runs out of budget falls
    through to the later routes and the degree-d scan.  Nil ideal: when the
    nilpotents N form an ideal, R/N is reduced (x^k in N forces x in N) and
    so Armendariz at every bound (Armendariz 1974); then f*g in N[x], or
    f*g = 0, projects to a vanishing product in R/N, so every a_i*b_j lies
    in N and nil-Armendariz and weak Armendariz hold.  Factor split: every
    polynomial kind splits across a direct product at any fixed bound, since
    a violating pair in a factor is one in R, and a violating pair in R
    projects onto the factor where the offending product survives; so R
    holds exactly when every factor does.  Gaussian: Armendariz holds when R
    has one indecomposable factor and _is_gaussian(R).
    """
    key = ("holds", kind, d)
    verdict = _stored(R, key)
    if verdict is not None:
        return verdict

    def compute() -> bool:
        if kind not in POLY_KINDS or d is None:
            return get_report(R, kind, d, node_budget=node_budget).holds
        if d < 0:
            raise ValueError("degree bound must be non-negative")
        if d >= 2:
            try:
                if not holds(R, kind, d - 1, node_budget=node_budget):
                    return False
            except SearchBudgetError:
                pass
        if kind is not PropertyKind.ARMENDARIZ and _nil_is_ideal(R):
            return True
        factors = _indecomposable_factors(R)
        if len(factors) > 1:
            return all(holds(piece, kind, d, node_budget=node_budget) for piece in factors)
        if kind is PropertyKind.ARMENDARIZ and _is_gaussian(R):
            return True
        return ring_memo(R, (kind, d), lambda: _direct_scan(R, kind, d, node_budget)).holds

    return ring_memo(R, key, compute)


@dataclass(frozen=True)
class AuditFinding:
    """A broken or suspicious edge in the property implication chain."""

    code: str
    fatal: bool
    detail: str


@dataclass(frozen=True)
class PropertyProfile:
    """All five property reports for one ring at one degree bound."""

    ring: FiniteRing
    degree_bound: int
    reduced: PropertyReport
    semicommutative: PropertyReport
    armendariz: PropertyReport
    nil_armendariz: PropertyReport
    weak_armendariz: PropertyReport

    def reports(self) -> tuple[PropertyReport, ...]:
        return (self.reduced, self.semicommutative, self.armendariz, self.nil_armendariz, self.weak_armendariz)

    def verdicts(self) -> dict[str, str]:
        return {rep.kind.value: rep.verdict.value for rep in self.reports()}

    def audit(self) -> list[AuditFinding]:
        """Check the implication chain on this profile.

        reduced => armendariz and nil-armendariz => weak-armendariz must hold
        at every bound (both are degree-local facts), so breaking either is
        fatal.  armendariz holding while nil-armendariz is refuted is possible
        in principle at a fixed bound but surprising; it is flagged non-fatal
        as a prompt to escalate the bound.
        """
        findings = []
        if self.reduced.holds and not self.armendariz.holds:
            findings.append(
                AuditFinding(
                    "reduced-implies-armendariz",
                    True,
                    f"{self.ring.provenance}: reduced ring refutes armendariz at d={self.degree_bound}",
                )
            )
        if self.nil_armendariz.holds and not self.weak_armendariz.holds:
            findings.append(
                AuditFinding(
                    "nil-implies-weak",
                    True,
                    f"{self.ring.provenance}: nil-armendariz holds but weak-armendariz refuted at d={self.degree_bound}",
                )
            )
        if self.armendariz.holds and not self.nil_armendariz.holds:
            findings.append(
                AuditFinding(
                    "armendariz-without-nil",
                    False,
                    f"{self.ring.provenance}: armendariz holds while nil-armendariz is refuted at d={self.degree_bound}",
                )
            )
        return findings


def property_profile(R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None) -> PropertyProfile:
    """Run every checker on R at degree bound d, using the ring memo."""
    return PropertyProfile(
        ring=R,
        degree_bound=d,
        reduced=get_report(R, PropertyKind.REDUCED),
        semicommutative=get_report(R, PropertyKind.SEMICOMMUTATIVE),
        armendariz=get_report(R, PropertyKind.ARMENDARIZ, d, node_budget=node_budget),
        nil_armendariz=get_report(R, PropertyKind.NIL_ARMENDARIZ, d, node_budget=node_budget),
        weak_armendariz=get_report(R, PropertyKind.WEAK_ARMENDARIZ, d, node_budget=node_budget),
    )
