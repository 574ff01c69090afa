"""Armendariz-style property checks, a pruned annihilating-pair engine, and a
naive enumeration oracle to hold it to account.

All polynomial properties are degree-bounded: a HOLDS verdict means "no
counterexample among pairs with both degrees at most d", a REFUTED verdict is
exact and carries a re-validated witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Optional, TypeVar, Union

from .constructions import quotient_ring
from .errors import InternalInvariantError, NotAnIdealError, SearchBudgetError
from .morphisms import Ideal
from .poly import Polynomial, poly_mul, product_coeffs_in_set
from .rings import (
    FiniteRing,
    central_idempotents,
    is_nilpotent,
    is_reduced,
    is_semicommutative_ring,
    nilradical,
    split_by_central_idempotent,
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
    It depends on the engine route (factor split, quotient shortcut) and is
    excluded from reports that must be byte-identical across worker
    configurations.  A report is a fact about a table: rings with equal
    tables share one.
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


def nil_set(R: FiniteRing) -> frozenset:
    """The nilpotent elements of R."""
    return ring_memo(R, "nil", lambda: nilradical(R))


def _nil_quotient(R: FiniteRing) -> Optional[tuple[FiniteRing, tuple[int, ...]]]:
    """R modulo its nilradical when that set is a two-sided ideal, else None."""

    def compute() -> Optional[tuple[FiniteRing, tuple[int, ...]]]:
        try:
            nil = Ideal(R, tuple(sorted(nil_set(R))))
        except NotAnIdealError:
            return None
        return quotient_ring(R, nil)

    return ring_memo(R, "nil_quotient", compute)


def _indecomposable_factors(R: FiniteRing) -> tuple[FiniteRing, ...]:
    """Split R along central idempotents until no factor splits further.

    Always splits at the smallest nontrivial central idempotent, so the factor
    list is canonical for a given table.
    """

    def compute() -> tuple[FiniteRing, ...]:
        idems = central_idempotents(R)
        if not idems:
            return (R,)
        left, right = split_by_central_idempotent(R, idems[0])
        return _indecomposable_factors(left) + _indecomposable_factors(right)

    return ring_memo(R, "factors", compute)


def _cand_tables(R: FiniteRing, allowed: frozenset) -> tuple[list[list[tuple[int, ...]]], list[list[int]]]:
    """cand[a][p], the b ascending with p + a*b in the allowed set, and
    mask[a][p], the same b as a bitmask.

    p + a*b is allowed exactly when a*b = s - p for an allowed s, so each row
    groups b by the value of a*b and joins the groups of those values.  The
    tables are built per search and never memoized: scans seldom repeat a
    (ring, allowed) pair, so stored tables would cost memory for no reuse.
    """
    n = R.size
    add, neg = R.add, R.neg
    targets = sorted(allowed)
    wanted = [[add[s][neg[p]] for s in targets] for p in range(n)]
    # allowed = {0} (armendariz, weak) joins one group per entry: share it
    single = [values[0] for values in wanted] if len(targets) == 1 else None
    cand, mask = [], []
    for row in R.mul:
        groups: list[list[int]] = [[] for _ in range(n)]
        bits = [0] * n
        for b, v in enumerate(row):
            groups[v].append(b)
            bits[v] |= 1 << b
        if single is not None:
            shared = list(map(tuple, groups))
            cand.append(list(map(shared.__getitem__, single)))
            mask.append(list(map(bits.__getitem__, single)))
        else:
            # the groups of distinct values are disjoint, so sum is union
            cand.append([tuple(sorted(itertools.chain.from_iterable([groups[v] for v in vs]))) for vs in wanted])
            mask.append([sum([bits[v] for v in vs]) for vs in wanted])
    return cand, mask


def _cand_table(R: FiniteRing, allowed: frozenset) -> list[list[tuple[int, ...]]]:
    """cand[a][p] lists b ascending with p + a*b in the allowed set."""
    return _cand_tables(R, allowed)[0]


def _bad_masks(R: FiniteRing, allowed: frozenset) -> list[int]:
    """Per a, a bitmask of the b with a*b outside the allowed set."""
    masks = []
    for row in R.mul:
        m = 0
        for b, p in enumerate(row):
            if p not in allowed:
                m |= 1 << b
        masks.append(m)
    return masks


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
    visited.
    """
    n = R.size
    cand = _cand_table(R, sc)
    bad = _bad_masks(R, sv)
    add, mul = R.add, R.mul
    zero = R.zero
    f = [0] * (d + 1)
    g = [0] * (d + 1)
    pend = [zero] * (2 * d + 1)
    state = {"nodes": 0, "fbad": 0}

    def descend(k: int, flag: int) -> bool:
        fbad = state["fbad"]
        last = k == d
        level = cand[f[0]][pend[k]]
        state["nodes"] += len(level)
        if node_budget is not None and state["nodes"] > node_budget:
            raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
        for b in level:
            nf = flag | ((fbad >> b) & 1)
            if last and not nf:
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
            elif descend(k + 1, nf):
                if d:
                    pend[k + 1 : k + d + 1] = saved
                return True
            if d:
                pend[k + 1 : k + d + 1] = saved
        return False

    rng = range(n)
    for a0 in rng:
        fb0 = bad[a0]
        for rest in itertools.product(rng, repeat=d):
            fb = fb0
            for a in rest:
                fb |= bad[a]
            if fb == 0:
                continue
            f[0] = a0
            f[1:] = rest
            state["fbad"] = fb
            if descend(0, 0):
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
    mask[a0][a1*b0] & mask[a1][0], narrowed to fbad unless b0 already makes
    the leaf bad, and the lowest set bit is the lex-first witness.  nodes
    still adds the whole candidate level, so the count is the generic one.
    """
    cand, mask = _cand_tables(R, sc)
    bad = _bad_masks(R, sv)
    mul = R.mul
    zero = R.zero
    nodes = 0
    rng = range(R.size)
    for a0 in rng:
        fb0 = bad[a0]
        cand0 = cand[a0]
        mask0 = mask[a0]
        level0 = cand0[zero]
        for a1 in rng:
            fbad = fb0 | bad[a1]
            if fbad == 0:
                continue
            mul1 = mul[a1]
            close1 = mask[a1][zero]
            nodes += len(level0)
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
            for b0 in level0:
                p1 = mul1[b0]
                nodes += len(cand0[p1])
                m = mask0[p1] & close1
                if not (fbad >> b0) & 1:
                    m &= fbad
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
    mask[a0][a1*b1 + a2*b0] & mask[a1][a2*b1] & mask[a2][0], narrowed to
    fbad unless b0 or b1 already makes the leaf bad.
    """
    cand, mask = _cand_tables(R, sc)
    bad = _bad_masks(R, sv)
    add, mul = R.add, R.mul
    zero = R.zero
    nodes = 0
    rng = range(R.size)
    for a0 in rng:
        fb0 = bad[a0]
        cand0 = cand[a0]
        mask0 = mask[a0]
        level0 = cand0[zero]
        for a1 in rng:
            fb01 = fb0 | bad[a1]
            mul1 = mul[a1]
            mask1 = mask[a1]
            for a2 in rng:
                fbad = fb01 | bad[a2]
                if fbad == 0:
                    continue
                mul2 = mul[a2]
                close2 = mask[a2][zero]
                nodes += len(level0)
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetError(f"annihilating-pair search exceeded {node_budget} nodes")
                for b0 in level0:
                    flag0 = (fbad >> b0) & 1
                    plus_p2 = add[mul2[b0]]
                    level1 = cand0[mul1[b0]]
                    nodes += len(level1)
                    for b1 in level1:
                        q2 = plus_p2[mul1[b1]]
                        nodes += len(cand0[q2])
                        m = mask0[q2] & mask1[mul2[b1]] & close2
                        if not (flag0 or (fbad >> b1) & 1):
                            m &= fbad
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
    order.  Backtracking prunes g prefixes as convolution constraints close.
    """
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    sc = frozenset(members)
    cand = _cand_table(R, sc)
    add, mul = R.add, R.mul
    zero = R.zero
    n = R.size
    width = d + 1
    g = [0] * width
    pend = [zero] * (2 * d + 1)

    def emit(fc: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
        last = k == d
        for b in cand[fc[0]][pend[k]]:
            g[k] = b
            if d:
                saved = pend[k + 1 : k + d + 1]
                for m in range(k + 1, k + d + 1):
                    pend[m] = add[pend[m]][mul[fc[m - k]][b]]
            if last:
                if all(pend[m] in sc for m in range(d + 1, 2 * d + 1)):
                    yield tuple(g)
            else:
                yield from emit(fc, k + 1)
            if d:
                pend[k + 1 : k + d + 1] = saved

    for fc in itertools.product(range(n), repeat=width):
        for gc in emit(fc, 0):
            yield Polynomial(R, fc), Polynomial(R, gc)


def naive_annihilating_pairs(R: FiniteRing, d: int, members: Iterable[int]) -> Iterator[tuple[Polynomial, Polynomial]]:
    """Reference double enumeration: test every pair of coefficient tuples."""
    allowed = frozenset(members)
    n = R.size
    for fc in itertools.product(range(n), repeat=d + 1):
        f = Polynomial(R, fc)
        for gc in itertools.product(range(n), repeat=d + 1):
            g = Polynomial(R, gc)
            if product_coeffs_in_set(f, g, allowed):
                yield f, g


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

def _poly_property_check(
    R: FiniteRing,
    kind: PropertyKind,
    d: int,
    node_budget: Optional[int],
) -> PropertyReport:
    if d < 0:
        raise ValueError("degree bound must be non-negative")
    sc, sv = _kind_sets(R, kind)
    examined = 0
    if kind in (PropertyKind.NIL_ARMENDARIZ, PropertyKind.WEAK_ARMENDARIZ):
        # When the nilpotents form an ideal, work modulo them: f*g lands in
        # nil[x] exactly when the projected product vanishes, and a product of
        # coefficients is nilpotent exactly when its projection is zero.  For
        # the nil property this is an equivalence; for the weak property a
        # clean quotient still forces a clean lift because the zero-product
        # hypothesis projects forward.  A refuted quotient falls through to
        # the direct search so witnesses stay exact and lexicographically
        # minimal in R itself.
        quotient = _nil_quotient(R)
        if quotient is not None:
            qrep = get_report(quotient[0], PropertyKind.ARMENDARIZ, d, node_budget=node_budget)
            examined += qrep.pairs_examined
            if qrep.verdict is not Verdict.REFUTED:
                return PropertyReport(kind, d, Verdict.HOLDS_UP_TO_BOUND, None, examined)
    factors = _indecomposable_factors(R)
    if len(factors) > 1:
        # All three properties split across a direct product at any fixed
        # bound: a violating pair in a factor lifts by padding the other
        # coordinates with zero, and a violating pair in the product projects
        # onto the factor where the offending product survives.  A clean
        # verdict on every factor therefore settles the ring; a dirty factor
        # falls through to the direct search so the recorded witness is the
        # lexicographically smallest one in R's own indexing.
        clean = True
        for piece in factors:
            prep = get_report(piece, kind, d, node_budget=node_budget)
            examined += prep.pairs_examined
            if prep.verdict is Verdict.REFUTED:
                clean = False
                break
        if clean:
            return PropertyReport(kind, d, Verdict.HOLDS_UP_TO_BOUND, None, examined)
    wit, pairs = _search_violation(R, d, sc, sv, node_budget)
    examined += pairs
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
    return _poly_property_check(R, PropertyKind.ARMENDARIZ, d, node_budget)


def check_nil_armendariz(
    R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None
) -> PropertyReport:
    """Does f*g having nilpotent coefficients force nilpotent coefficient products?"""
    return _poly_property_check(R, PropertyKind.NIL_ARMENDARIZ, d, node_budget)


def check_weak_armendariz(
    R: FiniteRing, d: int = 2, *, node_budget: Optional[int] = None
) -> PropertyReport:
    """Does f*g = 0 force every product of coefficients to be nilpotent?"""
    return _poly_property_check(R, PropertyKind.WEAK_ARMENDARIZ, d, node_budget)


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
    """Memoized property check; polynomial kinds require a degree bound."""
    poly = kind in POLY_KINDS
    if poly and d is None:
        raise ValueError("polynomial properties need a degree bound")
    key = (kind, d if poly else None)
    report = _stored(R, key)
    if report is not None:
        return report
    if poly:
        return ring_memo(R, key, lambda: _poly_property_check(R, kind, d, node_budget))
    if kind is PropertyKind.REDUCED:
        return ring_memo(R, key, lambda: check_reduced(R))
    return ring_memo(R, key, lambda: check_semicommutative(R))


def holds(R: FiniteRing, kind: PropertyKind, d: Optional[int] = None, *, node_budget: Optional[int] = None) -> bool:
    """Memoized verdict of get_report(R, kind, d), without a witness.

    A refutation at degree d-1 padded with zeros refutes at degree d: the
    product coefficients are the same plus zeros, and 0 lies in every
    constraint set.  So a polynomial kind asks degree d-1 first and answers
    REFUTED from it with no degree-d search.  Degree 0 never refutes, so the
    lift starts at d = 2.  A lower-degree probe that runs out of budget falls
    back to the degree-d report, so a budgeted query is never less decided
    than get_report.
    """
    key = ("holds", kind, d)
    verdict = _stored(R, key)
    if verdict is not None:
        return verdict

    def compute() -> bool:
        if kind in POLY_KINDS and d is not None and d >= 2:
            try:
                if not holds(R, kind, d - 1, node_budget=node_budget):
                    return False
            except SearchBudgetError:
                pass
        return get_report(R, kind, d, node_budget=node_budget).holds

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
