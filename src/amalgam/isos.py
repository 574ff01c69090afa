"""Canonical isomorphism checks for amalgamated rings.

Three structure facts are verified element-by-element on concrete tables:
the quotient by {0} x J is isomorphic to the base ring, the quotient by
f^{-1}(J) x {0} is isomorphic to f(A) + J, and in the disjoint situation
(f injective with f(A) meeting J only at zero) the amalgam itself is
isomorphic to f(A) + J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .constructions import AmalgamRing, Embedding, f_plus_j, quotient_ring
from .errors import NotAHomError
from .morphisms import Ideal, RingHom
from .rings import FiniteRing

__all__ = ["IsoReport", "check_canonical_isos"]


@dataclass(frozen=True)
class IsoReport:
    """Outcome of the canonical isomorphism checks for one amalgam."""

    quotient_by_ideal_part_iso_base: bool
    quotient_by_kernel_part_iso_faj: bool
    disjoint_applicable: bool
    disjoint_iso: Optional[bool]

    def all_ok(self) -> bool:
        if not (self.quotient_by_ideal_part_iso_base and self.quotient_by_kernel_part_iso_faj):
            return False
        return self.disjoint_iso is not False


def _is_isomorphism(mapping: Sequence[int], source: FiniteRing, target: FiniteRing) -> bool:
    if len(set(mapping)) != source.size or source.size != target.size:
        return False
    try:
        RingHom(source, target, tuple(mapping))
    except NotAHomError:
        return False
    return True


def check_canonical_isos(am: AmalgamRing, faj: Optional[Embedding] = None) -> IsoReport:
    """Verify the canonical quotient and disjoint-case isomorphisms on tables."""
    A = am.base
    B = am.target
    ring = am.ring
    if faj is None:
        faj = f_plus_j(am.hom, am.ideal)

    # {0} x J inside the amalgam: elements whose base coordinate is zero.
    k1 = tuple(idx for idx in range(ring.size) if am.decode[idx][0] == A.zero)
    q1, surj1 = quotient_ring(ring, Ideal(ring, k1))
    map1 = [am.decode[surj1.index(q)][0] for q in range(q1.size)]
    ok1 = _is_isomorphism(map1, q1, A)

    # f^{-1}(J) x {0}: the kernel of the second projection.
    k2 = tuple(idx for idx in range(ring.size) if am.decode[idx][1] == B.zero)
    q2, surj2 = quotient_ring(ring, Ideal(ring, k2))
    map2 = [faj.sub_index(am.decode[surj2.index(q)][1]) for q in range(q2.size)]
    ok2 = _is_isomorphism(map2, q2, faj.ring)

    f = am.hom
    image = set(f.map)
    disjoint = f.injective and image.intersection(am.ideal.members) == {B.zero}
    ok3: Optional[bool] = None
    if disjoint:
        mapping = [faj.sub_index(b) for _, b in am.decode]
        ok3 = _is_isomorphism(mapping, ring, faj.ring)

    return IsoReport(
        quotient_by_ideal_part_iso_base=ok1,
        quotient_by_kernel_part_iso_faj=ok2,
        disjoint_applicable=disjoint,
        disjoint_iso=ok3,
    )
