"""Hodge numbers of the Calabi-Yau hypersurface determined by a reflexive
4-polytope, the boundary-point typology of its dual, and the census of
hypersurface divisors coming from toric boundary divisors.

The count h11 is the rank of the divisor census: the boundary points of
the dual polytope D off its facets' interiors, a point interior to a
2-face T counted l*(dual edge of T) + 1 times, minus the 4 principal
divisors.  With the origin D's one interior point, that is Batyrev's

    l(D) - 5 - sum over facets F of D of l*(F)
             + sum over 2-faces T of D of l*(T) * l*(dual edge of T)

where l counts lattice points and l* counts relative-interior lattice
points.  h12 is h11 with the roles of the polytope and its dual
exchanged, and the Euler characteristic is 2*(h11 - h12).  The report
reads its h11 and its count terms off the census.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError, NotReflexiveError
from .polytope import Polytope


class PointType(enum.Enum):
    """Position of a boundary lattice point of the dual polytope: the
    dimension of the face whose relative interior contains it."""

    VERTEX = "vertex"
    IN_EDGE = "interior of 1-face"
    IN_2FACE = "interior of 2-face"
    IN_3FACE = "interior of 3-face"


_TYPE_BY_DIM = {0: PointType.VERTEX, 1: PointType.IN_EDGE, 2: PointType.IN_2FACE, 3: PointType.IN_3FACE}

LINEAR_RELATIONS = 4  # principal divisors: one per coordinate of M


def _require_reflexive_4d(p: Polytope, what: str):
    if p.ambient_dim != 4:
        raise InputError(f"{what} is defined for 4-dimensional polytopes")
    if not p.is_reflexive():
        raise NotReflexiveError(f"{what} needs a reflexive polytope")


def classify_boundary(dstar: Polytope) -> dict:
    """{point: PointType} for each boundary lattice point of a reflexive
    4-polytope, in lexicographic order: the dimension of the unique face
    whose relative interior contains it, read from the census."""
    _require_reflexive_4d(dstar, "boundary classification")
    census, faces = dstar.census(), dstar.faces().by_fmask
    return {p: _TYPE_BY_DIM[faces[sat].dim] for p, sat in census.face_of.items() if sat}


@dataclass(frozen=True)
class DivisorCensus:
    """Toric boundary divisors sorted by how they meet the hypersurface.

    Points of the dual polytope's boundary fall into three buckets: points
    giving one irreducible hypersurface divisor each, points interior to
    2-faces whose divisor splits into several components, and points
    interior to facets whose divisor misses the hypersurface entirely.
    """

    irreducible_points: tuple
    split_points: tuple  # pairs (point, number of components)
    off_hypersurface_points: tuple

    @property
    def total_components(self) -> int:
        return len(self.irreducible_points) + sum(n for _, n in self.split_points)

    @property
    def rank(self) -> int:
        return self.total_components - LINEAR_RELATIONS


@dataclass(frozen=True)
class HodgeReport:
    h11: int
    h12: int
    euler: int
    n_dual_points: int
    facet_interior_correction: int
    two_face_pairing_term: int
    census: DivisorCensus


def h11(delta: Polytope) -> int:
    """Picard-side Hodge number of the resolved anticanonical hypersurface:
    the rank of the divisor census."""
    _require_reflexive_4d(delta, "h11")
    return divisor_census(delta).rank


def h12(delta: Polytope) -> int:
    """Complex-structure-side Hodge number: h11 of the mirror, i.e. of the
    dual polytope."""
    _require_reflexive_4d(delta, "h12")
    return h11(delta.dual())


def divisor_census(delta: Polytope) -> DivisorCensus:
    """Bucket the dual boundary points, in lexicographic order, by the
    dimension of their face: a vertex or edge point gives one irreducible
    divisor, a 2-face point splits into as many components as the lattice
    length of the dual edge, and a facet point misses the hypersurface.
    The census of the dual must hold one interior point, the origin."""
    _require_reflexive_4d(delta, "divisor census")
    dual = delta.dual()
    census, faces = dual.census(), dual.faces().by_fmask
    if census.n_saturating[0] != 1:
        raise InternalInvariantError(f"dual census holds {census.n_saturating[0]} interior points")
    l_star = delta.census().n_saturating
    irreducible = []
    split = []
    skipped = []
    for p, sat in census.face_of.items():
        if not sat:
            continue
        face = faces[sat]
        if face.dim < 2:
            irreducible.append(p)
        elif face.dim == 2:  # the dual edge, facet mask face.vmask: lattice length l* + 1
            split.append((p, l_star[face.vmask] + 1))
        else:
            skipped.append(p)
    return DivisorCensus(tuple(irreducible), tuple(split), tuple(skipped))


def report(delta: Polytope) -> HodgeReport:
    """Full Hodge data for one polytope, read off its divisor census: h11 is
    the census rank, and each count term is a census tally (the facet
    points are the points off the hypersurface, and a 2-face point adds
    l*(T^) = components - 1 to the pairing term).  h12 is h11 of the dual."""
    _require_reflexive_4d(delta, "hodge report")
    census = divisor_census(delta)
    h11_value = census.rank
    h12_value = h11(delta.dual())
    return HodgeReport(
        h11=h11_value,
        h12=h12_value,
        euler=2 * (h11_value - h12_value),
        n_dual_points=delta.dual().n_points,
        facet_interior_correction=len(census.off_hypersurface_points),
        two_face_pairing_term=sum(n - 1 for _, n in census.split_points),
        census=census,
    )
