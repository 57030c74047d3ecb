"""Hodge numbers of the Calabi-Yau hypersurface determined by a reflexive
4-polytope, the boundary-point typology of its dual, and the census of
hypersurface divisors coming from toric boundary divisors.

The count h11 is

    l(D) - 5 - sum over facets F of D of l*(F)
             + sum over 2-faces T of D of l*(T) * l*(dual edge of T)

where D is the dual polytope, l counts lattice points and l* counts
relative-interior lattice points.  h12 is h11 with the roles of the
polytope and its dual exchanged, and the Euler characteristic is
2*(h11 - h12).  The same h11 is the rank of the divisor census, and the
report reads its h11 and its count terms off that census.
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
    return {p: _TYPE_BY_DIM[faces[census.face_of[p]].dim] for p in census.boundary}


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


def _h11_terms(delta: Polytope) -> int:
    """h11 = l(D) - 5 - sum l*(F) + sum l*(T) * l*(T^), counted over the
    dual D's facets F and its 2-faces T with their dual edges T^; the terms
    are checked non-negative."""
    dual = delta.dual()
    l_star, dual_l_star = delta.census().n_saturating, dual.census().n_saturating
    facet_correction = sum(dual_l_star[f.fmask] for f in dual.faces(3))
    pairing_term = 0
    for two_face in dual.faces(2):
        if dual_l_star[two_face.fmask] == 0:
            continue
        edge = dual.dual_face(two_face)
        pairing_term += dual_l_star[two_face.fmask] * l_star[edge.fmask]
    if facet_correction < 0 or pairing_term < 0:
        raise InternalInvariantError("negative Hodge count term")
    return dual.n_points - 5 - facet_correction + pairing_term


def h11(delta: Polytope) -> int:
    """Picard-side Hodge number of the resolved anticanonical hypersurface."""
    _require_reflexive_4d(delta, "h11")
    return _h11_terms(delta)


def h12(delta: Polytope) -> int:
    """Complex-structure-side Hodge number: h11 of the mirror, i.e. of the
    dual polytope."""
    _require_reflexive_4d(delta, "h12")
    return h11(delta.dual())


def euler(delta: Polytope) -> int:
    """Euler characteristic 2*(h11 - h12) of the hypersurface threefold."""
    return 2 * (h11(delta) - h12(delta))


def divisor_census(delta: Polytope) -> DivisorCensus:
    """Bucket the dual boundary points, in lexicographic order, by the
    dimension of their face: a vertex or edge point gives one irreducible
    divisor, a 2-face point splits into as many components as the lattice
    length of the dual edge, and a facet point misses the hypersurface.
    The census rank is checked against h11 from the face counts."""
    _require_reflexive_4d(delta, "divisor census")
    dual = delta.dual()
    census, faces = dual.census(), dual.faces().by_fmask
    l_star = delta.census().n_saturating
    irreducible = []
    split = []
    skipped = []
    for p in census.boundary:
        face = faces[census.face_of[p]]
        if face.dim < 2:
            irreducible.append(p)
        elif face.dim == 2:  # the dual edge's lattice length, l* + 1
            edge = dual.dual_face(face)
            split.append((p, l_star[edge.fmask] + 1))
        else:
            skipped.append(p)
    out = DivisorCensus(tuple(irreducible), tuple(split), tuple(skipped))
    expected = h11(delta)
    if out.rank != expected:
        raise InternalInvariantError(f"divisor census rank {out.rank} != h11 {expected}")
    return out


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
