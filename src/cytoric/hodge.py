"""Hodge numbers of the Calabi-Yau hypersurface determined by a reflexive
4-polytope, the boundary-point typology of its dual, and the census of
hypersurface divisors coming from toric boundary divisors.

The count h11 is

    l(D) - 5 - sum over facets F of D of l*(F)
             + sum over 2-faces T of D of l*(T) * l*(dual edge of T)

where D is the dual polytope, l counts lattice points and l* counts
relative-interior lattice points.  h12 is h11 with the roles of the
polytope and its dual exchanged, and the Euler characteristic is
2*(h11 - h12).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError, NotReflexiveError
from .polytope import Face, Polytope


class PointType(enum.Enum):
    """Position of a boundary lattice point of the dual polytope: the
    dimension of the face whose relative interior contains it."""

    VERTEX = "vertex"
    IN_EDGE = "interior of 1-face"
    IN_2FACE = "interior of 2-face"
    IN_3FACE = "interior of 3-face"


_TYPE_BY_DIM = {0: PointType.VERTEX, 1: PointType.IN_EDGE, 2: PointType.IN_2FACE, 3: PointType.IN_3FACE}


@dataclass(frozen=True)
class BoundaryPoint:
    point: object
    kind: PointType
    face: Face


def _require_reflexive_4d(p: Polytope, what: str):
    if p.ambient_dim != 4:
        raise InputError(f"{what} is defined for 4-dimensional polytopes")
    if not p.is_reflexive():
        raise NotReflexiveError(f"{what} needs a reflexive polytope")


def classify_boundary(dstar: Polytope) -> dict:
    """Classify each boundary lattice point of a reflexive 4-polytope by the
    unique face whose relative interior contains it."""
    _require_reflexive_4d(dstar, "boundary classification")
    census = dstar.census()
    out = {}
    for p in census.boundary:
        face = census.face_of[p]
        out[p] = BoundaryPoint(p, _TYPE_BY_DIM[face.dim], face)
    return out


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
    n_linear_relations: int = 4

    @property
    def total_components(self) -> int:
        return len(self.irreducible_points) + sum(n for _, n in self.split_points)

    @property
    def rank(self) -> int:
        return self.total_components - self.n_linear_relations


@dataclass(frozen=True)
class HodgeReport:
    h11: int
    h12: int
    euler: int
    n_dual_points: int
    facet_interior_correction: int
    two_face_pairing_term: int
    census: DivisorCensus


def _h11_terms(delta: Polytope):
    """(h11, l(D), sum l*(F), sum l*(T) * l*(T^)) for the dual D, its facets
    F and its 2-faces T with their dual edges T^; the counts are checked."""
    dual = delta.dual()
    n_dual_points = dual.n_points
    facet_correction = sum(f.n_interior for f in dual.faces(3))
    pairing_term = 0
    for two_face in dual.faces(2):
        if two_face.n_interior == 0:
            continue
        edge = dual.dual_face(two_face)
        pairing_term += two_face.n_interior * edge.n_interior
    if facet_correction < 0 or pairing_term < 0:
        raise InternalInvariantError("negative Hodge count term")
    value = n_dual_points - 5 - facet_correction + pairing_term
    return value, n_dual_points, facet_correction, pairing_term


def h11(delta: Polytope) -> int:
    """Picard-side Hodge number of the resolved anticanonical hypersurface."""
    _require_reflexive_4d(delta, "h11")
    return _h11_terms(delta)[0]


def h12(delta: Polytope) -> int:
    """Complex-structure-side Hodge number: h11 of the mirror, i.e. of the
    dual polytope."""
    _require_reflexive_4d(delta, "h12")
    return h11(delta.dual())


def euler(delta: Polytope) -> int:
    """Euler characteristic 2*(h11 - h12) of the hypersurface threefold."""
    return 2 * (h11(delta) - h12(delta))


def divisor_census(delta: Polytope, h11_value: int | None = None) -> DivisorCensus:
    """Bucket the dual boundary points by how their divisors meet the
    hypersurface; component counts use the lattice length of the dual edge.

    The census rank is checked against h11; pass `h11_value` when it is
    already known to skip recounting it."""
    _require_reflexive_4d(delta, "divisor census")
    dual = delta.dual()
    classified = classify_boundary(dual)
    irreducible = []
    split = []
    skipped = []
    for p in sorted(classified):
        info = classified[p]
        if info.kind in (PointType.VERTEX, PointType.IN_EDGE):
            irreducible.append(p)
        elif info.kind is PointType.IN_2FACE:
            edge = dual.dual_face(info.face)
            split.append((p, edge.n_interior + 1))
        else:
            skipped.append(p)
    census = DivisorCensus(tuple(irreducible), tuple(split), tuple(skipped))
    if h11_value is None:
        h11_value = h11(delta)
    if census.rank != h11_value:
        raise InternalInvariantError(f"divisor census rank {census.rank} != h11 {h11_value}")
    return census


def report(delta: Polytope) -> HodgeReport:
    """Full Hodge data for one polytope, with the individual count terms."""
    _require_reflexive_4d(delta, "hodge report")
    h11_value, n, facet_corr, pair_term = _h11_terms(delta)
    h12_value = h11(delta.dual())
    return HodgeReport(
        h11=h11_value,
        h12=h12_value,
        euler=2 * (h11_value - h12_value),
        n_dual_points=n,
        facet_interior_correction=facet_corr,
        two_face_pairing_term=pair_term,
        census=divisor_census(delta, h11_value),
    )
