"""Face fans of reflexive polytopes, their crepant simplicial refinements,
and divisor-level audits: cone multiplicities, Q-Cartier tests, Picard
ranks over Q, and nef checks.

The refinement engine triangulates each facet of the dual polytope with an
iterated pulling subdivision driven by one global point order.  Pulling at
every available lattice point makes the triangulation fine (all boundary
points become rays) and face-local (shared 2-faces of adjacent facets are
split identically), and pulling refinements of the trivial subdivision are
regular, which is what makes the refined variety projective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._linalg import (
    AffineChart,
    dot,
    int_det,
    left_nullspace,
    matrix_rank,
    solve_linear,
    vector_gcd,
)
from .errors import (
    InputError,
    NotQCartierError,
    NotReflexiveError,
    NotSimplicialError,
)
from .polytope import Polytope, hull


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by its extreme ray generators."""

    rays: tuple

    def __post_init__(self):
        if not self.rays:
            raise InputError("cone needs at least one ray")
        rays = tuple(sorted(self.rays))
        if len(set(rays)) != len(rays):
            raise InputError("cone has a repeated ray generator")
        for r in rays:
            if r.is_zero() or vector_gcd(r) != 1:
                raise InputError(f"ray generator {tuple(r)} is not primitive")
        object.__setattr__(self, "rays", rays)

    @cached_property
    def dim(self) -> int:
        return matrix_rank([tuple(r) for r in self.rays])

    @property
    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    @cached_property
    def multiplicity(self) -> int:
        """|det| of the primitive generators; 1 exactly for smooth charts.

        Defined only for simplicial cones of full dimension in their ambient
        lattice."""
        if not self.is_simplicial:
            raise NotSimplicialError("multiplicity is defined for simplicial cones")
        d = self.rays[0].dim
        if len(self.rays) != d:
            raise NotSimplicialError("multiplicity needs a full-dimensional cone")
        return abs(int_det([tuple(r) for r in self.rays]))

    @property
    def is_smooth(self) -> bool:
        return self.multiplicity == 1

    def __repr__(self):
        return f"Cone({', '.join(str(tuple(r)) for r in self.rays)})"


def cone_mult(cone: Cone) -> int:
    return cone.multiplicity


class Fan:
    """Complete fan presented by its maximal cones.

    `source` is the polytope whose boundary the cones subdivide (the dual of
    the defining reflexive polytope); `base` is the defining polytope itself.
    `cone_facets` maps each maximal cone to the facet of `source` whose cone
    it refines, which makes refinement checks combinatorial.
    """

    def __init__(self, maximal_cones, provenance, base, source, cone_facets=None):
        self.maximal_cones = tuple(
            sorted(maximal_cones, key=lambda c: c.rays)
        )
        self.provenance = provenance
        self.base = base
        self.source = source
        if cone_facets is None:
            self.cone_facets = None
        else:
            self.cone_facets = tuple(
                cone_facets[c] for c in self.maximal_cones
            )
        rays = sorted({r for c in self.maximal_cones for r in c.rays})
        self.rays = tuple(rays)
        self._ray_index = {r: i for i, r in enumerate(rays)}

    @property
    def dim(self) -> int:
        return self.rays[0].dim

    @property
    def is_simplicial(self) -> bool:
        return all(c.is_simplicial for c in self.maximal_cones)

    def ray_index(self, ray) -> int:
        return self._ray_index[ray]

    def walls(self):
        """Codimension-one intersections of maximal cones with the two cones
        sharing each; in a complete fan every wall has exactly two."""
        owners = {}
        if self.is_simplicial:
            for ci, cone in enumerate(self.maximal_cones):
                for omitted in cone.rays:
                    key = frozenset(cone.rays) - {omitted}
                    owners.setdefault(key, []).append(ci)
        else:
            # Non-simplicial face fans: walls are cones over the ridges of
            # the source polytope.
            ridges = self.source.faces(self.source.dim - 2)
            cone_pos = {}
            for ci, cone in enumerate(self.maximal_cones):
                cone_pos[frozenset(cone.rays)] = ci
            for ridge in ridges:
                incident = [
                    cone_pos[frozenset(f.vertices)]
                    for f in self.source.faces().parents(ridge)
                ]
                owners[frozenset(ridge.vertices)] = incident
        return {k: tuple(sorted(v)) for k, v in owners.items()}

    def wall_consistency(self) -> bool:
        return all(len(v) == 2 for v in self.walls().values())

    def edges(self):
        """All 2-element ray sets spanning a 2-cone of a simplicial fan."""
        if not self.is_simplicial:
            raise NotSimplicialError("edge enumeration expects a simplicial fan")
        out = set()
        for cone in self.maximal_cones:
            for a, b in itertools.combinations(cone.rays, 2):
                out.add((a, b))
        return sorted(out)

    def __repr__(self):
        return (
            f"Fan({self.provenance}, {len(self.maximal_cones)} maximal cones, "
            f"{len(self.rays)} rays)"
        )


def _require_reflexive(delta: Polytope, what: str) -> Polytope:
    if not delta.is_reflexive():
        raise NotReflexiveError(f"{what} needs a reflexive polytope")
    return delta.dual()


def face_fan(delta: Polytope) -> Fan:
    """Fan whose cones are the cones over the proper faces of the dual
    polytope; maximal cones correspond to dual facets."""
    dual = _require_reflexive(delta, "face fan")
    cones = []
    cone_facets = {}
    for i, facet in enumerate(dual.faces(dual.dim - 1)):
        cone = Cone(facet.vertices)
        cones.append(cone)
        cone_facets[cone] = i
    return Fan(cones, "face", delta, dual, cone_facets)


# -- MPCP refinement -------------------------------------------------------------


def _pull_order_key(fan_source: Polytope, order: str):
    census = fan_source.census()
    if order == "lex":
        return lambda p: tuple(p)
    if order == "incidence":
        incidence = {}
        for p in census.boundary:
            face = census.face_of[p]
            incidence[p] = len(face.facet_set)
        return lambda p: (incidence[p], tuple(p))
    raise InputError(f"unknown pulling order {order!r} (use 'incidence' or 'lex')")


def _pull_triangulate_facet(points, chart_cls):
    """Iterated pulling triangulation of one facet in its own chart.

    `points` come already sorted by the global pull order; returns the list
    of simplices as tuples of the projected points.  Cells are rebuilt as
    little polytopes so the subdivision is exact at every step.
    """
    chart = AffineChart(points)
    proj = {p: chart_cls(chart.project(p)) for p in points}
    back = {v: p for p, v in proj.items()}
    if len(back) != len(points):
        raise InputError("facet chart collapsed two lattice points")
    cells = [hull(list(proj.values()))]
    for p in points:
        q = proj[p]
        new_cells = []
        for cell in cells:
            if not cell.contains(q):
                new_cells.append(cell)
                continue
            pieces = []
            for f in cell.facets:
                if f.evaluate(q) == 0:
                    continue
                base = [v for v in cell.vertices if f.evaluate(v) == 0]
                pieces.append(hull(base + [q]))
            if len(pieces) <= 1:
                new_cells.append(cell)  # cell is already a pyramid over q
            else:
                new_cells.extend(pieces)
        cells = new_cells
    simplices = []
    for cell in cells:
        if len(cell.vertices) != cell.dim + 1:
            raise InputError("pulling left a non-simplicial cell")
        simplices.append(tuple(back[v] for v in cell.vertices))
    return simplices


def mpcp_triangulate(delta: Polytope, order: str = "incidence") -> Fan:
    """Crepant simplicial refinement of the face fan whose rays are all the
    boundary lattice points of the dual polytope.

    Each dual facet is triangulated by iterated pulling with one global
    point order, so the result is fine, face-respecting, and regular by
    construction.  `order` picks the pull sequence: "incidence" (default,
    points on fewer facets first, ties lexicographic) or plain "lex".
    The choice can change the triangulation where a facet admits several
    fine splits; it never changes ray set, Picard rank, or Hodge data.
    """
    dual = _require_reflexive(delta, "refinement")
    census = dual.census()
    key = _pull_order_key(dual, order)
    cones = []
    cone_facets = {}
    for fi, facet in enumerate(dual.faces(dual.dim - 1)):
        on_facet = sorted(
            (
                p
                for p in census.boundary
                if census.face_of[p].facet_set >= facet.facet_set
            ),
            key=key,
        )
        for simplex in _pull_triangulate_facet(on_facet, dual.point_cls):
            cone = Cone(simplex)
            cones.append(cone)
            cone_facets[cone] = fi
    fan = Fan(cones, "mpcp", delta, dual, cone_facets)
    _validate_mpcp(fan, dual)
    return fan


def _validate_mpcp(fan: Fan, dual: Polytope):
    boundary = set(dual.boundary_points())
    if set(fan.rays) != boundary:
        raise InputError("refinement is not fine: ray set != boundary points")
    if not fan.is_simplicial:
        raise InputError("refinement left a non-simplicial cone")
    total = sum(c.multiplicity for c in fan.maximal_cones)
    if total != dual.normalized_volume():
        raise InputError(
            f"refined cones cover {total}, expected {dual.normalized_volume()}"
        )
    if not fan.wall_consistency():
        raise InputError("refinement broke wall consistency")


# -- audits -----------------------------------------------------------------------


def singularity_census(fan: Fan):
    """All maximal cones with multiplicity > 1, with their multiplicities."""
    if not fan.is_simplicial:
        raise NotSimplicialError("singularity census needs a simplicial fan")
    return [(c, c.multiplicity) for c in fan.maximal_cones if c.multiplicity > 1]


_ZERO = Fraction(0)


@dataclass(frozen=True)
class WeilDivisor:
    """Formal rational combination of the toric boundary divisors, keyed by
    primitive ray generator."""

    coeffs: tuple  # sorted tuple of (ray, Fraction) with nonzero values

    @classmethod
    def from_dict(cls, mapping):
        items = tuple(
            sorted((r, Fraction(c)) for r, c in mapping.items() if Fraction(c) != 0)
        )
        return cls(items)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def ray(cls, ray, coeff=1):
        return cls.from_dict({ray: Fraction(coeff)})

    @classmethod
    def anticanonical(cls, fan: Fan):
        return cls.from_dict({r: Fraction(1) for r in fan.rays})

    @cached_property
    def _lookup(self):
        return dict(self.coeffs)

    def coeff(self, ray) -> Fraction:
        return self._lookup.get(ray, _ZERO)

    @property
    def support(self):
        return tuple(r for r, _ in self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = {r: c for r, c in self.coeffs}
        for r, c in other.coeffs:
            out[r] = out.get(r, Fraction(0)) + c
        return WeilDivisor.from_dict(out)

    def __rmul__(self, k):
        return WeilDivisor.from_dict({r: Fraction(k) * c for r, c in self.coeffs})

    def __neg__(self):
        return WeilDivisor.from_dict({r: -c for r, c in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "WeilDivisor(0)"
        parts = [f"{c}*D{tuple(r)}" for r, c in self.coeffs]
        return "WeilDivisor(" + " + ".join(parts) + ")"


def _check_support(fan: Fan, divisor: WeilDivisor):
    for r in divisor.support:
        if r not in fan._ray_index:
            raise InputError(f"divisor supported on {tuple(r)} which is not a fan ray")


def _cone_support_data(cone: Cone, coeffs):
    """Local data m with <m, v> = -a_v on every ray v of the cone, as
    (numerators, denominator), or None; `coeffs` maps rays to a_v."""
    rows = [tuple(r) for r in cone.rays]
    rhs = [-coeffs.get(r, 0) for r in cone.rays]
    return solve_linear(rows, rhs)


def is_qcartier(fan: Fan, divisor: WeilDivisor):
    """Whether per-cone linear support data exists; if so, also the smallest
    positive integer clearing all denominators (the Cartier index)."""
    _check_support(fan, divisor)
    coeffs = divisor._lookup
    index = 1
    for cone in fan.maximal_cones:
        m = _cone_support_data(cone, coeffs)
        if m is None:
            return False, None
        index = math.lcm(index, m[1])  # solve_linear gives lowest terms
    return True, index


def picard_rank_q(fan: Fan) -> int:
    """Dimension over Q of Q-Cartier Weil divisors modulo principal ones.

    Q-Cartier conditions come from the left kernels of the non-simplicial
    maximal cones' ray matrices; principal divisors contribute the ambient
    dimension (their map is injective on a complete fan).
    """
    n = len(fan.rays)
    constraints = []
    for cone in fan.maximal_cones:
        if cone.is_simplicial:
            continue
        rows = [tuple(r) for r in cone.rays]
        for w in left_nullspace(rows):
            full = [Fraction(0)] * n
            for coeff, ray in zip(w, cone.rays):
                full[fan.ray_index(ray)] += coeff
            constraints.append(tuple(full))
    rank = matrix_rank(constraints) if constraints else 0
    return n - rank - fan.dim


def is_nef(fan: Fan, divisor: WeilDivisor) -> bool:
    """Convexity of the support function: for every maximal cone's local
    data m and every ray v outside the cone, <m, v> >= -a_v.

    The divisor is scaled once to integer coefficients A_v (nefness is
    invariant under positive scaling), so with m = num / den the test is
    <num, v> >= -A_v * den in integers."""
    if not fan.is_simplicial:
        raise NotSimplicialError("nef test expects a simplicial fan")
    _check_support(fan, divisor)
    scale = math.lcm(*[c.denominator for _, c in divisor.coeffs])
    coeffs = {r: c.numerator * (scale // c.denominator) for r, c in divisor.coeffs}
    for cone in fan.maximal_cones:
        m = _cone_support_data(cone, coeffs)
        if m is None:
            raise NotQCartierError("divisor is not Q-Cartier on this fan")
        num, den = m
        in_cone = set(cone.rays)
        for v in fan.rays:
            if v in in_cone:
                continue
            if dot(num, v) < -coeffs.get(v, 0) * den:
                return False
    return True
