"""Toric intersection numbers on simplicial complete 4-fans and the second
Chern class of the anticanonical hypersurface, paired against divisor
classes.

A class is a rational combination of orbit closures V(g), one per cone g.
A divisor D = sum_u a_u D_u acts by the product rule (Fulton, Introduction
to Toric Varieties, 5.1): D . V(g) = sum_u (a_u + <m_g, u>) mult(g) /
mult(g + u) V(g + u) over the rays u with g + u a cone, where <m_g, v_i> =
-a_i on the rays of g.  In the classes W(g) = V(g) / mult(g), the products
of the D_i over the rays of g, the multiplicities cancel from the rule;
only a maximal cone's is left, as the degree 1 / mult(g) of W(g).
Everything is an exact rational.

The hypersurface X is an anticanonical section that misses the isolated
singular points of the refined ambient variety V, so restricting to it is
multiplying by X = -K on the simplicial fan.  With c(V) = prod_u (1 + D_u),
c_k(V) is the sum of W(g) over the k-cones; c2(X) . L =
c2(V) . X . L and, by adjunction, chi(X) = (c3(V) - c2(V) . X) . X.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from ._linalg import dot
from .errors import InputError, NotSimplicialError
from .fan import Fan, WeilDivisor, is_nef
from .hodge import PointType, classify_boundary
from .polytope import Polytope


class IntersectionForm:
    """The Chow ring of a simplicial complete 4-fan, built once.

    Cones are sorted tuples of ray indices.  `_cones[g]` holds the
    determinant det of a maximal cone containing g, M / det for the lcm M
    of all maximal cones' determinants, and per link ray u the entry
    (u, g + u, c) with <m_i, u> = c_i / det for that cone's dual basis m_i.
    `_top[g]` is M / mult(g) for the maximal cones.  Classes are integer
    numerators on the W(g) over one denominator.  The determinants and
    dual bases are the fan's :attr:`~cytoric.fan.Fan.cone_table`, which the
    nef test shares.
    """

    def __init__(self, fan: Fan):
        if not fan.is_simplicial:
            raise NotSimplicialError("intersection numbers need a simplicial fan")
        if fan.dim != 4:
            raise InputError("intersection form is implemented for 4-dimensional fans")
        table = fan.cone_table
        self.fan = fan
        self.rays = fan.rays
        self._index = {r: i for i, r in enumerate(fan.rays)}
        vec = [tuple(r) for r in fan.rays]
        self._lcm = lcm(*table.dets)
        tops, host, link = table.cones, {}, {}
        for ci, top in enumerate(tops):
            for k in range(4):
                for g in combinations(top, k):
                    host.setdefault(g, ci)  # the first maximal cone containing g
                    link.setdefault(g, set()).update(top)
        self._top = {top: self._lcm // m for top, m in zip(tops, table.dets)}
        self._cones = {}
        for g, ci in host.items():
            top = tops[ci]
            basis = [table.duals[ci][top.index(i)] for i in g]
            entries = tuple(
                (u, tuple(sorted(g + (u,))), tuple(dot(n, vec[u]) for n in basis))
                for u in sorted(link[g].difference(g))
            )
            self._cones[g] = (table.dets[ci], self._top[top], entries)
        self._all_rays = (dict.fromkeys(range(len(vec)), 1), 1)

    def _times(self, cls, divisor):
        """The class `cls` = (cone -> numerator, denominator) times a divisor
        (ray index -> integer coefficient, denominator), by the product rule."""
        coeffs, scale = divisor
        out = {}
        for g, x in cls[0].items():
            det, w, entries = self._cones[g]
            ag = [coeffs.get(i, 0) for i in g]
            for u, child, c in entries:
                y = det * coeffs.get(u, 0) - sum(map(mul, ag, c))
                if y:
                    out[child] = out.get(child, 0) + x * w * y
        return out, cls[1] * scale * self._lcm

    def _degree(self, divisors, cls=({(): 1}, 1)) -> Fraction:
        """Degree of the class `cls` (by default V(0) = [V]) times the divisors."""
        for d in divisors:
            cls = self._times(cls, d)
        return Fraction(sum(x * self._top[g] for g, x in cls[0].items()), cls[1] * self._lcm)

    def _coeffs(self, divisor: WeilDivisor):
        """The divisor as (ray index -> integer coefficient, denominator)."""
        for r in divisor.support:
            if r not in self._index:
                raise InputError(f"divisor supported outside the fan: {tuple(r)}")
        scale = lcm(*[a.denominator for _, a in divisor.coeffs])
        return {self._index[r]: int(a * scale) for r, a in divisor.coeffs}, scale

    def value(self, multiset) -> Fraction:
        """Intersection number of the four prime divisors in `multiset`
        (a 4-element tuple of rays, repetitions allowed)."""
        multiset = tuple(multiset)
        if len(multiset) != 4:
            raise InputError("the form takes exactly four divisors")
        if any(r not in self._index for r in multiset):
            return Fraction(0)
        return self._degree([({self._index[r]: 1}, 1) for r in multiset])

    @cached_property
    def _c2_x(self):
        """c2(V) . X, a class on the 3-cones."""
        return self._times(({g: 1 for g in self._cones if len(g) == 2}, 1), self._all_rays)

    @cached_property
    def _c2_rays(self):
        """c2(V) . X . D_l for every ray l: each wall's term of c2(V) . X
        times D_l by the product rule, scattered over the rays in one pass."""
        f = [0] * len(self.rays)
        walls, den = self._c2_x
        for wall, x in walls.items():
            det, w, entries = self._cones[wall]
            for u, top, c in entries:
                y = x * w * self._top[top]
                f[u] += y * det
                for i, ci in zip(wall, c):
                    f[i] -= y * ci
        return [Fraction(n, den * self._lcm**2) for n in f]


def intersection_number(form, d1, d2, d3, d4) -> Fraction:
    """d1 . d2 . d3 . d4 for rational divisor combinations: V(0) times each
    divisor in turn by the product rule, then the degree."""
    form = _as_form(form)
    return form._degree([form._coeffs(d) for d in (d1, d2, d3, d4)])


def euler_characteristic(fan_or_form) -> Fraction:
    """chi of the anticanonical hypersurface from the intersection ring,
    (c3(V) - c2(V) . X) . X; Batyrev's count gives 2 (h11 - h12)."""
    form = _as_form(fan_or_form)
    c2x, den = form._c2_x
    cls = {g: den for g in form._cones if len(g) == 3}  # c3(V), over den
    for g, x in c2x.items():
        cls[g] -= x
    return form._degree([form._all_rays], (cls, den))


def _as_form(fan_or_form) -> IntersectionForm:
    if isinstance(fan_or_form, IntersectionForm):
        return fan_or_form
    return IntersectionForm(fan_or_form)


def _check_is_refinement_of(delta: Polytope, fan: Fan):
    if fan.base is not delta and fan.base != delta:
        raise InputError("fan was not built from this polytope")
    if set(fan.rays) != set(delta.dual().boundary_points()):
        raise InputError("fan is not the full crepant refinement of the dual")


def c2_dot(delta: Polytope, fan_or_form, divisor: WeilDivisor) -> Fraction:
    """Second Chern class of the hypersurface paired with a divisor class,
    c2(V) . L . X = sum_l a_l F_l, with F_l = c2(V) . X . D_l computed for
    all rays at once and cached on the form.  Exact rational; can be
    non-integral on orbifold classes and is reported as is."""
    form = _as_form(fan_or_form)
    _check_is_refinement_of(delta, form.fan)
    f = form._c2_rays
    coeffs, scale = form._coeffs(divisor)
    return sum((a * f[i] for i, a in coeffs.items()), Fraction(0)) / scale


class CurveClass(enum.Enum):
    """How the surface over a triangulation edge meets the hypersurface."""

    EMPTY = "empty"
    RATIONAL_FAMILY = "toric rational curves"
    BRANCH_INTERSECTION = "intersection of exceptional branches"
    SMOOTH_SECTION = "smooth curve"


@dataclass(frozen=True)
class CurveEntry:
    edge: tuple
    kind: CurveClass
    count: int  # components for RATIONAL_FAMILY, 1 otherwise, 0 for EMPTY
    face_dim: int  # dimension of the smallest dual face containing the edge


@dataclass(frozen=True)
class CurveCensus:
    entries: tuple
    covered_irreducible: frozenset
    covered_split: frozenset
    uncovered: frozenset

    def by_kind(self):
        out = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def curve_census(delta: Polytope, fan: Fan) -> CurveCensus:
    """Classify every 2-cone of the refinement by the type of curve its
    surface cuts on the hypersurface.

    The class is decided by the endpoint types and the smallest face of the
    dual polytope containing the edge: an endpoint interior to a facet, or
    an edge interior to a facet, gives an empty intersection; an edge
    interior to a 2-face gives a family of rational curves counted by the
    lattice length of the dual edge; an edge inside a 1-face with a
    non-vertex endpoint lies over a singular curve and gives the
    intersection of two exceptional branches; an edge of the 1-skeleton
    between two vertices gives a smooth curve.
    """
    if not fan.is_simplicial:
        raise NotSimplicialError("curve census expects the refined fan")
    _check_is_refinement_of(delta, fan)
    dual = delta.dual()
    census = dual.census()
    classified = classify_boundary(dual)
    entries = []
    covered = set()
    for a, b in fan.edges():
        ka = classified[a].kind
        kb = classified[b].kind
        sat = census.face_of[a].facet_set & census.face_of[b].facet_set
        face = dual.faces().by_facet_set(sat)
        if ka is PointType.IN_3FACE or kb is PointType.IN_3FACE or face.dim == 3:
            entries.append(CurveEntry((a, b), CurveClass.EMPTY, 0, face.dim))
            continue
        if face.dim == 2:
            dual_edge = dual.dual_face(face)
            n = dual_edge.n_interior + 1
            entries.append(CurveEntry((a, b), CurveClass.RATIONAL_FAMILY, n, 2))
        elif ka is PointType.VERTEX and kb is PointType.VERTEX:
            entries.append(CurveEntry((a, b), CurveClass.SMOOTH_SECTION, 1, face.dim))
        else:
            entries.append(CurveEntry((a, b), CurveClass.BRANCH_INTERSECTION, 1, face.dim))
        covered.add(a)
        covered.add(b)
    irreducible = {
        p for p, info in classified.items()
        if info.kind in (PointType.VERTEX, PointType.IN_EDGE)
    }
    split = {p for p, info in classified.items() if info.kind is PointType.IN_2FACE}
    relevant = irreducible | split
    return CurveCensus(
        entries=tuple(sorted(entries, key=lambda e: e.edge)),
        covered_irreducible=frozenset(covered & irreducible),
        covered_split=frozenset(covered & split),
        uncovered=frozenset(relevant - covered),
    )


@dataclass(frozen=True)
class PositivityEntry:
    label: str
    divisor: WeilDivisor
    nef: bool
    restricted_degree: Fraction  # L . (-K)^3, zero iff L dies on the hypersurface
    c2_value: Fraction


@dataclass(frozen=True)
class ChernReport:
    c2_values: tuple  # pairs (label, Fraction)
    positivity: tuple  # PositivityEntry for each supplied nef candidate
    census: CurveCensus


def chern_report(delta: Polytope, fan: Fan, extra=()) -> ChernReport:
    """c2 pairings against -K and each ray divisor, nef/positivity audit for
    the supplied classes, and the curve census."""
    form = IntersectionForm(fan)
    minus_k = WeilDivisor.anticanonical(fan)
    values = [("-K", c2_dot(delta, form, minus_k))]
    for r in fan.rays:
        values.append((f"D{tuple(r)}", c2_dot(delta, form, WeilDivisor.ray(r))))
    candidates = [("-K", minus_k)] + list(extra)
    audits = []
    for label, div in candidates:
        nef = is_nef(fan, div)
        degree = intersection_number(form, div, minus_k, minus_k, minus_k)
        audits.append(
            PositivityEntry(label, div, nef, degree, c2_dot(delta, form, div))
        )
    return ChernReport(tuple(values), tuple(audits), curve_census(delta, fan))
