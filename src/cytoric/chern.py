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

The form reads the fan's maximal cones and dual bases; divisors become
integer coefficients through :meth:`~cytoric.fan.Fan.scaled_coeffs`, and
the fan's :attr:`~cytoric.fan.Fan.is_fine` shows it is the full crepant
refinement.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import InputError, NotSimplicialError
from .fan import Fan, WeilDivisor, is_nef
from .hodge import PointType, classify_boundary, divisor_census
from .polytope import Polytope


class IntersectionForm:
    """The Chow ring of a simplicial complete 4-fan, built once.

    Cones are ascending tuples of ray indices.  `_cones[g]` holds the
    determinant det of g's host (the first maximal cone containing g),
    M / det for the lcm M of all maximal cones' determinants, and g's links
    in two kinds.  A host link (u, g + u) has u a ray of the host, so
    <m_i, u> = 0 for the host's dual basis m_i, as <n_i, v_j> =
    det * (i == j): one multiply in the product rule.  A cross link
    (u, g + u, c) has <m_i, u> = c_i / det.  `_top[g]` is M / mult(g) for
    the maximal cones.  Classes are integer numerators on the W(g) over one
    denominator.

    The table is one pass over the maximal cones.  Each, with rays
    a < b < e < d and dual basis n_a .. n_d, walks its faces as literal
    tuples, smallest first, then itself.  A face h not yet in the table is
    new at its host, this cone: it takes the host's det and the n_i at its
    rays, and for each ray u of h the face g = h - u gets the link (u, h):
    a host link if g is new at this cone too, else a cross link with c the
    dot products of g's dual vectors with ray u.  So each (face, link ray)
    pair comes out once, from the larger face.
    """

    def __init__(self, fan: Fan):
        if not fan.is_simplicial:
            raise NotSimplicialError("intersection numbers need a simplicial fan")
        if fan.dim != 4:
            raise InputError("intersection form is implemented for 4-dimensional fans")
        fan.require_complete()
        self.fan = fan
        self.rays = fan.rays
        vs = list(map(tuple, fan.rays))
        tops, dets = fan.cones, fan.dets
        m = self._lcm = lcm(*dets)
        self._top = {top: m // det for top, det in zip(tops, dets)}
        # the origin: every ray links it; det 1 and M keep det * M / det = M
        origin = []
        cones = self._cones = {(): (1, m, origin, ())}
        at = {}  # face -> (its host, its two link lists, the host's n_i at its rays)
        for c, (top, (na, nb, ne, nd), det) in enumerate(zip(tops, fan.duals, dets)):
            a, b, e, d = top
            w = m // det
            for h, n in (((a,), na), ((b,), nb), ((e,), ne), ((d,), nd)):
                if h not in cones:
                    host, cross = [], []
                    cones[h] = (det, w, host, cross)
                    at[h] = (c, host, cross, n)
                    origin.append((h[0], h))
            for h, ns in (((a, b), (na, nb)), ((a, e), (na, ne)), ((a, d), (na, nd)),
                          ((b, e), (nb, ne)), ((b, d), (nb, nd)), ((e, d), (ne, nd))):
                if h not in cones:
                    host, cross = [], []
                    cones[h] = (det, w, host, cross)
                    at[h] = (c, host, cross, ns)
                    u0, u1 = h
                    for g, u in (((u1,), u0), ((u0,), u1)):
                        gc, host_g, cross_g, (p0, p1, p2, p3) = at[g]
                        if gc == c:
                            host_g.append((u, h))
                        else:
                            x0, x1, x2, x3 = vs[u]
                            cross_g.append((u, h, (p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3,)))
            for h, ns in (((a, b, e), (na, nb, ne)), ((a, b, d), (na, nb, nd)),
                          ((a, e, d), (na, ne, nd)), ((b, e, d), (nb, ne, nd))):
                if h not in cones:
                    host, cross = [], []
                    cones[h] = (det, w, host, cross)
                    at[h] = (c, host, cross, ns)
                    u0, u1, u2 = h
                    for g, u in (((u1, u2), u0), ((u0, u2), u1), ((u0, u1), u2)):
                        gc, host_g, cross_g, ((p0, p1, p2, p3), (q0, q1, q2, q3)) = at[g]
                        if gc == c:
                            host_g.append((u, h))
                        else:
                            x0, x1, x2, x3 = vs[u]
                            cross_g.append((u, h, (p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3,
                                                   q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3)))
            for g, u in (((b, e, d), a), ((a, e, d), b), ((a, b, d), e), ((a, b, e), d)):
                gc, host_g, cross_g, ((p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3)) = at[g]
                if gc == c:
                    host_g.append((u, top))
                else:
                    x0, x1, x2, x3 = vs[u]
                    cross_g.append((u, top, (p0 * x0 + p1 * x1 + p2 * x2 + p3 * x3,
                                             q0 * x0 + q1 * x1 + q2 * x2 + q3 * x3,
                                             r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3)))
        self._all_rays = (dict.fromkeys(range(len(fan.rays)), 1), 1)

    def _times(self, cls, divisor):
        """The class `cls` = (cone -> numerator, denominator) times a divisor
        (ray index -> integer coefficient, denominator), by the product rule."""
        coeffs, scale = divisor
        out = {}
        for g, x in cls[0].items():
            det, w, host, cross = self._cones[g]
            xw = x * w
            xwd = xw * det
            for u, child in host:
                a = coeffs.get(u)
                if a:
                    out[child] = out.get(child, 0) + xwd * a
            ag = [coeffs.get(i, 0) for i in g]
            for u, child, c in cross:
                y = det * coeffs.get(u, 0) - sum(map(mul, ag, c))
                if y:
                    out[child] = out.get(child, 0) + xw * y
        return out, cls[1] * scale * self._lcm

    def _degree(self, divisors, cls=({(): 1}, 1)) -> Fraction:
        """Degree of the class `cls` (by default V(0) = [V]) times the divisors."""
        for d in divisors:
            cls = self._times(cls, d)
        return Fraction(sum(x * self._top[g] for g, x in cls[0].items()), cls[1] * self._lcm)

    def value(self, multiset) -> Fraction:
        """Intersection number of the four prime divisors in `multiset`
        (a 4-element tuple of rays, repetitions allowed)."""
        multiset = tuple(multiset)
        if len(multiset) != 4:
            raise InputError("the form takes exactly four divisors")
        try:
            divisors = [({self.fan.ray_index(r): 1}, 1) for r in multiset]
        except KeyError:
            return Fraction(0)  # a ray off the fan: its divisor is zero
        return self._degree(divisors)

    @cached_property
    def _c2_x(self):
        """c2(V) . X, a class on the 3-cones."""
        return self._times(({g: 1 for g in self._cones if len(g) == 2}, 1), self._all_rays)

    @cached_property
    def _c2_rays(self):
        """c2(V) . X . D_l for every ray l, as integer numerators over one
        denominator: each wall's term of c2(V) . X times D_l by the product
        rule, scattered over the rays in one pass."""
        f = [0] * len(self.rays)
        walls, den = self._c2_x
        for wall, x in walls.items():
            det, w, host, cross = self._cones[wall]
            for u, top in host:
                f[u] += x * w * self._top[top] * det
            for u, top, c in cross:
                y = x * w * self._top[top]
                f[u] += y * det
                for i, ci in zip(wall, c):
                    f[i] -= y * ci
        return f, den * self._lcm**2


def intersection_number(form, d1, d2, d3, d4) -> Fraction:
    """d1 . d2 . d3 . d4 for rational divisor combinations: V(0) times each
    divisor in turn by the product rule, then the degree."""
    form = _as_form(form)
    return form._degree([form.fan.scaled_coeffs(d) for d in (d1, d2, d3, d4)])


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
    if not fan.is_fine:
        raise InputError("fan is not the full crepant refinement of the dual")


def c2_dot(delta: Polytope, fan_or_form, divisor: WeilDivisor) -> Fraction:
    """Second Chern class of the hypersurface paired with a divisor class,
    c2(V) . L . X = sum_l a_l F_l, with F_l = c2(V) . X . D_l computed for
    all rays at once and cached on the form.  Exact rational; can be
    non-integral on orbifold classes and is reported as is."""
    form = _as_form(fan_or_form)
    _check_is_refinement_of(delta, form.fan)
    f, den = form._c2_rays
    coeffs, scale = form.fan.scaled_coeffs(divisor)
    return Fraction(sum(a * f[i] for i, a in coeffs.items()), den * scale)


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
        return Counter(e.kind for e in self.entries)


def curve_census(delta: Polytope, fan: Fan) -> CurveCensus:
    """Classify every 2-cone of the refinement by the type of curve its
    surface cuts on the hypersurface.

    The class is decided by the endpoint types and the smallest face of the
    dual polytope containing the edge: an endpoint interior to a facet, or
    an edge interior to a facet, gives an empty intersection; an edge
    interior to a 2-face gives a family of rational curves counted by the
    lattice length of the dual edge (the face of the polytope whose facet
    mask is the 2-face's vertex mask); an edge inside a 1-face with a
    non-vertex endpoint lies over a singular curve and gives the
    intersection of two exceptional branches; an edge of the 1-skeleton
    between two vertices gives a smooth curve.  The points reported as
    covered or not are the divisor census's irreducible and split points.
    """
    if not fan.is_simplicial:
        raise NotSimplicialError("curve census expects the refined fan")
    _check_is_refinement_of(delta, fan)
    dual = delta.dual()
    census, faces = dual.census(), dual.faces().by_fmask
    l_star = delta.census().n_saturating
    kinds = classify_boundary(dual)
    divisors = divisor_census(delta)
    irreducible = set(divisors.irreducible_points)
    split = {p for p, _ in divisors.split_points}
    entries = []
    covered = set()
    for a, b in fan.edges():
        face = faces[census.face_of[a] & census.face_of[b]]
        if face.dim == 3:  # a facet-interior end puts the edge inside its facet
            entries.append(CurveEntry((a, b), CurveClass.EMPTY, 0, face.dim))
            continue
        if face.dim == 2:
            n = l_star[face.vmask] + 1  # the dual edge's lattice length
            entries.append(CurveEntry((a, b), CurveClass.RATIONAL_FAMILY, n, 2))
        elif kinds[a] is PointType.VERTEX and kinds[b] is PointType.VERTEX:
            entries.append(CurveEntry((a, b), CurveClass.SMOOTH_SECTION, 1, face.dim))
        else:
            entries.append(CurveEntry((a, b), CurveClass.BRANCH_INTERSECTION, 1, face.dim))
        covered.add(a)
        covered.add(b)
    return CurveCensus(
        entries=tuple(entries),  # edges() is ascending
        covered_irreducible=frozenset(covered & irreducible),
        covered_split=frozenset(covered & split),
        uncovered=frozenset((irreducible | split) - covered),
    )


@dataclass(frozen=True)
class PositivityEntry:
    label: str
    divisor: WeilDivisor
    nef: bool
    # L . (-K)^3 = L|X . (-K|X)^2.  Zero when L misses X, and also when the
    # map to the singular model contracts L|X to a curve or a point, as it
    # does exceptional divisors: zero does not mean L misses X.
    restricted_degree: Fraction
    c2_value: Fraction


@dataclass(frozen=True)
class ChernReport:
    c2_values: tuple  # pairs (label, Fraction)
    positivity: tuple  # PositivityEntry for each supplied nef candidate
    census: CurveCensus


def c2_audit(delta: Polytope, form: IntersectionForm, candidates):
    """c2 pairings against -K and each ray divisor, read off the form's one
    c2 functional (-K is the sum of the ray divisors), and a nef/positivity
    entry for each (label, divisor) candidate."""
    _check_is_refinement_of(delta, form.fan)
    f, den = form._c2_rays
    values = [("-K", Fraction(sum(f), den))]
    values += [(f"D{tuple(r)}", Fraction(x, den)) for r, x in zip(form.rays, f)]
    minus_k = WeilDivisor.anticanonical(form.fan)
    audits = []
    for label, div in candidates:
        nef = is_nef(form.fan, div)
        degree = intersection_number(form, div, minus_k, minus_k, minus_k)
        audits.append(PositivityEntry(label, div, nef, degree, c2_dot(delta, form, div)))
    return tuple(values), tuple(audits)


def chern_report(delta: Polytope, fan: Fan, extra=()) -> ChernReport:
    """c2 pairings against -K and each ray divisor, nef/positivity audit for
    the supplied classes, and the curve census."""
    candidates = [("-K", WeilDivisor.anticanonical(fan))] + list(extra)
    values, audits = c2_audit(delta, IntersectionForm(fan), candidates)
    return ChernReport(values, audits, curve_census(delta, fan))
