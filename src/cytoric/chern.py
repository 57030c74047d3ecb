"""Toric intersection numbers on simplicial complete 4-fans and the second
Chern class of the anticanonical hypersurface, paired against divisor
classes.

The quadrilinear form on boundary divisors is generated from two facts:
four distinct rays spanning a maximal cone meet in 1/multiplicity, and any
lattice functional m gives the relation sum_i <m, v_i> D_i ~ 0.  Repeated
rays are eliminated with a functional chosen to take value 1 on the
repeated ray and 0 on the other rays of the multiset, which strictly
reduces the number of repeated slots and so terminates; memoisation keeps
the recursion cheap.  Everything is an exact rational.

Restriction to the hypersurface is multiplication by the anticanonical
class: the hypersurface is an anticanonical section, and since it misses
the isolated singular points of the refined ambient variety only boundary
divisor terms survive, so the computation can stay on the simplicial fan.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import dot, solve_linear
from .errors import InputError, InternalInvariantError, NotSimplicialError
from .fan import Fan, WeilDivisor, is_nef
from .hodge import PointType, classify_boundary
from .polytope import Polytope


class IntersectionForm:
    """Memoised quadrilinear intersection form on the rays of a simplicial
    complete 4-fan.  Safe for concurrent reads; inserts are idempotent."""

    def __init__(self, fan: Fan):
        if not fan.is_simplicial:
            raise NotSimplicialError("intersection numbers need a simplicial fan")
        if fan.dim != 4:
            raise InputError("intersection form is implemented for 4-dimensional fans")
        if not fan.wall_consistency():
            raise InputError("fan is not complete: some wall has one incident cone")
        self.fan = fan
        self.rays = fan.rays
        self._memo = {}
        self._max_sets = {}
        for cone in fan.maximal_cones:
            self._max_sets[frozenset(cone.rays)] = Fraction(1, cone.multiplicity)
        self._spanning = {}
        self._star = {}
        for cone_set in self._max_sets:
            for k in range(1, 5):
                for sub in itertools.combinations(sorted(cone_set), k):
                    self._spanning[frozenset(sub)] = True
        for cone_set in self._max_sets:
            for k in range(1, 4):
                for sub in itertools.combinations(sorted(cone_set), k):
                    self._star.setdefault(frozenset(sub), set()).update(cone_set)

    def spans_cone(self, rays) -> bool:
        return frozenset(rays) in self._spanning

    def star_rays(self, rays):
        """All rays appearing in some maximal cone containing the given set."""
        return self._star.get(frozenset(rays), set())

    def value(self, multiset) -> Fraction:
        """Intersection number of the four prime divisors in `multiset`
        (a 4-element tuple of rays, repetitions allowed)."""
        key = tuple(sorted(multiset))
        if len(key) != 4:
            raise InputError("the form takes exactly four divisors")
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        support = frozenset(key)
        if support not in self._spanning:
            result = Fraction(0)
        elif len(support) == 4:
            result = self._max_sets.get(support, Fraction(0))
        else:
            result = self._eliminate(key, support)
        self._memo[key] = result
        return result

    def _eliminate(self, key, support):
        counts = {}
        for r in key:
            counts[r] = counts.get(r, 0) + 1
        target = max(sorted(counts), key=lambda r: counts[r])
        others = [r for r in sorted(counts) if r != target]
        # functional: 1 on the repeated ray, 0 on the rest of the support
        rows = [tuple(target)] + [tuple(r) for r in others]
        m = solve_linear(rows, [1] + [0] * len(others))
        if m is None:
            raise InternalInvariantError("rays of a simplicial cone are dependent")
        num, den = m
        rest = list(key)
        rest.remove(target)
        total = Fraction(0)
        for ray in self.star_rays(support) | support:
            if ray == target or ray in others:
                continue
            coeff = dot(num, ray)
            if coeff == 0:
                continue
            total -= coeff * self.value(tuple(rest) + (ray,))
        return total / den


def intersection_number(form, d1, d2, d3, d4) -> Fraction:
    """Quadrilinear extension of the form to rational divisor combinations.

    Sparse divisors expand directly over their supports; dense ones (like
    the anticanonical class) are evaluated cone by cone over the multisets
    that can meet, with the coefficient symmetrised over the distinct ways
    of assigning the multiset to the four slots.
    """
    form = _as_form(form)
    divisors = (d1, d2, d3, d4)
    rayset = set(form.rays)
    for d in divisors:
        for r in d.support:
            if r not in rayset:
                raise InputError(f"divisor supported outside the fan: {tuple(r)}")
    lookups = [dict(d.coeffs) for d in divisors]
    sizes = 1
    for d in divisors:
        sizes *= max(len(d.support), 1)
    total = Fraction(0)
    if sizes <= 4096:
        for rays in itertools.product(*(d.support for d in divisors)):
            if not form.spans_cone(set(rays)):
                continue
            c = Fraction(1)
            for look, r in zip(lookups, rays):
                c *= look[r]
            total += c * form.value(rays)
        return total
    seen = set()
    zero = Fraction(0)
    for cone in form.fan.maximal_cones:
        for multiset in itertools.combinations_with_replacement(sorted(cone.rays), 4):
            if multiset in seen:
                continue
            seen.add(multiset)
            value = form.value(multiset)
            if not value:
                continue
            coeff = zero
            for rays in set(itertools.permutations(multiset)):
                c = Fraction(1)
                for look, r in zip(lookups, rays):
                    c *= look.get(r, zero)
                    if not c:
                        break
                coeff += c
            if coeff:
                total += coeff * value
    return total


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
    """Second Chern class of the hypersurface paired with a divisor class.

    Evaluates sum over unordered ray pairs {i,j} of D_i . D_j . L . (-K),
    where the pair sum is the ambient degree-2 Chern piece and multiplying
    by -K restricts to the anticanonical hypersurface.  Exact rational; can
    be non-integral on orbifold classes and is reported as is.
    """
    form = _as_form(fan_or_form)
    _check_is_refinement_of(delta, form.fan)
    rayset = set(form.rays)
    for r in divisor.support:
        if r not in rayset:
            raise InputError(f"divisor supported outside the fan: {tuple(r)}")
    coeffs = dict(divisor.coeffs)
    total = Fraction(0)
    for a, b in form.fan.edges():
        for c, lc in coeffs.items():
            base = (a, b, c)
            if not form.spans_cone(set(base)):
                continue
            for k in form.star_rays(set(base)) | set(base):
                v = form.value(base + (k,))
                if v:
                    total += lc * v
    return total


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
