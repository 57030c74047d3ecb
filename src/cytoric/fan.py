"""Face fans of reflexive polytopes, their crepant simplicial refinements,
and divisor-level audits: cone multiplicities, Q-Cartier tests, Picard
ranks over Q, and nef checks.

The refinement engine triangulates the cone over each facet of the dual
polytope with an iterated pulling subdivision driven by one global point
order.  Cells are cones in the ambient lattice, each kept as its rays, its
walls (primitive integer normals with the rays on them) and the later
points it holds with their values on those walls, a conflict list
(Clarkson-Shor).  A point's values on a pyramid's new walls are integer
combinations of its values on the old ones, so after the first cell no
point is dotted with a wall again, and pulling a point visits only the
cells that hold it: no chart, no hull, no scan over all cells.  Pulling at
every available lattice point makes the triangulation fine (all boundary
points become rays) and face-local (shared 2-faces of adjacent facets are
split identically), and pulling refinements of the trivial subdivision are
regular, which is what makes the refined variety projective.  The refined
fan is checked with one dual basis per cone: a nonzero determinant shows
the cone simplicial, and the determinants sum to the dual's normalized
volume.

The nef test is toric Kleiman on the wall relations (Cox-Little-Schenck,
Toric Varieties, Thm 6.3.12 and 6.4): a divisor is nef iff it pairs
nonnegatively with the relation of every wall, one integer test per wall.
The Q-Cartier test and the Picard rank read each maximal cone's first d
linearly independent rays and their integer dual basis, in any fan: a
divisor's Cartier data on the cone is one functional m, read off that
basis (ibid., 4.2), and each other ray of the cone is a relation among
its rays that the data must satisfy.
A :class:`Fan` owns every fact about itself, each built once: its rays,
whether it is fine, each maximal cone's dual basis, and for a simplicial
fan its walls (the cones on each, the ray off it, and whether every wall
lies on two cones) and the wall relations.  The audits, the nef test and
the intersection form in :mod:`cytoric.chern` all read them, and every
divisor audit refuses a divisor off the rays in
:meth:`Fan.scaled_coeffs`, which also gives its integer coefficients on
the ray indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul, neg

from ._linalg import (
    dot,
    dual_basis,
    matrix_rank,
    pivot_columns,
    primitive_vector,
)
from .errors import (
    InputError,
    NotReflexiveError,
    NotSimplicialError,
)
from .lattice import MPoint, NPoint
from .polytope import Polytope, _bits, hull  # noqa: F401  bench/spans.py wraps fan.hull


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by its extreme ray generators.  Its
    dimension, simpliciality and multiplicity are a fan's facts, read from
    :attr:`Fan.bases`."""

    rays: tuple

    def __post_init__(self):
        if not self.rays:
            raise InputError("cone needs at least one ray")
        kind = type(self.rays[0])
        if kind not in (MPoint, NPoint) or any(type(r) is not kind for r in self.rays):
            raise InputError("cone rays must be MPoint or NPoint, all of one lattice")
        if any(len(r) != len(self.rays[0]) for r in self.rays):
            raise InputError("cone rays must all have one dimension")
        rays = tuple(sorted(self.rays))
        if len(set(rays)) != len(rays):
            raise InputError("cone has a repeated ray generator")
        for r in rays:
            if r.is_zero() or math.gcd(*r) != 1:
                raise InputError(f"ray generator {tuple(r)} is not primitive")
        object.__setattr__(self, "rays", rays)

    @classmethod
    def _from_rays(cls, rays):
        """A cone without the checks, for distinct primitive rays only."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "rays", tuple(sorted(rays)))
        return cone

    def __repr__(self):
        return f"Cone({', '.join(str(tuple(r)) for r in self.rays)})"


class Fan:
    """Complete fan presented by its maximal cones.

    `base` is the defining reflexive polytope; the cones subdivide the
    boundary of its dual.

    A fan owns its tables, each built once.  `cones[c]` holds the ascending
    ray indices of maximal cone c and `bases[c]` its dual basis (basis,
    det, duals): the positions among the cone's rays of its first d
    linearly independent rays v_i, their |det|, and the integer vectors
    n_i with <n_i, v_j> = det * (i == j).  A cone of d rays is its own
    basis and takes one :func:`dual_basis` (closed-form cofactors in
    dimension 4), so the determinants show the fan simplicial, and on a
    simplicial fan `dets` and `duals` read them.  A simplicial fan also
    owns its walls: `walls()` maps each, as ascending ray indices, to the
    maximal cones containing it in cone order (two in a complete fan), and
    is shared, so do not mutate it.  The walk that builds it also keeps the
    last cone's ray off each wall, which the wall relations read, and
    whether every wall lies on two cones, which the completeness checks
    read.
    """

    def __init__(self, maximal_cones, provenance, base):
        self.maximal_cones = tuple(
            sorted(maximal_cones, key=lambda c: c.rays)
        )
        if not self.maximal_cones:
            raise InputError("fan needs at least one cone")
        # a cone's rays share one lattice and dimension, so one ray per cone tells
        kind, d = type(self.maximal_cones[0].rays[0]), len(self.maximal_cones[0].rays[0])
        if any(type(c.rays[0]) is not kind or len(c.rays[0]) != d for c in self.maximal_cones):
            raise InputError("fan cones must all have one lattice and one dimension")
        self.provenance = provenance
        self.base = base
        rays = sorted({r for c in self.maximal_cones for r in c.rays})
        self.rays = tuple(rays)
        self._ray_index = {r: i for i, r in enumerate(rays)}

    @property
    def dim(self) -> int:
        return self.rays[0].dim

    @cached_property
    def is_simplicial(self) -> bool:
        """Whether every maximal cone is its own basis: d rays of nonzero
        determinant.  Read from `bases`, which refuses a cone that is not
        full-dimensional."""
        return all(len(c.rays) == len(b) for c, (b, _, _) in zip(self.maximal_cones, self.bases))

    @cached_property
    def is_fine(self) -> bool:
        """Whether the rays are all the boundary lattice points of the
        base's dual, as on the full crepant refinement."""
        return set(self.rays) == set(self._base_dual().boundary_points())

    def _base_dual(self) -> Polytope:
        """The polytope the cones subdivide, the base's dual; refused on a
        fan built without a base."""
        if self.base is None:
            raise InputError("fan has no base polytope")
        return self.base.dual()

    @cached_property
    def bases(self):
        """(basis, det, duals) of each maximal cone, by
        :func:`_cone_dual_basis`; the cones of d rays share one basis."""
        own = tuple(range(self.dim))
        return tuple([_cone_dual_basis(cone, own) for cone in self.maximal_cones])

    def ray_index(self, ray) -> int:
        """The index of `ray` among the rays, KeyError off the fan; refused
        on a point of another lattice, which compares equal as a tuple."""
        if type(ray) is not type(self.rays[0]):
            raise InputError(f"{ray!r} is not a point of the fan's lattice")
        return self._ray_index[ray]

    def scaled_coeffs(self, divisor: WeilDivisor):
        """The divisor sum a_v D_v as (ray index -> integer a_v * scale,
        scale), scale the lcm of the denominators; refused unless every ray
        it is supported on is a ray of the fan, in the fan's lattice."""
        index, lattice = self._ray_index, type(self.rays[0])
        for r in divisor.support:
            if r not in index or type(r) is not lattice:
                raise InputError(f"divisor supported on {tuple(r)} which is not a fan ray")
        scale = math.lcm(*[c.denominator for _, c in divisor.coeffs])
        return {index[r]: c.numerator * (scale // c.denominator) for r, c in divisor.coeffs}, scale

    def _simplicial_bases(self):
        """`bases`, refused on a fan that is not simplicial."""
        if not self.is_simplicial:
            raise NotSimplicialError("cone table needs a simplicial fan")
        return self.bases

    @property
    def dets(self):
        return tuple([det for _, det, _ in self._simplicial_bases()])

    @property
    def duals(self):
        return tuple([duals for _, _, duals in self._simplicial_bases()])

    @cached_property
    def cones(self):
        return tuple(tuple(map(self._ray_index.__getitem__, c.rays)) for c in self.maximal_cones)

    @cached_property
    def _wall_walk(self):
        """(walls, off, two): each wall's maximal cones in cone order, the
        last one's ray off the wall (the second cone's on a complete fan),
        and whether every wall lies on exactly two cones; a cone's k-th
        wall omits top[~k].  Refused on a fan that is not simplicial."""
        self._simplicial_bases()
        walls, off = {}, {}
        for c, top in enumerate(self.cones):
            for k, wall in enumerate(combinations(top, len(top) - 1)):
                walls[wall] = walls.get(wall, ()) + (c,)
                off[wall] = top[~k]
        return walls, off, all(len(cs) == 2 for cs in walls.values())

    def walls(self):
        """Each wall (codimension-one face) as ascending ray indices, with
        the maximal cones sharing it: two each in a complete fan."""
        return self._wall_walk[0]

    def wall_consistency(self) -> bool:
        return self._wall_walk[2]

    def require_complete(self):
        if not self._wall_walk[2]:
            raise InputError("fan is not complete: some wall has one incident cone")

    @cached_property
    def relations(self):
        """The wall relations, one per wall in `walls()` order, as (ray
        indices, primitive integer coefficients b).

        For the wall between sigma, its first cone, and sigma', with u' the
        ray of sigma' off the wall, det_sigma * u' = sum_i <n_i, u'> v_i
        over the rays v_i of sigma.  The indices are sigma's rays, then u';
        the coefficients -<n_i, u'> and det_sigma, over their gcd.  Both
        rays off the wall get b > 0 and sum b_v v = 0 (Cox-Little-Schenck,
        Toric Varieties, 6.4).  Up to positive multiples, D . V(tau) =
        sum b_v a_v, so on a projective fan the relations span the Mori
        cone (ibid., Thm 6.3.20).
        """
        self.require_complete()
        rays, cones, bases = self.rays, self.cones, self.bases
        walls, off, _ = self._wall_walk
        out = []
        for wall, (ci, _) in walls.items():
            u = off[wall]
            v = rays[u]
            _, det, duals = bases[ci]
            b = [-sum(map(mul, n, v)) for n in duals]
            b.append(det)
            g = math.gcd(*b)
            out.append((cones[ci] + (u,), tuple([x // g for x in b])))
        return tuple(out)

    def edges(self):
        """All 2-element ray sets spanning a 2-cone of a simplicial fan,
        ascending: the 2-subsets of the maximal cones."""
        if not self.is_simplicial:
            raise NotSimplicialError("edge enumeration expects a simplicial fan")
        pairs = {g for top in self.cones for g in combinations(top, 2)}
        return [(self.rays[a], self.rays[b]) for a, b in sorted(pairs)]

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
    return Fan([Cone(f.vertices) for f in dual.faces(dual.dim - 1)], "face", delta)


# -- MPCP refinement -------------------------------------------------------------


class _Cell:
    """A cell of a pulling triangulation: its rays and its walls as (primitive
    normal, rays on the wall), ray sets as bitmasks over the facet's points,
    and `held`, each later point it holds with its values <n, p> on the walls."""

    __slots__ = ("rays", "walls", "held")

    def __init__(self, rays, walls, held):
        self.rays = rays
        self.walls = walls
        self.held = held


def _facet_points(dual: Polytope):
    """Each facet of `dual` with its lattice points in the global pull order:
    points on fewer facets first, ties lexicographic."""
    face_of = dual.census().face_of
    order = sorted(dual.boundary_points(), key=lambda p: (face_of[p].bit_count(), tuple(p)))
    for facet in dual.faces(dual.dim - 1):
        # a facet's mask is its one bit, so sharing it is lying on the facet
        yield facet, [p for p in order if face_of[p] & facet.fmask]


def _pull_triangulate_facet(dual: Polytope, facet, points):
    """Iterated pulling triangulation of the cone over one dual facet, with
    `points` (the facet's lattice points) in the global pull order.

    A cell is a cone in the ambient lattice: its rays, its walls as
    (primitive normal, nonnegative on the cell; rays on the wall), and the
    later points it holds with their values on its walls (a conflict list,
    Clarkson-Shor).  Ray sets are int bitmasks over `points`, so a ridge
    test is one AND.  The first cell has one wall per ridge of the dual in
    the facet: on facet i, where <m_i, x> = -1, the ridge shared with facet
    j is <m_j - m_i, x> = 0; it holds every point, one dot product per wall.
    A map from each point to the cells holding it means pulling q visits
    only those.  Pulling q into a cell that is not already a pyramid with
    apex q gives the pyramids q * F over the walls F with v_F = <n_F, q> > 0.
    The walls of q * F are F and, for each ridge R = F & G of the cell (R
    lies on exactly two walls; on a simplex every two walls meet in one),
    q * R with normal (v_F * n_G - v_G * n_F) / g, g the gcd of its
    entries.  A held point with values w lies on that wall at
    (v_F * w_G - v_G * w_F) / g, so which pyramids hold it (all values >= 0)
    and the values it carries there cost two products per wall.
    Returns the simplices as frozensets of rays.
    """
    i = facet.fmask.bit_length() - 1  # a facet's mask is its own bit
    m_i = dual.facets[i].normal
    bit = {p: 1 << k for k, p in enumerate(points)}
    walls = []
    for ridge in dual.faces(dual.dim - 2):
        if ridge.fmask & facet.fmask:
            j = (ridge.fmask ^ facet.fmask).bit_length() - 1  # a ridge lies on two facets
            normal = [a - b for a, b in zip(dual.facets[j].normal, m_i)]
            walls.append((primitive_vector(normal), sum(bit[v] for v in ridge.vertices)))
    rays = sum(bit[v] for v in facet.vertices)
    first = _Cell(rays, walls, {p: [dot(n, p) for n, _ in walls] for p in points})
    cells = [first]
    cells_of = {p: [first] for p in points}  # split cells are dropped lazily
    d = dual.dim
    for q in points:
        bit_q = bit[q]
        for cell in cells_of.pop(q):
            held = cell.held
            if held is None:
                continue  # split by an earlier point
            values = held.pop(q)
            if sum(v > 0 for v in values) <= 1:
                continue  # the cell is a pyramid with apex q already
            cell.held = None
            walls = cell.walls
            simplex = cell.rays.bit_count() == d
            for a, (n_f, on_f) in enumerate(walls):
                v_f = values[a]
                if v_f == 0:
                    continue
                pyramid = [(n_f, on_f)]
                cuts = []
                for b, (n_g, on_g) in enumerate(walls):
                    ridge = on_f & on_g
                    if b != a and (simplex or sum(ridge & on == ridge for _, on in walls) == 2):
                        v_g = values[b]
                        normal = [v_f * x - v_g * y for x, y in zip(n_g, n_f)]
                        g = math.gcd(*normal)
                        pyramid.append((tuple(x // g for x in normal), ridge | bit_q))
                        cuts.append((b, v_g, g))
                inside = {}
                for p, w in held.items():
                    w_f = w[a]
                    out = [w_f]
                    for b, v_g, g in cuts:
                        x = v_f * w[b] - v_g * w_f
                        if x < 0:
                            break
                        out.append(x // g)
                    else:
                        inside[p] = out
                cell_f = _Cell(on_f | bit_q, pyramid, inside)
                cells.append(cell_f)
                for p in inside:
                    cells_of[p].append(cell_f)
    return [frozenset(map(points.__getitem__, _bits(c.rays))) for c in cells if c.held is not None]


def mpcp_triangulate(delta: Polytope) -> Fan:
    """Crepant simplicial refinement of the face fan whose rays are all the
    boundary lattice points of the dual polytope.

    The cone over each dual facet is triangulated by iterated pulling with
    one global point order, points on fewer facets first and ties
    lexicographic (see :func:`_pull_triangulate_facet`), so the result is
    fine, face-respecting, and regular by construction.
    """
    dual = _require_reflexive(delta, "refinement")
    cones = [
        Cone._from_rays(simplex)  # boundary points are primitive
        for facet, points in _facet_points(dual)
        for simplex in _pull_triangulate_facet(dual, facet, points)
    ]
    fan = Fan(cones, "mpcp", delta)
    _validate_mpcp(fan)
    return fan


def _validate_mpcp(fan: Fan):
    """Fine, simplicial (every cone's determinant is nonzero), every wall
    on two cones, and the cones' |det| sum to the base's dual's normalized
    volume: one dual basis per cone and one walk of the walls, on the fan."""
    if not fan.is_fine:
        raise InputError("refinement is not fine: ray set != boundary points")
    if not fan.is_simplicial:
        raise InputError("refinement left a non-simplicial cone")
    if not fan.wall_consistency():
        raise InputError("refinement broke wall consistency")
    total = sum(fan.dets)
    dual = fan._base_dual()
    if total != dual.normalized_volume():
        raise InputError(
            f"refined cones cover {total}, expected {dual.normalized_volume()}"
        )


# -- audits -----------------------------------------------------------------------


def singularity_census(fan: Fan):
    """All maximal cones with multiplicity > 1, with their multiplicities,
    read from the fan's dual bases."""
    if not fan.is_simplicial:
        raise NotSimplicialError("singularity census needs a simplicial fan")
    return [(c, m) for c, m in zip(fan.maximal_cones, fan.dets) if m > 1]


_ZERO = Fraction(0)


def _exact(c):
    """c as a Fraction, refused unless it is an int or a Fraction: no float
    (or bool) enters a divisor."""
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise InputError(f"divisor coefficients must be int or Fraction, got {c!r}")
    return Fraction(c)


@dataclass(frozen=True)
class WeilDivisor:
    """Formal rational combination of the toric boundary divisors, keyed by
    primitive ray generator."""

    coeffs: tuple  # sorted tuple of (ray, Fraction) with nonzero values

    @classmethod
    def from_dict(cls, mapping):
        items = ((r, _exact(c)) for r, c in mapping.items())
        return cls(tuple(sorted(item for item in items if item[1])))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def ray(cls, ray, coeff=1):
        return cls.from_dict({ray: coeff})

    @classmethod
    def anticanonical(cls, fan: Fan):
        return cls.from_dict(dict.fromkeys(fan.rays, 1))

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
        out = dict(self.coeffs)
        for r, c in _divisor(other).coeffs:
            out[r] = out.get(r, _ZERO) + c
        return WeilDivisor.from_dict(out)

    def __sub__(self, other):
        return self + -_divisor(other)

    def __rmul__(self, k):
        k = _exact(k)
        return WeilDivisor.from_dict({r: k * c for r, c in self.coeffs})

    __mul__ = __rmul__

    def __neg__(self):
        return WeilDivisor.from_dict({r: -c for r, c in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "WeilDivisor(0)"
        parts = [f"{c}*D{tuple(r)}" for r, c in self.coeffs]
        return "WeilDivisor(" + " + ".join(parts) + ")"


def _divisor(other):
    """`other`, refused unless it is a WeilDivisor."""
    if not isinstance(other, WeilDivisor):
        raise InputError(f"divisors add and subtract only with divisors, got {other!r}")
    return other


def _cone_dual_basis(cone: Cone, own):
    """(basis, det, duals) of a maximal cone: the positions in `cone.rays`
    of its first d linearly independent rays b_i, their determinant made
    positive, and their integer dual basis, <duals[i], b_j> = det * (i ==
    j).  A cone of d rays is its own basis, `own` = (0, .., d - 1), and
    takes no elimination; any other takes the pivot columns of its rays as
    columns.  Refused unless the cone is full-dimensional: :func:`dual_basis`
    raises ValueError on d rays of det 0 and on fewer than d pivot rows,
    which are not square."""
    rays = cone.rays
    basis = own if len(rays) == len(own) else tuple(pivot_columns(list(zip(*rays))))
    try:
        det, duals = dual_basis([rays[k] for k in basis])
    except ValueError:
        raise InputError(f"maximal cone {cone} is not full-dimensional") from None
    if det < 0:
        det, duals = -det, [tuple(map(neg, n)) for n in duals]
    return basis, det, duals


def is_qcartier(fan: Fan, divisor: WeilDivisor):
    """Whether per-cone linear support data exists, m with <m, v> = -a_v on
    every ray v of the cone; if so, also the smallest positive integer
    clearing all denominators (the Cartier index).

    On the integer coefficients A_v = a_v * scale of
    :meth:`Fan.scaled_coeffs` and a cone's dual basis n_i
    (:attr:`Fan.bases`), num = -sum A_{b_i} n_i is det * scale * m.  So the
    divisor is Q-Cartier on the cone iff <num, v> = -det * A_v on every ray
    v, and m's denominator is det * scale over its gcd with num."""
    scaled, scale = fan.scaled_coeffs(divisor)  # refuses a divisor off the rays
    index = 1
    for cone, top, (basis, det, duals) in zip(fan.maximal_cones, fan.cones, fan.bases):
        a = [scaled.get(i, 0) for i in top]
        num = [-sum(a[k] * x for k, x in zip(basis, column)) for column in zip(*duals)]
        if any(dot(num, v) != -det * a_v for v, a_v in zip(cone.rays, a)):
            return False, None
        det *= scale
        index = math.lcm(index, det // math.gcd(det, *num))
    return True, index


def picard_rank_q(fan: Fan) -> int:
    """Dimension over Q of Q-Cartier Weil divisors modulo principal ones.

    A divisor is Q-Cartier on a cone iff its coefficients satisfy the
    cone's linear relations among its rays: with the cone's dual basis n_i
    (:attr:`Fan.bases`), det * v = sum <n_i, v> b_i for each ray v off the
    basis, so a row with det at v and -<n_i, v> at b_i.  Principal
    divisors contribute the ambient dimension (their map is injective on a
    complete fan).
    """
    n = len(fan.rays)
    if fan.is_simplicial:
        return n - fan.dim  # no cone imposes a condition
    constraints = []
    for cone, top, (basis, det, duals) in zip(fan.maximal_cones, fan.cones, fan.bases):
        for k, v in enumerate(cone.rays):
            if k not in basis:
                row = [0] * n
                row[top[k]] = det
                for i, n_i in zip(basis, duals):
                    row[top[i]] = -dot(n_i, v)
                constraints.append(row)
    return n - matrix_rank(constraints) - fan.dim


def is_nef(fan: Fan, divisor: WeilDivisor) -> bool:
    """Toric Kleiman (Cox-Little-Schenck, Toric Varieties, Thm 6.3.12): on
    a complete simplicial fan, D = sum a_v D_v is nef iff D . V(tau) >= 0
    for every wall tau, i.e. sum b_v a_v >= 0 for the wall's relation
    sum b_v v = 0 (:attr:`Fan.relations`).  With sigma's dual basis
    that reads det_sigma * a_u' - sum_i a_i <n_i, u'> >= 0: the support
    function is convex across the wall.  One integer test per wall.

    The divisor is scaled once to integer coefficients A_v (nefness is
    invariant under positive scaling)."""
    if not fan.is_simplicial:
        raise NotSimplicialError("nef test expects a simplicial fan")
    scaled, _ = fan.scaled_coeffs(divisor)
    a = [scaled.get(i, 0) for i in range(len(fan.rays))]
    return all(
        sum(b * a[i] for i, b in zip(indices, coeffs)) >= 0
        for indices, coeffs in fan.relations
    )
