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
A :class:`Fan` owns every fact about itself: its rays, whether it is fine,
and for a simplicial fan its skeleton (the cones on each wall, each
maximal cone's integer dual basis and the wall relations), each built
once.  Walls, edges, the nef test and the intersection form in
:mod:`cytoric.chern` all read it, and every divisor audit refuses a
divisor off the rays in :meth:`Fan.scaled_coeffs`, which also gives its
integer coefficients on the ray indices.
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
    int_det,
    left_nullspace,
    matrix_rank,
    primitive_vector,
    solve_linear,
)
from .errors import (
    InputError,
    NotReflexiveError,
    NotSimplicialError,
)
from .polytope import Polytope, _bits, hull  # noqa: F401  bench/spans.py wraps fan.hull


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
            if r.is_zero() or math.gcd(*r) != 1:
                raise InputError(f"ray generator {tuple(r)} is not primitive")
        object.__setattr__(self, "rays", rays)

    @classmethod
    def _from_rays(cls, rays):
        """A cone without the checks, for distinct primitive rays only."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "rays", tuple(sorted(rays)))
        return cone

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

    def __repr__(self):
        return f"Cone({', '.join(str(tuple(r)) for r in self.rays)})"


def cone_mult(cone: Cone) -> int:
    return cone.multiplicity


class Fan:
    """Complete fan presented by its maximal cones.

    `base` is the defining reflexive polytope; the cones subdivide the
    boundary of its dual.

    A simplicial fan also owns its skeleton, built once and shared by the
    walls, the edges, the nef test and the intersection form.  `cones[c]`
    holds the ascending ray indices of maximal cone c.  `owners` maps each
    wall, as ascending ray indices, to the maximal cones containing it in
    cone order (two in a complete fan); `walls()` shares it, so do not
    mutate it.  The walk that builds it also keeps the second cone's ray
    off the wall, which the wall relations read.  For cone c with rays
    v_0 .. v_{d-1}, `dets[c]` is its multiplicity |det| and `duals[c][i]`
    the integer vector n_i with <n_i, v_j> = dets[c] * (i == j), one
    :func:`dual_basis` per cone in any dimension (the determinants that
    show the fan simplicial; closed-form cofactors in dimension 4).
    """

    def __init__(self, maximal_cones, provenance, base):
        self.maximal_cones = tuple(
            sorted(maximal_cones, key=lambda c: c.rays)
        )
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
        """Whether every maximal cone is spanned by d independent rays: d
        rays and a nonzero determinant (the maximal cones of a complete fan
        are full-dimensional).  Read from the dual bases, so a simplicial
        fan takes one :func:`dual_basis` per cone."""
        return self._dual_bases is not None

    @cached_property
    def is_fine(self) -> bool:
        """Whether the rays are all the boundary lattice points of the
        base's dual, as on the full crepant refinement."""
        return set(self.rays) == set(self.base.dual().boundary_points())

    @cached_property
    def _dual_bases(self):
        """(dets, duals) of the maximal cones, one :func:`dual_basis` each,
        with each det made positive; None at the first cone without d rays
        or with det 0."""
        d = self.dim
        dets, duals = [], []
        for cone in self.maximal_cones:
            if len(cone.rays) != d:
                return None
            try:
                det, ns = dual_basis(cone.rays)
            except ValueError:
                return None
            if det < 0:
                det, ns = -det, [tuple(map(neg, n)) for n in ns]
            dets.append(det)
            duals.append(ns)
        return tuple(dets), tuple(duals)

    def ray_index(self, ray) -> int:
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

    def walls(self):
        """Each wall (codimension-one face) as ascending ray indices, with
        the maximal cones sharing it: two each in a complete fan.  Read off
        the maximal cones, or for a non-simplicial face fan the ridges of
        the base's dual."""
        if self.is_simplicial:
            return self.owners
        dual = self.base.dual()
        cone_pos = {frozenset(cone.rays): ci for ci, cone in enumerate(self.maximal_cones)}
        return {
            tuple(sorted(map(self.ray_index, ridge.vertices))): tuple(
                sorted(cone_pos[frozenset(f.vertices)] for f in dual.faces().parents(ridge))
            )
            for ridge in dual.faces(dual.dim - 2)
        }

    def wall_consistency(self) -> bool:
        return all(len(v) == 2 for v in self.walls().values())

    def _simplicial_bases(self):
        """`_dual_bases`, refused on a fan that is not simplicial."""
        if self._dual_bases is None:
            raise NotSimplicialError("cone table needs a simplicial fan")
        return self._dual_bases

    @property
    def dets(self):
        return self._simplicial_bases()[0]

    @property
    def duals(self):
        return self._simplicial_bases()[1]

    @cached_property
    def cones(self):
        return tuple(tuple(map(self.ray_index, c.rays)) for c in self.maximal_cones)

    @cached_property
    def _wall_walk(self):
        """(owners, off): each wall's maximal cones in cone order, and the
        last one's ray off the wall, the second cone's on a complete fan; a
        cone's k-th wall omits top[~k]."""
        self._simplicial_bases()  # walls of a simplicial fan only
        owners, off = {}, {}
        for c, top in enumerate(self.cones):
            for k, wall in enumerate(combinations(top, len(top) - 1)):
                owners[wall] = owners.get(wall, ()) + (c,)
                off[wall] = top[~k]
        return owners, off

    @property
    def owners(self):
        return self._wall_walk[0]

    def require_complete(self):
        if not self.wall_consistency():
            raise InputError("fan is not complete: some wall has one incident cone")

    @cached_property
    def relations(self):
        """The wall relations, one per wall in `owners` order, as (ray
        indices, primitive integer coefficients b).

        For the wall between sigma = owners[0] and sigma', with u' the ray
        of sigma' off the wall, det_sigma * u' = sum_i <n_i, u'> v_i over
        the rays v_i of sigma.  The indices are sigma's rays, then u'; the
        coefficients -<n_i, u'> and det_sigma, over their gcd.  Both rays
        off the wall get b > 0 and sum b_v v = 0 (Cox-Little-Schenck,
        Toric Varieties, 6.4).  Up to positive multiples, D . V(tau) =
        sum b_v a_v, so on a projective fan the relations span the Mori
        cone (ibid., Thm 6.3.20).
        """
        self.require_complete()
        rays, cones, dets, duals = self.rays, self.cones, self.dets, self.duals
        owners, off = self._wall_walk
        out = []
        for wall, (ci, _) in owners.items():
            u = off[wall]
            v = rays[u]
            b = [-sum(map(mul, n, v)) for n in duals[ci]]
            b.append(dets[ci])
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
    census = dual.census()
    face_of = census.face_of
    order = sorted(census.boundary, key=lambda p: (face_of[p].bit_count(), tuple(p)))
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
    dual = fan.base.dual()
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


@dataclass(frozen=True)
class WeilDivisor:
    """Formal rational combination of the toric boundary divisors, keyed by
    primitive ray generator."""

    coeffs: tuple  # sorted tuple of (ray, Fraction) with nonzero values

    @classmethod
    def from_dict(cls, mapping):
        items = ((r, Fraction(c)) for r, c in mapping.items())
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


def is_qcartier(fan: Fan, divisor: WeilDivisor):
    """Whether per-cone linear support data exists, m with <m, v> = -a_v on
    every ray v of the cone; if so, also the smallest positive integer
    clearing all denominators (the Cartier index).

    Each cone is solved on the integer coefficients a_v * scale of
    :meth:`Fan.scaled_coeffs`, which give scale * m as num / den in lowest
    terms, so m's denominator is den * scale over its gcd with num."""
    scaled, scale = fan.scaled_coeffs(divisor)  # refuses a divisor off the rays
    index = 1
    for cone, top in zip(fan.maximal_cones, fan.cones):
        m = solve_linear([tuple(r) for r in cone.rays], [-scaled.get(i, 0) for i in top])
        if m is None:
            return False, None
        num, den = m
        den *= scale
        index = math.lcm(index, den // math.gcd(den, *num))
    return True, index


def picard_rank_q(fan: Fan) -> int:
    """Dimension over Q of Q-Cartier Weil divisors modulo principal ones.

    Q-Cartier conditions come from the left kernels of the non-simplicial
    maximal cones' ray matrices; principal divisors contribute the ambient
    dimension (their map is injective on a complete fan).
    """
    n = len(fan.rays)
    if fan.is_simplicial:
        return n - fan.dim  # no cone imposes a condition
    constraints = []
    for cone, top in zip(fan.maximal_cones, fan.cones):
        if cone.is_simplicial:
            continue
        for w in left_nullspace([tuple(r) for r in cone.rays]):
            full = [0] * n
            for coeff, i in zip(w, top):
                full[i] = coeff
            constraints.append(full)
    rank = matrix_rank(constraints) if constraints else 0
    return n - rank - fan.dim


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
