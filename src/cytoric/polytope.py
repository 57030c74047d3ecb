"""Exact convex geometry of full-dimensional lattice polytopes.

Hulls are built by incremental insertion with exact integer orientation
predicates, then coplanar simplicial pieces are merged into the true
(possibly non-simplicial) facets.  Lattice polytopes are maximally
degenerate, so nothing here assumes general position.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction

from ._linalg import (
    hyperplane_normal,
    int_det,
    matrix_rank,
    vector_gcd,
)
from .errors import (
    InputError,
    InternalInvariantError,
    NotFullDimensionalError,
    NotReflexiveError,
    OriginNotInteriorError,
)
from .lattice import (
    DUAL_LATTICE,
    MPoint,
    NPoint,
    RationalHyperplane,
)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class Face:
    """A proper face: dimension, vertex set, and the facets that cut it out.

    Lattice point counts (total and relative-interior) are filled in by the
    owning polytope's census on first access.
    """

    __slots__ = ("dim", "vertices", "facet_set", "_polytope", "_n_points", "_n_interior")

    def __init__(self, dim, vertices, facet_set, polytope):
        self.dim = dim
        self.vertices = tuple(sorted(vertices))
        self.facet_set = frozenset(facet_set)
        self._polytope = polytope
        self._n_points = None
        self._n_interior = None

    @property
    def key(self):
        return (self.dim, frozenset(self.vertices))

    def __eq__(self, other):
        return isinstance(other, Face) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={len(self.vertices)})"

    @property
    def n_points(self) -> int:
        """Number of lattice points on the face (l of the face)."""
        if self._n_points is None:
            self._polytope.census()
        return self._n_points

    @property
    def n_interior(self) -> int:
        """Number of lattice points in the relative interior (l* of the face)."""
        if self._n_interior is None:
            self._polytope.census()
        return self._n_interior

    @property
    def lattice_length(self) -> int:
        """Lattice length of an edge: interior point count plus one."""
        if self.dim != 1:
            raise InputError("lattice length is defined for 1-dimensional faces")
        return self.n_interior + 1


class FaceLattice:
    """All proper faces of a polytope, indexed by dimension and identity."""

    def __init__(self, polytope, by_dim):
        self._polytope = polytope
        self.by_dim = {d: tuple(faces) for d, faces in by_dim.items()}
        self._by_facetset = {}
        self._by_vertexset = {}
        for faces in self.by_dim.values():
            for f in faces:
                self._by_facetset[f.facet_set] = f
                self._by_vertexset[frozenset(f.vertices)] = f

    def __call__(self, dim=None):
        if dim is None:
            return [f for d in sorted(self.by_dim) for f in self.by_dim[d]]
        return list(self.by_dim.get(dim, ()))

    def __iter__(self):
        for d in sorted(self.by_dim):
            yield from self.by_dim[d]

    def counts(self):
        return {d: len(fs) for d, fs in sorted(self.by_dim.items())}

    def by_facet_set(self, facet_set):
        return self._by_facetset[frozenset(facet_set)]

    def by_vertex_set(self, vertices):
        return self._by_vertexset[frozenset(vertices)]

    def children(self, face):
        """The faces one dimension down inside `face`: those whose facet
        sets contain face.facet_set."""
        fs = face.facet_set
        return [g for g in self.by_dim.get(face.dim - 1, ()) if fs < g.facet_set]

    def parents(self, face):
        """The faces one dimension up containing `face`: those whose facet
        sets lie in face.facet_set."""
        fs = face.facet_set
        return [g for g in self.by_dim.get(face.dim + 1, ()) if g.facet_set < fs]


class PointCensus:
    """Every lattice point of a polytope, tagged by the face whose relative
    interior contains it (None for points interior to the polytope itself)."""

    def __init__(self, points, interior, boundary, face_of):
        self.points = points
        self.interior = interior
        self.boundary = boundary
        self.face_of = face_of

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_interior(self):
        return len(self.interior)


class RationalPolytope:
    """Vertex presentation of a dual polytope with non-integral vertices.

    Only duals of reflexive polytopes need the full machinery; this carrier
    exists so dualising a non-reflexive polytope still returns the exact
    vertices instead of lying or rounding.
    """

    def __init__(self, vertices, point_cls):
        self.vertices = tuple(sorted(vertices))
        self.point_cls = point_cls

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def __repr__(self):
        return f"RationalPolytope({len(self.vertices)} vertices)"


class Polytope:
    """Full-dimensional lattice polytope with exact V- and H-representations.

    Build instances with :func:`hull`; the constructor cross-validates the
    two representations and is not meant for hand-assembled data.
    """

    def __init__(self, vertices, facets):
        if not vertices:
            raise InputError("polytope needs vertices")
        self.point_cls = type(vertices[0])
        if self.point_cls not in (MPoint, NPoint):
            raise InputError("vertices must be MPoint or NPoint")
        self.ambient_dim = vertices[0].dim
        self.vertices = tuple(sorted(vertices))
        self.facets = tuple(sorted(facets, key=lambda f: (tuple(f.normal), f.offset)))
        self._validate()
        self._faces = None
        self._census = None
        self._dual = None
        self._volume = None
        self._reflexive = None

    # -- construction-time consistency ------------------------------------

    def _validate(self):
        d = self.ambient_dim
        for v in self.vertices:
            if v.dim != d:
                raise InputError("mixed vertex dimensions")
            if type(v) is not self.point_cls:
                raise InputError("mixed vertex lattice types")
        dual_cls = DUAL_LATTICE[self.point_cls]
        for f in self.facets:
            if type(f.normal) is not dual_cls:
                raise InputError("facet normals must live in the dual lattice")
        for v in self.vertices:
            slacks = [f.evaluate(v) for f in self.facets]
            if any(s < 0 for s in slacks):
                raise InputError(f"vertex {v} violates a facet inequality")
            if sum(1 for s in slacks if s == 0) < d:
                raise InputError(f"vertex {v} saturates fewer than {d} facets")
        for i, f in enumerate(self.facets):
            on = [v for v in self.vertices if f.evaluate(v) == 0]
            if len(on) < d:
                raise InputError(f"facet {i} holds fewer than {d} vertices")
            diffs = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
            if matrix_rank(diffs) != d - 1:
                raise InputError(f"facet {i} vertices do not span it")

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self):
        return self.ambient_dim

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.point_cls is other.point_cls
            and self.vertex_set == other.vertex_set
        )

    def __hash__(self):
        return hash((self.point_cls, self.vertex_set))

    def __repr__(self):
        kind = "reflexive " if self._safe_is_reflexive() else ""
        return (
            f"Polytope({kind}dim {self.ambient_dim}, {len(self.vertices)} vertices, "
            f"{len(self.facets)} facets, lattice {self.point_cls.lattice})"
        )

    def _safe_is_reflexive(self):
        try:
            return self.is_reflexive()
        except OriginNotInteriorError:
            return False

    def origin(self):
        return self.point_cls([0] * self.ambient_dim)

    def contains(self, p) -> bool:
        return all(f.evaluate(p) >= 0 for f in self.facets)

    def strictly_contains(self, p) -> bool:
        return all(f.evaluate(p) > 0 for f in self.facets)

    # -- duality and reflexivity -------------------------------------------

    def is_reflexive(self) -> bool:
        """True iff every facet lies at integral distance one from the origin.

        Requires the origin to be strictly interior.  The equivalent
        statement "the dual has integral vertices" is re-derived from the
        facet data and checked rather than assumed.  The verdict is cached.
        """
        if self._reflexive is not None:
            return self._reflexive
        if not self.strictly_contains(self.origin()):
            raise OriginNotInteriorError(
                "reflexivity is only defined for polytopes with 0 strictly interior"
            )
        by_distance = all(abs(f.offset) == 1 for f in self.facets)
        by_dual_integrality = all(
            all(c % -f.offset == 0 for c in f.normal) for f in self.facets
        )
        if by_distance != by_dual_integrality:
            raise InternalInvariantError("facet distances disagree with dual integrality")
        self._reflexive = by_distance
        return by_distance

    def dual(self):
        """Polar dual {y : <x, y> >= -1 for all x in the polytope}.

        For a reflexive polytope this is again a Polytope in the dual
        lattice (with back-links so dualising twice is free and exact);
        otherwise a RationalPolytope carrying the exact fractional vertices.
        """
        if self._dual is not None:
            return self._dual
        if not self.strictly_contains(self.origin()):
            raise OriginNotInteriorError("dual is unbounded unless 0 is interior")
        dual_cls = DUAL_LATTICE[self.point_cls]
        if not self.is_reflexive():
            verts = [
                tuple(Fraction(c, -f.offset) for c in f.normal) for f in self.facets
            ]
            return RationalPolytope(verts, dual_cls)
        dual_vertices = [dual_cls(f.normal) for f in self.facets]
        d = hull(dual_vertices)
        if d.vertex_set != frozenset(dual_vertices):
            raise InputError("dual vertex/facet bijection failed")
        # Bidual consistency: the dual's facets must be cut out by our vertices.
        if {(tuple(f.normal), f.offset) for f in d.facets} != {
            (tuple(v), -1) for v in self.vertices
        }:
            raise InternalInvariantError("bidual facets differ from the vertices")
        self._dual = d
        d._dual = self
        return d

    # -- face lattice --------------------------------------------------------

    def faces(self, dim=None):
        """The lattice of proper faces (dimensions 0 .. d-1)."""
        if self._faces is None:
            self._faces = self._build_faces()
        if dim is None:
            return self._faces
        return self._faces(dim)

    def _build_faces(self):
        d = self.ambient_dim
        sat = {
            v: frozenset(i for i, f in enumerate(self.facets) if f.evaluate(v) == 0)
            for v in self.vertices
        }

        def make_face(fdim, verts):
            fs = frozenset.intersection(*(sat[v] for v in verts))
            return Face(fdim, verts, fs, self)

        by_dim = {}
        by_dim[d - 1] = [
            make_face(d - 1, tuple(v for v in self.vertices if i in sat[v]))
            for i in range(len(self.facets))
        ]
        level = by_dim[d - 1]
        for fdim in range(d - 2, 0, -1):
            seen = {}
            for fa, fb in itertools.combinations(level, 2):
                common = tuple(sorted(set(fa.vertices) & set(fb.vertices)))
                if len(common) <= fdim or frozenset(common) in seen:
                    continue
                diffs = [
                    tuple(a - b for a, b in zip(v, common[0])) for v in common[1:]
                ]
                if matrix_rank(diffs) == fdim:
                    seen[frozenset(common)] = make_face(fdim, common)
            by_dim[fdim] = list(seen.values())
            level = by_dim[fdim]
        by_dim[0] = [Face(0, (v,), sat[v], self) for v in self.vertices]
        for fdim in by_dim:
            by_dim[fdim].sort(key=lambda f: f.vertices)
        return FaceLattice(self, by_dim)

    # -- lattice points ------------------------------------------------------

    def census(self):
        """Enumerate all lattice points, in lexicographic order, and assign
        each to the face whose relative interior contains it.  Also fills
        per-face point counts.

        Points are enumerated slice by slice, with each coordinate bounded
        by the facet inequalities (see :func:`_lattice_points`), so the cost
        scales with the lattice points in the slices the facets allow, not
        with the bounding box.
        """
        if self._census is not None:
            return self._census
        lattice = self.faces()
        points = []
        interior = []
        boundary = []
        face_of = {}
        n_saturating = Counter()  # saturated facet set -> number of points
        for raw, satset in _lattice_points(self.vertices, self.facets):
            p = self.point_cls(raw)
            points.append(p)
            n_saturating[satset] += 1
            if satset:
                boundary.append(p)
                face_of[p] = lattice.by_facet_set(satset)
            else:
                interior.append(p)
                face_of[p] = None
        for face in lattice:
            face._n_interior = n_saturating[face.facet_set]
            face._n_points = sum(
                n for satset, n in n_saturating.items() if face.facet_set <= satset
            )
        self._census = PointCensus(
            tuple(points), tuple(interior), tuple(boundary), face_of
        )
        return self._census

    def boundary_points(self):
        return self.census().boundary

    @property
    def n_points(self):
        return self.census().n_points

    @property
    def n_interior(self):
        return self.census().n_interior

    # -- dual faces ------------------------------------------------------------

    def dual_face(self, face):
        """The face of the dual polytope pairing to -1 against all of `face`.

        Defined for reflexive polytopes; dimensions satisfy
        dim(face) + dim(dual) = ambient_dim - 1 and the map is an involution.
        Dual vertex i is the normal of facet i, so the dual face's vertices
        are the normals of the facets containing `face`.
        """
        if not self.is_reflexive():
            raise NotReflexiveError("dual faces need a reflexive polytope")
        dual_face = self.dual().faces().by_vertex_set(
            self.facets[i].normal for i in face.facet_set
        )
        if face.dim + dual_face.dim != self.ambient_dim - 1:
            raise InternalInvariantError("dual face has the wrong dimension")
        return dual_face

    # -- volume -----------------------------------------------------------------

    def normalized_volume(self) -> int:
        """d! times the Euclidean volume; an integer for lattice polytopes.

        The sum of |det| over the pulling triangulation that uses vertices
        only: every face is coned from its first vertex over its facets
        missing that vertex, recursively down the face lattice.
        """
        if self._volume is None:
            lattice = self.faces()

            @functools.cache
            def simplices(face):  # vertex tuples, the face's first vertex last
                apex = face.vertices[0]
                if face.dim == 0:
                    return [(apex,)]
                children = [g for g in lattice.children(face) if apex not in g.vertices]
                return [s + (apex,) for g in children for s in simplices(g)]

            apex = self.vertices[0]
            self._volume = sum(
                abs(int_det([[a - b for a, b in zip(v, apex)] for v in s]))
                for facet in lattice(self.dim - 1)
                if apex not in facet.vertices
                for s in simplices(facet)
            )
        return self._volume


def _lattice_points(vertices, facets):
    """Yield (coordinates, saturated facet indices) for every lattice point
    of conv(vertices), in lexicographic order.

    Depth-first over x0 .. x_{d-1}: each facet's partial sum <normal, x>
    over the coordinates fixed so far is carried down, and x_k takes only
    the values every facet inequality allows once the coordinates not yet
    fixed are relaxed to their bounding-box range.  At the last level
    nothing is relaxed, so every point reached is inside and none is missed.
    """
    d = len(vertices[0])
    lo = [min(v[i] for v in vertices) for i in range(d)]
    hi = [max(v[i] for v in vertices) for i in range(d)]
    offsets = tuple(f.offset for f in facets)
    columns = [tuple(f.normal[k] for f in facets) for k in range(d)]
    # reach[k][j]: the most the coordinates after x_k can add to <normal_j, x>.
    reach = [None] * d
    acc = (0,) * len(facets)
    for k in range(d - 1, -1, -1):
        reach[k] = acc
        acc = tuple(r + max(a * lo[k], a * hi[k]) for r, a in zip(acc, columns[k]))

    def descend(k, prefix, partial):
        column = columns[k]
        low, high = lo[k], hi[k]
        # Facet j can still hold below this level only if a * x_k >= need.
        # A facet with a = 0 needs no test: its need here equals the bound
        # already met one level up (at level 0, met by every vertex).
        for a, s, b, r in zip(column, partial, offsets, reach[k]):
            need = b - s - r
            if a > 0:
                low = max(low, -(-need // a))
            elif a < 0:
                high = min(high, need // a)
        if k == d - 1:
            slack = [s - b for s, b in zip(partial, offsets)]
            for x in range(low, high + 1):
                saturated = frozenset(
                    j for j, (s, a) in enumerate(zip(slack, column)) if s + a * x == 0
                )
                yield prefix + (x,), saturated
            return
        for x in range(low, high + 1):
            yield from descend(
                k + 1, prefix + (x,), tuple(s + a * x for s, a in zip(partial, column))
            )

    yield from descend(0, (), (0,) * len(facets))


# -- convex hull ------------------------------------------------------------------


def hull(points) -> Polytope:
    """Convex hull of lattice points that affinely span the ambient space.

    Incremental insertion with exact orientation tests; coplanar simplicial
    facets are merged afterwards, so non-simplicial facets (the normal case
    for lattice polytopes) come out as single facets with full vertex sets.
    """
    pts = sorted(set(points))
    if not pts:
        raise InputError("hull of an empty point set")
    point_cls = type(pts[0])
    if point_cls not in (MPoint, NPoint):
        raise InputError("hull expects MPoint or NPoint inputs")
    d = pts[0].dim
    for p in pts:
        if type(p) is not point_cls or p.dim != d:
            raise InputError("hull points must share one lattice and dimension")
    dual_cls = DUAL_LATTICE[point_cls]

    if d == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        if lo == hi:
            raise NotFullDimensionalError(0, 1)
        return Polytope(
            [point_cls((lo,)), point_cls((hi,))],
            [
                RationalHyperplane(dual_cls((1,)), lo),
                RationalHyperplane(dual_cls((-1,)), -hi),
            ],
        )

    simplex = _initial_simplex(pts, d)
    ref_num = tuple(sum(v[i] for v in simplex) for i in range(d))
    ref_den = d + 1

    def oriented(face_pts):
        """Inequality (normal, rhs) with the reference point strictly inside."""
        base = face_pts[0]
        diffs = [tuple(a - b for a, b in zip(q, base)) for q in face_pts[1:]]
        normal = hyperplane_normal(diffs)
        g = vector_gcd(normal)
        normal = tuple(c // g for c in normal)
        rhs = _dot(normal, base)
        side = _dot(normal, ref_num) - rhs * ref_den
        if side == 0:
            raise InputError("degenerate facet through the reference point")
        if side < 0:
            normal = tuple(-c for c in normal)
            rhs = -rhs
        return normal, rhs

    facets = {}
    for omit in range(d + 1):
        fpts = tuple(p for i, p in enumerate(simplex) if i != omit)
        facets[frozenset(fpts)] = oriented(fpts)

    remaining = [p for p in pts if p not in set(simplex)]
    for p in remaining:
        visible = {
            key for key, (normal, rhs) in facets.items() if _dot(normal, p) < rhs
        }
        if not visible:
            continue
        ridge_owners = {}
        for key in facets:
            for v in key:
                ridge_owners.setdefault(key - {v}, []).append(key)
        new_facets = {}
        for key in visible:
            for v in key:
                ridge = key - {v}
                owners = ridge_owners[ridge]
                if len(owners) != 2:
                    raise InternalInvariantError("boundary complex lost a ridge")
                other = owners[0] if owners[1] == key else owners[1]
                if other in visible:
                    continue
                fpts = tuple(sorted(ridge | {p}))
                new_facets[frozenset(fpts)] = oriented(fpts)
        for key in visible:
            del facets[key]
        facets.update(new_facets)

    # Merge coplanar simplicial pieces into honest facets.
    candidates = sorted(set().union(*(set(k) for k in facets)))
    plane_list = sorted(set(facets.values()))
    vertices = []
    for c in candidates:
        tight = [normal for normal, rhs in plane_list if _dot(normal, c) == rhs]
        if matrix_rank(tight) == d:
            vertices.append(c)
    hyperplanes = [
        RationalHyperplane(dual_cls(normal), rhs) for normal, rhs in plane_list
    ]
    poly = Polytope(vertices, hyperplanes)
    for p in pts:
        if not poly.contains(p):
            raise InputError(f"hull construction failed: {p} outside result")
    return poly


def _initial_simplex(pts, d):
    simplex = [pts[0]]
    diffs = []
    for p in pts[1:]:
        cand = tuple(a - b for a, b in zip(p, simplex[0]))
        if matrix_rank(diffs + [cand]) > len(diffs):
            diffs.append(cand)
            simplex.append(p)
            if len(simplex) == d + 1:
                return simplex
    raise NotFullDimensionalError(len(diffs), d)
