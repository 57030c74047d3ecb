"""Exact convex geometry of full-dimensional lattice polytopes.

Hulls are built by beneath-beyond insertion over the sorted input points,
one whole (possibly non-simplicial) facet per plane, each holding the int
bitmask of the inserted points on it.  Two facets meet in a ridge when the
points on both lie on no third facet (Fukuda and Prodon, 1996), and the
facet through a horizon ridge and the new point is the nonnegative
combination of the two facets sharing that ridge that vanishes at the
point (Barber, Dobkin and Huhdanpaa, 1996).  One slack table of every
input point against every facet then checks the result, picks the
vertices and gives each vertex's saturated facets.

A polytope keeps each vertex's saturated facets as an int bitmask (bit i
is facet i) and each facet's vertices as one too (bit j is vertex j).
`hull` and `Polytope.dual` hand the vertices' masks to the constructor,
which derives the facets' masks as their transpose and checks both; only
a hand-assembled polytope has its slack table evaluated there.  The face
lattice is read from the incidence alone: inside a (k+1)-face the k-faces
are the inclusion-maximal intersections with the other (k+1)-faces (the
diamond property; Kaibel and Pfetsch 2002), so no rank is taken and
nothing assumes general position.

A face is a plain value: its dimension and those two masks.  Point counts
are not stored on faces but read from the census, which holds the number
of lattice points per saturated facet mask: l*(F) is the entry at F's
facet mask and l(F) the sum over the masks containing it.

The polar dual of a reflexive polytope is written down, not hulled: its
vertices are the facet normals and its facets are cut out by the vertices,
so its incidence table is the transpose, and its face lattice is the same
one turned upside down (Batyrev 1994; Ziegler, Lectures on Polytopes,
section 2.3).  Each dual pair evaluates one slack table and builds one
face lattice.  The side that made the dual holds it, and the dual holds
that side only weakly, so no polytope is part of a reference cycle.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd

from ._linalg import (
    dot,
    dual_basis,
    int_det,
    pivot_columns,
    primitive_vector,
    spans_hyperplane,
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

CENSUS_POINT_BUDGET = 100_000  # the largest reflexive 4-polytope has 680 points


class Face:
    """A proper face as a plain value: dimension, vertex set, and the facets
    that cut it out, as bitmasks over the owning polytope's sorted vertices
    and facets (bit j of `vmask` is vertex j, bit i of `fmask` facet i).

    It keeps the owning polytope's vertex tuple, not the polytope, to
    resolve `vertices`, and counts no points: l*(face) is the census's
    `n_saturating[fmask]`, l(face) is `census.n_on(fmask)`, and an edge's
    lattice length is l* + 1.
    """

    __slots__ = ("dim", "vmask", "fmask", "_pool", "_vertices")

    def __init__(self, dim, vmask, fmask, pool):
        self.dim = dim
        self.vmask = vmask
        self.fmask = fmask
        self._pool = pool
        self._vertices = None

    @property
    def vertices(self):  # in the owning polytope's (sorted) order, built on first read
        if self._vertices is None:
            self._vertices = tuple(map(self._pool.__getitem__, _bits(self.vmask)))
        return self._vertices

    @property
    def key(self):
        return (self.dim, frozenset(self.vertices))

    def __eq__(self, other):
        return isinstance(other, Face) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={len(self.vertices)})"


class FaceLattice:
    """All proper faces of a polytope, indexed by dimension and by facet mask."""

    def __init__(self, by_dim):
        self.by_dim = {d: tuple(faces) for d, faces in by_dim.items()}
        self.by_fmask = {f.fmask: f for faces in self.by_dim.values() for f in faces}

    def __call__(self, dim):
        return self.by_dim.get(dim, ())

    def __iter__(self):
        for d in sorted(self.by_dim):
            yield from self.by_dim[d]

    def counts(self):
        return {d: len(fs) for d, fs in sorted(self.by_dim.items())}

    def children(self, face):
        """The faces one dimension down inside `face`: those whose facet
        masks contain face.fmask."""
        fm = face.fmask
        return [g for g in self.by_dim.get(face.dim - 1, ()) if g.fmask & fm == fm]

    def parents(self, face):
        """The faces one dimension up containing `face`: those whose facet
        masks lie in face.fmask."""
        fm = face.fmask
        return [g for g in self.by_dim.get(face.dim + 1, ()) if g.fmask & fm == g.fmask]


class PointCensus:
    """Every lattice point of a polytope, with `face_of` mapping each to its
    saturated facet mask (bit i for facet i): the facet mask of the face
    whose relative interior contains it, 0 for a point interior to the
    polytope itself.  `n_saturating` counts the points per mask, so l* of
    a face is `n_saturating[face.fmask]`."""

    def __init__(self, points, interior, boundary, face_of, n_saturating):
        self.points = points
        self.interior = interior
        self.boundary = boundary
        self.face_of = face_of
        self.n_saturating = n_saturating

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_interior(self):
        return len(self.interior)

    def n_on(self, fmask):
        """l of the face with facet mask `fmask`: the points whose saturated
        masks contain it."""
        return sum(n for sat, n in self.n_saturating.items() if sat & fmask == fmask)


class RationalPolytope:
    """Vertex presentation of a dual polytope with non-integral vertices.

    Only duals of reflexive polytopes need the full machinery; this carrier
    exists so dualising a non-reflexive polytope still returns the exact
    vertices instead of lying or rounding.
    """

    def __init__(self, vertices, point_cls):
        self.vertices = tuple(sorted(vertices))
        self.point_cls = point_cls

    def __repr__(self):
        return f"RationalPolytope({len(self.vertices)} vertices)"


class Polytope:
    """Full-dimensional lattice polytope with exact V- and H-representations.

    Build instances with :func:`hull`; the constructor cross-validates the
    two representations.  `saturated`, when given, is each vertex's
    saturated facet mask for vertices and facets already in sorted order,
    as `hull` and `dual` hand it over; without it the constructor evaluates
    the slack table itself.  Each facet's vertex mask is the transpose.
    Either way no vertex or facet is listed twice, every vertex lies on at
    least d facets, and every facet holds at least d vertices that lie on
    its plane and span it, as :func:`~cytoric._linalg.spans_hyperplane`
    certifies: in closed form in dimension 4, by a rank elsewhere.
    """

    def __init__(self, vertices, facets, *, saturated=None):
        if not vertices:
            raise InputError("polytope needs vertices")
        self.point_cls = type(vertices[0])
        if self.point_cls not in (MPoint, NPoint):
            raise InputError("vertices must be MPoint or NPoint")
        self.ambient_dim = vertices[0].dim
        self.vertices = tuple(sorted(vertices))
        self.facets = tuple(sorted(facets, key=lambda f: (tuple(f.normal), f.offset)))
        if saturated is not None and (
            self.vertices != tuple(vertices) or self.facets != tuple(facets)
        ):
            raise InternalInvariantError("saturated masks given for unsorted vertices or facets")
        self._validate(saturated)
        self._faces = None
        self._census = None
        self._dual = None
        self._volume = None
        self._reflexive = None

    # -- construction-time consistency ------------------------------------

    def _validate(self, saturated):
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
            if f.normal.dim != d:
                raise InputError(f"dimension mismatch: {d} vs {f.normal.dim}")
        # Built from a list, as in `_Walk`: a tuple built from a generator is
        # resized to its length, and on release CPython keeps it on that
        # length's free list until a full collection, which is rare without
        # reference cycles, so those free lists filled and raised peak memory.
        self._planes = tuple([(f.normal, f.offset) for f in self.facets])
        if len(set(self.vertices)) < len(self.vertices):
            twice = next(v for v, w in zip(self.vertices, self.vertices[1:]) if v == w)
            raise InputError(f"vertex {twice} is listed twice")
        if len(set(self._planes)) < len(self._planes):
            twice = next(f for f, g in zip(self.facets, self.facets[1:]) if f == g)
            raise InputError(f"facet {twice} is listed twice")
        if saturated is None:
            saturated = []
            for v in self.vertices:
                slacks = self._slacks(v)
                if min(slacks, default=0) < 0:
                    raise InputError(f"vertex {v} violates a facet inequality")
                saturated.append(sum(1 << i for i, s in enumerate(slacks) if s == 0))
        self._saturated = tuple(saturated)
        self._facet_vertices = tuple(_transpose(saturated, len(self.facets)))
        for v, tight in zip(self.vertices, self._saturated):
            if tight.bit_count() < d:
                raise InputError(f"vertex {v} saturates fewer than {d} facets")
        for i, ((normal, offset), on) in enumerate(zip(self._planes, map(_bits, self._facet_vertices))):
            if len(on) < d:
                raise InputError(f"facet {i} holds fewer than {d} vertices")
            points = [self.vertices[j] for j in on]
            if not spans_hyperplane(points, normal, offset):
                off = [p for p in points if dot(p, normal) != offset]
                if off:
                    raise InputError(f"facet {i} lists vertex {off[0]} off its plane")
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

    def _slacks(self, p):
        """<p, normal> - offset for every facet, in facet order."""
        if type(p) is not self.point_cls or len(p) != self.ambient_dim:
            raise InputError(
                f"{self.point_cls.__name__} of dimension {self.ambient_dim} expected, got {p!r}"
            )
        return [dot(p, normal) - offset for normal, offset in self._planes]

    def _origin_interior(self):
        """0 is strictly inside: its slack -offset is positive on every facet."""
        return all(offset < 0 for _, offset in self._planes)

    # -- duality and reflexivity -------------------------------------------

    def is_reflexive(self) -> bool:
        """True iff every facet lies at integral distance one from the origin.

        Requires the origin to be strictly interior.  The equivalent
        statement "the dual has integral vertices" is re-derived from the
        facet data and checked rather than assumed.  The verdict is cached.
        """
        if self._reflexive is not None:
            return self._reflexive
        if not self._origin_interior():
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
        lattice, written down rather than hulled: its vertices are our facet
        normals and its facets are <., v> >= -1 for our vertices v.  Both
        sides sort alike (every offset is -1), so dual vertex i is our facet
        i and dual facet j is our vertex j, and the slack of dual vertex i
        on dual facet j is ours of vertex j on facet i, <n_i, v_j> + 1.  So
        the dual's saturated masks are our facets' vertex masks, handed
        over without evaluating any slack; the constructor's span check on
        each dual facet checks that our vertex j is a vertex.  We hold the dual, and
        the dual holds us through a weak reference, so dualising twice
        gives us back while we are alive; once we are freed, the dual
        builds (and then holds) a primal equal to us.  A non-reflexive
        polytope gets a RationalPolytope carrying the exact fractional
        vertices.
        """
        other = self._other_side()
        if other is not None:
            return other
        if not self._origin_interior():
            raise OriginNotInteriorError("dual is unbounded unless 0 is interior")
        if not self.is_reflexive():
            verts = [
                tuple(Fraction(c, -f.offset) for c in f.normal) for f in self.facets
            ]
            return RationalPolytope(verts, DUAL_LATTICE[self.point_cls])
        d = Polytope(
            [f.normal for f in self.facets],
            [RationalHyperplane(v, -1) for v in self.vertices],
            saturated=self._facet_vertices,
        )
        self._dual = d
        d._dual = weakref.ref(self)
        return d

    def _other_side(self):
        """The other half of our reflexive dual pair, if it exists: the dual
        we made, or, while it is alive, the polytope that made us."""
        other = self._dual
        return other() if isinstance(other, weakref.ref) else other

    # -- face lattice --------------------------------------------------------

    def faces(self, dim=None):
        """The lattice of proper faces (dimensions 0 .. d-1), or with `dim`
        its stored tuple of the faces of that dimension.  For half of a
        reflexive dual pair whose other half has its lattice, that lattice
        turned upside down."""
        if self._faces is None:
            other = self._other_side()
            if other is not None and other._faces is not None:
                self._faces = self._transposed_faces(other._faces)
            else:
                self._faces = self._build_faces()
        if dim is None:
            return self._faces
        return self._faces(dim)

    def _build_faces(self):
        """Faces from the vertex masks, facets down to edges: inside a
        (k+1)-face, the k-faces are the inclusion-maximal cuts face & other
        with the other (k+1)-faces that keep more than k vertices.  For
        k <= 2 every such cut is maximal, as a face of dimension below k has
        at most k vertices.  A face's facet mask is the AND of its vertices'.
        Sorting a level on vertex indices sorts it on vertex tuples."""
        d, pool = self.ambient_dim, self.vertices
        sat = self._saturated
        level = self._facet_vertices
        by_dim = {d - 1: level}
        for k in range(d - 2, 0, -1):
            members = list(map(_bits, level))
            through = [[] for _ in pool]  # vertex -> faces of level
            for a, on in enumerate(members):
                for j in on:
                    through[j].append(a)
            found = set()
            for a, face in enumerate(level):
                neighbours = {b for j in members[a] for b in through[j]}
                neighbours.discard(a)
                cuts = [c for c in {face & level[b] for b in neighbours} if c.bit_count() > k]
                if k > 2:
                    cuts = [c for c in cuts if not any(c & e == c != e for e in cuts)]
                found.update(cuts)
            by_dim[k] = level = list(found)
        by_dim[0] = [1 << j for j in range(len(sat))]
        return FaceLattice({
            k: [
                Face(k, vmask, functools.reduce(int.__and__, map(sat.__getitem__, on)), pool)
                for on, vmask in sorted((_bits(vmask), vmask) for vmask in level)
            ]
            for k, level in by_dim.items()
        })

    def _transposed_faces(self, lattice):
        """Our face lattice from the dual's: the dual's k-face with vertex
        mask V and facet mask S is our (d-1-k)-face with vertex mask S and
        facet mask V, since dual vertex i is our facet i and dual facet j is
        our vertex j.  Each level is sorted as `_build_faces` sorts it."""
        top = self.ambient_dim - 1
        return FaceLattice({
            top - k: [
                Face(top - k, f.fmask, f.vmask, self.vertices)
                for f in sorted(level, key=lambda f: _bits(f.fmask))
            ]
            for k, level in lattice.by_dim.items()
        })

    # -- lattice points ------------------------------------------------------

    def census(self):
        """Enumerate all lattice points, in lexicographic order, each with
        its saturated facet mask (the facet mask of the face whose relative
        interior contains it, 0 inside), and count the points per mask: the
        one table that l and l* of every face are read from.

        Points are enumerated slice by slice (see :func:`_lattice_points`),
        the slices bounded exactly through the ridges of the face lattice,
        so the cost scales with the lattice points and the slices holding
        real points, not with the bounding box.  Past CENSUS_POINT_BUDGET
        points, or slices walked, it raises InputError.
        """
        if self._census is not None:
            return self._census
        points = []
        interior = []
        boundary = []
        face_of = {}
        n_saturating = Counter()  # saturated facet mask -> number of points
        point = self.point_cls._from_ints
        ridges = [
            (m.bit_length() - 1, (m & -m).bit_length() - 1)
            for m in (f.fmask for f in self.faces(self.ambient_dim - 2))
        ]
        for raw, sat in _lattice_points(self.vertices, self._planes, ridges):
            if len(points) == CENSUS_POINT_BUDGET:
                raise InputError(f"more than {CENSUS_POINT_BUDGET} lattice points to count")
            p = point(raw)
            points.append(p)
            face_of[p] = sat
            n_saturating[sat] += 1
            (boundary if sat else interior).append(p)
        self._census = PointCensus(
            tuple(points), tuple(interior), tuple(boundary), face_of, n_saturating
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
        Dual facet j is cut out by our vertex j, so the dual face is the one
        whose facet mask is `face`'s vertex mask.
        """
        if not self.is_reflexive():
            raise NotReflexiveError("dual faces need a reflexive polytope")
        dual_face = self.dual().faces().by_fmask[face.vmask]
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
            lattice, memo, apex = self.faces(), {}, self.vertices[0]
            self._volume = sum(
                abs(int_det([[a - b for a, b in zip(v, apex)] for v in s]))
                for facet in lattice(self.dim - 1)
                if apex not in facet.vertices
                for s in _pulling_simplices(lattice, facet, memo)
            )
        return self._volume


def _pulling_simplices(lattice, face, memo):
    """Vertex tuples of the pulling triangulation of `face`, each with the
    face's first vertex last: that vertex coned over the triangulations of
    the children missing it.  `memo` maps a face's vertex mask to its list;
    a module function, as a recursive closure would be a reference cycle."""
    out = memo.get(face.vmask)
    if out is None:
        apex = face.vertices[0]
        if face.dim == 0:
            out = [(apex,)]
        else:
            children = [g for g in lattice.children(face) if apex not in g.vertices]
            out = [s + (apex,) for g in children for s in _pulling_simplices(lattice, g, memo)]
        memo[face.vmask] = out
    return out


def _bits(mask):
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _transpose(rows, n):
    """The n column masks of a table given by its row masks: bit j of
    column i is bit i of row j."""
    columns = [0] * n
    for j, row in enumerate(rows):
        for i in _bits(row):
            columns[i] |= 1 << j
    return columns


def _lattice_points(vertices, planes, ridges):
    """Yield (coordinates, saturated facet mask) for every lattice point
    of conv(vertices), in lexicographic order; planes[j] is the (normal,
    offset) of facet j, and `ridges` holds the facet pairs (j, i) that meet
    in a ridge.

    Depth-first over x0 .. x_{d-1}, carrying each facet's slack
    <normal, x> - offset over the coordinates fixed so far (0 for those
    not yet fixed).  Above level d - 2, x_k takes only the values every
    facet inequality allows once the coordinates not yet fixed are relaxed
    to their bounding-box range.

    Level d - 2 is bounded exactly, by the projection of the polytope
    along x_{d-1} (Fourier-Motzkin; Ziegler, Lectures on Polytopes,
    section 1.2).  Its facets come from the facets with no x_{d-1} term
    and from the silhouette ridges, whose two facets j and i bound x_{d-1}
    from opposite sides (a_j > 0 > a_i on x_{d-1}): there
    -a_i * slack_j + a_j * slack_i >= 0 has no x_{d-1} term.  One of these
    with no x_{d-2} term either that fails empties the prefix.  So every
    slice x_{d-2} = x walked holds real points, and the range of x_{d-1}
    on it is computed inline.  In the same pass, a facet with a > 0 on
    x_{d-1} can be tight only at the slice's first point, one with a < 0
    only at its last, and one with a = 0 on the whole slice or nowhere.
    """
    d = len(vertices[0])
    if d == 1:  # a segment is the slice x0 = 0 of the same segment in the plane
        lifted = _lattice_points(
            [(0,) + tuple(v) for v in vertices], [((0,) + tuple(n), b) for n, b in planes], ()
        )
        for raw, saturated in lifted:
            yield raw[1:], saturated
        return
    yield from _descend(_Walk(vertices, planes, ridges), 0, (), [-b for _, b in planes])


class _Walk:
    """The facet tables of one `_lattice_points` walk, built once.

    For a level k < d - 2, `limits[k]` holds (j, a, reach) for the facets
    j with a positive, then a negative coefficient a on x_k, where reach is
    the most the coordinates after x_k can add to facet j's slack; facet j
    holds below this level only if a * x_k + slack_j + reach >= 0.  A facet
    with a = 0 needs no test: its bound here equals the bound already met
    one level up (at level 0, met by every vertex).

    Level d - 2 tests (c, j, p, i, q): p * slack_j + q * slack_i + c * x >= 0,
    split by the sign of c into `rising`, `falling` and `level`.  Level
    d - 1 reads (j, a, a2, bit) for the facets with a > 0 (`above`) and
    a < 0 (`below`) on x_{d-1} and (j, a2, bit) for those with a = 0
    (`flat`), a2 being the coefficient on x_{d-2} and bit 1 << j.  `left`
    is what is left of CENSUS_POINT_BUDGET for the slices x_0 .. x_{d-2}
    walked, so a thin polytope with few points cannot walk without end.
    """

    __slots__ = (
        "exact", "lo", "hi", "columns", "limits", "rising", "falling", "level", "above",
        "below", "flat", "left",
    )

    def __init__(self, vertices, planes, ridges):
        d = len(vertices[0])
        self.exact = d - 2
        self.lo = lo = list(map(min, zip(*vertices)))
        self.hi = hi = list(map(max, zip(*vertices)))
        self.columns = columns = list(zip(*[n for n, _ in planes]))
        self.limits = [None] * (d - 2)
        reach = [0] * len(planes)
        for k in range(d - 1, 0, -1):  # reach over x_k .. x_{d-1} bounds level k - 1
            reach = [r + max(a * lo[k], a * hi[k]) for r, a in zip(reach, columns[k])]
            if k < d - 1:
                rows = list(zip(range(len(planes)), columns[k - 1], reach))
                self.limits[k - 1] = [t for t in rows if t[1] > 0], [t for t in rows if t[1] < 0]
        a1, a2 = columns[-1], columns[-2]
        projected = [(a2[j], j, 1, j, 0) for j, a in enumerate(a1) if a == 0 and a2[j]]
        for j, i in ridges:
            if a1[j] < 0 < a1[i]:
                j, i = i, j
            if a1[j] > 0 > a1[i]:
                p, q = -a1[i], a1[j]
                projected.append((p * a2[j] + q * a2[i], j, p, i, q))
        self.rising = [t for t in projected if t[0] > 0]
        self.falling = [t for t in projected if t[0] < 0]
        self.level = [t[1:] for t in projected if t[0] == 0]
        self.above = [(j, a, a2[j], 1 << j) for j, a in enumerate(a1) if a > 0]
        self.below = [(j, a, a2[j], 1 << j) for j, a in enumerate(a1) if a < 0]
        self.flat = [(j, a2[j], 1 << j) for j, a in enumerate(a1) if a == 0]
        self.left = CENSUS_POINT_BUDGET

    def take(self, low, high):
        """Count the slices low .. high of one level against the budget."""
        if high >= low:
            self.left -= high - low + 1
            if self.left < 0:
                raise InputError(f"more than {CENSUS_POINT_BUDGET} slices to walk")


def _descend(walk, k, prefix, slack):
    """The points of `walk` whose first k coordinates are `prefix`, each
    facet j having slack[j] over them; a module function, as a recursive
    closure would be a reference cycle."""
    low, high = walk.lo[k], walk.hi[k]
    if k < walk.exact:
        above, below = walk.limits[k]
        for j, a, r in above:
            x = -((slack[j] + r) // a)
            if x > low:
                low = x
        for j, a, r in below:
            x = (slack[j] + r) // -a
            if x < high:
                high = x
        walk.take(low, high)
        column = walk.columns[k]
        for x in range(low, high + 1):
            inner = [s + a * x for s, a in zip(slack, column)]
            yield from _descend(walk, k + 1, prefix + (x,), inner)
        return
    for j, p, i, q in walk.level:
        if p * slack[j] + q * slack[i] < 0:
            return
    for c, j, p, i, q in walk.rising:
        x = -((p * slack[j] + q * slack[i]) // c)
        if x > low:
            low = x
    for c, j, p, i, q in walk.falling:
        x = (p * slack[j] + q * slack[i]) // -c
        if x < high:
            high = x
    walk.take(low, high)
    above, below, flat = walk.above, walk.below, walk.flat
    y_lo, y_hi = walk.lo[-1], walk.hi[-1]
    for x in range(low, high + 1):
        # Facet j's slack on this slice is t + a * y at x_{d-1} = y, with
        # t = slack_j + a2 * x; it is tight only at y = -t / a.
        first, last, head, tail = y_lo, y_hi, 0, 0
        for j, a, a2, bit in above:
            t = slack[j] + a2 * x
            y = -(t // a)
            if y > first:
                first, head = y, 0 if t % a else bit
            elif y == first and not t % a:
                head |= bit
        for j, a, a2, bit in below:
            t = slack[j] + a2 * x
            y = -t // a
            if y < last:
                last, tail = y, 0 if t % a else bit
            elif y == last and not t % a:
                tail |= bit
        if first > last:
            continue
        base = 0
        for j, a2, bit in flat:
            if slack[j] + a2 * x == 0:
                base |= bit
        point = prefix + (x,)
        if first == last:
            yield point + (first,), base | head | tail
            continue
        yield point + (first,), base | head
        for y in range(first + 1, last):
            yield point + (y,), base
        yield point + (last,), base | tail


# -- convex hull ------------------------------------------------------------------


def hull(points) -> Polytope:
    """Convex hull of lattice points that affinely span the ambient space.

    Beneath-beyond insertion in sorted order over whole facets, each held
    as its plane (primitive inner normal, rhs) with the bitmask of the
    inserted points on it.  A point p with negative slack s_F < 0 on a
    facet F sees it.  F and a facet G with s_G > 0 meet in a horizon ridge
    when the points on both (at least d - 1 of them) lie on no third facet
    (the combinatorial adjacency test of Fukuda and Prodon, 1996), and the
    ridge gets the new facet s_G * F - s_F * G, made primitive, holding the
    ridge's points and p.  Every facet with slack 0 gains p, so each mask
    holds every inserted point on its plane, which the ridge test needs;
    the facets p sees are dropped.

    One slack table of every input point against every facet then does
    three jobs: a negative entry means the construction failed; a point
    is a vertex iff no other point lies on every facet through it (read
    off the table's columns); and the vertices' rows are the saturated
    masks the constructor checks.
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

    simplex = _initial_simplex(pts, d)
    facets = _simplex_facets(pts, simplex)  # (inner normal, rhs) -> mask of the points on it
    done = set(simplex)
    for i, p in enumerate(pts):
        if i in done:
            continue
        slack = {plane: dot(plane[0], p) - plane[1] for plane in facets}
        visible = [plane for plane, s in slack.items() if s < 0]
        hidden = [plane for plane, s in slack.items() if s > 0]
        new_facets = {}
        for f in visible:
            (normal_f, rhs_f), s_f = f, slack[f]
            for g in hidden:
                ridge = facets[f] & facets[g]
                if ridge.bit_count() < d - 1 or any(
                    ridge & m == ridge for h, m in facets.items() if h is not f and h is not g
                ):
                    continue
                # s_g * F - s_f * G vanishes on the ridge and at p, and both
                # weights are > 0, so it stays positive inside.
                (normal_g, rhs_g), s_g = g, slack[g]
                normal = [s_g * a - s_f * b for a, b in zip(normal_f, normal_g)]
                c = gcd(*normal)
                plane = tuple(x // c for x in normal), (s_g * rhs_f - s_f * rhs_g) // c
                new_facets[plane] = ridge | 1 << i
        for plane, s in slack.items():
            if s == 0:
                facets[plane] |= 1 << i
        for f in visible:
            del facets[f]
        facets.update(new_facets)

    # The one slack table, in the constructor's facet order.
    planes = sorted(facets)
    tight = []  # rows: each point's tight facets
    columns = [0] * len(planes)  # columns: each facet's tight points
    for i, p in enumerate(pts):
        mask = 0
        for j, (normal, rhs) in enumerate(planes):
            s = dot(normal, p) - rhs
            if s <= 0:
                if s:
                    raise InputError(f"hull construction failed: {p} outside result")
                mask |= 1 << j
                columns[j] |= 1 << i
        tight.append(mask)
    # A point on some facet is a vertex iff it is the only point on every
    # facet through it: the AND of those facets' columns is its own bit.
    vertices = [
        i
        for i, mask in enumerate(tight)
        if mask and functools.reduce(int.__and__, map(columns.__getitem__, _bits(mask))) == 1 << i
    ]
    saturated = [tight[i] for i in vertices]
    return Polytope(
        [pts[i] for i in vertices],
        [RationalHyperplane(dual_cls(normal), rhs) for normal, rhs in planes],
        saturated=saturated,
    )


def _initial_simplex(pts, d):
    """Indices of d + 1 affinely independent points, the first point and
    then each point that raises the rank of the differences so far: the
    pivot columns of one echelon form of the differences as columns."""
    base = pts[0]
    pivots = pivot_columns([[p[k] - base[k] for p in pts[1:]] for k in range(d)])
    if len(pivots) < d:
        raise NotFullDimensionalError(len(pivots), d)
    return [0] + [c + 1 for c in pivots]


def _simplex_facets(pts, simplex):
    """{(primitive inner normal, rhs): point-index mask} for the d + 1
    facets of the d-simplex on pts[s_0] .. pts[s_d], inside where
    <normal, x> >= rhs.

    The dual basis n_j of the edges s_j - s_0 (<n_j, s_i - s_0> = det when
    i = j, else 0), turned by the sign of det, gives the facet omitting s_j;
    the facet omitting s_0 gets -(n_1 + ... + n_d).
    """
    base = pts[simplex[0]]
    det, duals = dual_basis([tuple(a - b for a, b in zip(pts[s], base)) for s in simplex[1:]])
    sign = 1 if det > 0 else -1
    normals = [tuple(sign * c for c in n) for n in duals]
    normals.insert(0, tuple(-sum(column) for column in zip(*normals)))
    facets = {}
    for omit, normal in enumerate(normals):
        normal = primitive_vector(normal)
        on = simplex[:omit] + simplex[omit + 1 :]
        facets[normal, dot(normal, pts[on[0]])] = sum(1 << i for i in on)
    return facets
