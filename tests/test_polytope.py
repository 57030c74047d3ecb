import functools
import gc
import hashlib
import itertools
import random
import re
import weakref
from collections import Counter

import pytest

from cytoric.errors import InputError, NotFullDimensionalError, OriginNotInteriorError
from cytoric.lattice import MPoint, NPoint
from cytoric.fixtures import ALL, CORPUS_4D, POLYGONS, fixture_points, fixture_polytope
from cytoric import _linalg as linalg_module
from cytoric import polytope as polytope_module
from cytoric.polytope import Polytope, RationalPolytope, _bits, hull
from conftest import (
    example_s3_vertices,
    mpoints,
    ray_simplex,
    ray_simplex_points,
    shear,
    transvection,
    weighted_ray_simplices,
)
from oracles import (
    brute_faces,
    brute_facets,
    brute_vertices,
    diamond_faces,
    ehrhart_volume,
    grid_points,
    hull_dual,
    simplicial_hull,
)
from test_fan import GOLDEN_SIMPLICES


def as_plane_set(polytope):
    return {(tuple(f.normal), f.offset) for f in polytope.facets}


def test_hull_square(square):
    assert len(square.vertices) == 4
    assert len(square.facets) == 4
    assert as_plane_set(square) == brute_facets([tuple(v) for v in square.vertices])


def test_hull_cross_polytope_against_brute_force(cross4):
    assert len(cross4.vertices) == 8
    assert len(cross4.facets) == 16
    assert as_plane_set(cross4) == brute_facets([tuple(v) for v in cross4.vertices])


def test_hull_cube_merges_coplanar_facets(cube4):
    assert len(cube4.vertices) == 16
    assert len(cube4.facets) == 8
    assert as_plane_set(cube4) == brute_facets([tuple(v) for v in cube4.vertices])
    for f in cube4.facets:
        assert sum(1 for v in cube4.vertices if linalg_module.dot(v, f.normal) == f.offset) == 8


def test_hull_example_s3_has_15_vertices(example_s3):
    rows = example_s3_vertices()
    assert len(rows) == 15
    assert example_s3.vertex_set == frozenset(MPoint(r) for r in rows)


def test_hull_interior_points_dropped():
    p = hull(mpoints([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0), (1, 0)]))
    assert len(p.vertices) == 4


def test_hull_collinear_boundary_point_dropped():
    # (1,1) sits on the segment between (1,0)-ish fan; flat vertices must go
    p = hull(mpoints([(-1, -1), (1, -1), (3, 1), (-1, 1), (1, 1)]))
    assert MPoint((1, 1)) not in p.vertex_set
    assert len(p.vertices) == 4


@pytest.mark.parametrize(
    "points, affine_dim",
    [
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], 2),
        ([(1, 2, 3, 4), (1, 2, 3, 4)], 0),
        ([(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0), (1, 1, 0, 0), (-3, -3, 0, 0)], 1),
        # the first four points in sorted order are collinear
        ([(0, 0, 0, k) for k in range(4)] + [(1, 0, 0, 5), (1, 0, 0, 0), (0, 0, 0, 2)], 2),
        ([(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 0), (0, 1, 0, 0), (1, 1, 1, 0)], 3),
        # on the hyperplane x1 + 2 x2 - x3 + 3 x4 = 6
        ([(6, 0, 0, 0), (0, 3, 0, 0), (0, 0, -6, 0), (0, 0, 0, 2), (1, 1, -3, 0), (2, 2, 0, 0)], 3),
        ([(5,), (5,)], 0),
    ],
    ids=["plane-in-z3", "point", "line", "plane", "solid", "tilted-solid", "point-on-a-line"],
)
def test_hull_not_full_dimensional_reports_affine_dim(points, affine_dim):
    with pytest.raises(NotFullDimensionalError) as info:
        hull(mpoints(points))
    assert info.value.affine_dim == affine_dim
    assert info.value.ambient_dim == len(points[0])


def test_hull_segment():
    p = hull(mpoints([(-2,), (5,), (0,)]))
    assert len(p.vertices) == 2
    assert p.normalized_volume() == 7
    p = hull(mpoints([(-1,), (1,)]))
    assert p.vertices == tuple(mpoints([(-1,), (1,)]))
    assert p.normalized_volume() == 2 and p.is_reflexive()


def assert_hull_matches_brute_force(pts):
    """Facets and vertices of hull(pts) against the subset-search oracle, and
    with at most 12 facets the face counts per dimension too.  Returns
    False when the points are not full-dimensional."""
    try:
        p = hull(mpoints(pts))
    except NotFullDimensionalError:
        return False
    facets = brute_facets(pts)
    assert as_plane_set(p) == facets
    assert [tuple(v) for v in p.vertices] == [v for v, _ in brute_vertices(pts, sorted(facets))]
    if len(p.facets) <= 12:
        assert p.faces().counts() == brute_faces(pts)
    return True


def random_point_sets(rng, count, min_dim, max_dim):
    """`count` sorted sets of d + 2 to 12 draws from {-3..3}^d, each with d
    drawn from min_dim..max_dim, as (d, points) pairs."""
    for _ in range(count):
        d = rng.randint(min_dim, max_dim)
        pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 2, 12))}
        yield d, sorted(pts)


def test_hull_random_point_sets_match_brute_force():
    rng = random.Random(23)
    hulled = Counter()
    for d, pts in random_point_sets(rng, 60, 2, 4):
        hulled[d] += assert_hull_matches_brute_force(pts)
    assert min(hulled.values()) >= 10, hulled


def test_hull_dense_box_clouds_match_brute_force():
    # many points on few planes: points land on the plane of a facet they
    # do not see (slack 0), where the new facet is coplanar with that one
    rng = random.Random(29)
    for d, half, size in ((2, 2, 18), (3, 1, 20), (4, 1, 14)):
        box = list(itertools.product(range(-half, half + 1), repeat=d))
        for _ in range(6):
            assert assert_hull_matches_brute_force(sorted(rng.sample(box, size)))


# -- whole facets against the simplicial oracle ------------------------------------


def assert_hull_matches_simplicial_oracle(points):
    """hull(points) and oracles.simplicial_hull(points) build the same
    vertices, facets and incidence, or refuse with the same
    NotFullDimensionalError.  Returns whether a hull was built."""
    try:
        expected = simplicial_hull(points)
    except NotFullDimensionalError as refusal:
        with pytest.raises(NotFullDimensionalError) as info:
            hull(points)
        assert (info.value.affine_dim, info.value.ambient_dim) == (
            refusal.affine_dim,
            refusal.ambient_dim,
        )
        return False
    p = hull(points)
    assert p.vertices == expected.vertices and p.facets == expected.facets, points
    assert p._saturated == expected._saturated
    assert p._facet_vertices == expected._facet_vertices
    return True


def polygon_products():
    """The 136 products of two bundled polygons, sheared by MOVES[4]."""
    rows = [[tuple(v) for v in fixture_points(name)] for name in POLYGONS]
    return [
        mpoints(shear([a + b for a in p for b in q], MOVES[4]))
        for p, q in itertools.combinations_with_replacement(rows, 2)
    ]


ORACLE_CASES = {
    "fixtures": lambda: [fixture_points(name) for name in ALL],
    # every lattice point, so facets hold many non-vertex points
    "dual-census": lambda: [list(fixture_polytope(name).dual().census().points) for name in ALL],
    "products": polygon_products,
    "ray-simplices": lambda: [
        points
        for w, _, _ in GOLDEN_SIMPLICES
        for points in (ray_simplex_points(w), list(ray_simplex(w).dual().vertices))
    ],
}


@pytest.mark.parametrize("group", sorted(ORACLE_CASES))
def test_hull_matches_simplicial_oracle(group):
    cases = ORACLE_CASES[group]()
    assert len(cases) == {"fixtures": 20, "dual-census": 20, "products": 136, "ray-simplices": 24}[group]
    for points in cases:
        assert assert_hull_matches_simplicial_oracle(points)


def test_hull_matches_simplicial_oracle_on_random_clouds():
    # sparse draws from {-3..3}^d, and dense samples of small boxes, where
    # most points land on facet planes; 1 to 5 dimensions, flat sets too
    rng = random.Random(37)
    boxes = {
        d: list(itertools.product(range(-half, half + 1), repeat=d))
        for d, half in ((1, 2), (2, 2), (3, 1), (4, 1), (5, 1))
    }
    dense = []
    for _ in range(1000):
        d = rng.randint(1, 5)
        dense.append((d, sorted(rng.sample(boxes[d], rng.randint(1, min(len(boxes[d]), 3 * d + 6))))))
    built = Counter()
    for d, pts in itertools.chain(random_point_sets(rng, 1000, 1, 5), dense):
        built[d, assert_hull_matches_simplicial_oracle(mpoints(pts))] += 1
    assert sum(built.values()) == 2000
    assert min(built[d, True] for d in range(1, 6)) >= 200, built
    assert min(built[d, False] for d in range(1, 6)) >= 10, built


def test_hull_takes_about_one_slack_per_point_and_facet(monkeypatch):
    # hexagon x hexagon: 36 points, all vertices, on 12 facets of 12
    # vertices each; the oracle's simplicial pieces take 2,730 dot products
    calls = Counter()
    dot = polytope_module.dot

    def counted(a, b):
        calls["dot"] += 1
        return dot(a, b)

    monkeypatch.setattr(polytope_module, "dot", counted)
    hexagon, mirror = (
        [tuple(v) for v in fixture_points(name)] for name in ("pgon_hexagon", "pgon_hexagon_mirror")
    )
    p = hull(mpoints([a + b for a in hexagon for b in mirror]))
    n, f = len(p.vertices), len(p.facets)
    assert (n, f) == (36, 12)
    assert calls["dot"] <= 2 * n * f


def test_hull_is_unimodular_equivariant_on_degenerate_clouds():
    # hull(M P) for M in GL(d, Z): vertices M v, facets M^-T n (pulled back
    # here by M^T), refusals alike; on dense boxes and polygon products,
    # where most points sit on facets that are not simplices
    from hypothesis import given, settings
    from hypothesis import strategies as st

    polygons = [[tuple(v) for v in fixture_points(name)] for name in POLYGONS]
    boxes = st.integers(2, 4).flatmap(
        lambda d: st.lists(
            st.sampled_from(list(itertools.product(range(-1, 2), repeat=d))),
            min_size=1,
            max_size=16,
        )
    )
    products = st.tuples(st.sampled_from(polygons), st.sampled_from(polygons)).map(
        lambda pq: [a + b for a in pq[0] for b in pq[1]]
    )

    @st.composite
    def moved(draw):
        rows = draw(st.one_of(boxes, products))
        d = len(rows[0])
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
        m = [[s * (i == j) for j in range(d)] for i, s in zip(draw(st.permutations(range(d))), signs)]
        steps = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2))
        for i, j, c in draw(st.lists(steps.filter(lambda t: t[0] != t[1]), max_size=5)):
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return rows, m

    def apply(m, rows):
        return [tuple(sum(a * x for a, x in zip(row, p)) for row in m) for p in rows]

    @settings(max_examples=100, deadline=None)
    @given(moved())
    def run(case):
        rows, m = case
        try:
            p = hull(mpoints(rows))
        except NotFullDimensionalError as refusal:
            with pytest.raises(NotFullDimensionalError) as info:
                hull(mpoints(apply(m, rows)))
            assert info.value.affine_dim == refusal.affine_dim
            return
        q = hull(mpoints(apply(m, rows)))
        assert [tuple(v) for v in q.vertices] == sorted(apply(m, p.vertices))
        transpose = list(zip(*m))
        pulled = {(apply(transpose, [f.normal])[0], f.offset) for f in q.facets}
        assert pulled == as_plane_set(p)

    run()


# -- faces -------------------------------------------------------------------


def facet_set(face):
    """The indices of the facets that cut `face` out, as a set."""
    return frozenset(_bits(face.fmask))


def test_faces_square(square):
    counts = square.faces().counts()
    assert counts == {0: 4, 1: 4}


def test_faces_cross_polytope(cross4):
    oracle = brute_faces([tuple(v) for v in cross4.vertices])
    assert oracle == {0: 8, 1: 24, 2: 32, 3: 16}
    assert cross4.faces().counts() == oracle


def test_faces_simplex():
    simplex = hull(
        mpoints([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)])
    )
    assert simplex.faces().counts() == {0: 5, 1: 10, 2: 10, 3: 5}


def test_faces_cube(cube4):
    assert cube4.faces().counts() == {0: 16, 1: 32, 2: 24, 3: 8}


def test_euler_relation_on_corpus(square, cube4, cross4, example_s3, quintic):
    for p in (square, cube4, cross4, example_s3, quintic):
        total = sum((-1) ** d * n for d, n in p.faces().counts().items())
        assert total == 1 - (-1) ** p.dim


def test_face_incidences(square):
    lattice = square.faces()
    edge = lattice(1)[0]
    ends = lattice.children(edge)
    assert len(ends) == 2
    for v in ends:  # the edges above v are those whose facet masks lie in v's
        assert edge in [g for g in lattice(v.dim + 1) if g.fmask & v.fmask == g.fmask]


def test_face_lattice_random_hulls_against_diamond_oracle():
    # The whole lattice, (vertices, facet set) per face at every level, in
    # order.  Up to d = 4 every cut keeping more than k vertices is a k-face;
    # in 5-D box clouds two facets can meet in a polygon that is no ridge,
    # which only the maximality filter drops.  In 6-D both ends of the build
    # take a second step, levels 4 and 3 from the facets and 1 and 2 from
    # the vertices, each through the maximality filter.
    rng = random.Random(31)
    box = list(itertools.product(range(-1, 2), repeat=5))
    box6 = list(itertools.product(range(-1, 2), repeat=6))
    clouds = itertools.chain(
        random_point_sets(rng, 60, 2, 4),
        ((5, sorted(rng.sample(box, rng.randint(7, 16)))) for _ in range(20)),
        ((6, sorted(rng.sample(box6, rng.randint(8, 12)))) for _ in range(10)),
    )
    built = Counter()
    for d, pts in clouds:
        try:
            p = hull(mpoints(pts))
        except NotFullDimensionalError:
            continue
        expected = diamond_faces(p)
        assert sorted(p.faces().by_dim) == sorted(expected) == list(range(d))
        for k, level in expected.items():
            assert [(f.vertices, facet_set(f)) for f in p.faces(k)] == level, (pts, k)
        built[d] += 1
    assert sorted(built) == [2, 3, 4, 5, 6] and min(built.values()) >= 10, built


@pytest.mark.parametrize("name", ALL)
def test_face_views_read_the_incidence_as_sets(name):
    delta = fixture_polytope(name)
    again = hull(fixture_points(name))
    for p, twin in ((delta, again), (delta.dual(), again.dual())):
        lattice = p.faces()
        for face in lattice:
            on = frozenset(j for j, v in enumerate(p.vertices) if v in face.vertices)
            cut = frozenset(
                i
                for i, f in enumerate(p.facets)
                if all(sum(a * b for a, b in zip(v, f.normal)) == f.offset for v in face.vertices)
            )
            assert set(_bits(face.vmask)) == on and facet_set(face) == cut
            assert lattice.by_fmask[face.fmask] is face
            # equality and hashing go by dimension and vertex set, across builds
            other = twin.faces().by_fmask[face.fmask]
            assert other is not face and other == face and hash(other) == hash(face)
            assert hash(face) == hash((face.dim, frozenset(face.vertices)))
            above = [g for g in lattice(face.dim + 1) if g.fmask & face.fmask == g.fmask]
            assert face != face.vertices and all(g != face for g in above)


@pytest.mark.parametrize("name", ALL)
def test_face_links_match_vertex_scan(name):
    # the facet-set index against the scan of the next dimension it replaced
    delta = fixture_polytope(name)
    for p in (delta, delta.dual()):
        lattice = p.faces()
        for face in lattice:
            below = lattice.by_dim.get(face.dim - 1, ())
            above = lattice.by_dim.get(face.dim + 1, ())
            assert lattice.children(face) == [
                g for g in below if set(g.vertices) <= set(face.vertices)
            ]
            assert [g for g in above if g.fmask & face.fmask == g.fmask] == [
                g for g in above if set(face.vertices) <= set(g.vertices)
            ]


# -- lattice point census ------------------------------------------------------


def test_census_square(square):
    census = square.census()
    assert len(census.face_of) == 9
    assert census.n_saturating[0] == 1
    for f in square.faces(1):
        assert census.n_on(f.fmask) == 3
        assert census.n_saturating[f.fmask] == 1


def test_census_cube_partition(cube4):
    census = cube4.census()
    assert len(census.face_of) == 81
    oracle = grid_points([tuple(v) for v in cube4.vertices])
    assert {tuple(p) for p in census.points} == set(oracle)
    by_dim = {}
    for sat in filter(None, census.face_of.values()):
        face = cube4.faces().by_fmask[sat]
        by_dim[face.dim] = by_dim.get(face.dim, 0) + 1
    assert by_dim == {3: 8, 2: 24, 1: 32, 0: 16}


def test_census_partition_identity(square, cube4, cross4, example_s3, quintic):
    for p in (square, cube4, cross4, example_s3, quintic):
        census = p.census()
        total = census.n_saturating[0] + sum(census.n_saturating[f.fmask] for f in p.faces())
        assert total == len(census.face_of)


def test_edge_point_relation(cube4):
    census = cube4.census()
    for edge in cube4.faces(1):
        assert census.n_on(edge.fmask) == census.n_saturating[edge.fmask] + 2


def assert_census_matches_grid_oracle(poly):
    rows = [tuple(v) for v in poly.vertices]
    oracle = grid_points(rows)
    # same facets in the same order, so saturated sets compare as indices
    assert [(tuple(f.normal), f.offset) for f in poly.facets] == sorted(brute_facets(rows))
    census = poly.census()
    assert [tuple(p) for p in census.points] == list(oracle)
    saturated = {p: frozenset(_bits(census.face_of[p])) for p in census.points}
    assert [saturated[p] for p in census.points] == list(oracle.values())
    assert census.n_saturating[0] == sum(1 for s in oracle.values() if not s)
    assert poly.boundary_points() == [p for p in census.points if saturated[p]]
    for face in poly.faces():
        assert census.n_on(face.fmask) == sum(1 for s in oracle.values() if facet_set(face) <= s)
        assert census.n_saturating[face.fmask] == sum(
            1 for s in oracle.values() if s == facet_set(face)
        )


THIN_SIMPLICES = ((6, 7, 14, 14), (2, 9, 24, 36), (4, 15, 20, 20))


@pytest.mark.parametrize("weights", THIN_SIMPLICES)
def test_census_thin_ray_simplex_against_grid_oracle(weights):
    # boxes of 18k-49k points holding 17-21 lattice points, and their duals
    simplex = ray_simplex(weights)
    assert_census_matches_grid_oracle(simplex)
    assert_census_matches_grid_oracle(simplex.dual())


def census_digest(poly):
    """sha256 of the points in census order with their carrier facet sets,
    and of every face's (l, l*) read off the census, faces in lattice order."""
    census = poly.census()
    points = [(tuple(p), _bits(census.face_of[p])) for p in census.points]
    faces = [
        (f.dim, [tuple(v) for v in f.vertices], census.n_on(f.fmask), census.n_saturating[f.fmask])
        for f in poly.faces()
    ]
    return hashlib.sha256(repr((points, faces)).encode()).hexdigest()


# census_digest of each fixture (name) and of its dual (name + "*"; every
# fixture is reflexive), and of the thin ray simplices (weights) and their
# duals, recorded when the census still tested every facet at every point
GOLDEN_CENSUS = {
    "example_s3": "2aa23e268afeffe681e17869c296aaa6a288a4132900f79d8cfb4efe97aa5a10",
    "example_s3*": "8453dd1be618ce145d5f3e8f2186513e902f032776131a3bcf8b443b4ff28661",
    "quintic": "ad2bf126b85eab58c09f49d8f12ddb45797bd70fcb37d71ae76bdcade4536d56",
    "quintic*": "a0879053a94af8b203465cbad51ce38397ea213a5d8d9c5fafd6add9a3ec8348",
    "cube": "4769a2f6bde21ac9d1eb89ad10596c98a76d18f840ee22dbb9fda12158aaa9cf",
    "cube*": "93dc98b3fb7dfac61662c941f37fc85a9eb3aac2e5c60aefb311f46f04056b5c",
    "cross4d": "93dc98b3fb7dfac61662c941f37fc85a9eb3aac2e5c60aefb311f46f04056b5c",
    "cross4d*": "4769a2f6bde21ac9d1eb89ad10596c98a76d18f840ee22dbb9fda12158aaa9cf",
    "pgon_triangle_p2": "d1c1cf051962009b195fa0e886b4e538924f4e7cc3705e89bc5d93c7bbd50614",
    "pgon_triangle_p2*": "d688b88451afe1bb58d3fcdbd1635985a2113c4008821e0216bf9fcbe89f7a37",
    "pgon_triangle_p2_dual": "d688b88451afe1bb58d3fcdbd1635985a2113c4008821e0216bf9fcbe89f7a37",
    "pgon_triangle_p2_dual*": "d1c1cf051962009b195fa0e886b4e538924f4e7cc3705e89bc5d93c7bbd50614",
    "pgon_triangle_p112": "d798d2176b70ef0b706f7199095ae5cfb14aee5eb5a185fd0689b394bc39adda",
    "pgon_triangle_p112*": "23d6fc5f6f42fae5518fe7136e342e6e4c1a4654acae33900eb64c585e1a6eef",
    "pgon_triangle_p112_dual": "23d6fc5f6f42fae5518fe7136e342e6e4c1a4654acae33900eb64c585e1a6eef",
    "pgon_triangle_p112_dual*": "d798d2176b70ef0b706f7199095ae5cfb14aee5eb5a185fd0689b394bc39adda",
    "pgon_diamond": "d8ddcae44027f07d892373dfa2bf55431e889b1ce4422a688ae5f03ac062646d",
    "pgon_diamond*": "f239e44e3c7614c0c8fd49e3a9890d28ebe532aed1f89dc73b4a92f68afea693",
    "pgon_square": "f239e44e3c7614c0c8fd49e3a9890d28ebe532aed1f89dc73b4a92f68afea693",
    "pgon_square*": "d8ddcae44027f07d892373dfa2bf55431e889b1ce4422a688ae5f03ac062646d",
    "pgon_quad_b4": "59529fbda55f854ee3a3c7604805d0356351157b77282b17007f2d6fd3202a75",
    "pgon_quad_b4*": "09a5d94812e137559ff1b132ff546849769183bd9d4236dec7a682554b612d7f",
    "pgon_quad_b8": "09a5d94812e137559ff1b132ff546849769183bd9d4236dec7a682554b612d7f",
    "pgon_quad_b8*": "59529fbda55f854ee3a3c7604805d0356351157b77282b17007f2d6fd3202a75",
    "pgon_quad_b5": "b62d23b5c2f09baa18e1c180a92131271d8c750921de3fb5cee1f9ccf6003d52",
    "pgon_quad_b5*": "9c46919808a71c54b45252189f2bf1d237f9c9de71dbe0f00ee8c1a0455b06be",
    "pgon_quad_b7": "9c46919808a71c54b45252189f2bf1d237f9c9de71dbe0f00ee8c1a0455b06be",
    "pgon_quad_b7*": "b62d23b5c2f09baa18e1c180a92131271d8c750921de3fb5cee1f9ccf6003d52",
    "pgon_pentagon_b5": "b014de5ce0d10fd370f4ee9c131b2688c9bc496e36ebf3b734f59e811280896f",
    "pgon_pentagon_b5*": "c1e61b4457fbc552460c5bd3741e5a452d4e4d6f23999015850365c1ef4c6722",
    "pgon_pentagon_b7": "c1e61b4457fbc552460c5bd3741e5a452d4e4d6f23999015850365c1ef4c6722",
    "pgon_pentagon_b7*": "b014de5ce0d10fd370f4ee9c131b2688c9bc496e36ebf3b734f59e811280896f",
    "pgon_pentagon_b6": "e314e917516de205eef2bb9147f870b11ac18b71617935227e2413400edeb614",
    "pgon_pentagon_b6*": "e314e917516de205eef2bb9147f870b11ac18b71617935227e2413400edeb614",
    "pgon_triangle_p123": "1f59afffd99d36aa5799ac71dd0166b539d1e5f9037e8404bab1e7c52c7b0186",
    "pgon_triangle_p123*": "1f59afffd99d36aa5799ac71dd0166b539d1e5f9037e8404bab1e7c52c7b0186",
    "pgon_hexagon": "d04124f32740e0b1d74f6722f016c0b82ef69a64d93636f61b2c375e08d6944d",
    "pgon_hexagon*": "ff976f2943065c4cd63b67ae40453339d26cca71ebac46c713a0d5868fc6fee2",
    "pgon_hexagon_mirror": "ff976f2943065c4cd63b67ae40453339d26cca71ebac46c713a0d5868fc6fee2",
    "pgon_hexagon_mirror*": "d04124f32740e0b1d74f6722f016c0b82ef69a64d93636f61b2c375e08d6944d",
    "(6, 7, 14, 14)": "b17a3c5c94bf7e9fe7285c7a8aaf4838e41675bbc70e0d25358be244ecfa4091",
    "(6, 7, 14, 14)*": "12fc78001bca0ca8e4a2ec8385dedf13ac4185d67f6fbe7c741117f5c3a985f6",
    "(2, 9, 24, 36)": "8ed0c2ec32b11378da5d21a6c50358c1f4740d457e7f0297b03376436e29d922",
    "(2, 9, 24, 36)*": "f0d23506b610cee4b50f7a1861f8cee7fcba17d04dc46d6c8f0157aab4e2985d",
    "(4, 15, 20, 20)": "02fdb50b64616634bd5d380d7e338df5c264796ad9c82dffff551042f8a36b27",
    "(4, 15, 20, 20)*": "7eb2e74a7b222417ab39da04e8c9824b966c5798640c6274688b0f1d7d056033",
}


def golden_census_polytopes():
    for name in ALL:
        poly = fixture_polytope(name)
        yield name, poly
        yield name + "*", poly.dual()
    for weights in THIN_SIMPLICES:
        simplex = ray_simplex(weights)
        yield str(weights), simplex
        yield str(weights) + "*", simplex.dual()


def test_census_golden_digests():
    digests = {key: census_digest(poly) for key, poly in golden_census_polytopes()}
    assert digests == GOLDEN_CENSUS


def test_census_random_hulls_against_grid_oracle():
    # d = 1 (a segment, enumerated as a slice of the plane) and d = 3 are
    # the edge cases of the census's fused last two levels
    rng = random.Random(31)
    checked = Counter()
    for d, pts in random_point_sets(rng, 60, 1, 4):
        try:
            poly = hull(mpoints(pts))
        except NotFullDimensionalError:
            continue
        assert_census_matches_grid_oracle(poly)
        checked[d] += 1
    assert sorted(checked) == [1, 2, 3, 4] and min(checked.values()) >= 10, checked


def ridge_pairs(poly):
    """The two facet indices of each ridge, in no particular order."""
    return [tuple(_bits(f.fmask)) for f in poly.faces(poly.dim - 2)]


def test_census_ridge_bounds_only_prune():
    # Without the ridges, x_{d-2} is bounded by the box and the facets with
    # no x_{d-1} term alone; the walk must yield the same stream.
    polytopes = []
    for name in ALL:
        polytopes += [fixture_polytope(name), fixture_polytope(name).dual()]
    for weights in THIN_SIMPLICES:
        polytopes += [ray_simplex(weights), ray_simplex(weights).dual()]
    for d, pts in random_point_sets(random.Random(31), 60, 1, 4):
        try:
            polytopes.append(hull(mpoints(pts)))
        except NotFullDimensionalError:
            continue
    assert {p.dim for p in polytopes} == {1, 2, 3, 4}
    for poly in polytopes:
        walk = functools.partial(polytope_module._lattice_points, poly.vertices, poly.facets)
        assert list(walk(ridge_pairs(poly))) == list(walk(())), poly


def test_census_walk_leaves_no_reference_cycle():
    # the walk's recursion is a module function, freed by reference counting
    p = fixture_polytope("cross4d")
    args = p.vertices, p.facets, ridge_pairs(p)
    n_points = p.n_points
    gc.collect()
    gc.disable()
    try:
        assert sum(1 for _ in polytope_module._lattice_points(*args)) == n_points
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CORPUS_4D + ("pgon_hexagon", "pgon_triangle_p123"))
def test_census_sheared_fixture_against_grid_oracle(name):
    rows = [tuple(v) for v in fixture_points(name)]
    rng = random.Random(name)
    steps = [(*rng.sample(range(len(rows[0])), 2), rng.choice((-1, 1))) for _ in range(3)]
    assert_census_matches_grid_oracle(hull(mpoints(shear(rows, steps))))


def test_census_polygon_without_interior_origin_against_grid_oracle():
    assert_census_matches_grid_oracle(hull(mpoints([(0, 0), (7, 3), (2, 5), (-1, 2)])))


def test_census_invariant_under_unimodular_shears():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def signature(poly):
        census = poly.census()
        per_dim = {
            d: sorted((census.n_on(f.fmask), census.n_saturating[f.fmask]) for f in poly.faces(d))
            for d in range(poly.dim)
        }
        return poly.n_points, poly.n_interior, per_dim, poly.normalized_volume()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(CORPUS_4D), st.lists(transvection(), min_size=1, max_size=4))
    def run(name, steps):
        rows = [tuple(v) for v in fixture_points(name)]
        assert signature(hull(mpoints(shear(rows, steps)))) == signature(hull(mpoints(rows)))

    run()


# -- duality -------------------------------------------------------------------


def test_dual_cube_is_cross_polytope(cube4, cross4):
    d = cube4.dual()
    assert d.point_cls is NPoint
    assert {tuple(v) for v in d.vertices} == {tuple(v) for v in cross4.vertices}


def test_dual_example_s3_vertex_set(example_s3):
    d = example_s3.dual()
    expected = set()
    for i in range(4):
        for s in (1, -1):
            v = [0, 0, 0, 0]
            v[i] = s
            expected.add(tuple(v))
    expected.discard((0, 0, 0, -1))
    expected.add((1, 1, 1, -2))
    assert {tuple(v) for v in d.vertices} == expected
    assert len(d.vertices) == 8


def test_dual_involution_square(square):
    dd = square.dual().dual()
    assert dd.vertex_set == square.vertex_set


def test_dual_involution_fresh_hull(example_s3, cube4, quintic):
    from cytoric.polytope import hull as hull_fn

    for p in (example_s3, cube4, quintic):
        d = p.dual()
        fresh = hull_fn(list(d.vertices))
        back = fresh.dual()
        assert back.vertex_set == p.vertex_set


def test_dual_holds_its_primal_weakly(monkeypatch):
    builds = Counter()
    build = Polytope._build_faces

    def counted_build(self):
        builds[self.point_cls] += 1
        return build(self)

    monkeypatch.setattr(Polytope, "_build_faces", counted_build)
    p = hull(fixture_points("example_s3"))
    d = p.dual()
    assert p.dual() is d and d.dual() is p
    # the dual reads its face lattice off the live primal's
    faces = [(f.dim, f.vmask, f.fmask) for f in p.faces()]
    d.faces()
    assert builds == {MPoint: 1}
    # freed by reference counting, the primal is rebuilt equal, then kept
    old = weakref.ref(p)
    vertices, facets, saturated = p.vertices, p.facets, p._saturated
    del p
    assert old() is None
    again = d.dual()
    assert (again.vertices, again.facets, again._saturated) == (vertices, facets, saturated)
    assert d.dual() is again and again.dual() is d
    assert [(f.dim, f.vmask, f.fmask) for f in again.faces()] == faces
    assert builds == {MPoint: 1}


def test_dual_requires_interior_origin():
    shifted = hull(mpoints([(0, 0), (0, 1), (1, 0), (1, 1)]))
    with pytest.raises(OriginNotInteriorError):
        shifted.dual()


def test_dual_non_reflexive_is_rational():
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    d = double.dual()
    assert isinstance(d, RationalPolytope)
    assert any(x.denominator != 1 for v in d.vertices for x in v)


# -- reflexivity -----------------------------------------------------------------


def test_is_reflexive_examples(square, example_s3):
    assert square.is_reflexive()
    assert example_s3.is_reflexive()
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    assert not double.is_reflexive()


def test_reflexive_criteria_agree(square, cube4, cross4, example_s3, quintic):
    for p in (square, cube4, cross4, example_s3, quintic):
        by_distance = all(abs(f.offset) == 1 for f in p.facets)
        dual = p.dual()
        by_integral_dual = not isinstance(dual, RationalPolytope)
        assert p.is_reflexive() == by_distance == by_integral_dual
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    assert isinstance(double.dual(), RationalPolytope)
    assert not double.is_reflexive()


def test_boundary_point_pairs_to_minus_one(example_s3, cube4):
    # every boundary lattice point of the dual realises distance one against
    # some vertex of the original: the combinatorial crepancy criterion
    for p in (example_s3, cube4):
        d = p.dual()
        for y in d.boundary_points():
            values = [linalg_module.dot(x, y) for x in p.vertices]
            assert min(values) == -1


# -- duality by transposition ---------------------------------------------------------


def weighted_dual_pairs():
    """Vertex lists of the 69 weighted ray simplices and of their duals."""
    out = []
    for simplex in weighted_ray_simplices():
        out += [list(simplex.vertices), list(hull_dual(simplex).vertices)]
    return out


# Unimodular shears moving each fixture, by ambient dimension.
MOVES = {
    2: [(0, 1, 1), (1, 0, -2)],
    4: [(0, 1, 1), (2, 3, -1), (1, 2, 2), (3, 0, 1), (0, 3, -2)],
}


def moved_fixtures():
    out = []
    for name in ALL:
        rows = [tuple(v) for v in fixture_points(name)]
        out.append(mpoints(shear(rows, MOVES[len(rows[0])])))
    return out


DUAL_CASES = {
    "fixtures": lambda: [fixture_points(name) for name in ALL],
    "weighted": weighted_dual_pairs,
    "moved": moved_fixtures,
}


@pytest.mark.parametrize("primal_first", [True, False], ids=["primal-first", "dual-first"])
@pytest.mark.parametrize("group", sorted(DUAL_CASES))
def test_transposed_dual_matches_hull_oracle(group, primal_first):
    cases = DUAL_CASES[group]()
    assert len(cases) == {"fixtures": 20, "weighted": 138, "moved": 20}[group]
    for points in cases:
        p = hull(points)
        d = p.dual()
        first, second = (p, d) if primal_first else (d, p)
        first.faces()
        second.faces()
        oracle = hull_dual(p)
        assert d.vertices == oracle.vertices
        assert d.facets == oracle.facets
        top = p.dim - 1
        oracle_faces = diamond_faces(oracle)
        for side, expected in ((p, diamond_faces(p)), (d, oracle_faces)):
            assert sorted(side.faces().by_dim) == sorted(expected) == list(range(p.dim))
            for k, level in expected.items():
                assert [(f.vertices, facet_set(f)) for f in side.faces(k)] == level, (p, k)
        # the oracle's dual face: the face whose vertices are the normals of
        # the facets containing the face
        by_vertices = {
            (k, frozenset(vs)): (vs, fs) for k, level in oracle_faces.items() for vs, fs in level
        }
        for f in p.faces():
            g = p.dual_face(f)
            normals = frozenset(p.facets[i].normal for i in _bits(f.fmask))
            assert (g.vertices, facet_set(g)) == by_vertices[top - f.dim, normals]
            assert d.dual_face(g) is f
        for g in d.faces():
            assert p.dual_face(d.dual_face(g)) is g


@pytest.mark.parametrize("group", sorted(DUAL_CASES))
def test_handed_incidence_matches_the_constructors_slack_table(group):
    # hull and dual() give the constructor the incidence in its own sorted
    # order; a hand-assembled copy evaluates the slack table itself
    for points in DUAL_CASES[group]():
        p = hull(points)
        for side in (p, p.dual()):
            rebuilt = Polytope(list(side.vertices), list(side.facets))
            assert side._saturated == rebuilt._saturated
            assert side._facet_vertices == rebuilt._facet_vertices


@pytest.mark.parametrize("group", ["fixtures", "weighted"])
def test_each_side_builds_the_lattice_the_other_reads_upside_down(group):
    # the facet end of one side's build is the vertex end of the other's, so
    # a from-scratch build equals the other side's build turned upside down,
    # mask for mask and in order
    sides = [fixture_polytope(name) for name in ALL] if group == "fixtures" else weighted_ray_simplices()
    assert len(sides) == {"fixtures": 20, "weighted": 69}[group]
    for p in sides:
        d = p.dual()
        for side, other in ((p, d), (d, p)):
            built = side._build_faces()
            turned = side._transposed_faces(other._build_faces())
            assert sorted(built.by_dim) == sorted(turned.by_dim) == list(range(p.dim))
            for k, level in built.by_dim.items():
                assert [(f.vmask, f.fmask) for f in level] == [
                    (f.vmask, f.fmask) for f in turned(k)
                ], (p, k)


def test_hull_and_dual_evaluate_no_slack_and_keep_every_span_check(monkeypatch):
    calls = Counter()
    rank, pivots, span, slacks = (
        linalg_module.matrix_rank, polytope_module.pivot_columns, polytope_module.spans_hyperplane, Polytope._slacks
    )

    def counted_rank(rows):
        calls["matrix_rank"] += 1
        return rank(rows)

    def counted_pivots(rows):
        calls["pivot_columns"] += 1
        return pivots(rows)

    def counted_span(points, normal, offset):
        calls["spans_hyperplane"] += 1
        return span(points, normal, offset)

    def counted_slacks(self, p):
        calls["_slacks"] += 1
        return slacks(self, p)

    monkeypatch.setattr(linalg_module, "matrix_rank", counted_rank)
    monkeypatch.setattr(polytope_module, "pivot_columns", counted_pivots)
    monkeypatch.setattr(polytope_module, "spans_hyperplane", counted_span)
    monkeypatch.setattr(Polytope, "_slacks", counted_slacks)
    hexagon, triangle = (
        [tuple(v) for v in fixture_points(name)] for name in ("pgon_hexagon", "pgon_triangle_p123")
    )
    product = mpoints(shear([a + b for a in hexagon for b in triangle], MOVES[4]))
    # one echelon pass picks the initial simplex, then one closed-form span
    # certificate per facet on each side (cross4d 16 + 8, the product 9 + 18),
    # with no rank taken
    for points, spans in ((fixture_points("cross4d"), 24), (product, 27)):
        calls.clear()
        hull(points).dual()
        assert calls == {"pivot_columns": 1, "spans_hyperplane": spans}
        assert calls["matrix_rank"] == 0


def constructor_parts(points):
    """The hull of the points as constructor arguments: its sorted vertices
    and facets, and each vertex's saturated facet mask, as lists."""
    p = hull(mpoints(points))
    return list(p.vertices), list(p.facets), list(p._saturated)


@pytest.mark.parametrize(
    "d, message",
    [
        (3, "facet 0 holds fewer than 3 vertices"),  # a 3-cube's ridge is an edge
        (4, "facet 0 vertices do not span it"),  # the closed form
        (5, "facet 0 vertices do not span it"),  # the rank
    ],
)
def test_facet_narrowed_to_a_ridge_is_refused(d, message):
    # facet 0 of the bipyramid over the (d-1)-cube is a pyramid over a
    # (d-2)-cube; dropping its apex leaves that cube, on the plane but of
    # affine rank d - 2, and the apex still on 2d - 3 >= d facets (a cube's
    # vertices lie on exactly d, so narrowing a cube's facet would trip the
    # vertex check first)
    base = [p + (0,) for p in itertools.product((-1, 1), repeat=d - 1)]
    apexes = [(0,) * (d - 1) + (t,) for t in (-1, 1)]
    vertices, facets, saturated = constructor_parts(base + apexes)
    Polytope(vertices, facets, saturated=saturated)
    apex = next(j for j, v in enumerate(vertices) if v[-1] and saturated[j] & 1)
    saturated[apex] &= ~1
    with pytest.raises(InputError, match=f"^{message}$"):
        Polytope(vertices, facets, saturated=saturated)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_facet_listing_a_vertex_off_its_plane_is_refused(d):
    # facet i holds vertex 0 and also lists the last vertex k, its antipode:
    # the rows from vertex 0 span the plane before they reach k, so only
    # the plane test refuses it
    vertices, facets, saturated = constructor_parts(itertools.product((-1, 1), repeat=d))
    i = _bits(saturated[0])[0]
    k = len(vertices) - 1
    saturated[k] |= 1 << i
    off = rf"^facet {i} lists vertex {re.escape(repr(vertices[k]))} off its plane$"
    with pytest.raises(InputError, match=off):
        Polytope(vertices, facets, saturated=saturated)


def test_saturated_mask_naming_a_facet_off_the_vertex_is_refused():
    # vertex 0 of the 4-cube, (-1, -1, -1, -1), handed facet 0, the plane
    # x0 = 1: each facet's vertices are the transpose of the saturated masks,
    # so facet 0 lists the vertex and the plane test sees it
    vertices, facets, saturated = constructor_parts(itertools.product((-1, 1), repeat=4))
    assert (tuple(facets[0].normal), facets[0].offset) == ((-1, 0, 0, 0), -1)
    saturated[0] |= 1
    with pytest.raises(InputError, match=r"^facet 0 lists vertex MPoint\(-1, -1, -1, -1\) off its plane$"):
        Polytope(vertices, facets, saturated=saturated)


@pytest.mark.parametrize(
    "twice, message",
    [
        ("vertex", r"^vertex MPoint\(-1, 1\) is listed twice$"),
        ("facet", r"^facet RationalHyperplane\(normal=NPoint\(0, 1\), offset=-1\) is listed twice$"),
    ],
)
def test_vertex_or_facet_listed_twice_is_refused(square, twice, message):
    # accepted before, as a square with 5 vertices or 5 edges
    vertices, facets = list(square.vertices), list(square.facets)
    if twice == "vertex":
        vertices.append(vertices[1])
    else:
        facets.insert(0, facets[2])
    with pytest.raises(InputError, match=message):
        Polytope(vertices, facets)


# -- dual faces ---------------------------------------------------------------------


def test_dual_face_cross_cube(cross4, cube4):
    d = cross4.dual()
    assert d.vertex_set == {NPoint(tuple(v)) for v in cube4.vertices}
    for vertex_face in cross4.faces(0):
        df = cross4.dual_face(vertex_face)
        assert df.dim == 3
    for facet_face in cross4.faces(3):
        df = cross4.dual_face(facet_face)
        assert df.dim == 0


def test_dual_face_is_the_duals_face_at_the_vertex_mask(example_s3, quintic, cube4, cross4):
    # the Hodge counts read a dual edge's l* at n_saturating[T.vmask]
    pairs = [example_s3, quintic, cube4, cross4] + [
        ray_simplex(w) for w in ((1, 1, 1, 4), (1, 2, 2, 2), (1, 1, 6, 9))
    ]
    for delta in pairs:
        for p in (delta, delta.dual()):
            by_fmask = p.dual().faces().by_fmask
            for face in p.faces():
                assert p.dual_face(face).fmask == face.vmask
                assert face.vmask in by_fmask


def test_dual_face_dimension_sum_and_involution(example_s3):
    d = example_s3.dual()
    for dim in range(4):
        for face in example_s3.faces(dim):
            df = example_s3.dual_face(face)
            assert face.dim + df.dim == 3
            back = d.dual_face(df)
            assert back == face


def test_dual_face_pairing_characterisation(example_s3):
    d = example_s3.dual()
    face = example_s3.faces(1)[0]
    df = example_s3.dual_face(face)
    for w in df.vertices:
        for x in face.vertices:
            assert linalg_module.dot(x, w) == -1


# -- volume ---------------------------------------------------------------------------


def test_random_reflexive_polygons_duality_properties():
    # hypothesis-style search over sub-polygons of the 3x3 grid: whenever the
    # hull is reflexive, the involution and the census partition must hold
    from hypothesis import given, settings
    from hypothesis import strategies as st

    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)]

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sampled_from(grid), min_size=3, max_size=8))
    def run(subset):
        try:
            p = hull(mpoints(sorted(subset)))
        except NotFullDimensionalError:
            return
        if not all(f.offset < 0 for f in p.facets):  # 0 strictly inside
            return
        assert p.is_reflexive()  # every facet of a 3x3-grid hull is at distance 1
        d = p.dual()
        assert hull(list(d.vertices)).dual().vertex_set == p.vertex_set
        census = p.census()
        l_star = sum(census.n_saturating[f.fmask] for f in p.faces())
        assert census.n_saturating[0] + l_star == len(census.face_of)

    run()


def test_census_points_are_plain_lattice_points():
    for name in ALL:
        p = fixture_polytope(name)
        for side in (p, p.dual()):
            for q in side.census().points:
                assert type(q) is side.point_cls
                assert all(type(x) is int for x in q)
                assert q == side.point_cls(tuple(q))


def test_normalized_volume():
    seg = hull(mpoints([(0,), (3,)]))
    assert seg.normalized_volume() == 3
    sq = hull(mpoints([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    assert sq.normalized_volume() == 8


def test_normalized_volume_4d(cube4, cross4):
    assert cube4.normalized_volume() == 384  # 4! * 16
    assert cross4.normalized_volume() == 16  # 4! * 2/3


def test_normalized_volume_matches_ehrhart_oracle():
    polytopes = [hull(mpoints([(0,), (3,)])), hull(mpoints([(1, 1), (1, -1), (-1, 1), (-1, -1)]))]
    for name in ALL:
        p = fixture_polytope(name)
        polytopes += [p, p.dual()]
    polytopes += [ray_simplex(w) for w in ((1, 1, 1, 1), (1, 2, 2, 2), (1, 1, 6, 9), (2, 2, 10, 15))]
    for p in polytopes:
        assert p.normalized_volume() == ehrhart_volume(p), p


def test_normalized_volume_leaves_no_reference_cycle():
    # the pulling memo is freed by reference counting, not by the collector
    p = fixture_polytope("cross4d")
    assert p.normalized_volume() == 16
    p._volume = None
    gc.collect()
    gc.disable()
    try:
        assert p.normalized_volume() == 16
        assert gc.collect() == 0
    finally:
        gc.enable()
