import random

import pytest

from cytoric.errors import NotFullDimensionalError, OriginNotInteriorError
from cytoric.lattice import MPoint, NPoint, pairing
from cytoric.fixtures import ALL, CORPUS_4D, fixture_points, fixture_polytope
from cytoric.polytope import RationalPolytope, hull
from conftest import example_s3_vertices, mpoints, ray_simplex, shear, transvection
from oracles import brute_facets, ehrhart_volume, grid_points


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
        assert sum(1 for v in cube4.vertices if f.evaluate(v) == 0) == 8


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


def test_hull_not_full_dimensional_reports_affine_dim():
    with pytest.raises(NotFullDimensionalError) as info:
        hull(mpoints([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]))
    assert info.value.affine_dim == 2
    assert info.value.ambient_dim == 3


def test_hull_segment():
    p = hull(mpoints([(-2,), (5,), (0,)]))
    assert len(p.vertices) == 2
    assert p.normalized_volume() == 7


def test_hull_random_point_sets_match_brute_force():
    import random

    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(2, 3)
        pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(d + 2, 12))}
        pts = sorted(pts)
        try:
            p = hull(mpoints(pts))
        except NotFullDimensionalError:
            continue
        assert as_plane_set(p) == brute_facets(pts)
        # every claimed vertex is extreme: it is not inside the hull of the others
        for v in p.vertices:
            others = [w for w in p.vertices if w != v]
            sub_planes = brute_facets([tuple(w) for w in others])
            inside = all(
                sum(a * b for a, b in zip(n, v)) >= rhs for n, rhs in sub_planes
            )
            if len(others) > d:
                assert not inside


# -- faces -------------------------------------------------------------------


def test_faces_square(square):
    counts = square.faces().counts()
    assert counts == {0: 4, 1: 4}


def test_faces_cross_polytope(cross4):
    from oracles import brute_faces

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
    for v in ends:
        assert edge in lattice.parents(v)


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
            assert lattice.parents(face) == [
                g for g in above if set(face.vertices) <= set(g.vertices)
            ]


# -- lattice point census ------------------------------------------------------


def test_census_square(square):
    census = square.census()
    assert census.n_points == 9
    assert census.n_interior == 1
    for f in square.faces(1):
        assert f.n_points == 3
        assert f.n_interior == 1
        assert f.lattice_length == 2


def test_census_cube_partition(cube4):
    census = cube4.census()
    assert census.n_points == 81
    oracle = grid_points([tuple(v) for v in cube4.vertices])
    assert {tuple(p) for p in census.points} == set(oracle)
    by_dim = {}
    for p in census.boundary:
        face = census.face_of[p]
        by_dim[face.dim] = by_dim.get(face.dim, 0) + 1
    assert by_dim == {3: 8, 2: 24, 1: 32, 0: 16}


def test_census_partition_identity(square, cube4, cross4, example_s3, quintic):
    for p in (square, cube4, cross4, example_s3, quintic):
        census = p.census()
        total = census.n_interior + sum(f.n_interior for f in p.faces())
        assert total == census.n_points


def test_edge_point_relation(cube4):
    for edge in cube4.faces(1):
        assert edge.n_points == edge.n_interior + 2


def assert_census_matches_grid_oracle(poly):
    rows = [tuple(v) for v in poly.vertices]
    oracle = grid_points(rows)
    # same facets in the same order, so saturated sets compare as indices
    assert [(tuple(f.normal), f.offset) for f in poly.facets] == sorted(brute_facets(rows))
    census = poly.census()
    assert [tuple(p) for p in census.points] == list(oracle)
    saturated = {
        p: frozenset() if census.face_of[p] is None else census.face_of[p].facet_set
        for p in census.points
    }
    assert [saturated[p] for p in census.points] == list(oracle.values())
    assert list(census.interior) == [p for p in census.points if not saturated[p]]
    assert list(census.boundary) == [p for p in census.points if saturated[p]]
    for face in poly.faces():
        assert face.n_points == sum(1 for s in oracle.values() if face.facet_set <= s)
        assert face.n_interior == sum(1 for s in oracle.values() if s == face.facet_set)


@pytest.mark.parametrize("weights", [(6, 7, 14, 14), (2, 9, 24, 36), (4, 15, 20, 20)])
def test_census_thin_ray_simplex_against_grid_oracle(weights):
    # boxes of 18k-49k points holding 17-21 lattice points, and their duals
    simplex = ray_simplex(weights)
    assert_census_matches_grid_oracle(simplex)
    assert_census_matches_grid_oracle(simplex.dual())


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
        per_dim = {
            d: sorted((f.n_points, f.n_interior) for f in poly.faces(d))
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


def test_dual_requires_interior_origin():
    shifted = hull(mpoints([(0, 0), (0, 1), (1, 0), (1, 1)]))
    with pytest.raises(OriginNotInteriorError):
        shifted.dual()


def test_dual_non_reflexive_is_rational():
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    d = double.dual()
    assert isinstance(d, RationalPolytope)
    assert not d.is_lattice()


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
            values = [pairing(x, y) for x in p.vertices]
            assert min(values) == -1


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
            assert pairing(x, w) == -1


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
        if not p.strictly_contains(MPoint((0, 0))):
            return
        assert p.is_reflexive()  # every facet of a 3x3-grid hull is at distance 1
        d = p.dual()
        assert hull(list(d.vertices)).dual().vertex_set == p.vertex_set
        census = p.census()
        assert census.n_interior + sum(f.n_interior for f in p.faces()) == census.n_points

    run()


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
