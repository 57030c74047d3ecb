import gc
import itertools

import pytest

from cytoric import cli, fan, hodge
from cytoric import polytope as polytope_module
from cytoric.errors import InputError, NotReflexiveError
from cytoric.hodge import PointType
from cytoric.fixtures import CORPUS_4D, POLYGONS, fixture_points, fixture_polytope
from cytoric.polytope import Polytope, hull
from conftest import mpoints, ray_simplex, ray_simplex_points, weighted_ray_simplices
from oracles import euler_by_volume, grid_points, saturation_census


# -- boundary classification -----------------------------------------------------


def test_classify_cross_polytope_all_vertices(cross4):
    classified = hodge.classify_boundary(cross4)
    assert len(classified) == 8
    assert all(kind is PointType.VERTEX for kind in classified.values())


def test_classify_cube_grid_partition(cube4):
    classified = hodge.classify_boundary(cube4)
    counts = {}
    for kind in classified.values():
        counts[kind] = counts.get(kind, 0) + 1
    # oracle: all 80 boundary points of the 3^4 grid split by zero pattern
    oracle = saturation_census([tuple(v) for v in cube4.vertices])
    assert counts[PointType.IN_3FACE] == oracle[1] == 8
    assert counts[PointType.IN_2FACE] == oracle[2] == 24
    assert counts[PointType.IN_EDGE] == oracle[3] == 32
    assert counts[PointType.VERTEX] == oracle[4] == 16


def test_classify_example_dual(example_s3):
    d = example_s3.dual()
    classified = hodge.classify_boundary(d)
    assert len(classified) == 8
    assert all(kind is PointType.VERTEX for kind in classified.values())


def test_classify_counts_partition(example_s3, cube4, cross4, quintic):
    for p in (example_s3, cube4, cross4, quintic):
        d = p.dual()
        classified = hodge.classify_boundary(d)
        assert len(classified) == len(d.boundary_points())


def test_classify_rejects_non_reflexive():
    double = hull(mpoints([(2, 2, 2, 2), (2, 2, 2, -2), (2, 2, -2, 2), (2, -2, 2, 2),
                           (-2, 2, 2, 2), (-2, -2, -2, -2), (2, 2, -2, -2), (2, -2, -2, 2),
                           (-2, -2, 2, 2), (2, -2, 2, -2), (-2, 2, -2, 2), (-2, 2, 2, -2),
                           (-2, -2, -2, 2), (-2, -2, 2, -2), (-2, 2, -2, -2), (2, -2, -2, -2)]))
    with pytest.raises(NotReflexiveError):
        hodge.classify_boundary(double)


def test_classify_rejects_wrong_dimension(square):
    with pytest.raises(InputError):
        hodge.classify_boundary(square)


# -- h11 / h12 / euler ----------------------------------------------------------------


def test_h11_example(example_s3):
    assert hodge.h11(example_s3) == 4


def test_h11_quintic_oracle(quintic):
    # lattice-point oracle on the dual simplex: 6 points, no corrections
    dual_pts = grid_points([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (0, 0, 0, 1), (-1, -1, -1, -1)])
    assert len(dual_pts) == 6
    assert hodge.h11(quintic) == len(dual_pts) - 5 == 1


def test_h11_cube(cube4):
    # dual is the cross-polytope: 9 points, both corrections vanish
    assert hodge.h11(cube4) == 9 - 5 == 4


def test_h12_quintic_oracle(quintic):
    # 126 points in the degree-5 simplex, 5 facets with 4 interior points each,
    # empty pairing term: 126 - 5 - 20 = 101
    pts = grid_points([tuple(v) for v in quintic.vertices])
    assert len(pts) == 126
    facet_interiors = sum(1 for sat in pts.values() if len(sat) == 1)
    assert facet_interiors == 20
    assert hodge.h12(quintic) == 126 - 5 - 20 == 101


def test_h12_cube(cube4):
    assert hodge.h12(cube4) == 81 - 5 - 8 == 68


def test_h12_example_against_oracle(example_s3):
    # The published walkthrough of this polytope claims chi = -6 (hence
    # h12 = 7), but that is inconsistent with its own vertex list: counting
    # the 61 lattice points of the polytope and the 4 facet-interior points
    # with the brute grid oracle gives 61 - 5 - 4 = 52 on the mirror side.
    pts = grid_points([tuple(v) for v in example_s3.vertices])
    assert len(pts) == 61
    facet_interiors = sum(1 for sat in pts.values() if len(sat) == 1)
    assert facet_interiors == 4
    assert hodge.h12(example_s3) == 61 - 5 - 4 == 52


def test_euler_values(example_s3, quintic, cube4):
    assert hodge.report(example_s3).euler == 2 * (4 - 52) == -96
    assert hodge.report(quintic).euler == 2 * (1 - 101) == -200
    assert hodge.report(cube4).euler == 2 * (4 - 68) == -128


def test_mirror_exchange(example_s3, quintic, cube4, cross4):
    for p in (example_s3, quintic, cube4, cross4):
        d = p.dual()
        assert hodge.h11(p) == hodge.h12(d)
        assert hodge.h12(p) == hodge.h11(d)


def test_term_non_negativity(example_s3, quintic, cube4, cross4):
    for p in (example_s3, quintic, cube4, cross4):
        rep = hodge.report(p)
        assert rep.facet_interior_correction >= 0
        assert rep.two_face_pairing_term >= 0
        assert rep.euler == 2 * (rep.h11 - rep.h12)


@pytest.mark.parametrize(
    "weights, h11, h12",
    [
        ((1, 2, 2, 2), 86, 2),
        ((1, 1, 1, 4), 149, 1),
        ((1, 1, 6, 9), 272, 2),
        ((1, 12, 28, 42), 491, 11),
    ],
)
def test_weighted_p4_mirror_hodge_pairs(weights, h11, h12):
    # the ray simplex of P(1, w1..w4) is the mirror side, so the literature
    # pair of the weighted hypersurface comes out swapped
    rep = hodge.report(ray_simplex(weights))
    assert (rep.h11, rep.h12) == (h11, h12)
    assert rep.euler == 2 * (h11 - h12)


def unsheared_polygon_products():
    """The 136 products of two bundled polygons, unsheared."""
    rows = [[tuple(v) for v in fixture_points(name)] for name in POLYGONS]
    return [
        hull(mpoints([a + b for a in p for b in q]))
        for p, q in itertools.combinations_with_replacement(rows, 2)
    ]


EULER_CASES = {
    "fixtures": (4, lambda: [fixture_polytope(name) for name in CORPUS_4D]),
    "ray-simplices": (69, weighted_ray_simplices),
    "products": (136, unsheared_polygon_products),
}


@pytest.mark.parametrize("group", sorted(EULER_CASES))
def test_euler_by_volume_matches_the_report(group):
    # Batyrev's volume formula reads the edges' and 2-faces' interior counts
    # on both sides, which the divisor census rank does not
    size, make = EULER_CASES[group]
    polytopes = make()
    assert len(polytopes) == size
    for delta in polytopes:
        for side in (delta, delta.dual()):
            assert euler_by_volume(side) == hodge.report(side).euler, side


def test_thinnest_ray_simplex_point_count():
    # 35 lattice points in a bounding box of 779,688
    assert ray_simplex((15, 24, 40, 40)).n_points == 35


# -- divisor census ----------------------------------------------------------------------


def test_census_example(example_s3):
    census = hodge.divisor_census(example_s3)
    assert len(census.irreducible_points) == 8
    assert census.split_points == ()
    assert census.off_hypersurface_points == ()
    assert census.rank == 8 - 4 == 4


def test_census_quintic(quintic):
    census = hodge.divisor_census(quintic)
    assert len(census.irreducible_points) == 5
    assert census.split_points == ()
    assert census.rank == 1


def test_census_cross_polytope(cross4):
    # dual is the cube: 48 vertex/edge points, 24 two-face points with one
    # component each (the dual edges of the cross-polytope have no interior)
    census = hodge.divisor_census(cross4)
    assert len(census.irreducible_points) == 48
    assert len(census.split_points) == 24
    assert all(n == 1 for _, n in census.split_points)
    assert len(census.off_hypersurface_points) == 8
    assert census.total_components == 72
    assert census.rank == 68 == hodge.h11(cross4)


def test_census_matches_h11(example_s3, quintic, cube4, cross4):
    for p in (example_s3, quintic, cube4, cross4):
        census = hodge.divisor_census(p)
        assert census.rank == hodge.h11(p)


def test_report_counts_each_side_once(monkeypatch, cross4):
    # one divisor census gives the report its h11 and terms; h12 is the
    # rank of the dual's
    sides = []
    census = hodge.divisor_census

    def counted(delta):
        sides.append(delta)
        return census(delta)

    monkeypatch.setattr(hodge, "divisor_census", counted)
    rep = hodge.report(cross4)
    assert rep.census.rank == rep.h11
    assert sides == [cross4, cross4.dual()]


@pytest.mark.parametrize(
    "points",
    [fixture_points("cross4d"), ray_simplex_points((1, 2, 2, 2))],
    ids=["cross4d", "wp11222_mirror"],
)
def test_report_hulls_once_and_builds_one_face_lattice(monkeypatch, points):
    calls = {"hull": 0, "_build_faces": 0}
    hull_fn = polytope_module.hull
    build = Polytope._build_faces

    def counted_hull(*args):
        calls["hull"] += 1
        return hull_fn(*args)

    def counted_build(self):
        calls["_build_faces"] += 1
        return build(self)

    for owner in (polytope_module, fan, cli):
        monkeypatch.setattr(owner, "hull", counted_hull)
    monkeypatch.setattr(Polytope, "_build_faces", counted_build)
    delta = polytope_module.hull(points)
    rep = hodge.report(delta)
    assert rep.h11 > 0 and rep.h12 > 0
    # both sides hold a face lattice by now
    assert delta.faces() is not None and delta.dual().faces() is not None
    assert calls == {"hull": 1, "_build_faces": 1}


def test_report_leaves_no_reference_cycle():
    # a polytope, its faces, its census and its dual are freed by reference
    # counting: faces hold no polytope and the dual holds its primal weakly
    gc.collect()
    gc.disable()
    try:
        for name in CORPUS_4D:
            hodge.report(hull(fixture_points(name)))
        assert gc.collect() == 0
    finally:
        gc.enable()
