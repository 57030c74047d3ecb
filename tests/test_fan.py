import hashlib
import random
from fractions import Fraction
from operator import mul

import pytest

from cytoric.errors import NotReflexiveError, NotSimplicialError
from cytoric.fan import (
    Cone,
    WeilDivisor,
    cone_mult,
    face_fan,
    is_nef,
    is_qcartier,
    mpcp_triangulate,
    picard_rank_q,
    singularity_census,
)
from cytoric.fixtures import fixture_polytope
from cytoric.lattice import NPoint, pairing
from cytoric.polytope import hull
from conftest import mpoints, ray_simplex
from oracles import fraction_cartier_index, fraction_is_nef


def npt(*coords):
    return NPoint(coords)


@pytest.fixture(scope="module")
def example_face_fan(example_s3):
    return face_fan(example_s3)


@pytest.fixture(scope="module")
def example_mpcp(example_s3):
    return mpcp_triangulate(example_s3)


@pytest.fixture(scope="module")
def p4_fan(quintic):
    return face_fan(quintic)


@pytest.fixture(scope="module")
def cube_mpcp(cube4):
    return mpcp_triangulate(cube4)


@pytest.fixture(scope="module")
def cross4d_mpcp():
    return mpcp_triangulate(fixture_polytope("cross4d"))


@pytest.fixture(scope="module")
def wp11222_mpcp():
    """Refinement for the mirror of the degree-8 hypersurface in P(1,1,2,2,2)."""
    return mpcp_triangulate(ray_simplex((1, 2, 2, 2)))


# -- face fans ---------------------------------------------------------------


def test_face_fan_example_has_15_cones(example_face_fan):
    assert len(example_face_fan.maximal_cones) == 15
    assert len(example_face_fan.rays) == 8
    assert not example_face_fan.is_simplicial
    non_simplicial = [c for c in example_face_fan.maximal_cones if not c.is_simplicial]
    assert len(non_simplicial) == 1
    assert set(non_simplicial[0].rays) == {
        npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0),
        npt(0, 0, 0, 1), npt(1, 1, 1, -2),
    }


def test_face_fan_cube_is_cross_fan(cube4):
    f = face_fan(cube4)
    assert len(f.maximal_cones) == 16
    assert f.is_simplicial
    assert all(c.is_smooth for c in f.maximal_cones)


def test_face_fan_quintic(p4_fan):
    assert len(p4_fan.maximal_cones) == 5
    assert p4_fan.is_simplicial
    assert all(c.is_smooth for c in p4_fan.maximal_cones)


def test_face_fan_rejects_non_reflexive():
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    with pytest.raises(NotReflexiveError):
        face_fan(double)


def test_face_fan_wall_consistency(example_face_fan, p4_fan):
    assert example_face_fan.wall_consistency()
    assert p4_fan.wall_consistency()


# -- cone multiplicities ---------------------------------------------------------


def test_cone_mult_identity():
    cone = Cone((npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0), npt(0, 0, 0, 1)))
    assert cone_mult(cone) == 1
    assert cone.is_smooth


def test_cone_mult_example_singular_chart():
    cone = Cone((npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, -1, 0), npt(1, 1, 1, -2)))
    assert cone_mult(cone) == 2


def test_cone_mult_2d():
    cone = Cone((NPoint((1, 0)), NPoint((1, 2))))
    assert cone_mult(cone) == 2


def test_cone_mult_rejects_non_simplicial(example_face_fan):
    big = [c for c in example_face_fan.maximal_cones if not c.is_simplicial][0]
    with pytest.raises(NotSimplicialError):
        cone_mult(big)


# -- MPCP refinement -------------------------------------------------------------


def test_mpcp_example_16_cones(example_mpcp):
    assert len(example_mpcp.maximal_cones) == 16
    assert len(example_mpcp.rays) == 8


def test_mpcp_example_census_8_z2_points(example_mpcp):
    census = singularity_census(example_mpcp)
    assert len(census) == 8
    assert all(mult == 2 for _, mult in census)


def test_mpcp_example_splits_inside_the_big_cone(example_mpcp, example_face_fan):
    big = [c for c in example_face_fan.maximal_cones if not c.is_simplicial][0]
    big_rays = set(big.rays)
    children = [c for c in example_mpcp.maximal_cones if set(c.rays) <= big_rays]
    assert len(children) == 2
    mults = sorted(c.multiplicity for c in children)
    assert mults == [1, 2]


def test_mpcp_lex_order_knob(example_s3):
    # plain lexicographic pulling produces the other valid fine split of the
    # bipyramid facet: three smooth cones around the interior edge
    f = mpcp_triangulate(example_s3, order="lex")
    assert len(f.maximal_cones) == 17
    census = singularity_census(f)
    assert len(census) == 7
    assert sum(c.multiplicity for c in f.maximal_cones) == 24


def test_mpcp_cube_identical_to_face_fan(cube4, cube_mpcp):
    f = face_fan(cube4)
    assert {c.rays for c in cube_mpcp.maximal_cones} == {c.rays for c in f.maximal_cones}


def test_mpcp_square_unchanged(square):
    f = mpcp_triangulate(square)
    assert len(f.maximal_cones) == 4
    assert len(f.rays) == 4


def test_mpcp_fineness_and_crepancy(example_s3, cube4, quintic):
    for delta in (example_s3, cube4, quintic):
        f = mpcp_triangulate(delta)
        dual = delta.dual()
        assert set(f.rays) == set(dual.boundary_points())
        for ray in f.rays:
            assert min(pairing(x, ray) for x in delta.vertices) == -1


def test_mpcp_refines_face_fan(example_s3):
    f = mpcp_triangulate(example_s3)
    ff = face_fan(example_s3)
    face_cones = [set(c.rays) for c in ff.maximal_cones]
    dual = example_s3.dual()
    census = dual.census()
    for cone, facet_idx in zip(f.maximal_cones, f.cone_facets):
        facet = dual.faces(3)[facet_idx]
        for ray in cone.rays:
            assert census.face_of[ray].facet_set >= facet.facet_set


def test_mpcp_volume_conservation(example_s3, cube4, quintic, square):
    for delta in (example_s3, cube4, quintic, square):
        f = mpcp_triangulate(delta)
        dual = delta.dual()
        total = sum(c.multiplicity for c in f.maximal_cones)
        assert total == dual.normalized_volume()


def cone_digest(fan):
    cones = sorted(tuple(tuple(r) for r in c.rays) for c in fan.maximal_cones)
    return hashlib.sha256(repr(cones).encode()).hexdigest()


def test_mpcp_golden_cone_lists(cross4d_mpcp, example_mpcp, wp11222_mpcp):
    # sha256 of the sorted maximal-cone ray tuples, recorded from the Fraction
    # elimination; any change to the refinement must reproduce the same
    # triangulation, not merely an equivalent one
    golden = (
        (cross4d_mpcp, 384, "721ff25aad065c7d6eb9307a026b0e860885290e1255b57d945ba5d6e9c2c02b"),
        (example_mpcp, 16, "a9cb04acfcd5786b24e2b0ec6f8d51effbf1bf31f76b5821351424a9f27f4130"),
        (wp11222_mpcp, 488, "952cf14217d1a21f1dd787d4b47efbfec000c3580fee5678479a27231f4fde13"),
    )
    for fan, n_cones, digest in golden:
        assert len(fan.maximal_cones) == n_cones
        assert cone_digest(fan) == digest


def test_mpcp_wall_consistency(example_mpcp, cube_mpcp):
    assert example_mpcp.wall_consistency()
    assert cube_mpcp.wall_consistency()


def test_singularity_census_smooth_fans(cube_mpcp, p4_fan):
    assert singularity_census(cube_mpcp) == []
    assert singularity_census(p4_fan) == []


# -- Q-Cartier -----------------------------------------------------------------------


def test_qcartier_on_smooth_fan_always(p4_fan):
    d = WeilDivisor.from_dict({p4_fan.rays[0]: Fraction(3), p4_fan.rays[2]: Fraction(-1)})
    ok, index = is_qcartier(p4_fan, d)
    assert ok and index == 1


def test_qcartier_pure_exceptional_ray_fails(example_face_fan):
    v = npt(1, 1, 1, -2)
    ok, index = is_qcartier(example_face_fan, WeilDivisor.ray(v))
    assert not ok and index is None


def test_qcartier_relation_matches_coefficient_constraint(example_face_fan):
    # divisors sum a_i D_{e_i} + sum b_i D_{-e_i} + c D_{e4} + d D_v admit
    # support data on the 5-ray cone exactly when d = a1 + a2 + a3 - 2c
    e = [npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0)]
    e4 = npt(0, 0, 0, 1)
    v = npt(1, 1, 1, -2)
    good = WeilDivisor.from_dict({e[0]: 2, e[1]: 1, e[2]: 0, e4: 1, v: 1})
    ok, _ = is_qcartier(example_face_fan, good)
    assert ok
    bad = WeilDivisor.from_dict({e[0]: 2, e[1]: 1, e[2]: 0, e4: 1, v: 2})
    ok, _ = is_qcartier(example_face_fan, bad)
    assert not ok


def test_qcartier_anticanonical_example(example_face_fan):
    ok, index = is_qcartier(example_face_fan, WeilDivisor.anticanonical(example_face_fan))
    assert ok and index == 1


def seeded_divisors(fan, seed, count):
    """Seeded divisors of both verdicts: every fourth is c * (-K) plus s
    times a principal divisor sum <m, v> D_v, so nef for c >= 0, with
    coefficients of mixed denominators; the rest add +-1, +-2 or +-1/2
    times a few rays to 0, -K or 2 * (-K)."""
    rng = random.Random(seed)
    minus_k = WeilDivisor.anticanonical(fan)
    out = []
    for i in range(count):
        if i % 4 == 0:
            m = [rng.randint(-3, 3) for _ in range(fan.dim)]
            principal = WeilDivisor.from_dict({v: sum(map(mul, m, v)) for v in fan.rays})
            c = rng.choice((0, 1, 2, Fraction(1, 2), Fraction(1, 3)))
            out.append(c * minus_k + rng.choice((1, Fraction(1, 2), Fraction(1, 3))) * principal)
            continue
        d = rng.choice((WeilDivisor.zero(), minus_k, 2 * minus_k))
        for r in rng.sample(fan.rays, rng.randint(1, 4)):
            d = d + WeilDivisor.ray(r, rng.choice((-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2))))
        out.append(d)
    return out


def test_qcartier_index_matches_fraction_reference(example_face_fan, quintic):
    # the mirror quintic's face fan is P4/(Z5)^3: simplicial, every cone of
    # multiplicity 125, every ray divisor of Cartier index 5
    mirror_fan = face_fan(quintic.dual())
    assert {c.multiplicity for c in mirror_fan.maximal_cones} == {125}
    for r in mirror_fan.rays:
        assert is_qcartier(mirror_fan, WeilDivisor.ray(r)) == (True, 5)
    for fan in (mirror_fan, example_face_fan):
        divisors = [WeilDivisor.anticanonical(fan)]
        divisors += [WeilDivisor.ray(r) for r in fan.rays]
        divisors += seeded_divisors(fan, 41, 20)
        for d in divisors:
            index = fraction_cartier_index(fan, d)
            assert is_qcartier(fan, d) == (index is not None, index)


# -- Picard ranks ----------------------------------------------------------------------


def test_picard_rank_example(example_face_fan, example_mpcp):
    assert picard_rank_q(example_face_fan) == 3
    assert picard_rank_q(example_mpcp) == 4


def test_picard_rank_p4(p4_fan):
    assert picard_rank_q(p4_fan) == 1


def test_picard_rank_simplicial_is_rays_minus_dim(cube_mpcp, example_mpcp, p4_fan):
    for f in (cube_mpcp, example_mpcp, p4_fan):
        assert picard_rank_q(f) == len(f.rays) - f.dim


# -- nef tests ----------------------------------------------------------------------------


def test_nef_zero_divisor(p4_fan):
    assert is_nef(p4_fan, WeilDivisor.zero())


def test_nef_hyperplane_on_p4(p4_fan):
    h = WeilDivisor.ray(npt(1, 0, 0, 0))
    assert is_nef(p4_fan, h)
    assert not is_nef(p4_fan, -1 * h)


def test_nef_anticanonical_on_example_mpcp(example_mpcp):
    assert is_nef(example_mpcp, WeilDivisor.anticanonical(example_mpcp))


def test_nef_matches_fraction_reference(cross4d_mpcp, wp11222_mpcp, example_mpcp):
    # example_s3's refinement has cones of multiplicity 2, so local data
    # with denominators
    for seed, fan in ((5, cross4d_mpcp), (6, wp11222_mpcp), (7, example_mpcp)):
        divisors = [WeilDivisor.anticanonical(fan)]
        divisors += [WeilDivisor.ray(r) for r in fan.rays]
        divisors += seeded_divisors(fan, seed, 8)
        verdicts = [is_nef(fan, d) for d in divisors]
        assert verdicts == [fraction_is_nef(fan, d) for d in divisors]
        assert verdicts[0] and verdicts[-8] and not all(verdicts)


def test_nef_rejects_non_qcartier(example_face_fan):
    # the face fan keeps its non-simplicial cone, so the nef test refuses it
    with pytest.raises(NotSimplicialError):
        is_nef(example_face_fan, WeilDivisor.zero())


def test_divisor_arithmetic():
    a = WeilDivisor.ray(npt(1, 0, 0, 0), 2)
    b = WeilDivisor.ray(npt(0, 1, 0, 0), Fraction(1, 2))
    s = a + b
    assert s.coeff(npt(1, 0, 0, 0)) == 2
    assert s.coeff(npt(0, 1, 0, 0)) == Fraction(1, 2)
    assert (a + (-1 * a)).is_zero()
    assert s.coeff(npt(0, 0, 1, 0)) == 0
    # the cached coefficient lookup leaves equality and hash to `coeffs`
    t = b + a
    assert s == t and hash(s) == hash(t)
    assert s != a
