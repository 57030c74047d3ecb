import gc
import itertools
import random
from fractions import Fraction

import pytest

from cytoric import hodge
from cytoric.chern import (
    CurveClass,
    IntersectionForm,
    c2_audit,
    c2_dot,
    chern_report,
    curve_census,
    euler_characteristic,
    intersection_number,
)
from cytoric.errors import InputError
from cytoric.fan import WeilDivisor, face_fan, is_nef, is_qcartier, mpcp_triangulate, picard_rank_q
from cytoric.fixtures import fixture_points
from cytoric.lattice import MPoint, NPoint
from cytoric.polytope import Polytope, hull
from conftest import mpoints, ray_simplex, shear, transvection, weighted_ray_simplices
from oracles import (
    MemoIntersectionForm,
    combination_form_cones,
    memo_c2_dot,
    memo_intersection_number,
    series_c2_cube_hypersurface,
    series_c2_quintic,
)


def npt(*coords):
    return NPoint(coords)


@pytest.fixture(scope="module")
def p4_form(quintic):
    return IntersectionForm(mpcp_triangulate(quintic))


@pytest.fixture(scope="module")
def cross_form(cube4):
    return IntersectionForm(mpcp_triangulate(cube4))


@pytest.fixture(scope="module")
def example_form(example_s3):
    return IntersectionForm(mpcp_triangulate(example_s3))


# -- raw quadruple values -----------------------------------------------------------


def test_p4_distinct_quadruple(p4_form):
    assert p4_form.value((npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0), npt(0, 0, 0, 1))) == 1


def test_p4_repeated_ray_h4(p4_form):
    # all D_i are linearly equivalent on this fan, so any fourfold product is 1
    h = npt(1, 0, 0, 0)
    assert p4_form.value((h, h, h, h)) == 1
    assert p4_form.value((h, h, npt(0, 1, 0, 0), npt(0, 0, 1, 0))) == 1


def test_cross_fan_square_vanishes(cross_form):
    # opposite rays never share a cone; each factor squares to zero
    e1 = npt(1, 0, 0, 0)
    assert cross_form.value((e1, e1, npt(0, 1, 0, 0), npt(0, 0, 1, 0))) == 0
    assert (
        cross_form.value((e1, npt(-1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0))) == 0
    )


def test_cross_fan_distinct_axes(cross_form):
    v = cross_form.value((npt(1, 0, 0, 0), npt(0, -1, 0, 0), npt(0, 0, 1, 0), npt(0, 0, 0, -1)))
    assert v == 1


def test_example_orbifold_quadruple(example_form):
    v = example_form.value(
        (npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, -1, 0), npt(1, 1, 1, -2))
    )
    assert v == Fraction(1, 2)


def test_non_spanning_support_is_zero(example_form):
    v = example_form.value(
        (npt(1, 0, 0, 0), npt(-1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0))
    )
    assert v == 0


def test_smooth_cone_spanning_rays_give_one(p4_form, cross_form):
    for form in (p4_form, cross_form):
        for cone, det in zip(form.fan.maximal_cones, form.fan.dets):
            if det == 1:
                assert form.value(cone.rays) == 1


# -- symmetry and relations -----------------------------------------------------------


def test_symmetry_under_permutations(example_form):
    rng = random.Random(5)
    rays = example_form.rays
    for _ in range(120):
        quad = tuple(rng.choice(rays) for _ in range(4))
        base = example_form.value(quad)
        for perm in itertools.permutations(quad):
            assert example_form.value(perm) == base


def test_functional_relations_annihilate(example_form, cross_form, p4_form):
    # for every lattice functional m: sum_i <m, v_i> D_i pairs to zero
    rng = random.Random(11)
    for form in (example_form, cross_form, p4_form):
        rays = form.rays
        for _ in range(40):
            m = [rng.randint(-3, 3) for _ in range(4)]
            rel = WeilDivisor.from_dict(
                {r: sum(a * b for a, b in zip(m, r)) for r in rays}
            )
            picks = [WeilDivisor.ray(rng.choice(rays)) for _ in range(3)]
            assert intersection_number(form, rel, *picks) == 0


# -- the sweep against the memoised elimination ---------------------------------------


@pytest.fixture(scope="module")
def forms(p4_form, cross_form, example_form):
    return [(form, MemoIntersectionForm(form.fan)) for form in (p4_form, cross_form, example_form)]


def test_value_matches_memo_oracle_on_every_cone_multiset(forms):
    for form, oracle in forms:
        for cone in form.fan.maximal_cones:
            for multiset in itertools.combinations_with_replacement(cone.rays, 4):
                assert form.value(multiset) == oracle.value(multiset)


def test_value_matches_memo_oracle_on_random_supports(forms):
    # on the cross and example fans many supports span no cone; both give 0
    rng = random.Random(17)
    spanning = 0
    for form, oracle in forms:
        for _ in range(300):
            quad = tuple(rng.choice(form.rays) for _ in range(4))
            spanning += oracle.spans_cone(set(quad))
            assert form.value(quad) == oracle.value(quad)
    assert 300 < spanning < 600


def test_form_cones_match_combination_oracle(example_form):
    # the one-pass form against the old subset loop that dotted every
    # (face, link ray) pair: same host, link and pairings for every face.
    # Host links are exactly the oracle's entries whose link ray is a ray
    # of the face's host, each with c all zero, and cross links the rest;
    # the empty face has det 1 here, the oracle its host's (the same
    # det * (M / det) = M), and links every ray with an empty c
    fans = [example_form.fan, mpcp_triangulate(hull(fixture_points("cross4d")))]
    fans += [mpcp_triangulate(ray_simplex(w)) for w in ((1, 2, 2, 2), (1, 1, 1, 4))]
    for fan in fans:
        form = IntersectionForm(fan)
        expected = combination_form_cones(fan)
        host_of = {}
        for top in fan.cones:
            for k in range(1, 4):
                for g in itertools.combinations(top, k):
                    host_of.setdefault(g, set(top))
        assert form._cones.keys() == expected.keys()
        for g, (det, w, host, cross) in form._cones.items():
            entries = [(u, h, (0,) * len(g)) for u, h in host] + list(cross)
            assert len(set(entries)) == len(entries)
            if g:
                assert (det, w, set(entries)) == expected[g]
                on_host = {e for e in expected[g][2] if e[0] in host_of[g]}
                assert {(u, h) for u, h, _ in on_host} == set(host)
                assert all(not any(c) for _, _, c in on_host)
                assert set(cross) == expected[g][2] - on_host
            else:
                assert det * w == expected[g][0] * expected[g][1] and set(entries) == expected[g][2]
                assert not cross


@pytest.mark.parametrize("name", ["quintic", "cube", "example_s3"])
def test_c2_dot_matches_edge_loop_oracle(name):
    delta = hull(fixture_points(name))
    form = IntersectionForm(mpcp_triangulate(delta))
    oracle = MemoIntersectionForm(form.fan)
    divisors = [WeilDivisor.anticanonical(form.fan)] + [WeilDivisor.ray(r) for r in form.rays]
    for d in divisors:
        assert c2_dot(delta, form, d) == memo_c2_dot(oracle, d)


def _random_divisor(rng, rays, size):
    return WeilDivisor.from_dict(
        {r: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5)) for r in rng.sample(rays, size)}
    )


def test_intersection_number_matches_memo_oracle_on_sparse_divisors(forms):
    rng = random.Random(23)
    for form, oracle in forms:
        for _ in range(25):
            ds = [_random_divisor(rng, form.rays, rng.randint(1, 3)) for _ in range(4)]
            assert intersection_number(form, *ds) == memo_intersection_number(
                oracle, *ds, path="sparse"
            )


def test_intersection_number_matches_memo_oracle_on_dense_mixes(forms):
    rng = random.Random(29)
    for form, oracle in forms:
        mk = WeilDivisor.anticanonical(form.fan)
        for _ in range(6):
            ds = [mk, Fraction(rng.randint(1, 3), 2) * mk + _random_divisor(rng, form.rays, 2)]
            ds += [_random_divisor(rng, form.rays, len(form.rays)) for _ in range(2)]
            rng.shuffle(ds)
            assert intersection_number(form, *ds) == memo_intersection_number(
                oracle, *ds, path="dense"
            )


# -- c2 pairings ---------------------------------------------------------------------


def test_c2_quintic_hyperplane_matches_series_oracle(quintic, p4_form):
    oracle = series_c2_quintic()
    assert oracle == 50
    value = c2_dot(quintic, p4_form, WeilDivisor.ray(npt(1, 0, 0, 0)))
    assert value == oracle


def test_c2_cube_matches_monomial_oracle(cube4, cross_form):
    oracle = series_c2_cube_hypersurface()
    assert oracle == 24
    value = c2_dot(cube4, cross_form, WeilDivisor.ray(npt(1, 0, 0, 0)))
    assert value == oracle


def test_c2_zero_divisor(quintic, p4_form):
    assert c2_dot(quintic, p4_form, WeilDivisor.zero()) == 0


def test_c2_linearity(example_s3, example_form):
    rng = random.Random(3)
    rays = example_form.rays
    for _ in range(10):
        a = WeilDivisor.ray(rng.choice(rays), rng.randint(-2, 3))
        b = WeilDivisor.ray(rng.choice(rays), rng.randint(1, 3))
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        combo = alpha * a + beta * b
        lhs = c2_dot(example_s3, example_form, combo)
        rhs = alpha * c2_dot(example_s3, example_form, a) + beta * c2_dot(
            example_s3, example_form, b
        )
        assert lhs == rhs


def test_c2_anticanonical_positive(example_s3, quintic, cube4, example_form, p4_form, cross_form):
    pairs = [(example_s3, example_form), (quintic, p4_form), (cube4, cross_form)]
    for delta, form in pairs:
        mk = WeilDivisor.anticanonical(form.fan)
        assert c2_dot(delta, form, mk) > 0


def test_c2_quintic_anticanonical_value(quintic, p4_form):
    # -K restricts to 5H so the pairing is 5 * 50
    mk = WeilDivisor.anticanonical(p4_form.fan)
    assert c2_dot(quintic, p4_form, mk) == 250


def test_c2_cube_anticanonical_value(cube4, cross_form):
    # eight ray classes each pairing to 24
    mk = WeilDivisor.anticanonical(cross_form.fan)
    assert c2_dot(cube4, cross_form, mk) == 8 * 24


def test_intersection_number_dense_matches_sparse(quintic, p4_form):
    # -K = 5H on the quintic ambient: (-K)^4 = 625 H^4
    mk = WeilDivisor.anticanonical(p4_form.fan)
    assert intersection_number(p4_form, mk, mk, mk, mk) == 625


def test_c2_rejects_wrong_fan(example_s3, quintic):
    # a fan from another polytope, and face fans short of the 200 and 125
    # boundary points of their duals, are refused on every call
    delta = ray_simplex((1, 1, 1, 4))
    coarse = face_fan(delta)
    assert coarse.is_simplicial and len(coarse.rays) == 5
    mirror = quintic.dual()
    cases = [
        (example_s3, mpcp_triangulate(quintic), "fan was not built from this polytope"),
        (delta, coarse, "not the full crepant refinement"),
        (mirror, face_fan(mirror), "not the full crepant refinement"),
    ]
    for poly, fan, message in cases:
        for fan_or_form in (fan, IntersectionForm(fan), fan):
            with pytest.raises(InputError, match=message):
                c2_dot(poly, fan_or_form, WeilDivisor.anticanonical(fan))
            with pytest.raises(InputError, match=message):
                curve_census(poly, fan)


def test_divisor_off_the_fan_is_refused(quintic, p4_form):
    # (1, 1, 0, 0) is no ray of the quintic's refinement (its rays are the
    # five vertices of the dual simplex)
    fan = p4_form.fan
    off = WeilDivisor.ray(npt(1, 1, 0, 0)) + WeilDivisor.ray(fan.rays[0])
    mk = WeilDivisor.anticanonical(fan)
    refusals = [
        lambda: is_nef(fan, off),
        lambda: is_qcartier(fan, off),
        lambda: intersection_number(p4_form, off, mk, mk, mk),
        lambda: c2_dot(quintic, p4_form, off),
    ]
    for refusal in refusals:
        with pytest.raises(InputError):
            refusal()


def test_divisor_from_the_other_lattice_is_refused():
    # an M point with a fan ray's coordinates compares and hashes like that
    # ray, yet names no divisor of the fan
    delta = hull(fixture_points("cross4d"))
    form = IntersectionForm(mpcp_triangulate(delta))
    fan = form.fan
    wrong = WeilDivisor.ray(MPoint(tuple(fan.rays[0])))
    mk = WeilDivisor.anticanonical(fan)
    refusals = [
        lambda: is_nef(fan, wrong),
        lambda: is_qcartier(fan, wrong),
        lambda: c2_dot(delta, form, wrong),
        lambda: intersection_number(form, wrong, mk, mk, mk),
    ]
    for refusal in refusals:
        with pytest.raises(InputError, match="which is not a fan ray"):
            refusal()


def test_c2_audit_checks_the_refinement_once(monkeypatch):
    # the wp(1,1,1,1,4) mirror: 200 rays, so 201 pairings and one audit
    delta = ray_simplex((1, 1, 1, 4))
    form = IntersectionForm(mpcp_triangulate(delta))
    calls = []
    boundary_points = Polytope.boundary_points

    def counted(self):
        calls.append(self)
        return boundary_points(self)

    monkeypatch.setattr(Polytope, "boundary_points", counted)
    mk = WeilDivisor.anticanonical(form.fan)
    values, audits = c2_audit(delta, form, [("-K", mk)])
    assert len(values) == 201 and len(audits) == 1
    assert calls == []  # the refinement settled its fineness once when built
    with pytest.raises(InputError):
        c2_dot(hull(fixture_points("quintic")), form, mk)
    curve_census(delta, form.fan)
    assert calls == []


# -- curve census --------------------------------------------------------------------


def test_curve_census_cube_all_smooth(cube4):
    f = mpcp_triangulate(cube4)
    census = curve_census(cube4, f)
    assert len(census.entries) == 24
    assert all(e.kind is CurveClass.SMOOTH_SECTION for e in census.entries)
    assert census.uncovered == frozenset()


def test_curve_census_cross_empty_rule(cross4):
    # the dual is the cube; every edge touching a facet-interior point is empty
    f = mpcp_triangulate(cross4)
    census = curve_census(cross4, f)
    classified = hodge.classify_boundary(cross4.dual())
    for entry in census.entries:
        a, b = entry.edge
        if (
            classified[a] is hodge.PointType.IN_3FACE
            or classified[b] is hodge.PointType.IN_3FACE
        ):
            assert entry.kind is CurveClass.EMPTY


def test_curve_census_example_vertices_only(example_s3):
    f = mpcp_triangulate(example_s3)
    census = curve_census(example_s3, f)
    kinds = {e.kind for e in census.entries}
    assert CurveClass.EMPTY not in kinds or all(
        e.face_dim == 3 for e in census.entries if e.kind is CurveClass.EMPTY
    )
    assert census.uncovered == frozenset()
    # all endpoints are vertices of the dual here
    classified = hodge.classify_boundary(example_s3.dual())
    assert all(kind is hodge.PointType.VERTEX for kind in classified.values())


def test_c2_vanishes_on_divisors_missing_the_hypersurface(cross4):
    # rays interior to dual facets lie over the deepest torus-fixed points,
    # which a generic anticanonical section avoids entirely
    fan = mpcp_triangulate(cross4)
    form = IntersectionForm(fan)
    classified = hodge.classify_boundary(cross4.dual())
    mk = WeilDivisor.anticanonical(fan)
    skipped = [p for p, kind in classified.items() if kind is hodge.PointType.IN_3FACE]
    assert len(skipped) == 8
    for p in skipped:
        d = WeilDivisor.ray(p)
        assert c2_dot(cross4, form, d) == 0
        assert intersection_number(form, d, mk, mk, mk) == 0


def assert_riemann_roch(form):
    """The MPCP hypersurface X of a 4-polytope is a smooth threefold that
    misses the ambient's point singularities, so every ray divisor D
    restricts to a Cartier divisor on it: D^3 . X and c2 . D are integers,
    and so is chi(O_X(D)) = D^3 / 6 + c2 . D / 12 (Hirzebruch-Riemann-
    Roch), that is 2 D^3 + c2 . D = 0 mod 12.  D^3 . X starts from
    D . V(0) = W(D), the class of D's own ray, so each ray sweeps its star
    only; c2 . D is the form's sweep over all rays at once."""
    numerators, den = form._c2_rays
    for i, n in enumerate(numerators):
        c2 = Fraction(n, den)
        ray = ({i: 1}, 1)
        cube = form._degree([ray, ray, form._all_rays], ({(i,): 1}, 1))
        assert cube.denominator == 1 and c2.denominator == 1, form.rays[i]
        assert (2 * cube + c2) % 12 == 0, form.rays[i]


@pytest.mark.parametrize(
    "make, chi",
    [
        (lambda: hull(fixture_points("example_s3")), -96),
        (lambda: hull(fixture_points("quintic")), -200),
        (lambda: hull(fixture_points("cube")), -128),
        (lambda: hull(fixture_points("cross4d")), 128),
        (lambda: ray_simplex((1, 2, 2, 2)), 168),  # mirror of wp(1,1,2,2,2): 86/2
    ],
    ids=["example_s3", "quintic", "cube", "cross4d", "wp11222_mirror"],
)
def test_euler_characteristic_from_the_ring_matches_batyrev(make, chi):
    delta = make()
    assert hodge.report(delta).euler == chi
    form = IntersectionForm(mpcp_triangulate(delta))
    assert euler_characteristic(form) == chi
    assert_riemann_roch(form)


def test_euler_characteristic_on_all_weighted_ray_simplices():
    # refine the side whose rays are the simplex's own points (at most 34)
    simplices = weighted_ray_simplices()
    assert len(simplices) == 69
    for simplex in simplices:
        delta = simplex.dual()
        rep = hodge.report(delta)
        assert euler_characteristic(mpcp_triangulate(delta)) == 2 * (rep.h11 - rep.h12), simplex


def test_euler_characteristic_on_weighted_mirror_sides():
    # refine the ray simplex itself: its rays are the boundary points of the
    # large dual, here the 51 sides with at most 220 of them
    sides = [s for s in weighted_ray_simplices() if len(s.dual().boundary_points()) <= 220]
    assert len(sides) == 51
    for simplex in sides:
        rep = hodge.report(simplex)
        form = IntersectionForm(mpcp_triangulate(simplex))
        assert euler_characteristic(form) == 2 * (rep.h11 - rep.h12), simplex
        assert_riemann_roch(form)


def test_invariants_under_unimodular_shears():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def invariants(delta):
        # cone counts and multiplicities are left out: pulling breaks ties
        # lexicographically, so a moved input may get another fine triangulation
        rep, dual_rep = hodge.report(delta), hodge.report(delta.dual())
        assert (dual_rep.h11, dual_rep.h12) == (rep.h12, rep.h11)
        fan = mpcp_triangulate(delta)
        form = IntersectionForm(fan)
        mk = WeilDivisor.anticanonical(fan)
        return (
            rep.h11,
            rep.h12,
            euler_characteristic(form),
            c2_dot(delta, form, mk),
            intersection_number(form, mk, mk, mk, mk),
            picard_rank_q(fan),
            picard_rank_q(face_fan(delta)),
        )

    expected = {name: invariants(hull(fixture_points(name))) for name in ("example_s3", "cube")}

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(sorted(expected)), st.lists(transvection(), min_size=1, max_size=4))
    def run(name, steps):
        rows = [tuple(v) for v in fixture_points(name)]
        assert invariants(hull(mpoints(shear(rows, steps)))) == expected[name]

    run()


def test_intersection_form_rejects_wrong_dimension(square):
    fan2d = mpcp_triangulate(square)
    with pytest.raises(InputError):
        IntersectionForm(fan2d)


def test_chern_report_smoke(quintic):
    f = mpcp_triangulate(quintic)
    rep = chern_report(quintic, f)
    values = dict(rep.c2_values)
    assert values["-K"] == 250
    audit = rep.positivity[0]
    assert audit.nef and audit.c2_value > 0 and audit.restricted_degree == 625


def test_refinement_form_and_curve_census_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for name in ("cross4d", "quintic"):
            delta = hull(fixture_points(name))
            refined = mpcp_triangulate(delta)
            IntersectionForm(refined)
            curve_census(delta, refined)
        del delta, refined
        assert gc.collect() == 0
    finally:
        gc.enable()
