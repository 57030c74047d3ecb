import functools
import hashlib
import importlib.resources as resources
import itertools
import json
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from click.testing import CliRunner

from cytoric import _linalg
from cytoric import fan as fan_module
from cytoric.chern import IntersectionForm
from cytoric.cli import main
from cytoric.errors import InputError, NotReflexiveError, NotSimplicialError
from cytoric.fan import (
    Cone,
    Fan,
    WeilDivisor,
    _facet_points,
    _pull_triangulate_facet,
    _validate_mpcp,
    face_fan,
    is_nef,
    is_qcartier,
    mpcp_triangulate,
    picard_rank_q,
    singularity_census,
)
from cytoric.fixtures import ALL, CORPUS_4D, POLYGONS, fixture_points, fixture_polytope
from cytoric.lattice import NPoint
from cytoric.polytope import hull
from conftest import mpoints, ray_simplex, shear
from oracles import fraction_cartier_index, fraction_is_nef, fraction_picard_rank, pull_every_cell


def npt(*coords):
    return NPoint(coords)


def multiplicity(*rays):
    # a cone's multiplicity is its |det| in the fan's dual-basis table
    return Fan([Cone(rays)], "face", None).dets[0]


def non_simplicial(fan):
    # the cones whose first d independent rays are not all their rays
    return [c for c, (basis, _, _) in zip(fan.maximal_cones, fan.bases) if len(basis) < len(c.rays)]


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
    big = non_simplicial(example_face_fan)
    assert len(big) == 1
    assert set(big[0].rays) == {
        npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0),
        npt(0, 0, 0, 1), npt(1, 1, 1, -2),
    }


def test_face_fan_cube_is_cross_fan(cube4):
    f = face_fan(cube4)
    assert len(f.maximal_cones) == 16
    assert f.is_simplicial
    assert f.dets == (1,) * 16


def test_face_fan_quintic(p4_fan):
    assert len(p4_fan.maximal_cones) == 5
    assert p4_fan.is_simplicial
    assert p4_fan.dets == (1,) * 5


def test_face_fan_rejects_non_reflexive():
    double = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    with pytest.raises(NotReflexiveError):
        face_fan(double)


def test_face_fan_wall_consistency(example_face_fan, p4_fan):
    # walls are walked on a simplicial fan only: the example's face fan
    # has a cone of five rays
    with pytest.raises(NotSimplicialError):
        example_face_fan.wall_consistency()
    assert p4_fan.wall_consistency()


# -- cone multiplicities ---------------------------------------------------------


def test_cone_mult_identity():
    assert multiplicity(npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, 1, 0), npt(0, 0, 0, 1)) == 1


def test_cone_mult_example_singular_chart():
    assert multiplicity(npt(1, 0, 0, 0), npt(0, 1, 0, 0), npt(0, 0, -1, 0), npt(1, 1, 1, -2)) == 2


def test_cone_mult_2d():
    assert multiplicity(NPoint((1, 0)), NPoint((1, 2))) == 2


def test_cone_mult_rejects_non_simplicial(example_face_fan):
    [big] = non_simplicial(example_face_fan)
    with pytest.raises(NotSimplicialError):
        multiplicity(*big.rays)


# -- MPCP refinement -------------------------------------------------------------


def test_mpcp_example_16_cones(example_mpcp):
    assert len(example_mpcp.maximal_cones) == 16
    assert len(example_mpcp.rays) == 8


def test_mpcp_example_census_8_z2_points(example_mpcp):
    census = singularity_census(example_mpcp)
    assert len(census) == 8
    assert all(mult == 2 for _, mult in census)


def test_mpcp_example_splits_inside_the_big_cone(example_mpcp, example_face_fan):
    [big] = non_simplicial(example_face_fan)
    big_rays = set(big.rays)
    cones = zip(example_mpcp.maximal_cones, example_mpcp.dets)
    mults = sorted(m for c, m in cones if set(c.rays) <= big_rays)
    assert mults == [1, 2]


def test_mpcp_lex_order_knob(example_s3):
    # plain lexicographic pulling produces the other valid fine split of the
    # bipyramid facet: three smooth cones around the interior edge
    dual = example_s3.dual()
    cones = [
        Cone._from_rays(simplex)
        for facet, points in _facet_points(dual)
        for simplex in _pull_triangulate_facet(dual, facet, sorted(points, key=tuple))
    ]
    f = Fan(cones, "mpcp", example_s3)
    _validate_mpcp(f)
    assert len(f.maximal_cones) == 17
    census = singularity_census(f)
    assert len(census) == 7
    assert sum(f.dets) == 24


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
            assert min(_linalg.dot(x, ray) for x in delta.vertices) == -1


def test_mpcp_refines_face_fan(example_s3):
    # each cone's rays share a facet bit: the cone lies in a facet's cone
    f = mpcp_triangulate(example_s3)
    census = example_s3.dual().census()
    for cone in f.maximal_cones:
        assert functools.reduce(int.__and__, (census.face_of[r] for r in cone.rays))


def test_mpcp_volume_conservation(example_s3, cube4, quintic, square):
    for delta in (example_s3, cube4, quintic, square):
        f = mpcp_triangulate(delta)
        dual = delta.dual()
        assert sum(f.dets) == dual.normalized_volume()


def cone_digest(fan):
    cones = sorted(tuple(tuple(r) for r in c.rays) for c in fan.maximal_cones)
    return hashlib.sha256(repr(cones).encode()).hexdigest()


# (weights, number of cones, sha256) for mpcp_triangulate(ray_simplex(w)):
# the mirrors of wp(1,1,1,1,4), of the h11 = 272 and of the h11 = 491
# hypersurface
GOLDEN_MIRRORS = (
    ((1, 1, 1, 4), 1012, "f16b314204b6e42bbb8cf3575bc28c10deaf9587b85d3f7b28b2f4a1f507d700"),
    ((1, 1, 6, 9), 1886, "e41b8b1041c4cd084a3ed15c1b9cec6fc557b38eb8ad824319f3e52a5170479c"),
    ((1, 12, 28, 42), 3035, "86137acffd699416ddd303072bcf435cd74f24647619e2c9a9b69efcd4973086"),
)

# the same for mpcp_triangulate(ray_simplex(w).dual()): each of these
# simplices has a facet with two or more interior points, so later points
# are pulled inside pyramid cells, not on faces of the facet
GOLDEN_SIMPLICES = (
    ((1, 12, 28, 42), 84, "e407f09bec87e677476f31eaa39e7fa1444eab3356e8bb1330efce9e7491c8be"),
    ((6, 6, 26, 39), 73, "973dc7e0e6b892dcefc8637c074d0ff56735f42e11439a1568011c2ab7c1e1ed"),
    ((10, 10, 14, 35), 63, "3b56ccb7c5dd5001d8579058993a09718adca7cb2f7dea347e8289ea90b6ec0d"),
    ((2, 6, 18, 27), 52, "01b22138ddf18ab66fef3d7413152c58586349ec1d1b710b316e8e8f3ee597f9"),
    ((3, 8, 24, 36), 67, "f04adfb00020d1c77c990d12e2a2624b32bdaad4e55a25bd19893438398727ba"),
    ((5, 12, 12, 30), 58, "45848cb4906ab9545119f2b8f1a051ddd43a53a04f409896a0a1a09393106be1"),
    ((1, 4, 12, 18), 36, "3d306b2578531e9da6efbe8ae34b0f5ef127c17e11fb2ee4aa8aca6e02ed0a12"),
    ((1, 6, 16, 24), 48, "38b62eeefe3a5b7aaef7ba3227bcf628a7dd616b758150653d8b6b7bfc6d1b61"),
    ((2, 9, 24, 36), 69, "d4dc34a7dd39fc8e4aa3a7ecdf59f236e992f90ad8d96ca0480ead1f840e3c1a"),
    ((3, 3, 14, 21), 40, "a316b25e44399785865efc940fc28bed6c0969a652a8e95cbb72570d05aded8c"),
    ((6, 7, 28, 42), 75, "8cfeca01538b00e3c11d01940d24faa4ebc9812f179befdb1e3693dc9c846eb1"),
    ((2, 2, 10, 15), 29, "a3beb5e638071c97502aa8c659b38ddb8870622781280ae597db9250a827d62c"),
)


@pytest.fixture(scope="module")
def mirror_mpcps():
    """The GOLDEN_MIRRORS refinements, by weights."""
    return {w: mpcp_triangulate(ray_simplex(w)) for w, _, _ in GOLDEN_MIRRORS}


def test_mpcp_golden_cone_lists(cross4d_mpcp, example_mpcp, wp11222_mpcp, mirror_mpcps):
    # sha256 of the sorted maximal-cone ray tuples, recorded when cells were
    # still hulled in facet charts; any change to the refinement must
    # reproduce the same triangulation, not merely an equivalent one
    golden = [
        (cross4d_mpcp, 384, "721ff25aad065c7d6eb9307a026b0e860885290e1255b57d945ba5d6e9c2c02b"),
        (example_mpcp, 16, "a9cb04acfcd5786b24e2b0ec6f8d51effbf1bf31f76b5821351424a9f27f4130"),
        (wp11222_mpcp, 488, "952cf14217d1a21f1dd787d4b47efbfec000c3580fee5678479a27231f4fde13"),
    ]
    golden += [(mirror_mpcps[w], n, h) for w, n, h in GOLDEN_MIRRORS]
    golden += [(mpcp_triangulate(ray_simplex(w).dual()), n, h) for w, n, h in GOLDEN_SIMPLICES]
    for fan, n_cones, digest in golden:
        assert len(fan.maximal_cones) == n_cones
        assert cone_digest(fan) == digest


def test_pulling_matches_every_cell_oracle():
    # the conflict lists visit only the cells holding each point; the
    # oracle tests every point against every cell.  cross4d's facets are
    # cubes, so its cells are not simplices and the ridge test runs
    sources = [fixture_polytope(name).dual() for name in ALL]  # all reflexive
    sources += [ray_simplex(w) for w, _, _ in GOLDEN_SIMPLICES]
    for dual in sources:
        for facet, points in _facet_points(dual):
            for order in (points, sorted(points, key=tuple)):  # incidence, lex
                cells = _pull_triangulate_facet(dual, facet, order)
                assert len(set(cells)) == len(cells)
                assert set(cells) == pull_every_cell(dual, facet, order)


def test_validate_mpcp_rejects_broken_refinements(cube4, cube_mpcp, quintic):
    dual = cube4.dual()
    cones = list(cube_mpcp.maximal_cones)
    e = [npt(*(int(i == j) for j in range(4))) for i in range(4)]
    flat = Cone((e[0], npt(-1, 0, 0, 0), e[1], e[2]))
    broken = [
        (cones[1:] + [flat], "not full-dimensional"),  # det 0: four rays in a 3-space
        (cones[1:], "wall consistency"),  # one cone removed
    ]
    for maximal_cones, message in broken:
        fan = Fan(maximal_cones, "mpcp", cube4)
        assert set(fan.rays) == set(dual.boundary_points())
        with pytest.raises(InputError, match=message):
            _validate_mpcp(fan)
    # the mirror quintic's face fan has the five vertices of the quintic
    # polytope as rays, not its other 120 boundary points
    with pytest.raises(InputError, match="not fine"):
        _validate_mpcp(face_fan(quintic.dual()))


def test_incomplete_fan_is_refused(cube4, cube_mpcp):
    # one cone removed leaves four walls with a single incident cone
    fan = Fan(cube_mpcp.maximal_cones[1:], "mpcp", cube4)
    with pytest.raises(InputError, match="fan is not complete"):
        IntersectionForm(fan)
    with pytest.raises(InputError, match="fan is not complete"):
        is_nef(fan, WeilDivisor.anticanonical(fan))


def test_refinement_rejects_a_cell_pulled_twice(cube4, cube_mpcp, monkeypatch):
    # a duplicated cell puts three cones on each of its walls and covers
    # its volume twice, in a hand-built fan and out of the pulling itself
    cones = list(cube_mpcp.maximal_cones)
    with pytest.raises(InputError, match="wall consistency"):
        _validate_mpcp(Fan(cones + cones[:1], "mpcp", cube4))
    pulled = []

    def twice_first(*args):
        cells = _pull_triangulate_facet(*args)
        if not pulled:
            pulled.append(cells[0])
            cells = cells + cells[:1]
        return cells

    monkeypatch.setattr(fan_module, "_pull_triangulate_facet", twice_first)
    with pytest.raises(InputError, match="wall consistency"):
        mpcp_triangulate(cube4)
    assert len(pulled) == 1


def test_refinement_takes_one_dual_basis_per_cone(monkeypatch):
    calls = {"matrix_rank": 0, "int_det": 0, "dual_basis": 0}

    def counted(name):
        original = getattr(fan_module, name, None)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fan_module, name, counted(name), raising=False)
    fan = mpcp_triangulate(fixture_polytope("cross4d"))
    assert singularity_census(fan) == []
    assert picard_rank_q(fan) == len(fan.rays) - 4
    assert is_nef(fan, WeilDivisor.anticanonical(fan))
    assert len(fan.maximal_cones) == 384
    assert calls == {"matrix_rank": 0, "int_det": 0, "dual_basis": 384}


def test_dual_bases_of_a_four_dimensional_fan_take_no_elimination(cross4d_mpcp, monkeypatch):
    # the 4 x 4 adjugates are closed-form cofactors, not Bareiss eliminations
    calls = []
    eliminate = _linalg._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(_linalg, "_eliminate", counted)
    fan = Fan(cross4d_mpcp.maximal_cones, "mpcp", cross4d_mpcp.base)
    bases = fan.bases
    assert calls == []
    assert len(bases) == 384
    for cone, (basis, det, ns) in zip(fan.maximal_cones, bases):
        assert basis == (0, 1, 2, 3) and det > 0
        assert [[sum(map(mul, n, r)) for r in cone.rays] for n in ns] == [
            [det * (i == j) for j in range(4)] for i in range(4)
        ]


def test_star_matches_every_cone_subset(p4_fan, example_mpcp, cross4d_mpcp, wp11222_mpcp):
    # walls, each wall's ray off it in its second cone, and edges against
    # the subsets of every maximal cone; the fan keeps no star of its faces
    assert not hasattr(Fan, "star")
    fans = [p4_fan, example_mpcp, cross4d_mpcp, wp11222_mpcp]
    fans += [face_fan(fixture_polytope(name)) for name in POLYGONS]
    for fan in fans:
        expected = {}
        for c, cone in enumerate(fan.maximal_cones):
            top = tuple(map(fan.ray_index, cone.rays))
            assert fan.cones[c] == top
            for k in range(1, fan.dim):
                for g in itertools.combinations(top, k):
                    expected.setdefault(g, []).append(c)
        assert fan.walls() == {g: tuple(c) for g, c in expected.items() if len(g) == fan.dim - 1}
        walls, off, _ = fan._wall_walk
        for wall, (_, cj) in walls.items():
            assert {off[wall]} == set(fan.cones[cj]) - set(wall)
        pairs = {(a, b) for cone in fan.maximal_cones for a, b in itertools.combinations(cone.rays, 2)}
        assert fan.edges() == sorted(pairs)


def test_form_table_has_one_entry_per_face_and_link_ray():
    # the form's one pass over the maximal cones gives each proper face h
    # of a maximal cone len(h) entries, host and cross links together, one
    # on each face h - u (on the origin for a ray), and each maximal cone
    # 4; no face links a ray twice, and the fan keeps no pairing memo for
    # the form or the wall relations to fill
    assert not hasattr(Fan, "pairings")
    for delta in (fixture_polytope("cross4d"), ray_simplex((1, 1, 1, 4))):
        fan = mpcp_triangulate(delta)
        form = IntersectionForm(fan)
        assert is_nef(fan, WeilDivisor.anticanonical(fan))
        assert not hasattr(fan, "_pairings")
        faces = {g for top in fan.cones for k in range(1, 4) for g in itertools.combinations(top, k)}
        tables = form._cones.values()
        assert sum(len(host) + len(cross) for _, _, host, cross in tables) == (
            sum(map(len, faces)) + 4 * len(fan.cones)
        )
        for _, _, host, cross in tables:
            links = [u for u, _ in host] + [u for u, _, _ in cross]
            assert len(set(links)) == len(links)


def test_mpcp_wall_consistency(example_mpcp, cube_mpcp):
    assert example_mpcp.wall_consistency()
    assert cube_mpcp.wall_consistency()


def test_singularity_census_smooth_fans(cube_mpcp, p4_fan):
    assert singularity_census(cube_mpcp) == []
    assert singularity_census(p4_fan) == []


# -- divisors ------------------------------------------------------------------------


def test_divisor_difference_and_right_scaling(p4_fan):
    d = WeilDivisor.from_dict({p4_fan.rays[0]: 3, p4_fan.rays[2]: Fraction(-1, 2)})
    e = WeilDivisor.from_dict({p4_fan.rays[2]: 1, p4_fan.rays[4]: 2})
    assert d - e == d + (-e) != d + e
    assert d - d == WeilDivisor.zero()
    assert d * 2 == 2 * d == d + d
    with pytest.raises(InputError):
        d - 1


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
        for r in rng.sample(fan.rays, rng.randint(1, min(4, len(fan.rays)))):
            d = d + WeilDivisor.ray(r, rng.choice((-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2))))
        out.append(d)
    return out


def test_qcartier_index_matches_fraction_reference(example_face_fan, quintic, example_mpcp, cross4d_mpcp):
    # the mirror quintic's face fan is P4/(Z5)^3: simplicial, every cone of
    # multiplicity 125, every ray divisor of Cartier index 5; the example's
    # refinement keeps cones of multiplicity 2
    mirror_fan = face_fan(quintic.dual())
    assert set(mirror_fan.dets) == {125}
    for r in mirror_fan.rays:
        assert is_qcartier(mirror_fan, WeilDivisor.ray(r)) == (True, 5)
    for fan in (mirror_fan, example_face_fan, example_mpcp, cross4d_mpcp):
        divisors = [WeilDivisor.anticanonical(fan)]
        divisors += [WeilDivisor.ray(r) for r in fan.rays]
        divisors += seeded_divisors(fan, 41, 20)
        indices = set()
        for d in divisors:
            index = fraction_cartier_index(fan, d)
            assert is_qcartier(fan, d) == (index is not None, index)
            indices.add(index)
        if fan is example_mpcp:
            assert {1, 2} <= indices


def _ints_only(fn):
    """fn, asserting that every number in its matrix and vector arguments,
    before and after the call (`_eliminate` works in place), and in its
    result is an int."""

    def check(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                check(y)
        else:
            assert x is None or type(x) is int, f"{fn.__name__} saw {x!r}"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        arrays = [a for a in args if isinstance(a, (list, tuple))]
        check(arrays)
        out = fn(*args, **kwargs)
        check(arrays)
        check(out)
        return out

    return wrapped


def test_divisor_audits_hand_the_kernel_ints_only(monkeypatch, example_face_fan, quintic):
    # the Bareiss kernel, and the kernel calls fan makes and reads back:
    # rational divisor coefficients are cleared before they reach either
    monkeypatch.setattr(_linalg, "_eliminate", _ints_only(_linalg._eliminate))
    for name in ("matrix_rank", "pivot_columns", "dual_basis"):
        monkeypatch.setattr(fan_module, name, _ints_only(getattr(fan_module, name)))
    fans = [example_face_fan, face_fan(quintic.dual()), face_fan(fixture_polytope("cross4d"))]
    fans += [face_fan(fixture_polytope(name)) for name in POLYGONS]
    for fan in fans:
        picard_rank_q(fan)
        for d in seeded_divisors(fan, 41, 8):
            is_qcartier(fan, d)
    path = str(resources.files("cytoric.fixtures").joinpath("quintic.poly"))
    result = CliRunner().invoke(main, ["--json", "fan", "nef", "--divisor", "0=1/2", path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["cartier_index"] == 2


# -- Picard ranks ----------------------------------------------------------------------


def test_picard_rank_example(example_face_fan, example_mpcp):
    assert picard_rank_q(example_face_fan) == 3
    assert picard_rank_q(example_mpcp) == 4


def test_picard_rank_p4(p4_fan):
    assert picard_rank_q(p4_fan) == 1


def test_picard_rank_simplicial_is_rays_minus_dim(cube_mpcp, example_mpcp, p4_fan):
    for f in (cube_mpcp, example_mpcp, p4_fan):
        assert picard_rank_q(f) == len(f.rays) - f.dim


def test_picard_rank_matches_fraction_reference():
    # face fans of both sides of the 4-D fixtures and of the polygon
    # products P x Q: the face fan of P x Q is simplicial, its cones over
    # the facets of the free sum of the duals, each the join of two edges;
    # the face fan of the dual is not, as a facet E x Q has 2 |Q| vertices
    for name in CORPUS_4D:
        delta = fixture_polytope(name)
        for fan in (face_fan(delta), face_fan(delta.dual())):
            assert picard_rank_q(fan) == fraction_picard_rank(fan)
    rows = [[tuple(v) for v in fixture_points(name)] for name in POLYGONS]
    ranks, non_simplicial = set(), 0
    for p, q in itertools.combinations_with_replacement(rows, 2):
        delta = hull(mpoints([a + b for a in p for b in q]))
        for fan in (face_fan(delta), face_fan(delta.dual())):
            rank = picard_rank_q(fan)
            assert rank == fraction_picard_rank(fan)
            ranks.add(rank)
            non_simplicial += not fan.is_simplicial
    assert non_simplicial == 136
    assert ranks == set(range(1, 9))


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


def nef_by_construction(fan, seed, count):
    """Seeded c * (-K) + s * principal with c >= 0, s > 0: nef, since -K is
    nef on these fans and a principal divisor is linearly equivalent to 0."""
    rng = random.Random(seed)
    minus_k = WeilDivisor.anticanonical(fan)
    out = []
    for _ in range(count):
        m = [rng.randint(-5, 5) for _ in range(fan.dim)]
        principal = WeilDivisor.from_dict({v: sum(map(mul, m, v)) for v in fan.rays})
        c = rng.choice((0, 1, 2, 3, Fraction(1, 2), Fraction(2, 3)))
        out.append(c * minus_k + rng.choice((1, 2, Fraction(1, 2), Fraction(1, 3))) * principal)
    return out


def assert_nef_matches_oracle(fan, divisors):
    verdicts = [is_nef(fan, d) for d in divisors]
    assert verdicts == [fraction_is_nef(fan, d) for d in divisors]
    return verdicts


def test_wall_relations(p4_fan, quintic, example_mpcp, cross4d_mpcp, wp11222_mpcp, mirror_mpcps):
    fans = [p4_fan, face_fan(quintic.dual()), example_mpcp, cross4d_mpcp, wp11222_mpcp]
    fans += list(mirror_mpcps.values())
    fans += [face_fan(fixture_polytope(name)) for name in POLYGONS]
    for fan in fans:
        assert len(fan.relations) == len(fan.maximal_cones) * fan.dim // 2
        for (wall, (ci, cj)), (indices, b) in zip(fan.walls().items(), fan.relations):
            rays = [fan.rays[i] for i in indices]
            sigma, other = fan.maximal_cones[ci].rays, fan.maximal_cones[cj].rays
            assert set(rays) == set(sigma) | set(other) and set(rays[:-1]) == set(sigma)
            assert set(wall) == set(fan.cones[ci]) & set(fan.cones[cj]) and len(wall) == fan.dim - 1
            assert all(sum(x * v[k] for x, v in zip(b, rays)) == 0 for k in range(fan.dim))
            assert math.gcd(*b) == 1
            off_wall = [x for x, i in zip(b, indices) if i not in wall]
            assert len(off_wall) == 2 and min(off_wall) > 0


def test_nef_matches_oracle_on_polygon_and_mirror_quintic_face_fans(quintic):
    fans = [face_fan(fixture_polytope(name)) for name in POLYGONS]
    fans.append(face_fan(quintic.dual()))
    for seed, fan in enumerate(fans):
        minus_k = WeilDivisor.anticanonical(fan)
        divisors = [minus_k, -1 * minus_k]
        divisors += [WeilDivisor.ray(r, c) for r in fan.rays for c in (1, -1)]
        divisors += seeded_divisors(fan, seed, 12)
        verdicts = assert_nef_matches_oracle(fan, divisors)
        assert verdicts[0] and not verdicts[1]


def test_nef_by_construction(p4_fan, quintic, example_mpcp, cross4d_mpcp, wp11222_mpcp, mirror_mpcps):
    fans = [p4_fan, face_fan(quintic.dual()), example_mpcp, cross4d_mpcp, wp11222_mpcp]
    fans += [face_fan(fixture_polytope(name)) for name in POLYGONS]
    for seed, fan in enumerate(fans):
        assert all(assert_nef_matches_oracle(fan, nef_by_construction(fan, seed, 6)))
    for seed, fan in enumerate(mirror_mpcps.values()):
        assert all(is_nef(fan, d) for d in nef_by_construction(fan, seed, 6))


def test_nef_matches_oracle_on_weighted_mirrors(wp11222_mpcp, mirror_mpcps):
    # -K and every ray divisor on the 104- and 200-ray mirrors; -K and a
    # seeded sample of 20 ray divisors on the 375- and 679-ray mirrors,
    # where the all-rays oracle takes seconds per hundred divisors
    fans = [wp11222_mpcp] + list(mirror_mpcps.values())
    rng = random.Random(13)
    for fan in fans:
        rays = fan.rays if len(fan.rays) <= 200 else rng.sample(fan.rays, 20)
        divisors = [WeilDivisor.anticanonical(fan)] + [WeilDivisor.ray(r) for r in rays]
        verdicts = assert_nef_matches_oracle(fan, divisors)
        assert verdicts[0]


def test_nef_invariant_under_unimodular_shears(example_mpcp, cross4d_mpcp):
    rng = random.Random(17)
    for fan in (example_mpcp, cross4d_mpcp):
        divisors = [WeilDivisor.anticanonical(fan)] + [WeilDivisor.ray(r) for r in fan.rays]
        divisors += seeded_divisors(fan, 19, 12)
        verdicts = [is_nef(fan, d) for d in divisors]
        assert any(verdicts) and not all(verdicts)
        for _ in range(3):
            steps = [(i, j, rng.choice((-2, -1, 1, 2))) for i, j in [rng.sample(range(4), 2) for _ in range(4)]]
            moved = dict(zip(fan.rays, map(NPoint, shear([tuple(r) for r in fan.rays], steps))))
            sheared = Fan([Cone(tuple(moved[r] for r in c.rays)) for c in fan.maximal_cones], "sheared", None)
            images = [WeilDivisor.from_dict({moved[r]: c for r, c in d.coeffs}) for d in divisors]
            assert [is_nef(sheared, d) for d in images] == verdicts


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
