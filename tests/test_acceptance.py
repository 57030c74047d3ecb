"""Acceptance suite: one test per stated criterion, exact equality
throughout (no tolerances anywhere; every quantity is an integer or an
exact rational).

Criterion 1 is split in two: 1a carries the end-to-end combinatorial
pipeline on the 15-vertex worked example; 1b asserts the stated
euler/h12 values verbatim.  1b FAILS by design: the stated values
(euler -6, h12 7) contradict the example's own vertex list, whose
faithful mirror-side count gives h12 = 52 and euler = -96 (both
re-derived by independent brute-force oracles in this suite and in
tests/oracles.py).  See "Known discrepancy" in the README.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from cytoric import fixtures, hodge
from cytoric.chern import IntersectionForm, c2_dot, intersection_number
from cytoric.fan import (
    WeilDivisor,
    face_fan,
    is_nef,
    mpcp_triangulate,
    picard_rank_q,
    singularity_census,
)
from cytoric._linalg import dot
from cytoric.lattice import NPoint
from cytoric.polytope import hull
from oracles import grid_points, series_c2_cube_hypersurface, series_c2_quintic


@pytest.fixture(scope="module")
def corpus_4d():
    return {name: fixtures.fixture_polytope(name) for name in fixtures.CORPUS_4D}


@pytest.fixture(scope="module")
def corpus_fans(corpus_4d):
    return {name: mpcp_triangulate(p) for name, p in corpus_4d.items()}


@pytest.fixture(scope="module")
def polygons():
    return {name: fixtures.fixture_polytope(name) for name in fixtures.POLYGONS}


def ok(msg):
    print(f"[acceptance] {msg}: PASS")


# -- criterion 1: worked example end to end ------------------------------------------


def test_criterion_1a_example_end_to_end(corpus_4d, corpus_fans):
    delta = corpus_4d["example_s3"]
    assert len(delta.vertices) == 15
    assert delta.is_reflexive() is True

    dual = delta.dual()
    expected_dual = set()
    for i in range(4):
        for s in (1, -1):
            v = [0, 0, 0, 0]
            v[i] = s
            expected_dual.add(tuple(v))
    expected_dual.discard((0, 0, 0, -1))
    expected_dual.add((1, 1, 1, -2))
    assert {tuple(v) for v in dual.vertices} == expected_dual
    assert len(dual.vertices) == 8

    ff = face_fan(delta)
    assert len(ff.maximal_cones) == 15

    refined = corpus_fans["example_s3"]
    assert len(refined.maximal_cones) == 16
    census = singularity_census(refined)
    assert len(census) == 8
    assert all(mult == 2 for _, mult in census)

    assert picard_rank_q(ff) == 3
    assert picard_rank_q(refined) == 4

    assert hodge.h11(delta) == 4
    ok("criterion 1a (example: reflexivity, dual, fans, census, picard, h11)")


def test_criterion_1b_example_euler_h12_as_stated(corpus_4d):
    """Stated targets euler = -6 and h12 = 7.  Unattainable: the faithful
    count on this vertex list gives 52 and -96 (oracle-checked); the stated
    -6 looks like -96 with a dropped digit.  Kept red on purpose."""
    delta = corpus_4d["example_s3"]
    h12 = hodge.h12(delta)
    euler = hodge.report(delta).euler
    assert (euler, h12) == (-6, 7), (
        f"faithful values are euler={euler}, h12={h12}; the stated -6/7 "
        "contradict the example's own vertex list (see README, Known discrepancy)"
    )
    ok("criterion 1b (example: euler, h12 as stated)")


# -- criterion 2: quintic -------------------------------------------------------------


def test_criterion_2_quintic(corpus_4d, corpus_fans):
    delta = corpus_4d["quintic"]
    # oracle recomputation before asserting the goldens
    pts = grid_points([tuple(v) for v in delta.vertices])
    assert len(pts) == 126
    assert sum(1 for s in pts.values() if len(s) == 1) == 20
    assert series_c2_quintic() == 50

    assert hodge.h11(delta) == 1
    assert hodge.h12(delta) == 101
    assert hodge.report(delta).euler == -200
    fan = corpus_fans["quintic"]
    h = WeilDivisor.ray(NPoint((1, 0, 0, 0)))
    assert c2_dot(delta, fan, h) == 50
    ok("criterion 2 (quintic: h11=1, h12=101, euler=-200, c2.H=50)")


# -- criterion 3: cube / cross-polytope pair ---------------------------------------------


def test_criterion_3_cube_cross_pair(corpus_4d, corpus_fans):
    cube = corpus_4d["cube"]
    cross = corpus_4d["cross4d"]
    assert series_c2_cube_hypersurface() == 24

    assert hodge.h11(cube) == 4
    assert hodge.h12(cube) == 68
    assert hodge.report(cube).euler == -128
    fan = corpus_fans["cube"]
    assert c2_dot(cube, fan, WeilDivisor.ray(NPoint((1, 0, 0, 0)))) == 24

    # mirror exchange both ways
    assert hodge.h11(cube) == hodge.h12(cross)
    assert hodge.h12(cube) == hodge.h11(cross)
    ok("criterion 3 (cube/cross pair: h11=4, h12=68, euler=-128, c2.D=24, mirror)")


# -- criterion 4: property suite ---------------------------------------------------------


def test_criterion_4_properties(corpus_4d, corpus_fans, polygons):
    everything = {**corpus_4d, **polygons}

    # duality involution on vertex sets, via fresh hulls
    for name, p in everything.items():
        back = hull(list(p.dual().vertices)).dual()
        assert back.vertex_set == p.vertex_set, name

    # point-census partition identity
    for name, p in everything.items():
        census = p.census()
        total = census.n_saturating[0] + sum(census.n_saturating[f.fmask] for f in p.faces())
        assert total == len(census.face_of), name

    # volume conservation for every refined fan
    for name, p in everything.items():
        fan = corpus_fans.get(name) or mpcp_triangulate(p)
        dual = p.dual()
        assert sum(fan.dets) == dual.normalized_volume(), name

        # fineness, refinement, crepancy
        census = dual.census()
        assert set(fan.rays) == set(dual.boundary_points()), name
        for cone in fan.maximal_cones:  # its rays share a facet bit
            assert functools.reduce(int.__and__, (census.face_of[r] for r in cone.rays)), name
        for ray in fan.rays:
            assert min(dot(x, ray) for x in p.vertices) == -1, name
        assert fan.wall_consistency(), name

    # intersection-form symmetry and functional-relation annihilation
    rng = random.Random(2024)
    forms = [IntersectionForm(corpus_fans[n]) for n in ("example_s3", "cube", "quintic")]
    checked = 0
    for form in forms:
        rays = form.rays
        for _ in range(40):
            quad = tuple(rng.choice(rays) for _ in range(4))
            base = form.value(quad)
            for perm in itertools.permutations(quad):
                assert form.value(perm) == base
            m = [rng.randint(-3, 3) for _ in range(4)]
            rel = WeilDivisor.from_dict(
                {r: sum(a * b for a, b in zip(m, r)) for r in rays}
            )
            picks = [WeilDivisor.ray(rng.choice(rays)) for _ in range(3)]
            assert intersection_number(form, rel, *picks) == 0
            checked += 1
    assert checked >= 100

    # c2 linearity on random rational combinations
    delta = corpus_4d["example_s3"]
    form = IntersectionForm(corpus_fans["example_s3"])
    for _ in range(10):
        a = WeilDivisor.ray(rng.choice(form.rays), rng.randint(-2, 3))
        b = WeilDivisor.ray(rng.choice(form.rays), rng.randint(1, 3))
        alpha = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        lhs = c2_dot(delta, form, alpha * a + beta * b)
        rhs = alpha * c2_dot(delta, form, a) + beta * c2_dot(delta, form, b)
        assert lhs == rhs
    ok("criterion 4 (property suite: involution, partition, volume, fineness, form laws)")


# -- criterion 5: positivity shadow --------------------------------------------------------


def test_criterion_5_positivity(corpus_4d, corpus_fans):
    violations = []
    for name, delta in corpus_4d.items():
        fan = corpus_fans[name]
        form = IntersectionForm(fan)
        minus_k = WeilDivisor.anticanonical(fan)
        value = c2_dot(delta, form, minus_k)
        if not value > 0:
            violations.append((name, "-K", value))

        # supplied nef test classes: every nef ray divisor on the small fans
        candidates = []
        if len(fan.rays) <= 20:
            candidates = [(f"D{tuple(r)}", WeilDivisor.ray(r)) for r in fan.rays]
        for label, div in candidates:
            if div.is_zero() or not is_nef(fan, div):
                continue
            degree = intersection_number(form, div, minus_k, minus_k, minus_k)
            if degree == 0:
                continue  # class dies on the hypersurface
            assert degree > 0, (name, label)
            value = c2_dot(delta, form, div)
            if not value > 0:
                violations.append((name, label, value))
    assert violations == []
    ok("criterion 5 (positivity: c2 strictly positive on -K and nef classes)")


# -- criterion 6: polygon corpus -------------------------------------------------------------


def test_criterion_6_polygon_corpus(polygons):
    assert len(polygons) == 16
    vertex_sets = {frozenset(tuple(v) for v in p.vertices) for p in polygons.values()}
    assert len(vertex_sets) == 16
    for name, p in polygons.items():
        assert p.is_reflexive() is True, name
        dual_set = frozenset(tuple(v) for v in p.dual().vertices)
        assert dual_set in vertex_sets, f"dual of {name} is not a fixture"
    ok("criterion 6 (2D corpus: 16 reflexive polygons, closed under duality)")
