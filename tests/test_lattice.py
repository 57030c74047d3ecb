"""The lattice types and the one pairing of M with N, `_linalg.dot`, which
a polytope's slack table reads with its point checks."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cytoric._linalg import dot, primitive_vector
from cytoric.errors import InputError
from cytoric.lattice import (
    MPoint,
    NPoint,
    RationalHyperplane,
)
from cytoric.polytope import _bits, hull
from conftest import mpoints

coords4 = st.lists(st.integers(-50, 50), min_size=4, max_size=4)


def test_pairing_dual_basis():
    assert dot(MPoint((1, 0, 0, 0)), NPoint((1, 0, 0, 0))) == 1


def test_pairing_zero():
    zero = MPoint((0, 0, 0, 0))
    for y in [NPoint((1, 2, 3, 4)), NPoint((-7, 0, 0, 1))]:
        assert dot(zero, y) == 0


def test_pairing_dot_product_value():
    # direct dot-product oracle: 1+1+1+2
    x = MPoint((1, 1, 1, -1))
    y = NPoint((1, 1, 1, -2))
    assert dot(x, y) == sum(a * b for a, b in zip(x, y)) == 5


def test_pairing_rejects_same_lattice(square):
    # the slack table pairs a point with the facet normals, which live in
    # the dual lattice, so it takes points of the polytope's own lattice only
    with pytest.raises(InputError):
        square._slacks(NPoint((0, 0)))
    with pytest.raises(InputError):
        square.dual()._slacks(MPoint((0, 0)))


def test_pairing_rejects_dimension_mismatch(square):
    with pytest.raises(InputError):
        square._slacks(MPoint((0, 0, 0)))


@given(coords4, coords4, coords4)
def test_pairing_bilinear(a, b, c):
    x, xp = MPoint(a), MPoint(b)
    y = NPoint(c)
    assert dot(x + xp, y) == dot(x, y) + dot(xp, y)
    assert dot(3 * x, y) == 3 * dot(x, y)


def test_primitive_examples():
    assert primitive_vector(NPoint((2, 4, 0, 0))) == (1, 2, 0, 0)
    assert primitive_vector(NPoint((1, 1, 1, -2))) == (1, 1, 1, -2)
    assert primitive_vector(NPoint((-3, -6, -9, 0))) == (-1, -2, -3, 0)


def test_primitive_zero_rejected():
    with pytest.raises(ValueError):
        primitive_vector(NPoint((0, 0, 0)))


@given(coords4.filter(lambda v: any(v)))
def test_primitive_idempotent(v):
    p = primitive_vector(v)
    assert primitive_vector(p) == p
    assert RationalHyperplane(NPoint(p), 0).normal == p  # a primitive normal is accepted


def test_integral_distance_examples(square):
    # the origin's slack on a facet is its lattice distance from it
    assert square._slacks(MPoint((0, 0))) == [1, 1, 1, 1]
    wide = hull(mpoints([(2, 2), (2, -2), (-2, 2), (-2, -2)]))
    assert wide._slacks(MPoint((0, 0))) == [2, 2, 2, 2]


def test_integral_distance_example_facet(example_s3):
    # facet {<x,(1,1,1,-2)> = -1} at distance one from the origin
    i = [tuple(f.normal) for f in example_s3.facets].index((1, 1, 1, -2))
    assert example_s3.facets[i].offset == -1
    assert example_s3._slacks(MPoint((0, 0, 0, 0)))[i] == 1


def test_integral_distance_zero_iff_on_hyperplane(square, example_s3):
    # a lattice point's slack is 0 exactly on the facets its census mask holds
    for p in (square, example_s3):
        for q, sat in p.census().face_of.items():
            slacks = p._slacks(q)
            assert min(slacks) >= 0
            assert [i for i, s in enumerate(slacks) if s == 0] == list(_bits(sat))


def test_hyperplane_is_its_normal_offset_pair():
    # a polytope's facets are its plane table: each facet unpacks, sorts,
    # hashes and compares as (normal, offset), and survives a pickle
    h = RationalHyperplane(NPoint((0, 1)), -1)
    g = RationalHyperplane(NPoint((-1, 0)), -1)
    normal, offset = h
    assert (normal, offset) == (h.normal, h.offset) == (NPoint((0, 1)), -1)
    assert type(normal) is NPoint and h == (NPoint((0, 1)), -1)
    assert hash(h) == hash((NPoint((0, 1)), -1))
    assert sorted([h, g]) == [g, h] == sorted([(tuple(f.normal), f.offset) for f in (h, g)])
    assert repr(h) == "RationalHyperplane(normal=NPoint(0, 1), offset=-1)"
    again = pickle.loads(pickle.dumps(h))
    assert type(again) is RationalHyperplane and again == h


def test_hyperplane_requires_primitive_normal():
    with pytest.raises(InputError):
        RationalHyperplane(NPoint((2, 4)), 2)


def test_lattice_vector_rejects_non_integers():
    with pytest.raises(InputError):
        MPoint((1.5, 2))
    with pytest.raises(InputError):
        MPoint(())


def test_mixed_arithmetic_rejected():
    with pytest.raises(InputError):
        MPoint((1, 0)) + NPoint((0, 1))
