import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cytoric.errors import InputError
from cytoric.lattice import (
    MPoint,
    NPoint,
    RationalHyperplane,
    integral_distance,
    pairing,
    primitive,
)

coords4 = st.lists(st.integers(-50, 50), min_size=4, max_size=4)


def test_pairing_dual_basis():
    assert pairing(MPoint((1, 0, 0, 0)), NPoint((1, 0, 0, 0))) == 1


def test_pairing_zero():
    zero = MPoint((0, 0, 0, 0))
    for y in [NPoint((1, 2, 3, 4)), NPoint((-7, 0, 0, 1))]:
        assert pairing(zero, y) == 0


def test_pairing_dot_product_value():
    # direct dot-product oracle: 1+1+1+2
    x = MPoint((1, 1, 1, -1))
    y = NPoint((1, 1, 1, -2))
    assert pairing(x, y) == sum(a * b for a, b in zip(x, y)) == 5


def test_pairing_rejects_same_lattice():
    with pytest.raises(InputError):
        pairing(MPoint((1, 0)), MPoint((0, 1)))
    with pytest.raises(InputError):
        pairing(NPoint((1, 0)), NPoint((0, 1)))


def test_pairing_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        pairing(MPoint((1, 0)), NPoint((1, 0, 0)))


@given(coords4, coords4, coords4)
def test_pairing_bilinear(a, b, c):
    x, xp = MPoint(a), MPoint(b)
    y = NPoint(c)
    assert pairing(x + xp, y) == pairing(x, y) + pairing(xp, y)
    assert pairing(3 * x, y) == 3 * pairing(x, y)


def test_primitive_examples():
    assert primitive(NPoint((2, 4, 0, 0))) == NPoint((1, 2, 0, 0))
    assert primitive(NPoint((1, 1, 1, -2))) == NPoint((1, 1, 1, -2))
    assert primitive(NPoint((-3, -6, -9, 0))) == NPoint((-1, -2, -3, 0))


def test_primitive_zero_rejected():
    with pytest.raises(InputError):
        primitive(NPoint((0, 0, 0)))


@given(coords4.filter(lambda v: any(v)))
def test_primitive_idempotent(v):
    p = primitive(NPoint(v))
    assert primitive(p) == p


def test_integral_distance_examples():
    h = RationalHyperplane(NPoint((1, 0)), 1)
    assert integral_distance(h, MPoint((0, 0))) == 1
    h2 = RationalHyperplane(NPoint((1, 1)), 2)
    assert integral_distance(h2, MPoint((0, 0))) == 2


def test_integral_distance_example_facet():
    # facet {<x,(1,1,1,-2)> = -1} at distance one from the origin
    h = RationalHyperplane(NPoint((1, 1, 1, -2)), -1)
    assert integral_distance(h, MPoint((0, 0, 0, 0))) == 1


def test_integral_distance_zero_iff_on_hyperplane():
    h = RationalHyperplane(NPoint((2, -1, 0)), 3)
    on = MPoint((1, -1, 5))
    off = MPoint((1, 0, 0))
    assert integral_distance(h, on) == 0
    assert integral_distance(h, off) != 0


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
