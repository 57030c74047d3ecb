import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytoric._linalg import (
    _eliminate,
    dual_basis,
    int_det,
    left_nullspace,
    matrix_rank,
    nullspace,
    pivot_columns,
    primitive_vector,
    solve_linear,
    spans_hyperplane,
)
from oracles import fraction_nullspace, fraction_rref, fraction_solve, naive_det


def random_matrix(rng, n, m, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_int_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert int_det(m) == naive_det(m)
    for _ in range(300):  # rank-deficient, with a zero row or a zero column
        m = random_kernel_case(rng, square=True)
        assert int_det(m) == naive_det(m)


def test_int_det_identity_and_singular():
    assert int_det([[1, 0], [0, 1]]) == 1
    assert int_det([[1, 2], [2, 4]]) == 0


def test_dual_basis_is_the_int_det_adjugate():
    # duals[i][r] is the (r, i) cofactor: (-1)^(i+r) det of the matrix
    # without row i and column r
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=rng.choice((1, 3, 9)))
        det = int_det(m)
        if det == 0:
            with pytest.raises(ValueError):
                dual_basis(m)
            seen.add("singular")
            continue
        seen.add(n)
        got_det, duals = dual_basis(m)
        assert got_det == det
        for i in range(n):
            minors = [[row[:r] + row[r + 1:] for k, row in enumerate(m) if k != i] for r in range(n)]
            assert duals[i] == tuple((-1) ** (i + r) * (int_det(x) if x else 1) for r, x in enumerate(minors))
            assert [sum(x * y for x, y in zip(duals[i], row)) for row in m] == [det * (i == j) for j in range(n)]
    assert seen == {1, 2, 3, 4, 5, "singular"}


def test_dual_basis_refuses_singular_and_non_square():
    with pytest.raises(ValueError, match="singular"):
        dual_basis([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        dual_basis([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="not square"):
        dual_basis([[1, 2, 3], [4, 5, 6]])


def bareiss_dual_basis(m):
    """(det, duals) of a square int matrix straight from the Bareiss kernel,
    None if singular: the reference for the closed-form 4 x 4 adjugate."""
    a = [list(r) for r in m]
    pivots, swaps, last = _eliminate(a)
    if len(pivots) < len(m):
        return None
    sign = -1 if len(swaps) % 2 else 1
    return sign * last, [tuple(sign * row[i] for row in a) for i in range(len(m))]


def bareiss_det(m):
    pivots, swaps, last = _eliminate([list(r) for r in m], reduced=False)
    return 0 if len(pivots) < len(m) else -last if len(swaps) % 2 else last


def make_singular(m, kind, i, j, k):
    """Make the 4 x 4 int matrix m singular in place; i, j, k distinct."""
    if kind == "zero row":
        m[i] = [0] * 4
    elif kind == "zero column":
        for row in m:
            row[i] = 0
    elif kind == "repeated row":
        m[i] = list(m[j])
    elif kind == "sum of two rows":
        m[i] = [x + y for x, y in zip(m[j], m[k])]


huge = st.integers(2**64, 2**70)
matrices4 = st.sampled_from(
    (st.integers(-3, 3), st.integers(-10**6, 10**6), st.one_of(huge, huge.map(lambda x: -x), st.integers(-3, 3)))
).flatmap(lambda e: st.lists(st.lists(e, min_size=4, max_size=4), min_size=4, max_size=4))


@settings(max_examples=300, deadline=None)
@given(
    matrices4,
    st.sampled_from((None, "zero row", "zero column", "repeated row", "sum of two rows")),
    st.permutations(range(4)),
)
def test_closed_form_4x4_matches_bareiss_and_cofactor_expansion(m, singular, order):
    make_singular(m, singular, *order[:3])
    det = naive_det(m)
    assert int_det(m) == bareiss_det(m) == det
    expected = bareiss_dual_basis(m)
    rows = [tuple(r) for r in m]  # the fan passes its cones' rays as tuples
    if singular or det == 0:
        assert det == 0 and expected is None
        for a in (m, rows):
            with pytest.raises(ValueError, match="singular"):
                dual_basis(a)
    else:
        assert dual_basis(m) == dual_basis(rows) == expected
        assert expected[0] == det
    for shape in ([r[:3] for r in m], m[:3]):  # 4 x 3 and 3 x 4
        with pytest.raises(ValueError, match="not square"):
            int_det(shape)
        with pytest.raises(ValueError, match="not square"):
            dual_basis(shape)


def orthogonal_part(u, normal):
    """(n . n) u - (n . u) n: an int vector orthogonal to the normal n."""
    nn, nu = sum(x * x for x in normal), sum(x * y for x, y in zip(normal, u))
    return [nn * x - nu * y for x, y in zip(u, normal)]


def plane_points(normal, base, directions, coeffs, moves=(), repeats=()):
    """Points base + sum c_k o_k, one per coefficient list, where o_k is the
    part of directions[k] orthogonal to the normal; then each (i, v) of
    `moves` adds v to point i, and each index of `repeats` lists that point
    again."""
    basis = [orthogonal_part(u, normal) for u in directions]
    points = [
        tuple(b + sum(c * o[j] for c, o in zip(cs, basis)) for j, b in enumerate(base)) for cs in coeffs
    ]
    for i, v in moves:
        points[i % len(points)] = tuple(map(operator.add, points[i % len(points)], v))
    return points + [points[i % len(points)] for i in repeats]


def span_reference(points, normal, offset):
    """(every point on the plane, the differences from the first of rank
    d - 1 by the Bareiss rank): the verdict is both."""
    diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
    on = all(sum(x * y for x, y in zip(p, normal)) == offset for p in points)
    return on, matrix_rank(diffs) == len(normal) - 1


def test_spans_hyperplane_matches_the_rank_seeded():
    # zero and repeated rows, ranks 0 to d - 1, points off the plane, and
    # off-plane points whose rows still have rank d - 1
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        d = rng.choice((4, 4, 4, 2, 3, 5))
        bound = rng.choice((1, 3, 9))
        normal = [0] * d
        while not any(normal):
            normal = [rng.randint(-bound, bound) for _ in range(d)]
        base = [rng.randint(-bound, bound) for _ in range(d)]
        directions = random_matrix(rng, rng.randint(0, d - 1), d, bound)
        coeffs = random_matrix(rng, rng.randint(1, 8), len(directions), rng.choice((0, 1, 2)))
        moves = [(rng.randrange(8), [rng.randint(-1, 1) for _ in range(d)]) for _ in range(rng.randint(0, 1))]
        repeats = [rng.randrange(8) for _ in range(rng.randint(0, 2))]
        points = plane_points(normal, base, directions, coeffs, moves, repeats)
        rng.shuffle(points)
        offset = sum(x * y for x, y in zip(base, normal))
        on, full = span_reference(points, normal, offset)
        assert spans_hyperplane(points, normal, offset) == (on and full), (points, normal, offset)
        seen.add((d, on, full))
    assert seen == set(itertools.product((2, 3, 4, 5), (True, False), (True, False)))
    assert not spans_hyperplane([], (0, 0, 0, 1), 0)


vectors4 = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6), huge, huge.map(lambda x: -x)), min_size=4, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(
    vectors4.filter(any),
    vectors4,
    st.lists(vectors4, max_size=3).flatmap(
        lambda dirs: st.tuples(
            st.just(dirs),
            st.lists(st.lists(st.integers(-2, 2), min_size=len(dirs), max_size=len(dirs)), min_size=1, max_size=8),
        )
    ),
    st.lists(st.tuples(st.integers(0, 7), st.lists(st.integers(-2, 2), min_size=4, max_size=4)), max_size=2),
    st.lists(st.integers(0, 7), max_size=3),
    st.data(),
)
def test_spans_hyperplane_matches_the_rank_hypothesis(normal, base, basis, moves, repeats, data):
    directions, coeffs = basis
    points = data.draw(st.permutations(plane_points(normal, base, directions, coeffs, moves, repeats)))
    offset = sum(x * y for x, y in zip(base, normal))
    on, full = span_reference(points, normal, offset)
    assert spans_hyperplane(points, normal, offset) == (on and full)


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 0]]) == 0


def test_solve_linear_consistent_and_inconsistent():
    sol = solve_linear([[2, 0], [0, 4]], [4, 8])
    assert sol == ((2, 2), 1)
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined: free variable pinned to zero for determinism
    sol = solve_linear([[1, 1]], [5])
    assert sol == ((5, 0), 1)


def test_solve_linear_random_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = [sum(r[j] * x[j] for j in range(n)) for r in a]
        sol = solve_linear(a, b)
        assert sol is not None
        num, den = sol
        for r, bi in zip(a, b):
            assert sum(c * s for c, s in zip(r, num)) == bi * den


def test_nullspaces():
    ns = nullspace([[1, 1, 0]])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0
    ln = left_nullspace([[1, 0], [0, 1], [1, 1]])
    assert len(ln) == 1
    w = ln[0]
    assert w[0] + w[2] == 0 and w[1] + w[2] == 0


def test_pivot_columns():
    assert pivot_columns([[0, 2, 4], [1, 1, 1]]) == [0, 1]
    assert pivot_columns([[1, 2, 3], [2, 4, 6], [0, 0, 5]]) == [0, 2]
    assert pivot_columns([[0, 0], [0, 0]]) == []


def cleared(basis):
    """Each Fraction vector times the lcm of its denominators, over the gcd:
    the primitive integer vector on its ray."""
    out = []
    for vec in basis:
        den = math.lcm(*[x.denominator for x in vec])
        ints = [x.numerator * (den // x.denominator) for x in vec]
        g = math.gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return out


def as_fractions(sol):
    if sol is None:
        return None
    num, den = sol
    assert den > 0
    return tuple(Fraction(x, den) for x in num)


def assert_kernel_matches_reference(rows):
    """Pivots, rank, nullspaces and solves equal the Fraction reference; each
    nullspace vector is the reference's cleared to a primitive int vector,
    positive at its free column."""
    _, ref_pivots = fraction_rref(rows)
    assert pivot_columns(rows) == ref_pivots
    assert matrix_rank(rows) == len(ref_pivots)
    transpose = [list(col) for col in zip(*rows)]
    for basis, ref in (
        (nullspace(rows), fraction_nullspace(rows)),
        (left_nullspace(rows), fraction_nullspace(transpose)),
    ):
        assert all(type(x) is int for vec in basis for x in vec)
        assert basis == cleared(ref)
    ncols = len(rows[0])
    # a consistent right-hand side and an arbitrary one
    for b in (
        [sum(rows[i][j] * (j - 1) for j in range(ncols)) for i in range(len(rows))],
        [(3 * i) % 5 - 2 for i in range(len(rows))],
    ):
        sol = solve_linear(rows, b)
        assert as_fractions(sol) == fraction_solve(rows, b)
        if sol is not None:
            assert math.gcd(sol[1], *sol[0]) == 1


def random_kernel_case(rng, square=False):
    """A small int matrix with seeded structure: rank deficiency, zero rows
    and columns, and wide and tall shapes.  A square case always has one of
    the first three."""
    n = rng.randint(1, 6)
    m = n if square else rng.randint(1, 6)
    rows = random_matrix(rng, n, m, rng.choice((1, 3, 9)))
    kind = rng.randrange(3 if square else 4)
    if kind == 0 and n > 1:  # rank-deficient: a row is a combination of two others
        i, j = rng.randrange(n), rng.randrange(n)
        rows[rng.randrange(n)] = [2 * x - 3 * y for x, y in zip(rows[i], rows[j])]
    elif kind == 1:
        rows[rng.randrange(n)] = [0] * m
    elif kind == 2:
        col = rng.randrange(m)
        for row in rows:
            row[col] = 0
    return rows


def test_kernel_matches_fraction_reference_seeded():
    rng = random.Random(23)
    for _ in range(600):
        assert_kernel_matches_reference(random_kernel_case(rng))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=1, max_size=6
        )
    )
)
def test_kernel_matches_fraction_reference_hypothesis(rows):
    assert_kernel_matches_reference(rows)


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))
