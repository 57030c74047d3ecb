import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytoric._linalg import (
    dual_basis,
    hyperplane_normal,
    int_det,
    left_nullspace,
    matrix_rank,
    nullspace,
    primitive_vector,
    row_reduce,
    solve_linear,
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


def test_hyperplane_normal_is_orthogonal():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(2, 5)
        rows = random_matrix(rng, d - 1, d, 6)
        normal = hyperplane_normal(rows)
        for row in rows:
            assert sum(a * b for a, b in zip(normal, row)) == 0


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
    # Fraction right-hand sides: (1/4, 2/9) over the common denominator
    assert solve_linear([[2, 0], [0, 3]], [Fraction(1, 2), Fraction(2, 3)]) == ((9, 8), 36)
    assert solve_linear([[1, 1], [1, 1]], [Fraction(1, 2), Fraction(1, 3)]) is None


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


def test_row_reduce_pivots():
    reduced, pivots = row_reduce([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1]
    assert rref(reduced, pivots) == [[1, 0, -1], [0, 1, 2]]


def rref(reduced, pivots):
    """The integer rows of row_reduce scaled to the reduced row echelon form."""
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(reduced, pivots)]


def as_fractions(sol):
    if sol is None:
        return None
    num, den = sol
    assert den > 0
    return tuple(Fraction(x, den) for x in num)


def assert_kernel_matches_reference(rows):
    """Rank, RREF, nullspaces and solves equal the Fraction reference."""
    ref_rows, ref_pivots = fraction_rref(rows)
    reduced, pivots = row_reduce(rows)
    assert pivots == ref_pivots
    assert rref(reduced, pivots) == ref_rows
    assert all(type(x) is int for row in reduced for x in row)
    assert matrix_rank(rows) == len(ref_pivots)
    assert nullspace(rows) == fraction_nullspace(rows)
    transpose = [list(col) for col in zip(*rows)]
    assert left_nullspace(rows) == fraction_nullspace(transpose)
    ncols = len(rows[0])
    # a consistent right-hand side, an arbitrary one, a Fraction one
    for b in (
        [sum(rows[i][j] * (j - 1) for j in range(ncols)) for i in range(len(rows))],
        [(3 * i) % 5 - 2 for i in range(len(rows))],
        [Fraction(i + 1, 3) for i in range(len(rows))],
    ):
        sol = solve_linear(rows, b)
        assert as_fractions(sol) == fraction_solve(rows, b)
        if sol is not None:
            assert math.gcd(sol[1], *sol[0]) == 1


def random_kernel_case(rng):
    """A small matrix with seeded structure: rank deficiency, zero rows and
    columns, wide and tall shapes, and rows with Fraction entries."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    rows = random_matrix(rng, n, m, rng.choice((1, 3, 9)))
    kind = rng.randrange(5)
    if kind == 0 and n > 1:  # rank-deficient: a row is a combination of two others
        i, j = rng.randrange(n), rng.randrange(n)
        rows[rng.randrange(n)] = [2 * x - 3 * y for x, y in zip(rows[i], rows[j])]
    elif kind == 1:
        rows[rng.randrange(n)] = [0] * m
    elif kind == 2:
        col = rng.randrange(m)
        for row in rows:
            row[col] = 0
    elif kind == 3:
        k = rng.randrange(n)
        rows[k] = [Fraction(x, rng.randint(1, 6)) for x in rows[k]]
    return rows


def test_kernel_matches_fraction_reference_seeded():
    rng = random.Random(23)
    for _ in range(600):
        assert_kernel_matches_reference(random_kernel_case(rng))


small_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(small_entries, min_size=m, max_size=m), min_size=1, max_size=6
        )
    )
)
def test_kernel_matches_fraction_reference_hypothesis(rows):
    assert_kernel_matches_reference(rows)


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))
