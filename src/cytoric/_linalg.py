"""Exact integer and rational linear algebra on plain Python numbers.

Everything works on ``int`` tuples/lists, never on floats; the geometric
predicates elsewhere rely on that exactness.  Rank, solutions and kernels
come from one fraction-free Gauss-Jordan elimination, :func:`row_reduce`,
and solutions are integer numerators over one denominator.  Determinants
and adjugates (:func:`int_det`, :func:`dual_basis`) use Bareiss's exact
division instead.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def vector_gcd(v):
    """gcd of the entries of an integer vector (0 for the zero vector)."""
    return gcd(*v)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries.

    Raises ValueError on the zero vector, where the direction is undefined.
    """
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def int_det(rows):
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dual_basis(rows):
    """Determinant and adjugate of a square integer matrix, by columns.

    Returns (det, duals) with <duals[i], rows[j]> = det * (i == j).  A
    fraction-free Gauss-Jordan elimination (Bareiss) of [A | I], kept in
    place: after step k the left columns up to k and the right columns past
    k are the pivot times unit vectors, so one n x n array holds the rest.
    Every step divides exactly by the previous pivot; at the end the array
    is the last pivot, det of the row-swapped matrix, times its inverse,
    and undoing the row swaps on the columns gives A's.  Raises ValueError
    on a singular matrix, whose rows have no dual basis.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [list(r) for r in rows]
    swaps = []
    prev = 1
    for k in range(n):
        for i in range(k, n):
            if a[i][k]:
                break
        else:
            raise ValueError("singular matrix has no dual basis")
        if i != k:
            a[k], a[i] = a[i], a[k]
            swaps.append((k, i))
        top = a[k]
        p = top[k]
        for i, row in enumerate(a):
            f = row[k]
            if i == k or (not f and p == prev):
                continue  # the step would leave the row as it is
            row = [(p * x - f * y) // prev for x, y in zip(row, top)]
            row[k] = -f  # right column k: (p * 0 - f * prev) / prev
            a[i] = row
        top[k] = prev
        prev = p
    for k, i in reversed(swaps):
        for row in a:
            row[k], row[i] = row[i], row[k]
    sign = -1 if len(swaps) % 2 else 1
    return sign * prev, [tuple(sign * row[i] for row in a) for i in range(n)]


def _integer_rows(rows):
    """The rows with int entries.  A row holding a Fraction is scaled by the
    lcm of its denominators, which changes neither row space nor pivots."""
    if all(type(x) is int for row in rows for x in row):
        return list(rows)
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def row_reduce(rows, reduced=True):
    """Fraction-free Gauss-Jordan elimination over the integers.

    Returns (rows, pivot_columns), pivots chosen left to right, first
    nonzero row wins; row k over its entry in column pivots[k] is row k of
    the reduced row echelon form.  A step sets a row to p * row - f * pivot
    row and divides out its gcd, which keeps entries small (Bareiss, 1968,
    uses an exact division instead).  ``reduced=False`` leaves the rows
    above a pivot alone: an echelon form, all a rank needs.
    """
    a = _integer_rows(rows)
    if not a:
        return [], []
    m = len(a)
    pivots = []
    r = 0
    for c in range(len(a[0])):
        for i in range(r, m):
            if a[i][c]:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        top = a[r]
        p = top[c]
        for i in range(0 if reduced else r + 1, m):
            row = a[i]
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a[:r], pivots


def matrix_rank(rows):
    return len(row_reduce(rows, reduced=False)[1])


def solve_linear(a_rows, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    The solution is (numerators, denominator), x_j = numerators[j] /
    denominator, in lowest terms with the denominator positive.  Free
    variables are set to zero, which makes the returned solution
    deterministic; that determinism is load-bearing for memoised callers.
    """
    if not a_rows:
        return (), 1
    ncols = len(a_rows[0])
    reduced, pivots = row_reduce([list(row) + [bi] for row, bi in zip(a_rows, b, strict=True)])
    if pivots and pivots[-1] == ncols:
        return None
    den = lcm(*[row[c] for row, c in zip(reduced, pivots)])
    num = [0] * ncols
    for row, c in zip(reduced, pivots):
        num[c] = row[-1] * (den // row[c])
    g = gcd(den, *num)
    return tuple(x // g for x in num), den // g


def nullspace(a_rows):
    """Basis of {x : A x = 0}: a Fraction tuple per free column, 1 there."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    reduced, pivots = row_reduce(a_rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = Fraction(-row[f], row[c])
        basis.append(tuple(vec))
    return basis


def left_nullspace(a_rows):
    """Basis of {w : w A = 0}, i.e. the nullspace of the transpose."""
    return nullspace([list(col) for col in zip(*a_rows)])
