"""Exact integer and rational linear algebra on plain Python numbers.

Everything works on ``int`` tuples/lists, never on floats; the geometric
predicates elsewhere rely on that exactness.  Rank, solutions and kernels
come from one fraction-free Gauss-Jordan elimination, :func:`row_reduce`,
and solutions are integer numerators over one denominator.
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


def hyperplane_normal(diffs):
    """Integer normal to the hyperplane spanned by d-1 difference vectors in dim d.

    Cofactor expansion of the formal determinant with a unit-vector top row,
    i.e. the (d-1)-fold cross product.  Returns the zero vector when the
    input rows are linearly dependent.
    """
    if not diffs:
        return (1,)
    d = len(diffs[0])
    if len(diffs) != d - 1:
        raise ValueError(f"need {d - 1} difference vectors in dimension {d}")
    return tuple(
        (-1) ** i * int_det([row[:i] + row[i + 1 :] for row in diffs]) for i in range(d)
    )


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


def smith_normal_form(mat):
    """Diagonalise an integer matrix by unimodular row and column operations.

    Returns (diag, u, v, v_inv) with ``u @ mat @ v == diag`` where diag is
    diagonal with the divisibility chain d1 | d2 | ..., and u, v are
    unimodular.  v_inv is the exact inverse of v, tracked during the
    reduction so callers get lattice bases without a separate inversion.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    v_inv = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_col(src, dst, q):
        # col dst += q * col src; inverse op on v_inv rows keeps v_inv exact
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    rank_bound = min(m, n)
    t = 0
    while t < rank_bound:
        # A pivot of minimal absolute value in the remaining block, first
        # in row-major order among ties.
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        swap_rows(t, pi)
        swap_cols(t, pj)
        # Clear row and column t; repeat, since clearing one can dirty the other.
        while True:
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = -(a[i][t] // a[t][t])
                    add_row(t, i, q)
                    if a[i][t] != 0:  # remainder smaller than pivot: swap up
                        swap_rows(t, i)
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = -(a[t][j] // a[t][t])
                    add_col(t, j, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
            if all(a[t][j] == 0 for j in range(t + 1, n)) and all(
                a[i][t] == 0 for i in range(t + 1, m)
            ):
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # Enforce the divisibility chain d_t | d_{t+1}.
    changed = True
    while changed:
        changed = False
        for s in range(t - 1):
            if a[s + 1][s + 1] % a[s][s] != 0:
                add_col(s + 1, s, 1)
                # Re-clear the dirtied 2x2 block by the Euclidean dance.
                while a[s + 1][s] != 0 or a[s][s + 1] != 0:
                    if a[s + 1][s] != 0:
                        if abs(a[s + 1][s]) < abs(a[s][s]):
                            swap_rows(s, s + 1)
                        q = -(a[s + 1][s] // a[s][s])
                        add_row(s, s + 1, q)
                    if a[s][s + 1] != 0:
                        if abs(a[s][s + 1]) < abs(a[s][s]):
                            swap_cols(s, s + 1)
                        q = -(a[s][s + 1] // a[s][s])
                        add_col(s, s + 1, q)
                if a[s][s] < 0:
                    negate_row(s)
                if a[s + 1][s + 1] < 0:
                    negate_row(s + 1)
                changed = True
    return a, u, v, v_inv


class AffineChart:
    """Exact integer coordinates on the affine lattice spanned by a point set.

    The chart maps the saturation of the affine lattice generated by the
    points isomorphically onto Z^rank; lattice points of the affine hull get
    integer coordinates, nothing is rounded.
    """

    def __init__(self, points):
        if not points:
            raise ValueError("need at least one point")
        self.base = tuple(points[0])
        diffs = [tuple(x - b for x, b in zip(p, self.base)) for p in points[1:]]
        if not diffs:
            diffs = [tuple(0 for _ in self.base)]
        diag, _u, v, v_inv = smith_normal_form(diffs)
        self.rank = sum(1 for i in range(min(len(diag), len(diag[0]))) if diag[i][i] != 0)
        self._columns = list(zip(*v))  # coordinate functionals; the first `rank` span the chart
        self.basis = [tuple(v_inv[i]) for i in range(self.rank)]

    def project(self, point):
        w = [x - b for x, b in zip(point, self.base)]
        coords = [dot(w, col) for col in self._columns]
        if any(coords[self.rank :]):
            raise ValueError(f"point {point} is outside the affine hull of the chart")
        return tuple(coords[: self.rank])
