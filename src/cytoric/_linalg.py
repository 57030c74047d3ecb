"""Exact linear algebra on plain Python ints.

Everything takes and returns ``int`` tuples/lists, never floats or
Fractions; the geometric predicates elsewhere rely on that exactness, and
a caller with rational data clears its denominators first, as the divisor
audits do.  Ranks, determinants, adjugates, solutions and kernels all
read one fraction-free Gauss-Jordan elimination, :func:`_eliminate`,
whose steps divide exactly by the previous pivot (Bareiss, Math. Comp. 22,
1968; for any m x n matrix, Nakos, Turner and Williams, SIGSAM Bull.
31(3), 1997).  Every reduced pivot ends equal
to the last one, so solutions are integer numerators over that one
denominator, and a kernel basis is primitive integer vectors.

The one exception is dimension 4, the dimension of every cone, cell,
initial hull simplex and facet normal there: :func:`int_det` and
:func:`dual_basis` expand a 4 x 4 determinant and adjugate in closed form
along the 2 x 2 minors of rows (0, 1) and (2, 3) (:func:`_laplace4`), and
:func:`spans_hyperplane` certifies that a facet's vertices span its plane
with one such determinant, with no elimination.  Every other size, and
every rank, solution and nullspace, reads the Bareiss kernel.
"""

from math import gcd
from operator import mul, sub


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries.

    Raises ValueError on the zero vector, where the direction is undefined.
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def _eliminate(a, reduced=True):
    """Fraction-free Gauss-Jordan elimination of the int rows `a`, in place.

    Returns (pivots, swaps, last): the pivot columns, the row swaps as
    (pivot row, row) pairs, and the last pivot (1 if none).  Pivots go left
    to right, the first nonzero row at or below the next pivot row wins,
    and a column with no such row is skipped, as is every column once
    rank = rows.
    The step on pivot p in row r, column c sets a row to (p * row - f *
    row r) // prev, f its entry in column c and prev the previous pivot:
    every entry stays a minor, so the division is exact.  ``reduced=False``
    leaves the rows above r alone and writes into no row: an echelon form,
    all a rank or a determinant needs.

    ``reduced=True`` eliminates [A | I] in place, so the rows must be
    lists: after step r left column c is p times a unit vector, so it takes
    right column r instead, and pivot column c of pivot row k holds column
    k of the row operations.  With a pivot in every row the swaps are then
    undone on those columns, which for a square A hold last * A^-1.  Every
    pivot entry ends equal to `last`, so off the pivot columns, pivot row
    k over `last` is row k of the reduced row echelon form.
    """
    m = len(a)
    pivots, swaps = [], []
    prev = 1
    for c in range(len(a[0]) if m else 0):
        r = len(pivots)
        for i in range(r, m):
            if a[i][c]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            swaps.append((r, i))
        top = a[r]
        p = top[c]
        for i in range(0 if reduced else r + 1, m):
            row = a[i]
            f = row[c]
            if i == r or (not f and p == prev):
                continue  # the step would leave the row as it is
            row = [(p * x - f * y) // prev for x, y in zip(row, top)]
            if reduced:
                row[c] = -f  # right column r: (p * 0 - f * prev) / prev
            a[i] = row
        if reduced:
            top[c] = prev
        pivots.append(c)
        prev = p
    if reduced and len(pivots) == m:
        for k, i in reversed(swaps):
            for row in a:
                row[pivots[k]], row[pivots[i]] = row[pivots[i]], row[pivots[k]]
    return pivots, swaps, prev


def _laplace4(rows):
    """Determinant of a 4 x 4 matrix by Laplace expansion along rows 0 and
    1, with the 2 x 2 minors it reads: s of rows (0, 1) and t of rows
    (2, 3), each in columns (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    s = (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
         a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
    t = (c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0,
         c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2)
    det = s[0] * t[5] - s[1] * t[4] + s[2] * t[3] + s[3] * t[2] - s[4] * t[1] + s[5] * t[0]
    return det, s, t


def int_det(rows):
    """Determinant of a square integer matrix: :func:`_laplace4` on 4 x 4,
    else the signed last pivot."""
    n = len(rows)
    if n == 4 and len(rows[0]) == len(rows[1]) == len(rows[2]) == len(rows[3]) == 4:
        return _laplace4(rows)[0]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    pivots, swaps, last = _eliminate(list(rows), reduced=False)
    return 0 if len(pivots) < n else -last if len(swaps) % 2 else last


def dual_basis(rows):
    """Determinant and adjugate of a square integer matrix, by columns.

    Returns (det, duals) with <duals[i], rows[j]> = det * (i == j): on
    4 x 4 the cofactors of row i, each a sum of three products of an entry
    and a minor of :func:`_laplace4`; else read off the reduced
    elimination's row operations, last * A^-1, with det the last pivot
    signed by the row swaps.  Raises ValueError on a singular matrix, whose
    rows have no dual basis.
    """
    n = len(rows)
    if n == 4 and len(rows[0]) == len(rows[1]) == len(rows[2]) == len(rows[3]) == 4:
        det, (s01, s02, s03, s12, s13, s23), (t01, t02, t03, t12, t13, t23) = _laplace4(rows)
        if not det:
            raise ValueError("singular matrix has no dual basis")
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        # <duals[0], x> = det(x, b, c, d), <duals[1], x> = det(a, x, c, d),
        # <duals[2], x> = det(a, b, x, d) and <duals[3], x> = det(a, b, c, x)
        return det, [
            (b1 * t23 - b2 * t13 + b3 * t12, b2 * t03 - b0 * t23 - b3 * t02,
             b0 * t13 - b1 * t03 + b3 * t01, b1 * t02 - b0 * t12 - b2 * t01),
            (a2 * t13 - a1 * t23 - a3 * t12, a0 * t23 - a2 * t03 + a3 * t02,
             a1 * t03 - a0 * t13 - a3 * t01, a0 * t12 - a1 * t02 + a2 * t01),
            (d1 * s23 - d2 * s13 + d3 * s12, d2 * s03 - d0 * s23 - d3 * s02,
             d0 * s13 - d1 * s03 + d3 * s01, d1 * s02 - d0 * s12 - d2 * s01),
            (c2 * s13 - c1 * s23 - c3 * s12, c0 * s23 - c2 * s03 + c3 * s02,
             c1 * s03 - c0 * s13 - c3 * s01, c0 * s12 - c1 * s02 + c2 * s01),
        ]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [list(r) for r in rows]
    pivots, swaps, last = _eliminate(a)
    if len(pivots) < n:
        raise ValueError("singular matrix has no dual basis")
    sign = -1 if len(swaps) % 2 else 1
    return sign * last, [tuple(sign * row[i] for row in a) for i in range(n)]


def pivot_columns(rows):
    """The pivot columns of an echelon form of the int rows, left to right:
    the columns where the rank of the columns so far grows."""
    return _eliminate(list(rows), reduced=False)[0]


def matrix_rank(rows):
    return len(pivot_columns(rows))


def spans_hyperplane(points, normal, offset):
    """Whether the int points lie on the hyperplane {x : <x, normal> =
    offset} and affinely span it; `normal` is nonzero.

    The rows are the differences from the first point.  In dimension 4 the
    verdict is certified in closed form: every point is on the plane, and
    greedy rows witness rank 3.  r1 is the first nonzero row, r2 the first
    with a nonzero 2 x 2 minor against r1, and r3 the first with det(r1,
    r2, r3, normal) != 0.  That determinant is <w, r3>, where w holds the
    cofactors of the expansion along the minors of (r1, r2), as in
    :func:`dual_basis`.  The search is complete: rows of rank 3 orthogonal
    to `normal` leave span(r1, r2) at some row, and `normal` lies outside
    their span since <normal, normal> > 0, so some determinant is nonzero.
    Other dimensions take :func:`matrix_rank` of the rows.
    """
    if not points:
        return False
    if len(normal) != 4:
        first = points[0]
        rows = [list(map(sub, p, first)) for p in points[1:]]
        return all(dot(p, normal) == offset for p in points) and matrix_rank(rows) == len(normal) - 1
    n0, n1, n2, n3 = normal
    for x0, x1, x2, x3 in points:
        if x0 * n0 + x1 * n1 + x2 * n2 + x3 * n3 != offset:
            return False
    points = iter(points)
    f0, f1, f2, f3 = next(points)
    for a0, a1, a2, a3 in points:
        a0, a1, a2, a3 = a0 - f0, a1 - f1, a2 - f2, a3 - f3
        if a0 or a1 or a2 or a3:
            break
    else:
        return False
    for b0, b1, b2, b3 in points:
        b0, b1, b2, b3 = b0 - f0, b1 - f1, b2 - f2, b3 - f3
        s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        if s01 or s02 or s03 or s12 or s13 or s23:
            break
    else:
        return False
    w0, w1, w2, w3 = (n1 * s23 - n2 * s13 + n3 * s12, n2 * s03 - n0 * s23 - n3 * s02,
                      n0 * s13 - n1 * s03 + n3 * s01, n1 * s02 - n0 * s12 - n2 * s01)
    for c0, c1, c2, c3 in points:
        if w0 * (c0 - f0) + w1 * (c1 - f1) + w2 * (c2 - f2) + w3 * (c3 - f3):
            return True
    return False


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
    a = [list(row) + [bi] for row, bi in zip(a_rows, b, strict=True)]
    pivots, _, den = _eliminate(a)
    if pivots and pivots[-1] == ncols:
        return None
    num = [0] * ncols
    for row, c in zip(a, pivots):
        num[c] = row[-1]
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return tuple(x // g for x in num), den // g


def nullspace(a_rows):
    """Basis of {x : A x = 0}: a primitive int tuple per free column,
    positive there.  It is the reduced echelon form's vector, 1 at the free
    column, times the last pivot and over the gcd; that pivot can be
    negative, so the gcd takes its sign."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    a = [list(row) for row in a_rows]
    pivots, _, den = _eliminate(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[f] = den
        for row, c in zip(a, pivots):
            vec[c] = -row[f]
        g = gcd(*vec)
        if den < 0:
            g = -g
        basis.append(tuple([x // g for x in vec]))
    return basis


def left_nullspace(a_rows):
    """Basis of {w : w A = 0}, i.e. the nullspace of the transpose."""
    return nullspace([list(col) for col in zip(*a_rows)])
