"""Independent brute-force oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: facet enumeration
by subset search instead of incremental hulls, simplicial pieces with ridge
owners instead of whole facets with the adjacency test, naive cofactor
determinants and adjugates instead of Bareiss, Fraction row reduction
instead of the integer elimination, grid partitions instead of the
face-lattice census, the memoised elimination of repeated rays instead of
the Chow-ring sweep, lattice-point counts of dilates instead of a
triangulated volume.
"""

import functools
import itertools
import math
from fractions import Fraction
from math import gcd
from operator import mul


def naive_det(rows):
    """Cofactor-expansion determinant (exponential, exact)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def brute_facets(points):
    """All facet inequalities (normal, rhs), polytope side normal.x >= rhs.

    Enumerates hyperplanes through every d-subset of the points and keeps
    the one-sided ones.  Exponential and oblivious to the hull code.
    """
    d = len(points[0])
    if d == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return {((1,), lo), ((-1,), -hi)}
    found = set()
    for subset in itertools.combinations(points, d):
        base = subset[0]
        diffs = [tuple(a - b for a, b in zip(q, base)) for q in subset[1:]]
        normal = []
        for i in range(d):
            minor = [[row[k] for k in range(d) if k != i] for row in diffs]
            normal.append((-1) ** i * naive_det(minor))
        if all(c == 0 for c in normal):
            continue
        g = vec_gcd(normal)
        normal = tuple(c // g for c in normal)
        rhs = sum(a * b for a, b in zip(normal, base))
        vals = [sum(a * b for a, b in zip(normal, p)) - rhs for p in points]
        if all(v >= 0 for v in vals):
            found.add((normal, rhs))
        elif all(v <= 0 for v in vals):
            found.add((tuple(-c for c in normal), -rhs))
    return found


def grid_points(points):
    """All lattice points of conv(points) by bounding box + facet filter,
    each tagged with its saturated facet set."""
    d = len(points[0])
    facets = sorted(brute_facets(points))
    lo = [min(p[i] for p in points) for i in range(d)]
    hi = [max(p[i] for p in points) for i in range(d)]
    out = {}
    for raw in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        vals = [sum(a * b for a, b in zip(n, raw)) - rhs for n, rhs in facets]
        if any(v < 0 for v in vals):
            continue
        out[raw] = frozenset(i for i, v in enumerate(vals) if v == 0)
    return out


def brute_faces(points):
    """Proper-face counts by dimension, from scratch.

    A face is a maximal set of points saturating some subset of the facet
    inequalities; enumerate all facet subsets, collect the distinct nonempty
    vertex sets, and measure each by affine rank.
    """
    facets = sorted(brute_facets(points))
    verts = brute_vertices(points, facets)
    seen = {}
    for size in range(1, len(facets) + 1):
        for subset in itertools.combinations(range(len(facets)), size):
            subset = frozenset(subset)
            members = tuple(p for p, tight in verts if subset <= tight)
            if members:
                seen.setdefault(members, set()).add(subset)
    counts = {}
    for members in seen:
        pts = list(members)
        diffs = [
            tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]
        ]
        rank = _matrix_rank_int(diffs)
        counts[rank] = counts.get(rank, 0) + 1
    return counts


def brute_vertices(points, facets):
    """(point, indices of the facets it saturates) for each point of
    `points` whose saturated facet normals have rank d, i.e. each vertex."""
    d = len(points[0])
    verts = []
    for p in points:
        tight = [
            i
            for i, (n, rhs) in enumerate(facets)
            if sum(a * b for a, b in zip(n, p)) == rhs
        ]
        rank = _affine_rank([facets[i][0] for i in tight]) if tight else 0
        if rank == d:
            verts.append((p, frozenset(tight)))
    return verts


def _affine_rank(rows):
    return _matrix_rank_int(rows)


def _matrix_rank_int(rows):
    return len(fraction_rref(rows)[1])


def fraction_rref(rows):
    """Reduced row echelon form over Fraction: (rows, pivot columns), pivots
    left to right, first nonzero row wins.  The elimination the library used
    before its integer kernel, kept as the reference for it."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return [], []
    pivots = []
    r = 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def fraction_solve(a_rows, b):
    """Solution of A x = b as Fractions with free variables at zero, or None."""
    ncols = len(a_rows[0])
    reduced, pivots = fraction_rref([list(row) + [bi] for row, bi in zip(a_rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[-1]
    return tuple(x)


def fraction_nullspace(a_rows):
    """Nullspace basis, one vector per free column with 1 in that column."""
    ncols = len(a_rows[0])
    reduced, pivots = fraction_rref(a_rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return basis


def fraction_support_data(cone_rays, coeffs):
    """Local data m with <m, v> = -a_v on the cone's rays, as Fractions."""
    return _memo_fraction_solve(
        tuple(tuple(r) for r in cone_rays), tuple(-coeffs.get(r, 0) for r in cone_rays)
    )


@functools.lru_cache(maxsize=None)
def _memo_fraction_solve(rows, rhs):
    # divisors sharing a cone's coefficients (mostly all zero) share its solve
    return fraction_solve(rows, rhs)


def fraction_is_nef(fan, divisor):
    """The all-rays nef test: <m, v> >= -a_v for every maximal cone's local
    data m and every ray v (the cone's own rays give equality).

    With the cone's rays as the rows of V, m = -V^-1 a_cone.  V^-1 comes
    cleared of denominators from one cofactor adjugate per cone, cached:
    B = L V^-1 with L = |det V|.  With the divisor scaled to integer
    coefficients A (nefness is invariant under positive scaling) the test
    is <B A_cone, v> <= L A_v, in integers."""
    scale = math.lcm(*[c.denominator for _, c in divisor.coeffs])
    a = {r: int(c * scale) for r, c in divisor.coeffs}
    rays = [(tuple(v), a.get(v, 0)) for v in fan.rays]
    negative = any(x < 0 for x in a.values())
    for cone in fan.maximal_cones:
        a_cone = [a.get(r, 0) for r in cone.rays]
        if not any(a_cone):
            # m = 0, and a ray with A_v < 0 lies outside the cone
            if negative:
                return False
            continue
        den, inverse = _cleared_inverse(tuple(tuple(r) for r in cone.rays))
        mu = [sum(b * x for b, x in zip(row, a_cone)) for row in inverse]
        if any(sum(map(mul, mu, v)) > den * a_v for v, a_v in rays):
            return False
    return True


@functools.lru_cache(maxsize=None)
def _cleared_inverse(rows):
    """(L, B) with B = L V^-1 an integer matrix, V the square matrix with
    these rows: L = |det V| and B = sign(det V) adj V, the adjugate from
    the cofactors of `naive_det`."""
    n = len(rows)
    det = naive_det(rows)
    if det == 0:
        raise ValueError("singular cone")
    sign = 1 if det > 0 else -1

    def cofactor(i, j):  # of entry (i, j): rows without row i, columns without j
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * (naive_det(minor) if minor else 1)

    return abs(det), tuple(tuple(sign * cofactor(j, i) for j in range(n)) for i in range(n))


def fraction_cartier_index(fan, divisor):
    """lcm of the denominators of all local data, or None if some cone has
    none."""
    coeffs = dict(divisor.coeffs)
    index = 1
    for cone in fan.maximal_cones:
        m = fraction_support_data(cone.rays, coeffs)
        if m is None:
            return None
        for x in m:
            index = index * x.denominator // gcd(index, x.denominator)
    return index


def pull_every_cell(dual, facet, points):
    """Iterated pulling triangulation of the cone over one facet of `dual`,
    testing each pulled point against every cell by dot products with its
    walls; returns the cells as frozensets of rays.  Cells, walls and the
    pyramid rule are those of the refinement, with no conflict lists."""

    def primitive(v):
        g = vec_gcd(v)
        return tuple(x // g for x in v)

    def indices(mask):
        return [k for k in range(mask.bit_length()) if mask >> k & 1]

    (i,) = indices(facet.fmask)
    m_i = dual.facets[i].normal
    walls = []
    for ridge in dual.faces(dual.dim - 2):
        if i in indices(ridge.fmask):
            (j,) = indices(ridge.fmask & ~facet.fmask)
            walls.append((primitive([a - b for a, b in zip(dual.facets[j].normal, m_i)]), frozenset(ridge.vertices)))
    cells = [(frozenset(facet.vertices), walls)]
    for q in points:
        pulled = []
        for rays, walls in cells:
            values = [sum(map(mul, n, q)) for n, _ in walls]
            if min(values) < 0 or sum(v > 0 for v in values) <= 1:
                pulled.append((rays, walls))  # q outside, or the apex already
                continue
            for a, (n_f, on_f) in enumerate(walls):
                v_f = values[a]
                if v_f == 0:
                    continue
                pyramid = [(n_f, on_f)]
                for b, (n_g, on_g) in enumerate(walls):
                    ridge = on_f & on_g
                    if b != a and sum(ridge <= on for _, on in walls) == 2:
                        normal = [v_f * x - values[b] * y for x, y in zip(n_g, n_f)]
                        pyramid.append((primitive(normal), ridge | {q}))
                pulled.append((on_f | {q}, pyramid))
        cells = pulled
    return {rays for rays, _ in cells}


def saturation_census(points):
    """Counts of lattice points grouped by how many facets they saturate."""
    pts = grid_points(points)
    counts = {}
    for sat in pts.values():
        counts[len(sat)] = counts.get(len(sat), 0) + 1
    return counts


def series_c2_quintic():
    """c2 . hyperplane for the quintic threefold by truncated series algebra.

    Works in Q[h]/(h^5): total Chern class (1+h)^5 / (1+5h), coefficient of
    h^2, then multiply by deg(h^2 . h . 5h) = 5.
    """
    def mul(a, b):
        out = [Fraction(0)] * 5
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < 5:
                    out[i + j] += x * y
        return out

    numer = [Fraction(1)]
    numer = numer + [Fraction(0)] * 4
    for _ in range(5):
        numer = mul(numer, [Fraction(1), Fraction(1), 0, 0, 0])
    # geometric series for 1/(1+5h)
    inv = [Fraction((-5) ** k) for k in range(5)]
    total = mul(numer, inv)
    c2_coeff = total[2]
    return c2_coeff * 1 * 5  # c2 . L . (-K) with L = h, -K = 5h, h^4 = 1


def series_c2_cube_hypersurface():
    """c2 . D_{e1} for the anticanonical hypersurface in (P1)^4.

    Square-free monomial algebra over h1..h4 (hk^2 = 0): total Chern class
    prod (1+hk)^2 / (1 + 2*sum hk); extract the degree-2 part, multiply by
    h1 and by -K = 2*sum hk, read off the coefficient of h1 h2 h3 h4.
    """
    def mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                if ma & mb:
                    continue
                key = ma | mb
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return out

    one = {frozenset(): Fraction(1)}
    h = [{frozenset([k]): Fraction(1)} for k in range(4)]
    numer = one
    for k in range(4):
        factor = {frozenset(): Fraction(1), frozenset([k]): Fraction(2)}
        # (1+hk)^2 = 1 + 2hk since hk^2 = 0
        numer = mul(numer, factor)
    minus_k = {}
    for k in range(4):
        minus_k[frozenset([k])] = Fraction(2)
    # 1/(1 + (-K)) as a geometric series, nilpotent so it terminates
    inv = dict(one)
    term = dict(one)
    for _ in range(1, 5):
        term = mul(term, {m: -c for m, c in minus_k.items()})
        for m, c in term.items():
            inv[m] = inv.get(m, Fraction(0)) + c
    total = mul(numer, inv)
    c2 = {m: c for m, c in total.items() if len(m) == 2}
    restricted = mul(mul(c2, h[0]), minus_k)
    return restricted.get(frozenset(range(4)), Fraction(0))


class MemoIntersectionForm:
    """The memoised elimination the library used before its Chow-ring sweep,
    kept as the reference for it.

    Four distinct rays spanning a maximal cone meet in 1/multiplicity; a
    repeated ray is eliminated with a functional that is 1 on it and 0 on
    the other rays of the multiset (a Fraction solve), which strictly
    reduces the repeated slots.
    """

    def __init__(self, fan):
        self.fan = fan
        self.rays = fan.rays
        self._memo = {}
        self._max_sets = {
            frozenset(cone.rays): Fraction(1, cone.multiplicity) for cone in fan.maximal_cones
        }
        self._spanning = set()
        self._star = {}
        for cone_set in self._max_sets:
            for k in range(1, 5):
                for sub in itertools.combinations(sorted(cone_set), k):
                    self._spanning.add(frozenset(sub))
                    if k < 4:
                        self._star.setdefault(frozenset(sub), set()).update(cone_set)

    def spans_cone(self, rays):
        return frozenset(rays) in self._spanning

    def star_rays(self, rays):
        return self._star.get(frozenset(rays), set())

    def value(self, multiset):
        key = tuple(sorted(multiset))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        support = frozenset(key)
        if support not in self._spanning:
            result = Fraction(0)
        elif len(support) == 4:
            result = self._max_sets.get(support, Fraction(0))
        else:
            result = self._eliminate(key, support)
        self._memo[key] = result
        return result

    def _eliminate(self, key, support):
        counts = {}
        for r in key:
            counts[r] = counts.get(r, 0) + 1
        target = max(sorted(counts), key=lambda r: counts[r])
        others = [r for r in sorted(counts) if r != target]
        m = fraction_solve([tuple(target)] + [tuple(r) for r in others], [1] + [0] * len(others))
        rest = list(key)
        rest.remove(target)
        total = Fraction(0)
        for ray in self.star_rays(support) | support:
            if ray == target or ray in others:
                continue
            coeff = sum(a * b for a, b in zip(m, ray))
            if coeff:
                total -= coeff * self.value(tuple(rest) + (ray,))
        return total


def combination_form_cones(fan):
    """The intersection form's per-cone data as its constructor built it
    before the fan held the star: every subset of every maximal
    cone, its first maximal cone as host, its link from all cones holding
    it, and <n_i, u> dotted afresh for every (face, link ray) pair.  Maps
    each face to (det, M / det, set of (u, face + u, c))."""
    tops = fan.cones
    m = math.lcm(*fan.dets)
    host, link = {}, {}
    for ci, top in enumerate(tops):
        for k in range(len(top)):
            for g in itertools.combinations(top, k):
                host.setdefault(g, ci)
                link.setdefault(g, set()).update(top)
    out = {}
    for g, ci in host.items():
        top = tops[ci]
        basis = [fan.duals[ci][top.index(i)] for i in g]
        entries = {
            (u, tuple(sorted(g + (u,))), tuple(sum(map(mul, n, fan.rays[u])) for n in basis))
            for u in link[g].difference(g)
        }
        out[g] = (fan.dets[ci], m // fan.dets[ci], entries)
    return out


def memo_intersection_number(form, d1, d2, d3, d4, path):
    """The quadrilinear extension by one of the two old paths: "sparse"
    expands over the supports, "dense" sweeps each maximal cone's multisets
    with the coefficient symmetrised over the slot assignments."""
    divisors = (d1, d2, d3, d4)
    lookups = [dict(d.coeffs) for d in divisors]
    total = Fraction(0)
    if path == "sparse":
        for rays in itertools.product(*(d.support for d in divisors)):
            if form.spans_cone(set(rays)):
                c = Fraction(1)
                for look, r in zip(lookups, rays):
                    c *= look[r]
                total += c * form.value(rays)
        return total
    seen = set()
    for cone in form.fan.maximal_cones:
        for multiset in itertools.combinations_with_replacement(sorted(cone.rays), 4):
            if multiset in seen:
                continue
            seen.add(multiset)
            value = form.value(multiset)
            if not value:
                continue
            coeff = Fraction(0)
            for rays in set(itertools.permutations(multiset)):
                c = Fraction(1)
                for look, r in zip(lookups, rays):
                    c *= look.get(r, 0)
                coeff += c
            total += coeff * value
    return total


def memo_c2_dot(form, divisor):
    """c2 . L . (-K) as the old edge loop: sum over the 2-cones {a, b} and
    the support rays c of L of a_c * D_a . D_b . D_c . (-K)."""
    total = Fraction(0)
    for a, b in form.fan.edges():
        for c, lc in divisor.coeffs:
            base = (a, b, c)
            if not form.spans_cone(set(base)):
                continue
            for k in form.star_rays(set(base)) | set(base):
                total += lc * form.value(base + (k,))
    return total


def ehrhart_volume(polytope):
    """Normalized volume as the d-th finite difference of the Ehrhart
    polynomial, sum_k (-1)^(d-k) C(d, k) l(kP) for k = 0..d, with l(0P) = 1
    and l(kP) counted by the census of the hull of the dilated vertices.
    No triangulation and no determinant."""
    from cytoric.polytope import hull

    d = polytope.dim
    cls = polytope.point_cls
    total = (-1) ** d
    for k in range(1, d + 1):
        dilated = hull([cls([k * x for x in v]) for v in polytope.vertices])
        total += (-1) ** (d - k) * math.comb(d, k) * dilated.n_points
    return total


def hull_dual(polytope):
    """Polar dual of a reflexive polytope by hulling its facet normals, then
    checking the bidual: the hull's vertices are exactly the normals and its
    facets are <., v> >= -1 for the polytope's vertices v.  No transposed
    incidence table."""
    from cytoric.lattice import DUAL_LATTICE
    from cytoric.polytope import hull

    dual_cls = DUAL_LATTICE[polytope.point_cls]
    normals = [dual_cls(f.normal) for f in polytope.facets]
    dual = hull(normals)
    if dual.vertex_set != frozenset(normals):
        raise AssertionError("dual vertex/facet bijection failed")
    if {(tuple(f.normal), f.offset) for f in dual.facets} != {
        (tuple(v), -1) for v in polytope.vertices
    }:
        raise AssertionError("bidual facets differ from the vertices")
    return dual


def diamond_faces(polytope):
    """{dim: [(vertices, facet indices)]} for the proper faces, each level
    sorted by vertices, by the diamond property alone: inside a (k+1)-face
    the k-faces are the inclusion-maximal intersections with the other
    (k+1)-faces that keep more than k vertices.  The incidence is evaluated
    here from the vertex and facet tuples."""
    vertices = polytope.vertices
    d = len(vertices[0])
    sat = [
        frozenset(
            i
            for i, f in enumerate(polytope.facets)
            if sum(a * b for a, b in zip(v, f.normal)) == f.offset
        )
        for v in vertices
    ]
    level = [
        frozenset(j for j, tight in enumerate(sat) if i in tight)
        for i in range(len(polytope.facets))
    ]
    by_dim = {d - 1: level}
    for k in range(d - 2, 0, -1):
        found = set()
        for a, face in enumerate(level):
            cuts = {face & other for b, other in enumerate(level) if b != a}
            cuts = [c for c in cuts if len(c) > k]
            found.update(c for c in cuts if not any(c < e for e in cuts))
        by_dim[k] = level = list(found)
    by_dim[0] = [frozenset((j,)) for j in range(len(vertices))]
    return {
        k: sorted(
            (tuple(vertices[j] for j in sorted(on)), frozenset.intersection(*(sat[j] for j in on)))
            for on in level
        )
        for k, level in by_dim.items()
    }


def simplicial_hull(points):
    """Convex hull by beneath-beyond over simplicial facets, as `hull` once
    built it: each facet is keyed by the bitmask of its d point indices,
    ridge owners are updated as facets come and go, and coplanar pieces are
    merged into the true facets at the end.  The final slack table, vertex
    selection and incidence are `hull`'s."""
    from cytoric._linalg import dot
    from cytoric.errors import InputError, InternalInvariantError
    from cytoric.lattice import DUAL_LATTICE, RationalHyperplane
    from cytoric.polytope import (
        Polytope,
        _bits,
        _initial_simplex,
        _simplex_facets,
    )

    pts = sorted(set(points))
    simplex = _initial_simplex(pts, pts[0].dim)
    # point-index mask -> (inner normal, rhs, the mask's single bits)
    facets = {
        key: (normal, rhs, tuple(1 << i for i in _bits(key)))
        for (normal, rhs), key in _simplex_facets(pts, simplex).items()
    }
    ridge_owners = {}
    for key, (_, _, bits) in facets.items():
        for bit in bits:
            ridge_owners.setdefault(key ^ bit, []).append(key)

    done = set(simplex)
    for i, p in enumerate(pts):
        if i in done:
            continue
        slack = {key: dot(normal, p) - rhs for key, (normal, rhs, _) in facets.items()}
        visible = [key for key, s in slack.items() if s < 0]
        if not visible:
            continue
        apex = 1 << i
        new_facets = {}
        for key in visible:
            normal_f, rhs_f, bits = facets[key]
            s_f = slack[key]
            for bit in bits:
                ridge = key ^ bit
                owners = ridge_owners[ridge]
                if len(owners) != 2:
                    raise InternalInvariantError("boundary complex lost a ridge")
                other = owners[0] if owners[1] == key else owners[1]
                s_g = slack[other]
                if s_g < 0:
                    continue
                normal_g, rhs_g, _ = facets[other]
                normal = [s_g * a - s_f * b for a, b in zip(normal_f, normal_g)]
                g = gcd(*normal)
                new_facets[ridge | apex] = (
                    tuple(c // g for c in normal),
                    (s_g * rhs_f - s_f * rhs_g) // g,
                    tuple(b for b in bits if b != bit) + (apex,),
                )
        for key in visible:
            for bit in facets.pop(key)[2]:
                ridge = key ^ bit
                owners = ridge_owners[ridge]
                owners.remove(key)
                if not owners:
                    del ridge_owners[ridge]
        for key, facet in new_facets.items():
            facets[key] = facet
            for bit in facet[2]:
                ridge_owners.setdefault(key ^ bit, []).append(key)

    planes = sorted({(normal, rhs) for normal, rhs, _ in facets.values()})
    tight = []
    for p in pts:
        mask = 0
        for j, (normal, rhs) in enumerate(planes):
            s = dot(normal, p) - rhs
            if s <= 0:
                if s:
                    raise InputError(f"hull construction failed: {p} outside result")
                mask |= 1 << j
        tight.append(mask)
    candidates = _bits(functools.reduce(int.__or__, facets))
    masks = {tight[i] for i in candidates}
    vertices = [i for i in candidates if not any(tight[i] & u == tight[i] != u for u in masks)]
    saturated = [tight[i] for i in vertices]
    dual_cls = DUAL_LATTICE[type(pts[0])]
    return Polytope(
        [pts[i] for i in vertices],
        [RationalHyperplane(dual_cls(normal), rhs) for normal, rhs in planes],
        saturated=saturated,
    )
