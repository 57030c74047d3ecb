"""Seeded benchmark corpus, built from the bundled fixtures and from
weighted-P4 weights alone.

Three families of reflexive 4-polytopes, each given as a point list:

* products of two bundled reflexive polygons (all 136 unordered pairs of the
  16 polygon files), each moved by a seeded unimodular shear with entries in
  {-1, 0, 1} that grows the bounding boxes of the product and its dual at
  most MAX_BOX_GROWTH times; Hodge data is GL(4,Z)-invariant, so answers
  are keyed by the unsheared pair;
* the ray simplices conv(e1..e4, -(w1..w4)) of the 69 weight systems
  (1, w1..w4) with w_i <= 42 and w_i | 1 + sum(w); the simplex is the
  mirror side, its dual is the Newton polytope of the degree-(1 + sum(w))
  hypersurface in P(1, w1..w4);
* the four 4-D fixtures.

`properties` gives the input properties later comparisons group by:
l(D), l(D°), the bounding-box point counts of both sides, their fill
ratios and the ray count of the refinement.  `bench/run.py --describe
--seed N` prints them for every input of a seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from cytoric import MPoint, hull
from cytoric.fixtures import CORPUS_4D, POLYGONS, fixture_points

MAX_WEIGHT = 42
SHEAR_ENTRIES = (-1, 0, 1)
# Unbounded, 0 to 3 of a seed's 136 shears blow a product's boxes up 40 to
# 150 times, which puts it among the slowest polytopes of the survey and
# moves hodge-scan's p95 by up to a third from seed to seed.  The sparse
# boxes the census must scan come from the weighted simplices instead.
MAX_BOX_GROWTH = 16


@dataclass(frozen=True)
class Input:
    """One benchmark input: `key` names the unsheared polytope (the key of
    the recorded answers), `points` is what the program receives."""

    key: str
    family: str  # "product", "weighted" or "fixture"
    points: tuple


def _det(m):
    """Integer determinant by cofactor expansion (matrices here are 4x4)."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def random_shear(rng: random.Random):
    """A uniformly drawn 4x4 matrix over {-1,0,1} with determinant +-1."""
    while True:
        m = [[rng.choice(SHEAR_ENTRIES) for _ in range(4)] for _ in range(4)]
        if abs(_det(m)) == 1:
            return tuple(tuple(row) for row in m)


def inverse_transpose(m):
    """M^-T of a unimodular integer matrix: its cofactor matrix over det M.
    If M moves a polytope, M^-T moves its dual."""
    det = _det(m)
    return tuple(
        tuple(
            (-1) ** (i + j) * _det([r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i]) // det
            for j in range(len(m))
        )
        for i in range(len(m))
    )


def bounded_shear(rng: random.Random, points, dual_vertices):
    """A random shear that grows the bounding-box point counts of the
    polytope and of its dual, summed, at most MAX_BOX_GROWTH times."""
    limit = MAX_BOX_GROWTH * (box_points(points) + box_points(dual_vertices))
    while True:
        m = random_shear(rng)
        grown = box_points(apply(m, points)) + box_points(apply(inverse_transpose(m), dual_vertices))
        if grown <= limit:
            return m


def apply(matrix, points):
    return tuple(
        MPoint(tuple(sum(a * x for a, x in zip(row, p)) for row in matrix))
        for p in points
    )


def polygon_products():
    """(key, points, dual vertices) for every unordered pair of bundled
    polygons.  The dual of P x Q is the convex hull of P° x 0 and 0 x Q°."""
    polys = {name: fixture_points(name) for name in POLYGONS}
    duals = {name: hull(pts).dual().vertices for name, pts in polys.items()}
    out = []
    for a, b in itertools.combinations_with_replacement(POLYGONS, 2):
        pts = tuple(MPoint(tuple(p) + tuple(q)) for p in polys[a] for q in polys[b])
        dual = [tuple(u) + (0, 0) for u in duals[a]] + [(0, 0) + tuple(v) for v in duals[b]]
        out.append((f"{a}*{b}", pts, dual))
    return out


def ray_simplex(weights):
    """conv(e1..e4, -(w1..w4)) for the weight system (1, w1..w4)."""
    unit = [MPoint(tuple(int(i == j) for j in range(4))) for i in range(4)]
    return tuple(unit + [MPoint(tuple(-w for w in weights))])


def weight_key(weights) -> str:
    return "wp" + "_".join(str(w) for w in (1,) + tuple(weights))


def weight_systems():
    """The weights (w1..w4), ascending, with w_i <= 42 and w_i | 1 + sum(w)
    whose ray simplex the library finds reflexive."""
    out = []
    for ws in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), 4):
        degree = 1 + sum(ws)
        if any(degree % w for w in ws):
            continue
        if hull(ray_simplex(ws)).is_reflexive():
            out.append(ws)
    return out


def build(seed: int):
    """The full survey corpus for a seed: sheared products, weighted ray
    simplices and fixtures, in a seeded order."""
    rng = random.Random(seed)
    inputs = []
    for key, pts, dual in polygon_products():
        inputs.append(Input(key, "product", apply(bounded_shear(rng, pts, dual), pts)))
    for ws in weight_systems():
        inputs.append(Input(weight_key(ws), "weighted", ray_simplex(ws)))
    for name in CORPUS_4D:
        inputs.append(Input(name, "fixture", tuple(fixture_points(name))))
    rng.shuffle(inputs)
    return inputs


def box_points(vertices) -> int:
    """Lattice points in the axis-parallel bounding box of the vertices."""
    n = 1
    for i in range(len(vertices[0])):
        coords = [v[i] for v in vertices]
        n *= max(coords) - min(coords) + 1
    return n


def properties(delta) -> dict:
    """Size properties of a reflexive polytope and its dual.  Runs both
    censuses if they have not run yet."""
    dual = delta.dual()
    l_delta, l_dual = delta.n_points, dual.n_points
    box_delta, box_dual = box_points(delta.vertices), box_points(dual.vertices)
    return {
        "l": l_delta,
        "l_dual": l_dual,
        "box": box_delta,
        "box_dual": box_dual,
        "fill": l_delta / box_delta,
        "fill_dual": l_dual / box_dual,
        "rays": l_dual - 1,
    }
