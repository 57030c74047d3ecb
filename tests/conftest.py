import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cytoric.lattice import MPoint
from cytoric.polytope import hull


def mpoints(rows):
    return [MPoint(r) for r in rows]


@pytest.fixture(scope="session")
def square():
    return hull(mpoints([(1, 1), (1, -1), (-1, 1), (-1, -1)]))


@pytest.fixture(scope="session")
def cube4():
    return hull(mpoints(itertools.product((-1, 1), repeat=4)))


@pytest.fixture(scope="session")
def cross4():
    pts = []
    for i in range(4):
        for s in (1, -1):
            v = [0, 0, 0, 0]
            v[i] = s
            pts.append(tuple(v))
    return hull(mpoints(pts))


def shear(rows, steps):
    """Apply the transvections x_i += c * x_j, one (i, j, c) per step: a
    unimodular map, so lattice points and faces correspond one to one."""
    for i, j, c in steps:
        rows = [p[:i] + (p[i] + c * p[j],) + p[i + 1:] for p in rows]
    return rows


def transvection():
    """Hypothesis strategy for one step (i, j, c) of `shear`, |c| <= 2."""
    from hypothesis import strategies as st

    steps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from((-2, -1, 1, 2)))
    return steps.filter(lambda t: t[0] != t[1])


def ray_simplex_points(weights):
    """e1..e4 and -(w1..w4), the vertices of `ray_simplex(weights)`."""
    rows = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    rows.append(tuple(-w for w in weights))
    return mpoints(rows)


def ray_simplex(weights):
    """conv(e1..e4, -(w1..w4)): the mirror side of the hypersurface in the
    weighted projective space P(1, w1..w4)."""
    return hull(ray_simplex_points(weights))


def weighted_ray_simplices():
    """The 69 reflexive ray simplices conv(e1..e4, -(w1..w4)) with w_i <= 42
    and w_i | 1 + sum(w), the weighted P4s of the benchmark corpus."""
    out = []
    for ws in itertools.combinations_with_replacement(range(1, 43), 4):
        if not any((1 + sum(ws)) % w for w in ws):
            simplex = ray_simplex(ws)
            if simplex.is_reflexive():
                out.append(simplex)
    return out


def example_s3_vertices():
    """The 15-vertex reflexive 4-polytope used as the running worked example."""
    rows = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                rows.append((e1, e2, e3, -1))
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                if e1 == e2 == e3 == 1:
                    continue
                s = e1 + e2 + e3
                rows.append((-e1, -e2, -e3, -(s - 1) // 2))
    return rows


@pytest.fixture(scope="session")
def example_s3():
    return hull(mpoints(example_s3_vertices()))


@pytest.fixture(scope="session")
def quintic():
    return hull(
        mpoints(
            [
                (4, -1, -1, -1),
                (-1, 4, -1, -1),
                (-1, -1, 4, -1),
                (-1, -1, -1, 4),
                (-1, -1, -1, -1),
            ]
        )
    )
