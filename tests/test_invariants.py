"""Internal consistency checks are exceptions, so they survive `python -O`,
and refusals of bad input are typed."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cytoric
from cytoric import hodge
from cytoric.chern import IntersectionForm, curve_census
from cytoric.errors import (
    CytoricError,
    InputError,
    InternalInvariantError,
    NotReflexiveError,
    NotSimplicialError,
)
from cytoric.fan import Cone, face_fan, mpcp_triangulate
from cytoric.fixtures import fixture_polytope
from cytoric.hodge import divisor_census
from cytoric.lattice import MPoint, NPoint, RationalHyperplane
from cytoric.polytope import hull

PACKAGE = Path(cytoric.__file__).parent


def test_no_assert_statements_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# imports no module of the package reads, each kept for a reason outside it
UNREAD_IMPORTS = {
    ("fan.py", "hull"): "bench/spans.py wraps fan.hull",
}


def test_every_import_in_the_package_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in _names(node.targets):
                read |= {elt.value for elt in node.value.elts}  # re-exported
        module = path.relative_to(PACKAGE).as_posix()
        unread += [(module, name) for name in sorted(imported - read)]
    assert unread == sorted(UNREAD_IMPORTS)


def _names(nodes):
    """Every name, attribute and imported name under the given ast nodes."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def test_every_linalg_kernel_has_a_caller():
    # a top-level function or class of _linalg is live if another module
    # names it or a live one calls it; anything else is dead code
    kernel = ast.parse((PACKAGE / "_linalg.py").read_text(encoding="utf-8"))
    defined = {
        node.name: node
        for node in kernel.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    live = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "_linalg.py":
            live |= _names([ast.parse(path.read_text(encoding="utf-8"))]) & set(defined)
    frontier = set(live)
    while frontier:
        frontier = _names(defined[name] for name in frontier) & set(defined) - live
        live |= frontier
    assert len(defined) >= 10
    assert sorted(set(defined) - live) == []


OPTIMISED_POLYTOPE_CHECKS = """
import itertools
import sys
from cytoric.errors import InputError, NotFullDimensionalError
from cytoric.lattice import MPoint, NPoint, RationalHyperplane
from cytoric.polytope import Polytope, hull

assert False, "not optimised"
print(sys.flags.optimize)
square = hull([MPoint(p) for p in [(1, 1), (1, -1), (-1, 1), (-1, -1)]])
bigger = hull([MPoint(p) for p in [(2, 2), (2, -2), (-2, 2), (-2, -2)]])
cases = {
    "outside": (bigger.vertices, square.facets),
    "unsaturated": (square.vertices, bigger.facets),
    "short facet": (square.vertices, square.facets + (RationalHyperplane(NPoint((1, 1)), -2),)),
    "one facet short": (square.vertices, square.facets[1:]),
}
for name, (vertices, facets) in cases.items():
    try:
        Polytope(list(vertices), list(facets))
    except InputError as exc:
        print(name, "InputError", exc)
try:
    hull([MPoint(p) for p in [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0), (3, 1, 0)]])
except NotFullDimensionalError as exc:
    print("flat", type(exc).__name__, exc.affine_dim, exc.ambient_dim)
base = [p + (0,) for p in itertools.product((-1, 1), repeat=3)]
bipyramid = hull([MPoint(p) for p in base + [(0, 0, 0, -1), (0, 0, 0, 1)]])
narrowed = list(bipyramid._saturated)
apex = next(j for j, v in enumerate(bipyramid.vertices) if v[3] and narrowed[j] & 1)
narrowed[apex] &= ~1  # facet 0 keeps the square under its apex: on the plane, rank 2
try:
    Polytope(list(bipyramid.vertices), list(bipyramid.facets), saturated=narrowed)
except InputError as exc:
    print("narrowed facet InputError", exc)
"""


def test_polytope_checks_survive_python_optimise():
    # the constructor's incidence checks and hull's rank test raise, so they
    # still hold under -O, which strips assert statements
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMISED_POLYTOPE_CHECKS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "1",
        "outside InputError vertex MPoint(-2, -2) violates a facet inequality",
        "unsaturated InputError vertex MPoint(-1, -1) saturates fewer than 2 facets",
        "short facet InputError facet 4 holds fewer than 2 vertices",
        "one facet short InputError vertex MPoint(1, -1) saturates fewer than 2 facets",
        "flat NotFullDimensionalError 2 3",
        "narrowed facet InputError facet 0 vertices do not span it",
    ]


def test_internal_invariant_error_is_not_an_input_error():
    assert issubclass(InternalInvariantError, AssertionError)
    assert not issubclass(InternalInvariantError, CytoricError)


def test_census_rank_check_raises(quintic, monkeypatch):
    assert divisor_census(quintic).rank == 1
    monkeypatch.setattr(hodge, "h11", lambda delta: 2)
    with pytest.raises(InternalInvariantError, match="rank 1 != h11 2"):
        divisor_census(quintic)


@functools.cache
def _polytope(name):
    return fixture_polytope(name)


@functools.cache
def _quintic_form():
    return IntersectionForm(mpcp_triangulate(_polytope("quintic")))


def _cross4d_face_fan():
    return face_fan(_polytope("cross4d"))


@functools.cache
def _wide_square():
    # facets at lattice distance 2 from the origin
    return hull([MPoint(p) for p in ((2, 2), (2, -2), (-2, 2), (-2, -2))])


def _e(i):
    return NPoint(tuple(int(i == j) for j in range(4)))


@pytest.mark.parametrize(
    "error, refusal",
    [
        (NotReflexiveError, lambda: _wide_square().dual_face(_wide_square().faces(1)[0])),
        (InputError, lambda: hull([])),
        (InputError, lambda: hull([(0, 0), (1, 0), (0, 1)])),
        (InputError, lambda: hull([MPoint((0, 0)), NPoint((1, 0)), MPoint((0, 1))])),
        (InputError, lambda: hull([MPoint((0, 0)), MPoint((1, 0)), MPoint((0, 1, 0))])),
        (InputError, lambda: Cone(())),
        (InputError, lambda: Cone((_e(0), _e(1), _e(0)))),
        (InputError, lambda: Cone((_e(0), NPoint((0, 2, 0, 0))))),
        (NotSimplicialError, lambda: Cone((_e(0), _e(1))).multiplicity),
        (NotSimplicialError, lambda: _cross4d_face_fan().edges()),
        (NotSimplicialError, lambda: _cross4d_face_fan().dets),
        (NotSimplicialError, lambda: IntersectionForm(_cross4d_face_fan())),
        (NotSimplicialError, lambda: curve_census(_polytope("cross4d"), _cross4d_face_fan())),
        (InputError, lambda: _quintic_form().value(_quintic_form().rays[:3])),
        (InputError, lambda: MPoint((1, 0)) + MPoint((1, 0, 0))),
        (InputError, lambda: MPoint((1, 0)) * 1.5),
        (InputError, lambda: RationalHyperplane(NPoint((0, 0)), 1)),
    ],
    ids=[
        "dual_face-on-a-non-reflexive-square",
        "hull-of-no-points",
        "hull-of-plain-tuples",
        "hull-of-mixed-lattices",
        "hull-of-mixed-dimensions",
        "cone-with-no-rays",
        "cone-with-a-repeated-ray",
        "cone-with-a-non-primitive-ray",
        "multiplicity-of-a-2-ray-cone-in-Z4",
        "edges-of-a-non-simplicial-fan",
        "dets-of-a-non-simplicial-fan",
        "form-of-a-non-simplicial-fan",
        "curve_census-of-a-non-simplicial-fan",
        "form-value-of-three-rays",
        "addition-across-dimensions",
        "scaling-by-a-float",
        "zero-hyperplane-normal",
    ],
)
def test_typed_refusals(error, refusal):
    # each is a CytoricError, so the CLI reports it with exit 1
    with pytest.raises(CytoricError) as info:
        refusal()
    assert type(info.value) is error


def test_form_value_of_a_ray_off_the_fan_is_zero():
    form = _quintic_form()
    assert form.value((NPoint((1, 1, 0, 0)),) + form.rays[:3]) == 0
