"""Internal consistency checks are exceptions, so they survive `python -O`,
and refusals of bad input are typed."""

import ast
import functools
import inspect
import os
import subprocess
import sys
from collections import Counter
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
from cytoric.fan import Cone, Fan, WeilDivisor, face_fan, is_qcartier, mpcp_triangulate, picard_rank_q
from cytoric.fixtures import fixture_polytope
from cytoric.lattice import MPoint, NPoint, RationalHyperplane
from cytoric.polytope import PointCensus, Polytope, hull

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


# the math functions that stay on integers
EXACT_MATH = {"gcd", "lcm"}


def _float_entries(tree):
    """The nodes of a module through which a float can enter: a float
    literal, a call to float() or round(), true division, and a math
    function other than gcd and lcm, named or imported."""
    math_names = {
        a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "math"
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in math_names and node.attr not in EXACT_MATH
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            and {a.name for a in node.names} - EXACT_MATH
        ):
            yield node


def test_no_floating_point_in_the_package():
    # all arithmetic is exact: ints and Fractions, with no float anywhere
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = path.relative_to(PACKAGE).as_posix()
        found += [f"{module}:{node.lineno}" for node in _float_entries(tree)]
    assert found == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 1e3", "y = float(x)", "y = round(x)", "y = x / 2", "x /= 2",
     "import math\ny = math.sqrt(x)", "import math as m\ny = m.floor(x)",
     "from math import gcd, isqrt"],
)
def test_float_guard_sees_each_entry(source):
    assert len(list(_float_entries(ast.parse(source)))) == 1


def test_float_guard_passes_exact_arithmetic():
    source = "import math\nfrom math import gcd, lcm\ny = math.gcd(x // 2, lcm(x, 3)) % 2 ** 3"
    assert list(_float_entries(ast.parse(source))) == []


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
    kernel_names = {"_eliminate", "int_det", "dual_basis", "pivot_columns", "matrix_rank", "spans_hyperplane"}
    assert kernel_names <= set(defined)
    assert sorted(set(defined) - live) == []


# functions, methods and properties no module of the package reads by name,
# each kept for a reason outside it
UNREAD_DEFINITIONS = {
    # held by the bench, which wraps them (ROADMAP item 12's worklist)
    "chern_report": "bench/spans.py wraps chern.chern_report",
    "dual_face": "bench/spans.py wraps Polytope.dual_face",
    # public entry points
    "euler_characteristic": "chern's ring chi, the check against Batyrev's count",
    "fixture_polytope": "a bundled fixture by name, as the README tour reads it",
    "zero": "WeilDivisor.zero, the zero divisor beside ray and anticanonical",
}


def _read_names(root):
    """Each name and attribute read under `root`, with repeats."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_has_a_reader():
    # a function, method or property is read if a module of the package
    # names it outside its own body; the language reads the dunders
    reads, own, defined = Counter(), Counter(), set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(_read_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
                own[node.name] += sum(name == node.name for name in _read_names(node))
    unread = {n for n in defined if reads[n] <= own[n] and not (n.startswith("__") and n.endswith("__"))}
    assert sorted(unread) == sorted(UNREAD_DEFINITIONS)


def _mark_a_boundary_point_interior(p):
    """Give p a census whose first boundary point is interior: its face
    mask set to 0, and the per-mask counts derived from the masks."""
    face_of = dict(p.census().face_of)
    moved = next(q for q, sat in face_of.items() if sat)
    face_of[moved] = 0
    p._census = PointCensus(face_of)


# run after the source of _mark_a_boundary_point_interior
OPTIMISED_POLYTOPE_CHECKS = """
import itertools
import sys
from cytoric import hodge
from cytoric.errors import InputError, InternalInvariantError, NotFullDimensionalError
from cytoric.fixtures import fixture_polytope
from cytoric.lattice import MPoint, NPoint, RationalHyperplane
from cytoric.polytope import PointCensus, Polytope, hull

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
quintic = fixture_polytope("quintic")
_mark_a_boundary_point_interior(quintic.dual())
try:
    hodge.report(quintic)
except InternalInvariantError as exc:
    print("dual census InternalInvariantError", exc)
"""


def test_polytope_checks_survive_python_optimise():
    # the constructor's incidence checks, hull's rank test and the divisor
    # census's interior-point check raise, so they still hold under -O,
    # which strips assert statements
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = inspect.getsource(_mark_a_boundary_point_interior) + OPTIMISED_POLYTOPE_CHECKS
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
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
        "dual census InternalInvariantError dual census holds 2 interior points",
    ]


def test_internal_invariant_error_is_not_an_input_error():
    assert issubclass(InternalInvariantError, AssertionError)
    assert not issubclass(InternalInvariantError, CytoricError)


@pytest.mark.parametrize("side", ["dual", "primal"])
def test_census_with_a_boundary_point_marked_interior_is_refused(side):
    # the divisor census of each side reads the other side's census, so the
    # report reaches both: a miscounted primal census is refused as well
    quintic = fixture_polytope("quintic")
    rep = hodge.report(quintic)
    assert (rep.h11, rep.h12) == (1, 101)
    _mark_a_boundary_point_interior(quintic.dual() if side == "dual" else quintic)
    with pytest.raises(InternalInvariantError, match="census holds 2 interior points"):
        hodge.report(quintic)


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


def _flat_fan():
    # its one maximal cone spans a plane in Z^4
    return Fan([Cone((_e(0), _e(1)))], "face", None)


def _baseless_fan():
    return Fan(_cross4d_face_fan().maximal_cones, "sheared", None)


def _s3_face_fan_less_a_cone():
    # the example's face fan, whose last cone has five rays, without its
    # first cone, which is simplicial
    fan = face_fan(_polytope("example_s3"))
    return Fan(fan.maximal_cones[1:], "face", fan.base)


def _failing_then_flat_fan():
    # the example's five-ray cone, on which D_(1,1,1,-2) is not Q-Cartier,
    # then a cone spanning a plane
    big = face_fan(_polytope("example_s3")).maximal_cones[-1]
    return Fan([big, Cone((_e(0), _e(1)))], "face", None)


PLANE_N, PLANE_M = (NPoint((1, 0)), NPoint((0, 1))), (MPoint((1, 0)), MPoint((0, 1)))


SQUARE = [MPoint(p) for p in ((1, 1), (1, -1), (-1, 1), (-1, -1))]


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
        (InputError, lambda: _flat_fan().dets),
        (NotSimplicialError, lambda: _cross4d_face_fan().edges()),
        (NotSimplicialError, lambda: _cross4d_face_fan().dets),
        (NotSimplicialError, lambda: IntersectionForm(_cross4d_face_fan())),
        (NotSimplicialError, lambda: curve_census(_polytope("cross4d"), _cross4d_face_fan())),
        (InputError, lambda: _quintic_form().value(_quintic_form().rays[:3])),
        (InputError, lambda: MPoint((1, 0)) + MPoint((1, 0, 0))),
        (InputError, lambda: MPoint((1, 0)) * 1.5),
        (InputError, lambda: RationalHyperplane(NPoint((0, 0)), 1)),
        (InputError, lambda: MPoint((1, 0)) - NPoint((1, 0))),
        (InputError, lambda: Polytope([], [])),
        (InputError, lambda: Polytope([(0, 0), (1, 0)], [])),
        (InputError, lambda: Polytope([MPoint((0, 0)), MPoint((1, 0, 0))], [])),
        (InputError, lambda: Polytope([MPoint((0, 0)), NPoint((1, 0))], [])),
        (InputError, lambda: Polytope([MPoint((0, 0))], [RationalHyperplane(MPoint((1, 0)), 0)])),
        (InputError, lambda: Polytope([MPoint((0, 0))], [RationalHyperplane(NPoint((1, 0, 0)), 0)])),
        (InputError, lambda: RationalHyperplane((1, 0), 1)),
        (InputError, lambda: RationalHyperplane(NPoint((1, 0)), 0.5)),
        (InputError, lambda: RationalHyperplane(NPoint((1, 0)), True)),
        (InputError, lambda: Polytope(SQUARE, [((1, 0), -1)])),
        (InputError, lambda: Polytope(SQUARE, [None])),
        (InputError, lambda: Polytope(SQUARE + [None], [])),
        (InputError, lambda: Cone(((1, 0), (0, 1)))),
        (InputError, lambda: Cone((MPoint((1, 0)), NPoint((0, 1))))),
        (InputError, lambda: Fan([], "face", None).dim),
        (InputError, lambda: Cone((NPoint((1, 0)), NPoint((0, 1, 0))))),
        (InputError, lambda: Fan([Cone(PLANE_N), Cone(PLANE_M)], "face", None)),
        (InputError, lambda: Fan([Cone(PLANE_N), Cone((_e(0), _e(1), _e(2), _e(3)))], "face", None)),
        (InputError, lambda: _baseless_fan().is_fine),
        (NotSimplicialError, lambda: _baseless_fan().walls()),
        (InputError, lambda: picard_rank_q(_flat_fan())),
        (InputError, lambda: is_qcartier(_flat_fan(), WeilDivisor.ray(_e(0)))),
        (InputError, lambda: WeilDivisor.ray(_e(0), 0.5)),
        (InputError, lambda: WeilDivisor.ray(_e(0), True)),
        (InputError, lambda: 0.1 * WeilDivisor.ray(_e(0))),
        (InputError, lambda: WeilDivisor.ray(_e(0)) + 1),
        (InputError, lambda: _quintic_form().value((MPoint(tuple(_quintic_form().rays[0])),) * 4)),
        (InputError, lambda: _polytope("quintic").dual_face(_polytope("quintic").dual().faces(1)[0])),
        (InputError, lambda: _polytope("pgon_square").dual_face(_polytope("pgon_diamond").dual().faces(0)[0])),
        (NotSimplicialError, lambda: _s3_face_fan_less_a_cone().walls()),
        (NotSimplicialError, lambda: _s3_face_fan_less_a_cone().wall_consistency()),
        (InputError, lambda: is_qcartier(_failing_then_flat_fan(), WeilDivisor.ray(NPoint((1, 1, 1, -2))))),
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
        "subtraction-across-lattices",
        "polytope-of-no-vertices",
        "polytope-of-plain-tuples",
        "polytope-of-mixed-dimensions",
        "polytope-of-mixed-lattices",
        "facet-normal-in-the-primal-lattice",
        "facet-normal-of-another-dimension",
        "hyperplane-of-a-plain-tuple",
        "hyperplane-at-a-float-offset",
        "hyperplane-at-a-bool-offset",
        "polytope-with-a-plain-tuple-facet",
        "polytope-with-a-None-facet",
        "polytope-with-a-None-vertex",
        "cone-of-plain-tuples",
        "cone-of-mixed-lattices",
        "fan-of-no-cones",
        "cone-of-mixed-dimensions",
        "fan-of-mixed-lattices",
        "fan-of-mixed-dimensions",
        "is_fine-of-a-fan-without-a-base",
        "walls-of-a-non-simplicial-fan-without-a-base",
        "picard-of-a-fan-with-a-flat-cone",
        "qcartier-on-a-fan-with-a-flat-cone",
        "divisor-with-a-float-coefficient",
        "divisor-with-a-bool-coefficient",
        "divisor-scaled-by-a-float",
        "divisor-plus-an-int",
        "form-value-of-M-points",
        "dual_face-of-a-face-of-the-dual",
        "dual_face-of-an-equal-face-in-the-other-lattice",
        "walls-of-a-non-simplicial-fan-less-a-cone",
        "wall_consistency-of-a-non-simplicial-fan-less-a-cone",
        "qcartier-failing-before-a-flat-cone",
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
