"""Internal consistency checks are exceptions, so they survive `python -O`."""

import ast
from pathlib import Path

import pytest

import cytoric
from cytoric.errors import CytoricError, InternalInvariantError
from cytoric.hodge import divisor_census

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


def test_internal_invariant_error_is_not_an_input_error():
    assert issubclass(InternalInvariantError, AssertionError)
    assert not issubclass(InternalInvariantError, CytoricError)


def test_census_rank_check_raises(quintic):
    assert divisor_census(quintic, 1).rank == 1
    with pytest.raises(InternalInvariantError, match="rank 1 != h11 2"):
        divisor_census(quintic, 2)
