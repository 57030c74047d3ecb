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


def test_internal_invariant_error_is_not_an_input_error():
    assert issubclass(InternalInvariantError, AssertionError)
    assert not issubclass(InternalInvariantError, CytoricError)


def test_census_rank_check_raises(quintic):
    assert divisor_census(quintic, 1).rank == 1
    with pytest.raises(InternalInvariantError, match="rank 1 != h11 2"):
        divisor_census(quintic, 2)
