"""The bench traces the library by wrapping names at their import sites
(`bench/spans.py`).  Entering and leaving its instrumentation must find
every name it wraps and put each one back."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

from cytoric import chern, cli, fan, fixtures, hodge, polytope  # noqa: E402

MODULES = (chern, cli, fan, fixtures, hodge, polytope)
CLASSES = (polytope.Polytope, chern.IntersectionForm)


def test_instrument_finds_and_restores_every_wrapped_name():
    before = [dict(vars(owner)) for owner in MODULES + CLASSES]
    with spans.instrument(spans.Tracer()):
        assert fan.hull is not polytope.hull  # wrapped while inside
    assert [dict(vars(owner)) for owner in MODULES + CLASSES] == before
