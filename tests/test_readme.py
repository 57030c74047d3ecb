"""The README's library tour runs as printed and gives the values its
comments state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_tour_gives_its_commented_values():
    source = _tour()
    namespace, said = {}, {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            said[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    comments = {
        code.strip(): comment.strip()
        for code, comment in (line.split("#", 1) for line in source.splitlines() if "#" in line)
    }
    for code, value in (("h11(delta)", 4), ("picard_rank_q(face_fan(delta))", 3), ("picard_rank_q(fan)", 4)):
        assert comments[code] == str(value) and said[code] == value, code
    fan = namespace["fan"]
    assert comments["fan = mpcp_triangulate(delta)"] == "16 maximal cones, all simplicial"
    assert len(fan.maximal_cones) == 16 and fan.is_simplicial
    assert comments["singularity_census(fan)"] == "eight cones of multiplicity 2"
    assert [m for _, m in said["singularity_census(fan)"]] == [2] * 8
    c2 = "c2_dot(delta, form, WeilDivisor.anticanonical(fan))"
    assert comments[c2] == "144, an exact Fraction" and said[c2] == 144
    assert type(said[c2]) is Fraction
