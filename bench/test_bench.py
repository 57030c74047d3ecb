"""Tests of the benchmark itself: seeded inputs, the correctness gates and
the span arithmetic.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import copy  # noqa: E402
import random  # noqa: E402

import pytest  # noqa: E402

import corpus  # noqa: E402
import gates  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cytoric import hodge, hull  # noqa: E402
from cytoric.fixtures import fixture_points  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return gates.load_hodge_table()


# -- corpus --------------------------------------------------------------------------


def test_same_seed_same_inputs():
    assert corpus.build(7) == corpus.build(7)


def test_other_seed_other_inputs():
    a, b = corpus.build(7), corpus.build(8)
    assert {i.key for i in a} == {i.key for i in b}
    assert a != b


def test_corpus_families():
    assert len(corpus.weight_systems()) == 69
    inputs = corpus.build(0)
    counts = {}
    for inp in inputs:
        counts[inp.family] = counts.get(inp.family, 0) + 1
    assert counts == {"product": 136, "weighted": 69, "fixture": 4}
    assert len({i.key for i in inputs}) == 209


def test_shears_are_unimodular():
    rng = random.Random(3)
    for _ in range(50):
        m = corpus.random_shear(rng)
        assert abs(corpus._det([list(r) for r in m])) == 1
        assert all(x in (-1, 0, 1) for row in m for x in row)


def test_inverse_transpose_moves_the_dual():
    rng = random.Random(4)
    for _ in range(20):
        m = corpus.random_shear(rng)
        mt = corpus.inverse_transpose(m)
        # <M u, M^-T v> = <u, v> for all u, v: M^T M^-T = I.
        assert all(
            sum(m[k][i] * mt[k][j] for k in range(4)) == int(i == j) for i in range(4) for j in range(4)
        )


def test_product_shears_bound_the_box_growth():
    products = {key: (pts, dual) for key, pts, dual in corpus.polygon_products()}
    for inp in corpus.build(324):
        if inp.family != "product" or inp.key.count("pgon_triangle_p2") == 0:
            continue
        pts, dual = products[inp.key]
        sheared = hull(inp.points)
        assert sorted(map(tuple, dual)) == sorted(map(tuple, hull(pts).dual().vertices))
        grown = corpus.box_points(sheared.vertices) + corpus.box_points(sheared.dual().vertices)
        assert grown <= corpus.MAX_BOX_GROWTH * (corpus.box_points(pts) + corpus.box_points(dual))


def test_recorded_table_covers_the_corpus(table):
    assert {i.key for i in corpus.build(0)} == set(table)


def test_sheared_input_keeps_recorded_hodge_data(table):
    inp = next(i for i in corpus.build(5) if i.key == "pgon_square*pgon_hexagon")
    report = hodge.report(hull(inp.points))
    assert gates.check_hodge_report(inp.key, report, table) == []


def test_properties_of_the_quintic_mirror():
    props = corpus.properties(hull(corpus.ray_simplex((1, 1, 1, 1))))
    assert props["l"] == 6 and props["l_dual"] == 126 and props["rays"] == 125
    assert props["box"] == 81 and props["fill"] == 6 / 81
    assert props["box_dual"] == 6**4


# -- gates ---------------------------------------------------------------------------


def test_hodge_gate_accepts_and_rejects_perturbed_table(table):
    report = hodge.report(hull(fixture_points("cube")))
    assert gates.check_hodge_report("cube", report, table) == []
    for field in gates.HODGE_FIELDS:
        bad = copy.deepcopy(table)
        bad["cube"][field] += 1
        assert gates.check_hodge_report("cube", report, bad), field


def test_hodge_gate_rejects_perturbed_literature(table, monkeypatch):
    report = hodge.report(hull(corpus.ray_simplex((1, 1, 1, 4))))
    assert gates.check_hodge_report("wp1_1_1_1_4", report, table) == []
    monkeypatch.setitem(gates.LITERATURE, "wp1_1_1_1_4", (1, 150))
    assert gates.check_hodge_report("wp1_1_1_1_4", report, table)


def test_hodge_gate_rejects_perturbed_fixture_value(table, monkeypatch):
    report = hodge.report(hull(fixture_points("quintic")))
    monkeypatch.setitem(gates.FIXTURES, "quintic", (1, 100))
    assert gates.check_hodge_report("quintic", report, table)


@pytest.fixture(scope="module")
def cube_refinement():
    rec, delta = run.refine(fixture_points("cube"))
    rec["volume"] = delta.normalized_volume()
    rec["l"] = delta.n_points
    return rec


def test_refinement_gate_accepts_the_cube(cube_refinement):
    assert gates.check_refinement("cube", cube_refinement) == []


@pytest.mark.parametrize(
    "field,delta",
    [("volume", 1), ("l", 1), ("c2_minus_k", 2), ("c2_rays_sum", 1), ("picard", 1), ("nef", None)],
)
def test_refinement_gate_rejects_perturbed_values(cube_refinement, field, delta):
    bad = dict(cube_refinement)
    bad[field] = False if delta is None else bad[field] + delta
    assert gates.check_refinement("cube", bad)


def test_cli_hodge_gate(table):
    row = table["cube"]
    entry = {
        "file": "x.poly",
        "h11": row["h11"],
        "h12": row["h12"],
        "euler": 2 * (row["h11"] - row["h12"]),
        "terms": {
            "dual_points": row["dual_points"],
            "facet_interior_correction": row["facet_interior_correction"],
            "two_face_pairing_term": row["two_face_pairing_term"],
            "linear_relations": 4,
        },
    }
    assert gates.check_cli_hodge("cube", entry, table) == []
    bad = copy.deepcopy(table)
    bad["cube"]["h12"] += 1
    assert gates.check_cli_hodge("cube", entry, bad)
    assert gates.check_cli_hodge("cube", {"file": "x.poly", "error": "boom"}, table)


def test_cli_c2_gate():
    golden = gates.load_c2_golden()
    doc = {"file": "cross4d.poly", "c2": copy.deepcopy(golden)}
    assert gates.check_cli_c2(doc, golden) == []
    bad = copy.deepcopy(golden)
    bad["values"][0]["value"] = "65"
    assert gates.check_cli_c2(doc, bad)
    bad = copy.deepcopy(golden)
    bad["audit"][0]["nef"] = False
    assert gates.check_cli_c2(doc, bad)


def test_refusal_gate():
    doc = {"file": "m.poly", "error": "line 3: non-integer coordinate"}
    assert gates.check_refusal("m", 1, doc, "line 3") == []
    assert gates.check_refusal("m", 1, doc, "line 4")
    assert gates.check_refusal("m", 0, doc, "line 3")
    assert gates.check_refusal("m", None, None, "line 3")
    assert gates.check_refusal("m", 1, {"h11": 1}, "line 3")


# -- spans and statistics ------------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["fan.mpcp", 0.0, 10.0, -1, None, True],
        ["polytope.hull", 1.0, 4.0, 0, "fan", True],
        ["linalg.matrix_rank", 2.0, 3.0, 1, "polytope", True],
        ["fan.nef", 5.0, 9.0, 0, None, True],
        ["linalg.solve_linear", 6.0, 8.0, 3, "fan", True],
    ]
    s = spans.summarize(tracer)
    assert s["fan.self"] == pytest.approx((10 - 3 - 4) + (4 - 2))
    assert s["polytope.self"] == pytest.approx(2.0)
    assert s["linalg.self"] == pytest.approx(3.0)
    assert s["fan.cell_hull.calls"] == 1 and s["fan.cell_hull.incl"] == pytest.approx(3.0)
    assert s["fan.nef_solves"] == 1
    assert s["fan.mpcp.incl"] == pytest.approx(10.0)


def test_nested_same_name_counts_once():
    tracer = spans.Tracer()
    with tracer.span("polytope.volume"):
        with tracer.span("polytope.volume"):
            pass
    s = spans.summarize(tracer)
    assert s["polytope.volume.calls"] == 2
    assert s["polytope.volume.incl"] == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def test_instrument_restores_the_library():
    from cytoric import fan, polytope

    before = (polytope.hull, fan.hull, polytope.Polytope.census, fan.solve_linear)
    tracer = spans.Tracer()
    with spans.instrument(tracer) as forms:
        hodge.report(polytope.hull(fixture_points("cube")))
        forms.release_all()
    assert (polytope.hull, fan.hull, polytope.Polytope.census, fan.solve_linear) == before
    s = spans.summarize(tracer)
    assert s["polytope.hull.calls"] == 2  # the cube and its dual
    assert s["polytope.census_runs"] == 2
    assert s["hodge.report.calls"] == 1


def test_nearest_rank():
    assert run.nearest_rank([3, 1, 2], 0.5) == 2
    assert run.nearest_rank([3, 1, 2], 0.9) == 3
    assert run.nearest_rank(list(range(1, 210)), 0.9) == 189
    assert run.nearest_rank(list(range(1, 210)), 0.95) == 199  # ten samples beyond it


def test_metric_names_match_the_definition():
    import json

    definition = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    p = run.Pass(hostspeed.HostSpeed())
    p.latencies, p.attempted, p.interval = [(0.0, 1.0, 1.0), (1.0, 3.0, 2.0)], 2, (0.0, 3.0, 3.0)
    e2e = run.end_to_end([p], [(0.0, 0.5, 0.5)], run.raw_seconds)
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == {
        k: unit for k, (_key, unit) in run.PER_LAYER.items()
    }


def test_end_to_end_values():
    p = run.Pass(hostspeed.HostSpeed())
    p.latencies = [(0.0, 1.0, 1.0), (1.0, 3.0, 2.0), (3.0, 6.0, 3.0)]
    p.attempted, p.failed, p.interval = 4, 1, (0.0, 6.0, 6.0)
    e2e = run.end_to_end([p], [(0.0, 0.4, 0.4), (0.4, 0.9, 0.5), (0.9, 1.5, 0.6)], run.raw_seconds)
    values = {k: v["value"] for k, v in e2e.items()}
    assert values["ops_per_s"] == pytest.approx(4 / 6)
    assert values["latency_p50_ms"] == pytest.approx(2000.0)
    assert values["latency_p95_ms"] == pytest.approx(3000.0)
    assert values["pass_s"] == pytest.approx(6.0)
    assert values["setup_s"] == pytest.approx(0.5)
    assert values["success_ratio"] == pytest.approx(0.75)


# -- host speed ----------------------------------------------------------------------


def test_host_speed_uses_samples_near_the_interval():
    host = hostspeed.HostSpeed()
    assert host.speed(0.0, 1.0) == 1.0
    assert host.adjust((0.0, 1.0, 0.9)) == pytest.approx(0.9)
    host.times, host.speeds = [0.0, 10.0, 10.5, 20.0], [1.0, 0.5, 0.7, 0.8]
    assert host.speed(9.5, 10.2) == pytest.approx(0.6)
    assert host.adjust((9.5, 10.2, 2.0)) == pytest.approx(1.2)
    assert host.speed(100.0, 101.0) == pytest.approx(0.75)
    host.merge([[10.2, 0.3], [30.0, 1.0]])
    assert host.times == [0.0, 10.0, 10.2, 10.5, 20.0, 30.0]
    assert host.speed(9.5, 10.2) == pytest.approx(0.5)


def test_host_interval_leaves_out_the_kernel():
    host = hostspeed.HostSpeed()
    mark = host.mark()
    for _ in range(3):
        host.sample()
    start, end, raw = host.interval(mark)
    assert len(host.speeds) == 3 and all(s > 0 for s in host.speeds)
    assert raw == pytest.approx(end - start - host.spent)


def test_host_timer_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed(period=0.05)
    with host:
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            pass
        host.paused = True
        paused_at = len(host.times)
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        assert len(host.times) == paused_at
    assert len(host.times) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
