import hashlib
import json
import multiprocessing
import time
from concurrent.futures import Executor, Future

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cytoric import cli, fixtures
from cytoric.cli import main, parse_divisor
from cytoric.errors import InternalInvariantError, PolytopeFileError
from cytoric.fan import face_fan
from cytoric.polyfile import dump_polytope, parse_polytope
from cytoric.polytope import CENSUS_POINT_BUDGET


@pytest.fixture()
def runner():
    return CliRunner()


def fixture_file(name):
    import importlib.resources as resources

    return str(resources.files("cytoric.fixtures").joinpath(f"{name}.poly"))


# -- parsing -----------------------------------------------------------------------


def test_parse_square():
    pts = parse_polytope("4 2\n1 1\n1 -1\n-1 1\n-1 -1")
    assert [tuple(p) for p in pts] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_parse_fixture_example():
    pts = fixtures.fixture_points("example_s3")
    assert len(pts) == 15
    assert all(p.dim == 4 for p in pts)


def test_parse_error_carries_line_number():
    with pytest.raises(PolytopeFileError) as info:
        parse_polytope("2 2\n1 1\nx y")
    assert info.value.line == 3


def test_parse_error_shape_mismatch():
    with pytest.raises(PolytopeFileError):
        parse_polytope("3 2\n1 1\n1 -1")
    with pytest.raises(PolytopeFileError) as info:
        parse_polytope("2 2\n1 1 1\n1 -1")
    assert info.value.line == 2


def test_parse_rejects_transposed_matrix():
    # 2 rows of dimension 4 cannot be a 4-polytope's point list
    with pytest.raises(PolytopeFileError):
        parse_polytope("2 4\n1 0 0 0\n0 1 0 0")


def test_parse_comments_ignored():
    pts = parse_polytope("# comment\n4 2 # trailing\n1 1\n1 -1\n-1 1\n-1 -1\n")
    assert len(pts) == 4


@pytest.mark.parametrize(
    "call, argument, message, line",
    [
        (parse_polytope, "1 2 3", "header must be 'n_points dim'", 1),
        (parse_polytope, "2 x", "header entries must be integers", 1),
        (parse_polytope, "0 2", "header entries must be positive", 1),
        (parse_polytope, "1 1\n0\n1", "more than the declared 1 points", 3),
        (parse_polytope, "# only a comment\n", "empty file", 1),
        (dump_polytope, [], "cannot dump an empty point list", None),
    ],
)
def test_polytope_file_errors(call, argument, message, line):
    with pytest.raises(PolytopeFileError) as info:
        call(argument)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_dump_round_trip():
    original = parse_polytope("4 2\n1 1\n 1  -1\n-1 1\n-1 -1")
    dumped = dump_polytope(original)
    assert parse_polytope(dumped) == original
    assert dump_polytope(parse_polytope(dumped)) == dumped


# -- commands -----------------------------------------------------------------------


def test_poly_check_example(runner):
    result = runner.invoke(main, ["poly", "check", fixture_file("example_s3")])
    assert result.exit_code == 0
    assert "reflexive: true" in result.output
    assert "vertices: 15" in result.output
    assert "dim: 4" in result.output


def test_poly_dump_round_trip_through_cli(runner, tmp_path):
    src = fixture_file("pgon_square")
    result = runner.invoke(main, ["poly", "dump", src])
    assert result.exit_code == 0
    again = parse_polytope(result.output)
    assert again == fixtures.fixture_points("pgon_square")


def test_cy_hodge_values(runner):
    result = runner.invoke(main, ["--json", "cy", "hodge", fixture_file("quintic")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["h11"] == 1
    assert doc["h12"] == 101
    assert doc["euler"] == -200


def test_cy_census_keys(runner):
    result = runner.invoke(main, ["--json", "cy", "census", fixture_file("example_s3")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["census"]["a"] == 8
    assert doc["census"]["f_points"] == []
    assert doc["census"]["total_components"] == 8
    assert doc["census"]["h11"] == 4


def test_cy_hodge_rejects_2d(runner):
    result = runner.invoke(main, ["cy", "hodge", fixture_file("pgon_square")])
    assert result.exit_code == 1
    assert "error" in result.output


def test_fan_picard_resolve_flag(runner):
    path = fixture_file("example_s3")
    plain = runner.invoke(main, ["--json", "fan", "picard", path])
    resolved = runner.invoke(main, ["--json", "fan", "picard", "--resolve", path])
    assert json.loads(plain.output)["picard_rank_q"] == 3
    assert json.loads(resolved.output)["picard_rank_q"] == 4


def test_fan_singular_needs_simplicial(runner):
    path = fixture_file("example_s3")
    plain = runner.invoke(main, ["fan", "singular", path])
    assert plain.exit_code == 1
    resolved = runner.invoke(main, ["--json", "fan", "singular", "--resolve", path])
    assert resolved.exit_code == 0
    doc = json.loads(resolved.output)
    assert doc["count"] == 8
    assert all(entry["mult"] == 2 for entry in doc["singular"])


def test_fan_nef_divisor_parsing(runner):
    path = fixture_file("quintic")
    ok = runner.invoke(main, ["--json", "fan", "nef", "--divisor", "(1,0,0,0)=1", path])
    assert ok.exit_code == 0
    doc = json.loads(ok.output)
    assert doc["qcartier"] is True and doc["nef"] is True
    neg = runner.invoke(main, ["--json", "fan", "nef", "--divisor", "(1,0,0,0)=-1", path])
    assert json.loads(neg.output)["nef"] is False
    bad = runner.invoke(main, ["fan", "nef", "--divisor", "(9,9,9,9)=1", path])
    assert bad.exit_code == 2


@pytest.mark.parametrize(
    "args, status, message",
    [
        (["poly", "check", "SEGMENT"], 0, '"note": "origin is not strictly interior"'),
        (["fan", "nef", "--divisor", "0=1", "cross4d"], 1, "divisor is not Q-Cartier; nef test undefined"),
        (["fan", "nef", "--divisor", "1", "quintic"], 2, "divisor term '1' is not ray=coeff"),
        (["fan", "nef", "--divisor", "(1,x)=1", "quintic"], 2, "bad ray coordinates '(1,x)'"),
        (["fan", "nef", "--divisor", "x=1", "quintic"], 2, "bad ray index 'x'"),
        (["fan", "nef", "--divisor", "99=1", "quintic"], 2, "ray index 99 out of range 0..4"),
    ],
)
def test_cli_refusals(runner, tmp_path, args, status, message):
    segment = tmp_path / "segment.poly"
    segment.write_text("2 1\n0\n1\n")
    files = {"SEGMENT": str(segment), "cross4d": fixture_file("cross4d"), "quintic": fixture_file("quintic")}
    result = runner.invoke(main, ["--json"] + [files.get(a, a) for a in args])
    assert result.exit_code == status
    assert message in result.output
    if status == 0:
        assert json.loads(result.output)["reflexive"] is False


@pytest.mark.parametrize(
    "spec, status",
    [("((1,0)=1", 2), ("(1,0)))=1", 2), ("((1,0)=1,2=1", 2), ("(1,0)=1", 0), ("(1,0)=1,2=1", 0)],
)
def test_divisor_ray_is_one_pair_of_parentheses(runner, spec, status):
    # a coordinate ray is exactly "(" ints ")": doubled or unbalanced
    # parentheses are a usage error, not the ray inside them
    result = runner.invoke(main, ["fan", "nef", "--divisor", spec, fixture_file("pgon_hexagon")])
    assert result.exit_code == status
    if status:
        assert "Error: bad ray coordinates" in result.stderr


@pytest.mark.parametrize("spec", ["", "   "])
@pytest.mark.parametrize("command", [["fan", "nef", "--resolve"], ["chern", "c2"]])
def test_empty_divisor_is_a_usage_error(runner, command, spec):
    result = runner.invoke(main, [*command, "--divisor", spec, fixture_file("quintic")])
    assert result.exit_code == 2
    assert "Error: divisor is empty" in result.stderr
    assert result.stdout == ""


def test_parse_divisor_index_and_anticanonical(quintic):
    fan = face_fan(quintic)
    d = parse_divisor("0=2,1=-1/2", fan)
    assert d.coeff(fan.rays[0]) == 2
    mk = parse_divisor("-K", fan)
    assert all(mk.coeff(r) == 1 for r in fan.rays)


def test_chern_c2_values(runner):
    result = runner.invoke(main, ["--json", "chern", "c2", fixture_file("cube")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    values = {v["divisor"]: v["value"] for v in doc["c2"]["values"]}
    assert values["-K"] == "192"
    assert values["D(1, 0, 0, 0)"] == "24"
    audit = doc["c2"]["audit"][0]
    assert audit["nef"] is True and audit["positive"] is True


def test_chern_curves(runner):
    result = runner.invoke(main, ["--json", "chern", "curves", fixture_file("cube")])
    doc = json.loads(result.output)
    assert doc["curves"]["by_class"] == {"smooth curve": 24}
    assert doc["curves"]["uncovered"] == []


def test_poly_dual_reflexive(runner):
    result = runner.invoke(main, ["--json", "poly", "dual", fixture_file("cube")])
    doc = json.loads(result.output)
    assert doc["dual"]["lattice"] is True
    assert sorted(map(tuple, doc["dual"]["vertices"]))[0] == (-1, 0, 0, 0)


def test_poly_dual_non_reflexive_rational(runner, tmp_path):
    f = tmp_path / "double.poly"
    f.write_text("4 2\n2 2\n2 -2\n-2 2\n-2 -2\n")
    result = runner.invoke(main, ["--json", "poly", "dual", str(f)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["reflexive"] is False
    assert doc["dual"]["lattice"] is False
    assert ["1/2", "0"] in doc["dual"]["vertices"] or ["0", "1/2"] in doc["dual"]["vertices"]


def test_poly_dual_origin_not_interior_is_domain_error(runner, tmp_path):
    f = tmp_path / "shifted.poly"
    f.write_text("4 2\n0 0\n0 1\n1 0\n1 1\n")
    result = runner.invoke(main, ["poly", "dual", str(f)])
    assert result.exit_code == 1


@pytest.mark.parametrize("command", ["points", "check", "faces"])
def test_census_past_the_point_budget_is_refused(runner, tmp_path, command):
    # conv(-(1, 1, 1, 1), 2000 e_1, ..., 2000 e_4) holds about 6.7e11 points
    f = tmp_path / "simplex.poly"
    f.write_text("5 4\n-1 -1 -1 -1\n2000 0 0 0\n0 2000 0 0\n0 0 2000 0\n0 0 0 2000\n")
    start = time.perf_counter()
    result = runner.invoke(main, ["--json", "poly", command, str(f)])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert json.loads(result.output)["error"] == f"more than {CENSUS_POINT_BUDGET} lattice points to count"


def test_census_of_one_slice_past_the_point_budget_is_refused(runner, tmp_path):
    # conv(0, e1, e2, e3, 10^9 e4): every point beyond the budget lies on
    # the one slice x0 = x1 = x2 = 0, so only the point count stops the walk
    f = tmp_path / "needle.poly"
    f.write_text("5 4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1000000000\n")
    start = time.perf_counter()
    result = runner.invoke(main, ["--json", "poly", "check", str(f)])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert json.loads(result.output)["error"] == f"more than {CENSUS_POINT_BUDGET} lattice points to count"


@pytest.mark.parametrize(
    "rows",
    [
        # conv(0, e1, e2, e3, (k, k, k, 2k + 1)) at k = 10^4: about 4,000
        # points, but some 10^8 slices x0, x1 to walk
        ["0 0 0 0", "1 0 0 0", "0 1 0 0", "0 0 1 0", "10000 10000 10000 20001"],
        # a unimodular triangle spread over 10^6 slices x1, times 0 .. 20 in
        # x0: 63 points, and nearly every slice x1 holds real points but no
        # lattice point
        [f"{h} {a} {b}" for h in (0, 20) for a, b in ((0, 0), (10**6, 1), (10**6 + 1, 1))],
    ],
    ids=["thin-simplex", "thin-prism"],
)
def test_census_walk_past_the_budget_is_refused(runner, tmp_path, rows):
    f = tmp_path / "thin.poly"
    f.write_text(f"{len(rows)} {len(rows[0].split())}\n" + "\n".join(rows) + "\n")
    start = time.perf_counter()
    result = runner.invoke(main, ["--json", "poly", "check", str(f)])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert json.loads(result.output)["error"] == f"more than {CENSUS_POINT_BUDGET} slices to walk"


def test_unknown_command_usage_error(runner):
    assert runner.invoke(main, ["poly", "frobnicate"]).exit_code == 2
    assert runner.invoke(main, ["--jobs", "0", "poly", "check", fixture_file("cube")]).exit_code == 2


def test_missing_file_usage_error(runner):
    assert runner.invoke(main, ["poly", "check", "/no/such/file.poly"]).exit_code == 2


def test_json_output_deterministic(runner):
    path = fixture_file("example_s3")
    a = runner.invoke(main, ["--json", "cy", "hodge", path]).output
    b = runner.invoke(main, ["--json", "cy", "hodge", path]).output
    assert a == b
    c = runner.invoke(main, ["--json", "fan", "build", path]).output
    d = runner.invoke(main, ["--json", "fan", "build", path]).output
    assert c == d
    e = runner.invoke(main, ["--json", "chern", "c2", path]).output
    f = runner.invoke(main, ["--json", "chern", "c2", path]).output
    assert e == f


def test_jobs_merge_in_input_order(runner):
    paths = [fixture_file(n) for n in ("pgon_square", "pgon_diamond", "pgon_hexagon")]
    serial = runner.invoke(main, ["--json", "poly", "check", *paths])
    parallel = runner.invoke(main, ["--json", "--jobs", "2", "poly", "check", *paths])
    assert serial.exit_code == 0 and parallel.exit_code == 0
    assert serial.output == parallel.output
    docs = json.loads(parallel.output)
    assert [d["file"] for d in docs] == paths


def test_jobs_starts_at_most_one_worker_per_file(runner, monkeypatch):
    sizes = []

    class InlinePool(Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    two = [fixture_file(n) for n in ("pgon_square", "pgon_diamond")]
    three = [*two, fixture_file("pgon_hexagon")]
    for jobs, paths in (("6", two), ("2", three), ("6", two[:1])):
        assert runner.invoke(main, ["--jobs", jobs, "poly", "check", *paths]).exit_code == 0
    assert sizes == [2, 2]  # one file runs inline, with no pool


def test_usage_error_in_a_worker_cancels_the_files_not_started(runner, monkeypatch):
    futures = []

    class FirstFileOnlyPool(Executor):  # runs the first file inline; the rest wait
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            if not futures:
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
            futures.append(future)
            return future

    args = ["fan", "nef", "--divisor", "(9,9,9,9)=1"]
    paths = [fixture_file(n) for n in ("quintic", "cube", "cross4d")]
    serial = runner.invoke(main, [*args, *paths])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FirstFileOnlyPool)
    result = runner.invoke(main, ["--jobs", "2", *args, *paths])
    assert len(futures) == 3 and all(f.cancelled() for f in futures[1:])
    assert (result.exit_code, result.stderr, result.stdout) == (2, serial.stderr, "")


def test_usage_error_in_a_worker_exits_2(runner):
    paths = [fixture_file(n) for n in ("quintic", "cube")]
    result = runner.invoke(main, ["--jobs", "2", "fan", "nef", "--divisor", "(9,9,9,9)=1", *paths])
    assert result.exit_code == 2
    assert "Usage: main fan nef [OPTIONS] PATHS..." in result.stderr
    assert "Error: (9,9,9,9) is not a ray of the fan" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_internal_error_fails_only_its_file(runner, monkeypatch, jobs):
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched command only when forked")
    paths = [fixture_file(n) for n in ("quintic", "cube", "pgon_square")]
    alone = json.loads(runner.invoke(main, ["--json", "cy", "hodge", paths[0]]).output)
    original = cli._COMMANDS["cy.hodge"]

    def broken_on_cube(path, opts):
        if path == paths[1]:
            raise InternalInvariantError("broken invariant")
        return original(path, opts)

    monkeypatch.setitem(cli._COMMANDS, "cy.hodge", broken_on_cube)
    result = runner.invoke(main, ["--json", "--jobs", jobs, "cy", "hodge", *paths])
    assert result.exit_code == 3
    if jobs == "1":  # a forked worker's stderr is not captured here
        assert "InternalInvariantError: broken invariant" in result.stderr
    docs = json.loads(result.stdout)
    assert docs[0] == alone
    assert docs[1]["error"] == {"type": "InternalInvariantError", "message": "broken invariant"}
    assert isinstance(docs[2]["error"], str)  # a refusal stays a domain error


def test_every_fixture_passes_check(runner):
    for name in fixtures.ALL:
        result = runner.invoke(main, ["--json", "poly", "check", fixture_file(name)])
        assert result.exit_code == 0, name
        doc = json.loads(result.output)
        assert doc["reflexive"] is True, name


# Each row: fixtures (their paths follow the arguments), arguments, exit
# status, and the sha256 of the stream that carries the output (stderr for
# a usage error, stdout otherwise) with each path written as <fixture>; the
# other stream stays empty.  Help is rendered 80 columns wide.  The first
# twenty rows were recorded at commit 1121832, before walls, edges, wall
# relations and the intersection form shared one cone table; the rest at
# commit fcc69e4, before the commands were built from one table.  Either
# reorganisation must keep every byte.
CLI_DIGESTS = (
    ("cross4d", "--json fan mpcp", 0, "ecd1c2f5606cb0757c01f5dfe5a174e9d18bd372c8995d3fc3198bd2232a940b"),
    ("cross4d", "--json fan nef --divisor -K", 1, "72ef438a8eab21a811775d68e844f9f07038b38533eea4d3dc023dddba1b050a"),
    ("cross4d", "--json fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cross4d", "--json chern c2", 0, "0df43ef3c2ae4a7926d31178ee131a2564ccaaa78c63b08a53ae41492f80df23"),
    ("cross4d", "--json chern curves", 0, "7bccad41aca4e2edb753858a3293116443589df9d5174145e88b9540932aeeef"),
    ("example_s3", "--json fan mpcp", 0, "307607a8a037a66dd3ca3262905341f775e377ff89ac9a00628dbec2183c2aa9"),
    ("example_s3", "--json fan nef --divisor -K", 1, "72ef438a8eab21a811775d68e844f9f07038b38533eea4d3dc023dddba1b050a"),
    ("example_s3", "--json fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("example_s3", "--json chern c2", 0, "e192e90de137059b88d8668de681290da9688fba693ca1205a6cb7ed4e2d97d4"),
    ("example_s3", "--json chern curves", 0, "bb8e56da19313cd29f1cb8114834a746e97961b4305c7bbedb11e567c0b9a735"),
    ("quintic", "--json fan mpcp", 0, "5004bd4e52544f71bef021139db141368d2fac62229b6cfc1904f2d13d4eeec5"),
    ("quintic", "--json fan nef --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("quintic", "--json fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("quintic", "--json chern c2", 0, "29a6b190c384185a9421d804143d3d71d79e8ce7703e7ce233a30f1464891d53"),
    ("quintic", "--json chern curves", 0, "f5c9206213a5e1530a34308fc09f0fba2dd747e3a28078c7400657377852d71a"),
    ("cube", "--json fan mpcp", 0, "98a0feb11ca78b0e3ec2e3c38e1552c7dff23171188cffb9f51f1f86e07ae773"),
    ("cube", "--json fan nef --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cube", "--json fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cube", "--json chern c2", 0, "94bdbdb2227e8d751288a8eeee85d87bd3443ce151f41afc002e0a3a87325acc"),
    ("cube", "--json chern curves", 0, "c8f4a7da5d1ebc518a3fd95c873b425060844cef5d586f929b7825002df7e021"),
    ("example_s3", "poly check", 0, "82498b69ee5f54856006c1c36007bc9faa5151edacc0b26b68278724ed2ad3ef"),
    ("example_s3", "--json poly check", 0, "c5945dc734501d319221e8d6e69b19a1dd6825a3d96d1ff092430f0564993e62"),
    ("example_s3", "poly dual", 0, "627f3ed899b85ab1113351cf2c20a1e5a6bb0681bb5e46cc50a49571b8e33f61"),
    ("example_s3", "--json poly dual", 0, "6ab15b747c6766282ac762c2e40c4c5c32fde9de6bd7aebab0a832a23314c683"),
    ("example_s3", "poly points", 0, "85a16b195cd651328c41a9980cdc8968838fdd301d020443b14e7f92c0c7c753"),
    ("example_s3", "--json poly points", 0, "22d7085038d207f2d7d272d69610f711a99424e42a4600c1a8809a44385b9e90"),
    ("example_s3", "poly faces", 0, "206ea6c88edfddb4a1fd65bd2427dce7a629a06ab2c7a299d2232a1294a1a5de"),
    ("example_s3", "--json poly faces", 0, "6d7b5c4d671537988916cdf975eeda8756d7cfead9a9e8c215c06f7e38aeb71e"),
    ("example_s3", "poly dump", 0, "9d6ce9b96f0009ca0667edddf6a58f0958e756c06bc20fa742e87d7d1e39dbcb"),
    ("example_s3", "--json poly dump", 0, "f2128981160558081efc59944f74ae017bd61a3b1b1c89d2f553f3b2f396084e"),
    ("example_s3", "cy hodge", 0, "a1ee0d74ec538748b19676f14aa3957730bb59dc3328fbff877c7134fb0e8e44"),
    ("example_s3", "--json cy hodge", 0, "61a7eba4070d4cdc2bae8eb7ba0726b4a4683cfe128446be591ded703efbaa90"),
    ("example_s3", "cy census", 0, "62a2d164cd62810e28dbc87fde0fd7cc5ffd84ddc7edb2557ecb35bfbb7eec88"),
    ("example_s3", "--json cy census", 0, "b949496860ec3e5c9c6c445878fd744e7ac77166f022a64879804229221abeb9"),
    ("example_s3", "fan build", 0, "2ede414b56378bb2c0119303864cfc4199a2ea563bc1270e41e9214e9b8ed85b"),
    ("example_s3", "--json fan build", 0, "fac10012867a9b7b9b06178924833ef16699469d8ddc8d51c3ca9f9502a278b0"),
    ("example_s3", "fan mpcp", 0, "5b0f5d442fdc436ae08acef41eabea3e1f653741af423a2adaa51af3a01077fd"),
    ("example_s3", "--json fan mpcp", 0, "307607a8a037a66dd3ca3262905341f775e377ff89ac9a00628dbec2183c2aa9"),
    ("example_s3", "fan singular", 1, "d24f57c854dc58ae86ceca037153573e87f087734be4561c59e4741b883d9b50"),
    ("example_s3", "--json fan singular", 1, "13e95a11a8c1b3b566a76993c37823a2261bb7653c9b00fd1688d46080bed489"),
    ("example_s3", "fan picard", 0, "f093eb990d44015b0607dc3441b9119d8faa9ad7b5edd848125fc31821bfe3dd"),
    ("example_s3", "--json fan picard", 0, "4a06b05b8f5117e6ba033c2fc81716aabe093a2ec4840438cc0ed725d6b4c35a"),
    ("example_s3", "fan nef --divisor -K", 1, "8579f0280e3cbe19d2d7d6aca4f03559dcae5a83f19a8c04b8d9599f5b78cc91"),
    ("example_s3", "--json fan nef --divisor -K", 1, "72ef438a8eab21a811775d68e844f9f07038b38533eea4d3dc023dddba1b050a"),
    ("example_s3", "chern c2", 0, "5aa395e52ced51e9442a6cd7989de9a944a9c69309904e5eaac222dae838c83e"),
    ("example_s3", "--json chern c2", 0, "e192e90de137059b88d8668de681290da9688fba693ca1205a6cb7ed4e2d97d4"),
    ("example_s3", "chern curves", 0, "b0a8b331bc5161453083c05a9323cda81e6965cfba9543c357222b75f680e554"),
    ("example_s3", "--json chern curves", 0, "bb8e56da19313cd29f1cb8114834a746e97961b4305c7bbedb11e567c0b9a735"),
    ("example_s3", "fan build --resolve", 0, "ec2832c0490a4f30f037b54377cb4bd7a91c9df614ddc62d64fa813d946d8a0f"),
    ("example_s3", "--json fan build --resolve", 0, "e08bd613378b59c9fcb1e9e923c65061588e371d3d3d957e30988eca45f03ba6"),
    ("example_s3", "fan singular --resolve", 0, "45704f1934e31faff074974876aecf8aeae64e4b9689d1fe18fe1d8224fef292"),
    ("example_s3", "--json fan singular --resolve", 0, "fc3815e6c18391fdfbf7eafd70887a59b78a6c0f916b878f9ba65dc8bf6274cb"),
    ("example_s3", "fan picard --resolve", 0, "b9de08dd81d3bac114f7ec5f0d094670ffb094f614b3efc910a15fb574f7ee9e"),
    ("example_s3", "--json fan picard --resolve", 0, "0d7e132879e89cb4aeed531b8fd4a2aff0ede2acf03f31e28b7d7a00791e70e6"),
    ("example_s3", "fan nef --resolve --divisor 0=1,1=-1/2", 0, "ac2c45e08a27819ece220a6d94faad1f184b7237c18fbb1693d52898ad08fbc0"),
    ("example_s3", "--json fan nef --resolve --divisor 0=1,1=-1/2", 0, "473d3af69c473856d25f9085ed285eba5eca90bd3e78f3d22067861d43540e98"),
    ("example_s3", "chern c2 --divisor 0=1 --divisor anticanonical", 0, "8ca6e2fa5bdfec2a3c64937dce9afaa06caaec741f54e4071cf36c7217591d1d"),
    ("example_s3", "--json chern c2 --divisor 0=1 --divisor anticanonical", 0, "cc8fefb6a4bcbd39d5e31acc9a2980a39d928422954ec508869d1395b0dddc44"),
    ("pgon_square", "cy hodge", 1, "fa1d2472271c08f7d9ef70d9ca0294e510c7a8d60841e7b1a39b5aece309f3b3"),
    ("pgon_square", "poly points", 0, "d10e7d82f56f9342b57054dab39ae5dc008b87afb4e03b07f1ab37105c720138"),
    ("quintic cube pgon_square", "cy hodge", 1, "96f8e62a0ab44f24f85079e21033f2fa427f6fec33aff1e808de0a928e181060"),
    ("quintic cube pgon_square", "--json poly check", 0, "514dcfa19ec61338826cc0122ddb98e84d17d9111be43d8d4ea14687e61f5e42"),
    ("", "--help", 0, "21812e7077942edd6e3b5b06869042255ce62c1e3f69b743bd66aa89a0ecc17f"),
    ("", "poly --help", 0, "3db3d0291022c9b6e84876cf5f290193098b8601ae9612ee4dfb80461fc0fb9b"),
    ("", "cy --help", 0, "8834eeee7df82dc9c643cb5af609cb72a9c05cdd9ba65f2af4c428aeaa0a9ee4"),
    ("", "fan --help", 0, "86cc73846858ec8f4af32bac5df9a948711ebb3a8a65a16a1fdfcad4637eeabc"),
    ("", "chern --help", 0, "ba256bc50acd8f0742268bf5fee4a0642ea1ee6d1fba6097d2a6c6c1f38c90a3"),
    ("", "poly check --help", 0, "d30f96a93de512c3f158933586199983589ae0b3015387b3c37f653c379c920f"),
    ("", "poly dual --help", 0, "121a54a9ccbc5d1a998fa61ed988eb5a6a0f31a2dbaf7709d59cf69e1aae3af8"),
    ("", "poly points --help", 0, "50f21f333668ba6ba52d3b02744bac8c67d6e26172ba38847320f076ade9a9b1"),
    ("", "poly faces --help", 0, "32cfa8df8bf1957aaed84b734f3e0e84f60a115839448b8a7f3817e79e2c292b"),
    ("", "poly dump --help", 0, "485e1b87f7013d4ff2cc05a80b88582afb480b05497b23f3ca4945140cedf05f"),
    ("", "cy hodge --help", 0, "1f963c854624f79678086137c6ace77933006e5a386aa42abc861542792d5150"),
    ("", "cy census --help", 0, "2667d1f4c8b36c17c9252934af08598ce6cf52f62af7bf2897ddbb6438ebb04f"),
    ("", "fan build --help", 0, "05e1b040a9e77b0ae396a1a66ed352d6db4f1f1e2214b333e00f920fbfbd0ee6"),
    ("", "fan mpcp --help", 0, "6b612350ee1961f99e025690bca307d3df5a98e164cdf2402102163a0d121c47"),
    ("", "fan singular --help", 0, "2a216e2a99bc4c4b061174cc5ec9e9e85306c691e43decebdfc3ed06743e4f27"),
    ("", "fan picard --help", 0, "972f56d2bff0cff202b1e248568cee55f3d9a60629b45f7dfed33d3164f2d0e9"),
    ("", "fan nef --help", 0, "74d51112b1aecf3cd13c2f48b37ad7c0d78ba1da7610b4b48961ae7ec827c3a2"),
    ("", "chern c2 --help", 0, "079675615c11ae70dc246afe700f37b090a8e8ee5d45c854d1ee3bd155f33c30"),
    ("", "chern curves --help", 0, "d10cdf8c8b12da9d16c98b4d7055bd6c4850d78a2666c3043bca218cca9ab026"),
    ("quintic", "fan mpcp --resolve", 2, "6199f3693337f5c57dcf5280105b8fbb175dcde38789c5d6c49b8673ec7c4a1b"),
    ("quintic cube", "poly dump", 2, "6eb9f178c2ff83e6ab5cf57cedec902039889894108ca7aaf8c2c07301e90f04"),
    ("quintic", "fan nef", 2, "13402c8999aa2ae0ea2caa7c380258d48a86ea17a7b8a757cec1644f469612b2"),
    ("quintic", "fan nef --divisor (9,9,9,9)=1", 2, "71bc988876273b3a2331830e7c1b29fa3b03f796376495f45b3230ed546fd8a0"),
    ("quintic", "chern c2 --divisor 0=x", 2, "3428abcbb5fab1777c21e559b9fafd5541d794adb80a59bec19e43e3aad9d236"),
    ("cube", "--jobs 0 poly check", 2, "d92b7650f2188012fdaa0990360c2645660bdb6ec8e41e3b8c7070bbcd52f000"),
)


def test_fan_and_chern_json_is_byte_identical_to_recorded_digests(runner):
    for names, args, status, digest in CLI_DIGESTS:
        paths = [fixture_file(name) for name in names.split()]
        result = runner.invoke(main, [*args.split(), *paths], terminal_width=80)
        assert result.exit_code == status, (names, args)
        stream, other = (result.stderr, result.stdout) if status == 2 else (result.stdout, result.stderr)
        assert other == "", (names, args)
        for path in paths:
            stream = stream.replace(path, "<fixture>")
        assert hashlib.sha256(stream.encode()).hexdigest() == digest, (names, args)


# -- fuzzing -----------------------------------------------------------------------

FUZZ_COMMANDS = [
    [group, name, *(["--divisor", "-K"] if name == "nef" else [])]
    for group, (_, rows) in cli._TABLE.items()
    for name, *_ in rows
]


@st.composite
def poly_texts(draw):
    """Small `.poly` texts: dimensions 1 to 5, duplicate points, flat point
    sets, coordinates up to +-10^6, and some with a bad token or a wrong
    header.  Centrally symmetric sets with small coordinates are often
    reflexive, so the fan and chern commands get past their checks too."""
    dim = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([1, 2, 10**6]))
    coordinate = st.integers(-bound, bound)
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    if draw(st.booleans()):  # the unit vectors: full-dimensional
        points += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if draw(st.booleans()):
        points += [tuple(-x for x in p) for p in points]
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    if draw(st.integers(0, 3)) == 0:  # flat: the last coordinate is fixed
        points = [p[:-1] + (0,) for p in points]
    rows = [" ".join(map(str, p)) for p in points]
    header = f"{len(rows)} {dim}"
    fault = draw(st.sampled_from(["none"] * 6 + ["token", "header", "count", "dim"]))
    if fault == "token":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i].replace(rows[i].split()[0], draw(st.sampled_from(["x", "1.5", "--1", "1e3"])), 1)
    elif fault == "header":
        header = draw(st.sampled_from(["", f"{len(rows)}", f"{len(rows)} {dim} 1", f"a {dim}", f"0 {dim}"]))
    elif fault == "count":
        header = f"{len(rows) + draw(st.sampled_from([-1, 1]))} {dim}"
    elif fault == "dim":
        header = f"{len(rows)} {dim + draw(st.sampled_from([-1, 1]))}"
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(text=poly_texts())
def test_every_command_answers_or_refuses_fuzzed_files(tmp_path_factory, text):
    # a domain refusal (1) or usage error (2) is fine; an internal error (3),
    # an uncaught exception or a walk without end is not
    f = tmp_path_factory.mktemp("fuzz") / "fuzz.poly"
    f.write_text(text)
    runner = CliRunner()
    for command in FUZZ_COMMANDS:
        start = time.perf_counter()
        result = runner.invoke(main, ["--json", *command, str(f)])
        assert time.perf_counter() - start < 5, (command, text)
        assert result.exit_code in (0, 1, 2), (command, text, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (command, text)
        assert "Traceback" not in result.output, (command, text)
