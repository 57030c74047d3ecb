import hashlib
import json
import multiprocessing

import pytest
from click.testing import CliRunner

from cytoric import cli, fixtures
from cytoric.cli import main, parse_divisor
from cytoric.errors import InternalInvariantError, PolytopeFileError
from cytoric.fan import face_fan
from cytoric.polyfile import dump_polytope, parse_polytope


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


# sha256 of the --json stdout with the fixture's path written as <fixture>,
# recorded at commit 1121832, before walls, edges, wall relations and the
# intersection form shared one cone table; reorganising those must keep
# every byte, whatever order walls and relations are visited in
JSON_DIGESTS = (
    ("cross4d", "fan mpcp", 0, "ecd1c2f5606cb0757c01f5dfe5a174e9d18bd372c8995d3fc3198bd2232a940b"),
    ("cross4d", "fan nef --divisor -K", 1, "72ef438a8eab21a811775d68e844f9f07038b38533eea4d3dc023dddba1b050a"),
    ("cross4d", "fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cross4d", "chern c2", 0, "0df43ef3c2ae4a7926d31178ee131a2564ccaaa78c63b08a53ae41492f80df23"),
    ("cross4d", "chern curves", 0, "7bccad41aca4e2edb753858a3293116443589df9d5174145e88b9540932aeeef"),
    ("example_s3", "fan mpcp", 0, "307607a8a037a66dd3ca3262905341f775e377ff89ac9a00628dbec2183c2aa9"),
    ("example_s3", "fan nef --divisor -K", 1, "72ef438a8eab21a811775d68e844f9f07038b38533eea4d3dc023dddba1b050a"),
    ("example_s3", "fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("example_s3", "chern c2", 0, "e192e90de137059b88d8668de681290da9688fba693ca1205a6cb7ed4e2d97d4"),
    ("example_s3", "chern curves", 0, "bb8e56da19313cd29f1cb8114834a746e97961b4305c7bbedb11e567c0b9a735"),
    ("quintic", "fan mpcp", 0, "5004bd4e52544f71bef021139db141368d2fac62229b6cfc1904f2d13d4eeec5"),
    ("quintic", "fan nef --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("quintic", "fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("quintic", "chern c2", 0, "29a6b190c384185a9421d804143d3d71d79e8ce7703e7ce233a30f1464891d53"),
    ("quintic", "chern curves", 0, "f5c9206213a5e1530a34308fc09f0fba2dd747e3a28078c7400657377852d71a"),
    ("cube", "fan mpcp", 0, "98a0feb11ca78b0e3ec2e3c38e1552c7dff23171188cffb9f51f1f86e07ae773"),
    ("cube", "fan nef --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cube", "fan nef --resolve --divisor -K", 0, "cafcc1514e5cc85d3615618c00f3f3ca9a8814e041786685383f4ea7d0f69e98"),
    ("cube", "chern c2", 0, "94bdbdb2227e8d751288a8eeee85d87bd3443ce151f41afc002e0a3a87325acc"),
    ("cube", "chern curves", 0, "c8f4a7da5d1ebc518a3fd95c873b425060844cef5d586f929b7825002df7e021"),
)


def test_fan_and_chern_json_is_byte_identical_to_recorded_digests(runner):
    for name, args, status, digest in JSON_DIGESTS:
        path = fixture_file(name)
        result = runner.invoke(main, ["--json", *args.split(), path])
        assert result.exit_code == status, (name, args)
        text = result.stdout.replace(path, "<fixture>")
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, args)
