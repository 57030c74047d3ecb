"""Correctness gates.  Each check returns a list of problems; an empty list
means the answer is right.

Reference answers:

* literature Hodge pairs of four weighted-P4 hypersurfaces and the values
  of the four 4-D fixtures, written down here;
* for every other survey input, `expected_hodge.json`, recorded from the
  library at the commit that introduced the benchmark and keyed by the
  unsheared input (Hodge data does not change under GL(4,Z));
* for the refinement, identities that tie independent code paths
  together: (-K)^4 against the normalized volume, Riemann-Roch for
  c2.(-K), linearity of c2 over the ray divisors, the Picard rank of a
  simplicial complete fan, and nefness of -K;
* for the CLI, the same table, and `expected_c2_cross4d.json`, the
  `chern c2` values of cross4d recorded from the library at the same commit.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (h11, h12) of the degree-(1 + sum w) hypersurface in P(1, w1..w4).  The
# corpus holds the ray simplex, which is the mirror, so the library reports
# the pair swapped.
LITERATURE = {
    "wp1_1_2_2_2": (2, 86),
    "wp1_1_1_1_4": (1, 149),
    "wp1_1_1_6_9": (2, 272),
    "wp1_1_12_28_42": (11, 491),
}

# (h11, h12) of the bundled 4-D fixtures.
FIXTURES = {
    "quintic": (1, 101),
    "cube": (4, 68),
    "cross4d": (68, 4),
    "example_s3": (4, 52),
}

HODGE_FIELDS = ("h11", "h12", "dual_points", "facet_interior_correction", "two_face_pairing_term")


def load_hodge_table(path=HERE / "expected_hodge.json"):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_c2_golden(path=HERE / "expected_c2_cross4d.json"):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _known_pair(key):
    if key in LITERATURE:
        h11, h12 = LITERATURE[key]
        return h12, h11
    return FIXTURES.get(key)


def check_hodge_values(key, values: dict, table: dict) -> list:
    """`values` maps HODGE_FIELDS (and "euler") to what the program said."""
    problems = []
    expected = table.get(key)
    if expected is None:
        return [f"{key}: no recorded answer"]
    for field in HODGE_FIELDS:
        if values.get(field) != expected[field]:
            problems.append(f"{key}: {field} = {values.get(field)}, expected {expected[field]}")
    pair = _known_pair(key)
    if pair is not None and (values.get("h11"), values.get("h12")) != pair:
        problems.append(f"{key}: (h11, h12) = ({values.get('h11')}, {values.get('h12')}), literature {pair}")
    if values.get("euler") != 2 * (expected["h11"] - expected["h12"]):
        problems.append(f"{key}: euler = {values.get('euler')}")
    return problems


def report_values(report) -> dict:
    """The gated fields of a `hodge.HodgeReport`."""
    return {
        "h11": report.h11,
        "h12": report.h12,
        "euler": report.euler,
        "dual_points": report.n_dual_points,
        "facet_interior_correction": report.facet_interior_correction,
        "two_face_pairing_term": report.two_face_pairing_term,
    }


def check_hodge_report(key, report, table) -> list:
    problems = check_hodge_values(key, report_values(report), table)
    if report.census.rank != report.h11:
        problems.append(f"{key}: divisor census rank {report.census.rank} != h11 {report.h11}")
    return problems


def check_refinement(key, rec: dict) -> list:
    """`rec` holds what one pass of the deep pipeline produced: rays,
    picard, k4 = (-K)^4, volume = normalized volume of the polytope,
    l = its lattice point count, c2_minus_k, c2_rays_sum and nef."""
    problems = []
    if rec["k4"] != rec["volume"]:
        problems.append(f"{key}: (-K)^4 = {rec['k4']}, normalized volume {rec['volume']}")
    riemann_roch = 12 * (rec["l"] - 1) - 2 * rec["volume"]
    if rec["c2_minus_k"] != riemann_roch:
        problems.append(f"{key}: c2.(-K) = {rec['c2_minus_k']}, Riemann-Roch gives {riemann_roch}")
    if rec["c2_rays_sum"] != rec["c2_minus_k"]:
        problems.append(f"{key}: sum of c2.D_i = {rec['c2_rays_sum']} != c2.(-K) = {rec['c2_minus_k']}")
    if rec["picard"] != rec["rays"] - 4:
        problems.append(f"{key}: Picard rank {rec['picard']} != rays - 4 = {rec['rays'] - 4}")
    if rec["nef"] is not True:
        problems.append(f"{key}: -K is not nef")
    return problems


def check_cli_hodge(key, entry: dict, table: dict) -> list:
    """One file's object from `cytoric --json cy hodge`."""
    if "error" in entry:
        return [f"{key}: refused: {entry['error']}"]
    terms = entry.get("terms", {})
    values = {
        "h11": entry.get("h11"),
        "h12": entry.get("h12"),
        "euler": entry.get("euler"),
        "dual_points": terms.get("dual_points"),
        "facet_interior_correction": terms.get("facet_interior_correction"),
        "two_face_pairing_term": terms.get("two_face_pairing_term"),
    }
    problems = check_hodge_values(key, values, table)
    if terms.get("linear_relations") != 4:
        problems.append(f"{key}: linear_relations = {terms.get('linear_relations')}")
    return problems


def check_cli_c2(doc: dict, golden: dict) -> list:
    """The object from `cytoric --json chern c2` on cross4d."""
    if "error" in doc:
        return [f"chern c2 refused: {doc['error']}"]
    c2 = doc.get("c2", {})
    problems = []
    if c2.get("values") != golden["values"]:
        problems.append("chern c2: values differ from the recorded library values")
    if c2.get("audit") != golden["audit"]:
        problems.append("chern c2: audit differs from the recorded library values")
    return problems


def check_refusal(label, returncode: int, doc, needle: str) -> list:
    """A refusal is exit status 1 with a JSON object whose `error` names
    the problem; anything else (a crash, an answer, another status) fails."""
    if returncode != 1:
        return [f"{label}: exit status {returncode}, expected 1"]
    if not isinstance(doc, dict) or not isinstance(doc.get("error"), str):
        return [f"{label}: no typed error object"]
    if needle not in doc["error"]:
        return [f"{label}: error {doc['error']!r} does not mention {needle!r}"]
    return []
