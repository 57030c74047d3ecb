"""Command-line front end.

Four subcommand groups mirror the library layers: `poly` (convex geometry
and reflexivity), `cy` (Hodge data of the anticanonical hypersurface),
`fan` (face fans, refinements, divisor audits), `chern` (intersection
numbers and second-Chern-class pairings).  A command is one row of
`_TABLE`: its name, report function, help text and click parameters.
Every command takes polytope files; `--json` switches to a machine-readable
tree with stable keys and deterministic byte-identical output, `--jobs N`
fans independent input files out to min(N, files) worker processes,
results merged in input order.

Exit status: 0 success, 1 domain error (e.g. non-reflexive input where
reflexivity is required), 2 usage error, 3 internal error.  Domain and
internal errors are reported per file, so the other files of a batch
still get their results; the status is the worst one.
"""

from __future__ import annotations

import json
import re
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import repeat

import click

from . import chern as chern_mod
from . import fan as fan_mod
from . import hodge as hodge_mod
from .errors import CytoricError, OriginNotInteriorError
from .fan import WeilDivisor
from .lattice import NPoint
from .polyfile import dump_polytope, parse_polytope_path
from .polytope import RationalPolytope, hull


def _load(path):
    return hull(parse_polytope_path(path))


def _fan_for(path, resolve: bool):
    delta = _load(path)
    if resolve:
        return delta, fan_mod.mpcp_triangulate(delta)
    return delta, fan_mod.face_fan(delta)


def parse_divisor(spec: str, fan) -> WeilDivisor:
    """Divisor syntax: 'anticanonical' (alias '-K'), or comma-separated
    'ray=coeff' terms where ray is an index into the fan's ray order or a
    coordinate tuple like (1,0,0,0), and coeff is an integer or p/q."""
    spec = spec.strip()
    if spec in ("anticanonical", "-K"):
        return WeilDivisor.anticanonical(fan)
    coeffs = {}
    terms = re.split(r",(?![^(]*\))", spec)  # the commas outside parentheses
    if not terms[-1]:
        terms.pop()
    if not terms:
        raise click.UsageError("divisor is empty; give ray=coeff terms, 'anticanonical' or '-K'")
    for raw in terms:
        if "=" not in raw:
            raise click.UsageError(f"divisor term {raw!r} is not ray=coeff")
        ray_part, coeff_part = raw.rsplit("=", 1)
        ray_part = ray_part.strip()
        try:
            coeff = Fraction(coeff_part.strip())
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"bad coefficient {coeff_part!r}")
        if ray_part.startswith("("):
            whole = re.fullmatch(r"\(([^()]*)\)", ray_part)  # exactly one pair
            inner = whole[1] if whole else ""
            try:
                coords = tuple(int(c) for c in inner.split(","))
            except ValueError:
                raise click.UsageError(f"bad ray coordinates {ray_part!r}")
            ray = NPoint(coords)
            if ray not in set(fan.rays):
                raise click.UsageError(f"{ray_part} is not a ray of the fan")
        else:
            try:
                idx = int(ray_part)
            except ValueError:
                raise click.UsageError(f"bad ray index {ray_part!r}")
            if not 0 <= idx < len(fan.rays):
                raise click.UsageError(
                    f"ray index {idx} out of range 0..{len(fan.rays) - 1}"
                )
            ray = fan.rays[idx]
        coeffs[ray] = coeffs.get(ray, Fraction(0)) + coeff
    return WeilDivisor.from_dict(coeffs)


# -- report builders (top level: picklable for --jobs workers) --------------------


def report_poly_check(path, opts):
    p = _load(path)
    try:
        reflexive = p.is_reflexive()
        note = None
    except OriginNotInteriorError:
        reflexive = False
        note = "origin is not strictly interior"
    out = {
        "dim": p.ambient_dim,
        "vertices": len(p.vertices),
        "facets": len(p.facets),
        "reflexive": reflexive,
        "points": p.n_points,
        "interior_points": p.n_interior,
    }
    if note:
        out["note"] = note
    return out


def report_poly_dual(path, opts):
    p = _load(path)
    d = p.dual()
    if isinstance(d, RationalPolytope):
        return {
            "reflexive": False,
            "dual": {
                "lattice": False,
                "vertices": [[str(c) for c in v] for v in d.vertices],
            },
        }
    return {
        "reflexive": True,
        "dual": {
            "lattice": True,
            "vertices": [list(v) for v in d.vertices],
        },
    }


def report_poly_points(path, opts):
    p = _load(path)
    census = p.census()
    face_dim = {0: -1} | {f.fmask: f.dim for f in p.faces()}  # by saturated mask
    dims = [face_dim[sat] for sat in census.face_of.values()]
    return {
        "l": len(census.face_of),
        "l_star": census.n_saturating[0],
        "boundary_by_face_dim": Counter(str(k) for k in dims if k >= 0),
        "points": [{"point": list(pt), "face_dim": k} for pt, k in zip(census.face_of, dims)],
    }


def report_poly_faces(path, opts):
    p = _load(path)
    census = p.census()
    counts = p.faces().counts()
    euler = sum((-1) ** d * n for d, n in counts.items())
    return {
        "counts": {str(d): n for d, n in counts.items()},
        "euler_sum": euler,
        "euler_ok": euler == 1 - (-1) ** p.dim,
        "faces": [
            {
                "dim": f.dim,
                "vertices": len(f.vertices),
                "l": census.n_on(f.fmask),
                "l_star": census.n_saturating[f.fmask],
            }
            for f in p.faces()
        ],
    }


def report_poly_dump(path, opts):
    points = parse_polytope_path(path)
    return {"points": [list(pt) for pt in points], "text": dump_polytope(points)}


def report_cy_hodge(path, opts):
    p = _load(path)
    rep = hodge_mod.report(p)
    return {
        "h11": rep.h11,
        "h12": rep.h12,
        "euler": rep.euler,
        "terms": {
            "dual_points": rep.n_dual_points,
            "facet_interior_correction": rep.facet_interior_correction,
            "two_face_pairing_term": rep.two_face_pairing_term,
            "linear_relations": hodge_mod.LINEAR_RELATIONS,
        },
    }


def report_cy_census(path, opts):
    p = _load(path)
    census = hodge_mod.divisor_census(p)
    return {
        "census": {
            "a": len(census.irreducible_points),
            "f_points": [
                {"point": list(pt), "components": n} for pt, n in census.split_points
            ],
            "skipped": [list(pt) for pt in census.off_hypersurface_points],
            "total_components": census.total_components,
            "h11": census.rank,
        }
    }


def _fan_summary(fan):
    return {
        "provenance": fan.provenance,
        "max_cones": len(fan.maximal_cones),
        "rays": len(fan.rays),
        "simplicial": fan.is_simplicial,
    }


def report_fan_build(path, opts):
    _, fan = _fan_for(path, opts.get("resolve", False))
    out = {"fan": _fan_summary(fan)}
    out["fan"]["cones"] = [[list(r) for r in c.rays] for c in fan.maximal_cones]
    out["ray_order"] = [list(r) for r in fan.rays]
    return out


def report_fan_mpcp(path, opts):
    delta, fan = _fan_for(path, True)
    return {
        "fan": _fan_summary(fan),
        "fine": fan.is_fine,
        "crepant": True,
        "normalized_volume": delta.dual().normalized_volume(),
    }


def report_fan_singular(path, opts):
    _, fan = _fan_for(path, opts.get("resolve", False))
    census = fan_mod.singularity_census(fan)
    return {
        "singular": [
            {"rays": [list(r) for r in cone.rays], "mult": mult}
            for cone, mult in census
        ],
        "count": len(census),
    }


def report_fan_picard(path, opts):
    _, fan = _fan_for(path, opts.get("resolve", False))
    return {"picard_rank_q": fan_mod.picard_rank_q(fan), "fan": _fan_summary(fan)}


def report_fan_nef(path, opts):
    _, fan = _fan_for(path, opts.get("resolve", False))
    divisor = parse_divisor(opts["divisor"], fan)
    qc, index = fan_mod.is_qcartier(fan, divisor)
    out = {"qcartier": qc, "cartier_index": index}
    if qc and fan.is_simplicial:
        out["nef"] = fan_mod.is_nef(fan, divisor)
    elif not qc:
        raise CytoricError("divisor is not Q-Cartier; nef test undefined")
    else:
        raise CytoricError("nef test needs the refined fan; pass --resolve")
    return out


def report_chern_c2(path, opts):
    delta, fan = _fan_for(path, True)
    form = chern_mod.IntersectionForm(fan)
    specs = [("anticanonical", WeilDivisor.anticanonical(fan))]
    for spec in opts.get("divisors", ()):
        specs.append((spec, parse_divisor(spec, fan)))
    values, audits = chern_mod.c2_audit(delta, form, specs)
    audit = [
        {
            "divisor": e.label,
            "nef": e.nef,
            "restricted_degree": str(e.restricted_degree),
            "c2": str(e.c2_value),
            "positive": e.c2_value > 0,
        }
        for e in audits
    ]
    values = [{"divisor": label, "value": str(v)} for label, v in values]
    return {"c2": {"values": values, "audit": audit}}


def report_chern_curves(path, opts):
    delta, fan = _fan_for(path, True)
    census = chern_mod.curve_census(delta, fan)
    return {
        "curves": {
            "entries": [
                {
                    "edge": [list(e.edge[0]), list(e.edge[1])],
                    "class": e.kind.value,
                    "count": e.count,
                    "face_dim": e.face_dim,
                }
                for e in census.entries
            ],
            "by_class": {k.value: n for k, n in sorted(census.by_kind().items(), key=lambda t: t[0].value)},
            "covered_irreducible": len(census.covered_irreducible),
            "covered_split": len(census.covered_split),
            "uncovered": [list(p) for p in sorted(census.uncovered)],
        }
    }


def _run_one(command, path, opts):
    try:
        return 0, _COMMANDS[command](path, opts)
    except click.ClickException:
        raise
    except CytoricError as exc:
        return 1, {"error": str(exc)}
    except Exception as exc:  # an internal fault fails this file, not the batch
        traceback.print_exc()
        return 3, {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _render_text(tree, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(tree, dict):
        for key, value in tree.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(tree, list):
        for item in tree:
            if isinstance(item, list) and _is_scalar_list(item):
                lines.append(f"{pad}- {_scalar(item)}")
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(tree)}")
    return lines


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    return str(value)


def _execute(ctx, command, paths, opts):
    as_json = ctx.obj["json"]
    jobs = ctx.obj["jobs"]
    if jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(paths))) as pool:
            # A usage error ends the batch: map's results cancel the files
            # not yet started, so leaving the block does not wait for them.
            results = list(pool.map(_run_one, repeat(command), paths, repeat(opts)))
    else:
        results = [_run_one(command, p, opts) for p in paths]
    status = 0
    if as_json:
        payload = []
        for path, (code, tree) in zip(paths, results):
            payload.append({"file": path, **tree})
            status = max(status, code)
        doc = payload[0] if len(payload) == 1 else payload
        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for path, (code, tree) in zip(paths, results):
            status = max(status, code)
            if command == "poly.dump" and code == 0:
                click.echo(tree["text"], nl=False)
                continue
            if len(paths) > 1:
                click.echo(f"== {path}")
            for line in _render_text(tree):
                click.echo(line)
    ctx.exit(status)


@click.group()
@click.option("--json", "as_json", is_flag=True, help="machine-readable output with stable keys")
@click.option("--jobs", type=int, default=1, show_default=True, help="parallel workers for multiple input files")
@click.pass_context
def main(ctx, as_json, jobs):
    """Exact toolkit for reflexive polytopes and toric Calabi-Yau data."""
    if jobs < 1:
        raise click.UsageError("--jobs must be at least 1")
    ctx.obj = {"json": as_json, "jobs": jobs}


_FILE = click.Path(exists=True, dir_okay=False)
_PATHS = click.Argument(["paths"], nargs=-1, required=True, type=_FILE)
_RESOLVE = click.Option(["--resolve"], is_flag=True, help="use the crepant refinement instead of the face fan")

# group: (help, rows of (command, report, help, click params)); click hands the
# params to the one callback as keyword arguments, which become the report's opts
_TABLE = {
    "poly": ("Convex geometry: hulls, duality, reflexivity, faces, points.", (
        ("check", report_poly_check, "Reflexivity and size summary.", (_PATHS,)),
        ("dual", report_poly_dual, "Vertices of the polar dual.", (_PATHS,)),
        ("points", report_poly_points, "Lattice point census with face assignments.", (_PATHS,)),
        ("faces", report_poly_faces, "Face lattice summary with per-face point counts.", (_PATHS,)),
        ("dump", report_poly_dump, "Re-emit the parsed point list in the canonical file format.",
         (click.Argument(["path"], type=_FILE),)),
    )),
    "cy": ("Hodge data of the anticanonical hypersurface.", (
        ("hodge", report_cy_hodge, "h11, h12, Euler characteristic, and the count terms.", (_PATHS,)),
        ("census", report_cy_census, "Divisor census: irreducible, split, and skipped boundary points.", (_PATHS,)),
    )),
    "fan": ("Face fans, crepant refinements, and divisor audits.", (
        ("build", report_fan_build, "Construct the fan and list its maximal cones.", (_PATHS, _RESOLVE)),
        ("mpcp", report_fan_mpcp, "Crepant simplicial refinement summary.", (_PATHS,)),
        ("singular", report_fan_singular, "Maximal cones with multiplicity above one.", (_PATHS, _RESOLVE)),
        ("picard", report_fan_picard, "Picard rank over Q.", (_PATHS, _RESOLVE)),
        ("nef", report_fan_nef, "Q-Cartier and nef tests for a divisor.", (
            _PATHS, _RESOLVE,
            click.Option(["--divisor"], required=True, help="ray=coeff list, 'anticanonical', or '-K'"),
        )),
    )),
    "chern": ("Second Chern class pairings and the toric curve census.", (
        ("c2", report_chern_c2, "c2 pairings against -K and each ray divisor, plus positivity audit.", (
            _PATHS,
            click.Option(["--divisor", "divisors"], multiple=True, help="extra classes to audit (ray=coeff list)"),
        )),
        ("curves", report_chern_curves,
         "Classify the curves the refinement's 2-cones cut on the hypersurface.", (_PATHS,)),
    )),
}


@click.pass_context
def _command(ctx, paths=(), path=None, **opts):
    _execute(ctx, f"{ctx.parent.command.name}.{ctx.command.name}", paths or (path,), opts)


def _add_commands(table):
    """Add each group and command of `table` to `main`; map "group.name" to its report."""
    commands = {}
    for group_name, (group_help, rows) in table.items():
        group = click.Group(group_name, help=group_help)
        main.add_command(group)
        for name, report, help_text, params in rows:
            group.add_command(click.Command(name, callback=_command, params=list(params), help=help_text))
            commands[f"{group_name}.{name}"] = report
    return commands


_COMMANDS = _add_commands(_TABLE)


if __name__ == "__main__":
    main()
