"""Spans and counts recorded from outside the library.

`instrument(tracer)` replaces the public functions of `polyfile`,
`polytope`, `hodge`, `fan` and `chern`, and the `_linalg` functions at the
places where those modules import them, with wrappers that record one span
per call: name, start, end, parent span and call site.  Leaving the context
puts the originals back.  Spans stay in memory; `summarize` folds them into
additive per-layer numbers (inclusive time per stage, self time per layer,
call counts), so the summaries of several processes can be added.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from contextlib import contextmanager

class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, site,
    outer]: names are "<layer>.<stage>", `parent` is the index of the
    enclosing span or -1, `outer` is False when a span of the same name
    encloses it."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._active = {}

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name, site=None):
        idx = self._open(name, site)
        try:
            yield
        finally:
            self._close(idx, name)

    def _open(self, name, site):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = not self._active.get(name)
        self._active[name] = self._active.get(name, 0) + 1
        self.spans.append([name, 0.0, 0.0, parent, site, outer])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx, name):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    def wrap(self, fn, name, site=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, site)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name)

        return traced

    def dump(self, path):
        """Write the spans and counts as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "site", "outer"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )


class _CensusWatch:
    """Counts points and box points of each census actually computed: the
    first census call on a polytope object computes, later ones read the
    library's cached result."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seen = {}  # id -> weakref to the polytope

    def wrap(self, fn):
        tracer = self.tracer
        seen = self.seen

        @functools.wraps(fn)
        def census(poly):
            ref = seen.get(id(poly))
            first = ref is None or ref() is not poly
            result = fn(poly)
            if first:
                seen[id(poly)] = weakref.ref(poly)
                box = 1
                for i in range(poly.ambient_dim):
                    coords = [v[i] for v in poly.vertices]
                    box *= max(coords) - min(coords) + 1
                tracer.count("polytope.census_runs")
                tracer.count("polytope.census_points", len(result.points))
                tracer.count("polytope.census_box_points", box)
            return result

        return census


class _FormWatch:
    """Counts intersection-form evaluations and the distinct multisets they
    ask for, which is the size the form's memo reaches."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.keys = {}  # form -> set of sorted multisets; holds the forms alive

    def wrap(self, fn):
        tracer = self.tracer
        keys = self.keys

        @functools.wraps(fn)
        def value(form, multiset):
            tracer.counts["chern.value_calls"] = tracer.counts.get("chern.value_calls", 0) + 1
            keys.setdefault(form, set()).add(tuple(sorted(multiset)))
            return fn(form, multiset)

        return value

    def release_all(self):
        """Fold the distinct-key counts of the forms seen so far into the
        counts and forget them; call once those forms are done with."""
        for seen in self.keys.values():
            self.tracer.count("chern.memo_entries", len(seen))
        self.keys.clear()


@contextmanager
def instrument(tracer):
    """Install span wrappers on the library for the duration of the block.

    Yields the `_FormWatch`, whose `release_all()` records the memo sizes
    of the forms built so far.
    """
    from cytoric import chern, cli, fan, fixtures, hodge, polytope

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, site=None):
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, site))

    # _linalg, at each import site.
    for owner, site in ((polytope, "polytope"), (fan, "fan"), (chern, "chern")):
        for fn in ("matrix_rank", "solve_linear", "int_det", "left_nullspace", "hyperplane_normal"):
            if hasattr(owner, fn):
                span(owner, fn, f"linalg.{fn}", site)
    # polytope: hull where polytope, fan (refinement cells) and cli call it.
    span(polytope, "hull", "polytope.hull", "polytope")
    span(fan, "hull", "polytope.hull", "fan")
    span(cli, "hull", "polytope.hull", "cli")
    census = _CensusWatch(tracer)
    patch(polytope.Polytope, "census", tracer.wrap(census.wrap(polytope.Polytope.census), "polytope.census"))
    span(polytope.Polytope, "dual", "polytope.dual")
    span(polytope.Polytope, "faces", "polytope.faces")
    span(polytope.Polytope, "dual_face", "polytope.dual_face")
    span(polytope.Polytope, "normalized_volume", "polytope.volume")
    span(polytope.Polytope, "is_reflexive", "polytope.is_reflexive")
    span(polytope.Polytope, "__init__", "polytope.validate")
    # hodge, including where chern imports it.
    for fn in ("report", "divisor_census", "h11", "h12", "classify_boundary"):
        span(hodge, fn, f"hodge.{fn}")
    span(chern, "classify_boundary", "hodge.classify_boundary", "chern")
    # fan, including where chern imports it.
    mpcp = fan.mpcp_triangulate

    @functools.wraps(mpcp)
    def mpcp_counted(*args, **kwargs):
        result = mpcp(*args, **kwargs)
        tracer.count("fan.cones", len(result.maximal_cones))
        tracer.count("fan.rays", len(result.rays))
        return result

    patch(fan, "mpcp_triangulate", tracer.wrap(mpcp_counted, "fan.mpcp"))
    for fn, name in (
        ("face_fan", "fan.face_fan"),
        ("singularity_census", "fan.singular"),
        ("picard_rank_q", "fan.picard"),
        ("is_qcartier", "fan.qcartier"),
        ("is_nef", "fan.nef"),
    ):
        span(fan, fn, name)
    span(chern, "is_nef", "fan.nef", "chern")
    # chern.
    span(chern.IntersectionForm, "__init__", "chern.form_init")
    form = _FormWatch(tracer)
    patch(chern.IntersectionForm, "value", form.wrap(chern.IntersectionForm.value))
    for fn in ("c2_dot", "intersection_number", "curve_census", "chern_report"):
        span(chern, fn, f"chern.{fn}")
    # polyfile, where cli and fixtures import it.
    span(cli, "parse_polytope_path", "polyfile.parse", "cli")
    span(fixtures, "parse_polytope", "polyfile.parse", "fixtures")
    try:
        yield form
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def summarize(tracer) -> dict:
    """Additive numbers from the spans: `<name>.incl` is the time of spans
    not nested in a span of the same name, `<name>.calls` the number of
    calls, `<layer>.self` the layer's time minus its children's, plus the
    tracer's counts."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_nef = [False] * len(spans)
    for i, (name, start, end, parent, _site, _outer) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_nef[i] = in_nef[parent]
        if name == "fan.nef":
            in_nef[i] = True
    out = dict(tracer.counts)

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, _parent, site, outer) in enumerate(spans):
        dur = end - start
        add(f"{name}.calls", 1)
        if outer:
            add(f"{name}.incl", dur)
        add(f"{name.split('.', 1)[0]}.self", dur - child[i])
        if name == "polytope.hull" and site == "fan":
            add("fan.cell_hull.calls", 1)
            add("fan.cell_hull.incl", dur)
        if name == "linalg.solve_linear" and in_nef[i]:
            add("fan.nef_solves", 1)
    add("trace.spans", len(spans))
    return out


def merge(summaries) -> dict:
    out = {}
    for s in summaries:
        for k, v in s.items():
            out[k] = out.get(k, 0) + v
    return out
