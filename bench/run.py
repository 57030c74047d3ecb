"""The cytoric benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload hodge-scan --seed 1 --seconds 30 --trace 0

Workloads (one client each; see NOTES.md for why each exists):

  hodge-scan    the survey: hull -> is_reflexive -> hodge.report over 209
                seeded inputs (sheared polygon products, weighted-P4 ray
                simplices, the 4-D fixtures)
  refine-chern  the deep pipeline on cross4d and the wp(1,1,2,2,2) and
                wp(1,1,1,1,4) mirrors: MPCP refinement, Picard rank,
                intersection form, c2 pairings, (-K)^4, nef test, curves
  cli-batch     `python -m cytoric.cli --json`: `--jobs 2 cy hodge` over the
                136 product files, `chern c2` on cross4d, two refusals

Every answer is checked (see gates.py).  Set-up (building the corpus, and
for cli-batch writing its files) runs several times and its median is
reported.  End-to-end times are adjusted to a fixed host speed measured
by a reference kernel (see hostspeed.py); the raw ones go to standard
error.  Passes over the workload's inputs repeat while another pass
fits in --seconds; there is always at least one.  Latency percentiles are
taken by nearest rank within each pass, then the median over passes.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 the run makes one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead, and writes the spans to
.bench_work/.  Progress and problems go to standard error.

`--describe` prints the size properties of every input of a seed instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
COMMAND_TIMEOUT_S = 120
REFINE_KEYS = ("cross4d", "wp1_1_2_2_2", "wp1_1_1_1_4")
CLI_JOBS = 2

clock = time.perf_counter


def use_checkout_source():
    """Import cytoric from this checkout's src/, never from elsewhere."""
    if not (SRC / "cytoric" / "__init__.py").is_file():
        sys.exit(f"run.py: no cytoric package under {SRC}; run it in a checkout of the repository")
    sys.path.insert(0, str(SRC))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Pass:
    """One pass over a workload's inputs.  Times are intervals (start, end,
    raw seconds) of `host`, adjusted to host speed at the end of the run."""

    def __init__(self, host):
        self.host = host
        self._mark = host.mark()
        self.interval = None
        self.latencies = []  # one per polytope, input or CLI command that computes
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.extra = {}

    def finish(self):
        self.interval = self.host.interval(self._mark)
        return self

    @property
    def wall(self):
        """The pass's raw seconds."""
        return self.interval[2]

    def record(self, problems, n=1):
        """Account for n operations; any problem fails all n."""
        self.attempted += n
        if problems:
            self.failed += n
            self.problems.extend(problems)


def _guarded(pass_, label, fn):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        fn()
    except Exception as exc:  # the loop must go on to count the rest
        pass_.record([f"{label}: {type(exc).__name__}: {exc}"])


class Workload:
    """A workload times its operations with `host`, a hostspeed.HostSpeed
    that samples only while the caller has entered it."""

    def __init__(self, host):
        self.host = host


# -- hodge-scan ------------------------------------------------------------------


class HodgeScan(Workload):
    name = "hodge-scan"

    def setup(self, seed):
        import corpus
        import gates

        return {"inputs": corpus.build(seed), "table": gates.load_hodge_table()}

    def run_pass(self, state, tracer=None):
        import gates
        from cytoric import hodge, polytope

        p = Pass(self.host)
        for inp in state["inputs"]:

            def one():
                t = self.host.mark()
                delta = polytope.hull(inp.points)
                if not delta.is_reflexive():
                    raise ValueError("input is not reflexive")
                report = hodge.report(delta)
                p.latencies.append(self.host.interval(t))
                p.record(gates.check_hodge_report(inp.key, report, state["table"]))

            _guarded(p, inp.key, one)
        return p.finish()


# -- refine-chern ------------------------------------------------------------------


class RefineChern(Workload):
    name = "refine-chern"

    def setup(self, seed):
        import corpus

        return {"inputs": [i for i in corpus.build(seed) if i.key in REFINE_KEYS]}

    def run_pass(self, state, tracer=None):
        import gates

        p = Pass(self.host)
        for inp in state["inputs"]:

            def one():
                t = self.host.mark()
                rec, delta = refine(inp.points, tracer)
                p.latencies.append(self.host.interval(t))
                rec["volume"] = delta.normalized_volume()
                rec["l"] = delta.n_points
                p.record(gates.check_refinement(inp.key, rec))

            _guarded(p, inp.key, one)
        return p.finish()


def refine(points, tracer=None):
    """The deep pipeline on one polytope.  Returns the pipeline's answers
    that the refinement gate checks, and the polytope."""
    from cytoric import chern, fan, polytope
    from cytoric.fan import WeilDivisor

    def step(name):
        return tracer.span(f"step.{name}") if tracer else nullcontext()

    delta = polytope.hull(points)
    refined = fan.mpcp_triangulate(delta)
    fan.singularity_census(refined)
    picard = fan.picard_rank_q(refined)
    form = chern.IntersectionForm(refined)
    minus_k = WeilDivisor.anticanonical(refined)
    with step("c2_minus_k"):
        c2_minus_k = chern.c2_dot(delta, form, minus_k)
    with step("c2_rays"):
        c2_rays = [chern.c2_dot(delta, form, WeilDivisor.ray(r)) for r in refined.rays]
    with step("k4"):
        k4 = chern.intersection_number(form, minus_k, minus_k, minus_k, minus_k)
    nef = fan.is_nef(refined, minus_k)
    with step("curves"):
        chern.curve_census(delta, refined)
    rec = {
        "rays": len(refined.rays),
        "picard": picard,
        "k4": k4,
        "c2_minus_k": c2_minus_k,
        "c2_rays_sum": sum(c2_rays),
        "nef": nef,
    }
    return rec, delta


# -- cli-batch ---------------------------------------------------------------------

NON_REFLEXIVE = "5 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n-1 -1 -1 -3\n"
MALFORMED = "5 4\n1 0 0 0\n0 1 0 x\n0 0 1 0\n0 0 0 1\n-1 -1 -1 -1\n"


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_command(argv, host=None, samples=None, timeout=COMMAND_TIMEOUT_S):
    """Run a child in its own session; on timeout kill the whole group.
    `host` does not sample while the child runs; a child run by
    sampled_cli.py leaves its own samples in the directory `samples`,
    which are merged into `host`.  Returns (exit status or None, stdout,
    stderr, interval of the child)."""
    host = host or hostspeed.HostSpeed()
    host.paused = True
    t = host.mark()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        status = None
    interval = host.interval(t)
    if samples is not None:
        for f in sorted(samples.glob("*.jsonl")):
            for line in f.read_text(encoding="utf-8").splitlines():
                host.merge(json.loads(line))
            f.unlink()
    host.paused = False  # only now: a sample taken during merge() would be lost
    return status, out, err, interval


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


class CliBatch(Workload):
    name = "cli-batch"

    def setup(self, seed):
        import corpus
        import gates
        from cytoric.fixtures import fixture_text
        from cytoric.polyfile import dump_polytope

        work = WORK / f"cli-{os.getpid()}-{time.monotonic_ns()}"
        work.mkdir(parents=True)
        files = {}
        for inp in corpus.build(seed):
            if inp.family != "product":
                continue
            path = work / f"p{len(files):03d}.poly"
            path.write_text(dump_polytope(list(inp.points)), encoding="utf-8")
            files[str(path.relative_to(ROOT))] = inp.key
        cross4d = work / "cross4d.poly"
        cross4d.write_text(fixture_text("cross4d"), encoding="utf-8")
        non_reflexive = work / "non_reflexive.poly"
        non_reflexive.write_text(NON_REFLEXIVE, encoding="utf-8")
        malformed = work / "malformed.poly"
        malformed.write_text(MALFORMED, encoding="utf-8")
        return {
            "work": work,
            "files": files,
            "cross4d": str(cross4d.relative_to(ROOT)),
            "non_reflexive": str(non_reflexive.relative_to(ROOT)),
            "malformed": str(malformed.relative_to(ROOT)),
            "table": gates.load_hodge_table(),
            "c2_golden": gates.load_c2_golden(),
        }

    def teardown(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def run_pass(self, state, tracer=None, trace_dir=None):
        import gates

        samples = None
        if trace_dir is None and self.host.active:
            samples = state["work"] / "samples"
            samples.mkdir(exist_ok=True)
            prefix = [sys.executable, str(BENCH / "sampled_cli.py"), str(samples), "--json"]
        elif trace_dir is None:
            prefix = [sys.executable, "-m", "cytoric.cli", "--json"]
        else:
            prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_dir), "--json"]
        p = Pass(self.host)

        files = list(state["files"])
        status, out, err, took = run_command(
            prefix + ["--jobs", str(CLI_JOBS), "cy", "hodge"] + files, self.host, samples
        )
        p.latencies.append(took)
        p.extra["hodge_cmd_s"] = took[2]
        doc = _json_or_none(out)
        if status != 0 or not isinstance(doc, list) or len(doc) != len(files):
            p.record([f"cy hodge batch: exit status {status}: {err.strip()[-300:]}"], len(files))
        else:
            for entry in doc:
                key = state["files"].get(entry.get("file"), entry.get("file"))
                p.record(gates.check_cli_hodge(key, entry, state["table"]))

        status, out, err, took = run_command(prefix + ["chern", "c2", state["cross4d"]], self.host, samples)
        p.latencies.append(took)
        p.extra["c2_cmd_s"] = took[2]
        doc = _json_or_none(out)
        if status != 0 or not isinstance(doc, dict):
            p.record([f"chern c2: exit status {status}: {err.strip()[-300:]}"])
        else:
            p.record(gates.check_cli_c2(doc, state["c2_golden"]))

        for label, path, needle in (
            ("refuse non-reflexive", state["non_reflexive"], "reflexive"),
            ("refuse malformed", state["malformed"], "line 3"),
        ):
            status, out, err, _took = run_command(prefix + ["cy", "hodge", path], self.host, samples)
            p.record(gates.check_refusal(label, status, _json_or_none(out), needle))
        return p.finish()


WORKLOADS = {w.name: w for w in (HodgeScan, RefineChern, CliBatch)}


# -- measurement -------------------------------------------------------------------


def nearest_rank(values, q):
    """The q-quantile by the nearest-rank rule: an observed value with at
    least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def set_up(workload, seed):
    """Set up SETUP_REPEATS times; keep the last state and the intervals."""
    intervals, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(workload, "teardown"):
            workload.teardown(state)
        t = workload.host.mark()
        state = workload.setup(seed)
        intervals.append(workload.host.interval(t))
    return state, intervals


def measure(workload, state, seconds):
    """Closed loop: start another pass while it is expected to end within
    `seconds` of the first pass's start; at least one pass."""
    passes = []
    start = clock()
    while True:
        passes.append(workload.run_pass(state))
        elapsed = clock() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(passes, setup, adjust):
    """The end-to-end metrics.  `setup` holds the set-up intervals;
    `adjust` turns an interval into seconds: HostSpeed.adjust for
    host-adjusted ones, `raw_seconds` for the raw ones."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [adjust(p.interval) for p in passes]

    timed = [[adjust(x) for x in p.latencies] for p in passes if p.latencies] or [[0.0]]

    def per_pass(stat):
        return statistics.median(stat(xs) for xs in timed)

    values = {
        "ops_per_s": (attempted / sum(walls), "1/s"),
        "latency_p50_ms": (1000.0 * per_pass(lambda xs: nearest_rank(xs, 0.5)), "ms"),
        "latency_p95_ms": (1000.0 * per_pass(lambda xs: nearest_rank(xs, 0.95)), "ms"),
        "pass_s": (statistics.median(walls), "s"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(adjust(x) for x in setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def raw_seconds(interval):
    return interval[2]


# Per-layer metric -> (summary key, unit).  Keys ending in ".incl" are the
# time inside spans of that name, ".calls" their number, ".self" a layer's
# own time; the rest are counts.  Metrics with key None are derived in
# `per_layer`.
PER_LAYER = {
    "polytope.hull_calls": ("polytope.hull.calls", "count"),
    "polytope.hull_s": ("polytope.hull.incl", "s"),
    "polytope.dual_s": ("polytope.dual.incl", "s"),
    "polytope.faces_s": ("polytope.faces.incl", "s"),
    "polytope.census_s": ("polytope.census.incl", "s"),
    "polytope.census_runs": ("polytope.census_runs", "count"),
    "polytope.census_points": ("polytope.census_points", "count"),
    "polytope.census_box_points": ("polytope.census_box_points", "count"),
    "polytope.census_fill": (None, "ratio"),
    "polytope.volume_s": ("polytope.volume.incl", "s"),
    "polytope.self_s": ("polytope.self", "s"),
    "linalg.matrix_rank_calls": ("linalg.matrix_rank.calls", "count"),
    "linalg.matrix_rank_s": ("linalg.matrix_rank.incl", "s"),
    "linalg.solve_linear_calls": ("linalg.solve_linear.calls", "count"),
    "linalg.solve_linear_s": ("linalg.solve_linear.incl", "s"),
    "linalg.int_det_calls": ("linalg.int_det.calls", "count"),
    "linalg.int_det_s": ("linalg.int_det.incl", "s"),
    "linalg.self_s": ("linalg.self", "s"),
    "hodge.report_s": ("hodge.report.incl", "s"),
    "hodge.divisor_census_s": ("hodge.divisor_census.incl", "s"),
    "hodge.self_s": ("hodge.self", "s"),
    "fan.mpcp_s": ("fan.mpcp.incl", "s"),
    "fan.cell_hull_calls": ("fan.cell_hull.calls", "count"),
    "fan.cell_hull_s": ("fan.cell_hull.incl", "s"),
    "fan.cones": ("fan.cones", "count"),
    "fan.rays": ("fan.rays", "count"),
    "fan.picard_s": ("fan.picard.incl", "s"),
    "fan.singular_s": ("fan.singular.incl", "s"),
    "fan.nef_s": ("fan.nef.incl", "s"),
    "fan.nef_solves": ("fan.nef_solves", "count"),
    "fan.self_s": ("fan.self", "s"),
    "chern.form_init_s": ("chern.form_init.incl", "s"),
    "chern.c2_minus_k_s": ("step.c2_minus_k.incl", "s"),
    "chern.c2_rays_s": ("step.c2_rays.incl", "s"),
    "chern.k4_s": ("step.k4.incl", "s"),
    "chern.curves_s": ("step.curves.incl", "s"),
    "chern.value_calls": ("chern.value_calls", "count"),
    "chern.memo_entries": ("chern.memo_entries", "count"),
    "chern.self_s": ("chern.self", "s"),
    "polyfile.parse_s": ("polyfile.parse.incl", "s"),
    "polyfile.parse_calls": ("polyfile.parse.calls", "count"),
    "cli.import_s": (None, "s"),
    "cli.overhead_per_file_ms": (None, "ms"),
    "cli.hodge_files_per_s": (None, "1/s"),
    "cli.c2_cmd_s": (None, "s"),
    "trace.spans": ("trace.spans", "count"),
    "trace.untraced_pass_s": (None, "s"),
    "trace.overhead_s": (None, "s"),
    "trace.overhead_ratio": (None, "ratio"),
}


def cli_import_s(repeats=5):
    """Median time to import cytoric.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cytoric.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        status, out, err, _took = run_command([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError(f"importing cytoric.cli failed: {err.strip()[-300:]}")
        times.append(float(out))
    return statistics.median(times)


def cli_overhead_per_file_ms(state):
    """Wall time of `--jobs 1 cy hodge` over the product files, minus the
    in-process time of hull -> is_reflexive -> hodge.report on the same
    files, per file."""
    from cytoric import hodge, polytope
    from cytoric.polyfile import parse_polytope_path

    files = list(state["files"])
    status, _out, err, took = run_command(
        [sys.executable, "-m", "cytoric.cli", "--json", "--jobs", "1", "cy", "hodge"] + files
    )
    if status != 0:
        raise RuntimeError(f"cy hodge --jobs 1 failed: {err.strip()[-300:]}")
    library = 0.0
    for f in files:
        points = parse_polytope_path(ROOT / f)
        t = clock()
        delta = polytope.hull(points)
        delta.is_reflexive()
        hodge.report(delta)
        library += clock() - t
    return 1000.0 * (took[2] - library) / len(files)


def per_layer(workload, state, seed):
    """One untraced and one traced pass; the per-layer numbers come from
    the traced one, the overhead from the difference of the two."""
    import spans

    plain = workload.run_pass(state)
    WORK.mkdir(exist_ok=True)
    if isinstance(workload, CliBatch):
        # Each CLI process writes its summary and spans into this directory.
        trace_dir = WORK / f"trace-{workload.name}-seed{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        traced = workload.run_pass(state, trace_dir=trace_dir)
        summary = spans.merge(
            json.loads(f.read_text(encoding="utf-8")) for f in sorted(trace_dir.glob("*.json"))
        )
    else:
        tracer = spans.Tracer()
        with spans.instrument(tracer) as forms:
            traced = workload.run_pass(state, tracer)
            forms.release_all()
        summary = spans.summarize(tracer)
        tracer.dump(WORK / f"trace-{workload.name}-seed{seed}.json")

    box = summary.get("polytope.census_box_points", 0)
    derived = {
        "polytope.census_fill": summary.get("polytope.census_points", 0) / box if box else 0.0,
        "trace.untraced_pass_s": plain.wall,
        "trace.overhead_s": traced.wall - plain.wall,
        "trace.overhead_ratio": (traced.wall - plain.wall) / plain.wall,
    }
    if isinstance(workload, CliBatch):
        derived["cli.import_s"] = cli_import_s()
        derived["cli.overhead_per_file_ms"] = cli_overhead_per_file_ms(state)
        derived["cli.hodge_files_per_s"] = len(state["files"]) / plain.extra["hodge_cmd_s"]
        derived["cli.c2_cmd_s"] = plain.extra["c2_cmd_s"]
    metrics = {}
    for name, (key, unit) in PER_LAYER.items():
        value = summary.get(key, 0) if key is not None else derived.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return [plain, traced], metrics


def describe(seed):
    import corpus
    from cytoric import hull

    table = [
        {"key": inp.key, "family": inp.family, **corpus.properties(hull(inp.points))}
        for inp in corpus.build(seed)
    ]
    print(json.dumps(table, indent=1))


def main(argv=None):
    parser = argparse.ArgumentParser(description="cytoric benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print input properties of the seed and exit")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.describe:
        describe(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    host = hostspeed.HostSpeed()
    workload = WORKLOADS[args.workload](host)
    # Measured runs sample the host speed from set-up on; traced runs never
    # do, since the kernel would run inside whatever span is open.
    with nullcontext() if args.trace else host:
        state, setup = set_up(workload, args.seed)
        try:
            if args.trace:
                passes, metrics = per_layer(workload, state, args.seed)
            else:
                passes = measure(workload, state, args.seconds)
        finally:
            if hasattr(workload, "teardown"):
                workload.teardown(state)
    if not args.trace:
        metrics = end_to_end(passes, setup, host.adjust)
        raw = end_to_end(passes, setup, raw_seconds)
        log(
            f"host speed {statistics.mean(host.speeds or [1.0]):.3f} over {len(host.speeds)} samples "
            f"({host.spent:.2f} s); raw times: "
            + ", ".join(f"{k} {v['value']:.6g}" for k, v in raw.items() if v["unit"] in ("s", "ms", "1/s"))
        )

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    for line in problems[:20]:
        log("FAIL", line)
    log(
        f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
        f"walls {[round(p.wall, 3) for p in passes]}, {attempted} attempted, {failed} failed"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
