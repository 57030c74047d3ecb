"""Run the cytoric CLI with the benchmark's span wrappers installed.

    python bench/traced_cli.py OUT_DIR [cytoric arguments...]

After every input file a process handles, it appends that file's spans to
OUT_DIR/<pid>.spans.jsonl, adds them to a running summary and rewrites
OUT_DIR/<pid>.json, so `--jobs` workers (forked from this process,
wrappers included) report as well.  Standard
output is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path


def main():
    out_dir = Path(sys.argv[1])
    sys.argv = ["cytoric"] + sys.argv[2:]
    import spans
    from cytoric import cli

    tracer = spans.Tracer()
    running = {}
    with spans.instrument(tracer) as forms:
        run_one = cli._run_one

        # wraps() keeps the name cytoric.cli._run_one, so the executor
        # pickles a reference to this wrapper for its forked workers.
        @functools.wraps(run_one)
        def run_and_record(command, path, opts):
            try:
                return run_one(command, path, opts)
            finally:
                forms.release_all()
                summary = spans.summarize(tracer)
                with open(out_dir / f"{os.getpid()}.spans.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(tracer.spans, separators=(",", ":")) + "\n")
                tracer.spans.clear()
                tracer.counts.clear()
                running.update(spans.merge([running, summary]))
                target = out_dir / f"{os.getpid()}.json"
                tmp = target.with_suffix(".tmp")
                tmp.write_text(json.dumps(running), encoding="utf-8")
                tmp.replace(target)

        cli._run_one = run_and_record
        cli.main()


if __name__ == "__main__":
    main()
