"""Run the cytoric CLI with the host-speed sampler of hostspeed.py running
inside its processes.

    python bench/sampled_cli.py OUT_DIR [cytoric arguments...]

The main process samples on its timer while it computes.  While a
`--jobs` pool runs, the main process only waits, so it pauses, and each
forked worker samples on its own timer instead, from its first file on.
The kernel thus always runs on the CPU the program is using, and never
competes with it from a third process.  After every file, and at exit, a
process appends its new samples to OUT_DIR/<pid>.jsonl as
[[time, speed], ...] lines, on the same clock as the benchmark's.
Standard output is the CLI's own.
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
    import hostspeed
    from cytoric import cli

    host = hostspeed.HostSpeed()
    owner = {"pid": os.getpid(), "flushed": 0}

    def flush():
        new = list(zip(host.times[owner["flushed"]:], host.speeds[owner["flushed"]:]))
        owner["flushed"] += len(new)
        if new:
            with open(out_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(new) + "\n")

    run_one = cli._run_one

    # wraps() keeps the name cytoric.cli._run_one, so the executor pickles
    # a reference to this wrapper for its forked workers.
    @functools.wraps(run_one)
    def run_and_flush(command, path, opts):
        if owner["pid"] != os.getpid():
            # First file in a forked worker: drop the samples inherited
            # from the main process and start this process's own timer.
            owner["pid"], owner["flushed"] = os.getpid(), 0
            host.times, host.speeds = [], []
            host.paused = False
            host.__enter__()
        try:
            return run_one(command, path, opts)
        finally:
            flush()

    class PausingPool(cli.ProcessPoolExecutor):
        def __enter__(self):
            host.paused = True
            return super().__enter__()

        def __exit__(self, *exc):
            host.paused = False
            return super().__exit__(*exc)

    cli._run_one = run_and_flush
    cli.ProcessPoolExecutor = PausingPool
    try:
        with host:
            cli.main()
    finally:
        if owner["pid"] == os.getpid():
            flush()


if __name__ == "__main__":
    main()
