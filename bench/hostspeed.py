"""Host-speed reference for the benchmark's end-to-end times.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent within a minute, so the same pass can take 20 s in one run and
26 s in the next.  To take that out of the comparison, a fixed pure-Python
reference kernel is timed while the workload runs:

* every PERIOD_S seconds from a SIGALRM handler while the benchmark
  process itself computes (hodge-scan, refine-chern, set-up);
* in cli-batch, the same way inside the CLI's own processes
  (sampled_cli.py), while the benchmark process waits without sampling,
  so the kernel never competes with the program from another process.

A sample's speed is NOMINAL_S over the kernel's time: 1.0 when the kernel
runs at its nominal speed, 0.8 when the host is 20% slower.  The adjusted
duration of an interval is the program's own time in it (wall time minus
the kernel's time) times the mean speed of the samples taken within
WINDOW_S of it.  That is the time the interval would have taken on a host
running at nominal speed, and it is what the end-to-end metrics report.
Since the kernel never runs the program's code, a change to the program
moves the adjusted times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
KERNEL_LOOP = 15_000
KERNEL_FRACTIONS = 300
# About the kernel's fastest time on a 2-vCPU Xeon VM with Python 3.11.
NOMINAL_S = 0.0015
WINDOW_S = 0.5

clock = time.perf_counter


def kernel():
    """The reference work: small-integer arithmetic in the interpreter
    loop, then exact rational arithmetic (the fractions module, which the
    library's intersection numbers also use)."""
    s = 0
    for i in range(KERNEL_LOOP):
        s += i * i % 7
    q = Fraction(0)
    for i in range(1, KERNEL_FRACTIONS):
        q += Fraction(i % 7 + 1, i)
    return s, q


class HostSpeed:
    """Samples the reference kernel; use as a context manager to sample
    on a timer."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.times = []  # clock() at each sample's start, ascending
        self.speeds = []  # NOMINAL_S / kernel seconds
        self.spent = 0.0  # seconds spent in the kernel so far
        self.active = False  # True inside the context
        self.paused = False
        self._previous = None

    def sample(self):
        # A collection falling due inside the kernel would time the
        # program's garbage; defer it to the program's next allocation.
        collecting = gc.isenabled()
        gc.disable()
        t = clock()
        kernel()
        d = clock() - t
        if collecting:
            gc.enable()
        self.times.append(t)
        self.speeds.append(NOMINAL_S / d)
        self.spent += d

    def merge(self, samples):
        """Add (time, speed) samples taken by another process on the same
        clock (see sampled_cli.py)."""
        pairs = sorted(list(zip(self.times, self.speeds)) + [tuple(x) for x in samples])
        self.times = [t for t, _ in pairs]
        self.speeds = [v for _, v in pairs]

    def _on_alarm(self, _signum, _frame):
        if not self.paused:
            self.sample()

    def __enter__(self):
        self.active = True
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False
        return False

    def mark(self):
        """A point in time, to pass to `interval` later."""
        return clock(), self.spent

    def interval(self, mark):
        """(start, end, raw seconds) from `mark` to now, where the raw
        seconds are the program's own: wall time minus the kernel's."""
        t, spent = mark
        now = clock()
        return t, now, (now - t) - (self.spent - spent)

    def speed(self, start, end):
        """Mean sample speed within WINDOW_S of [start, end]; all samples
        if none is that close; 1.0 if there are none."""
        i = bisect.bisect_left(self.times, start - WINDOW_S)
        j = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.speeds[i:j] or self.speeds
        return sum(near) / len(near) if near else 1.0

    def adjust(self, interval):
        """An interval's raw seconds at nominal host speed.  Call it once
        the samples after the interval have been taken."""
        start, end, raw = interval
        return raw * self.speed(start, end)
