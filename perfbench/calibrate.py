"""A reference loop that turns measured times into reference seconds.

The benchmark runs on a few cores of a shared host, and how fast a core
runs drifts by a quarter or more with other jobs' load, within tens of
milliseconds as well as over minutes.  A fixed pure-Python loop, timed
right next to the measured work, tells how fast the core ran; the drift
shows in the loop and the program alike.

A calibrated time is ``measured * REFERENCE_S / loop``: what the interval
would have taken on a core that runs the loop in ``REFERENCE_S``.  Because
the drift is fast, the loop is short and runs as close to the work as it
can: a job the benchmark drives in steps is calibrated step by step
(:class:`Clock`), a single call by the loops just before and after it
(:class:`Interval`).  The end-to-end times of ``BENCHMARK.json`` are
calibrated; raw times are printed next to them.  The loop does not touch
the program, so a change to the program moves a calibrated time exactly
as it moves the raw one.
"""

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

LOOP_ITERATIONS = 10_000
# The loop's time on an idle core of the 2-vCPU x86-64 host (CPython 3)
# the bounds were set on; only the scale of the reported times depends on it.
REFERENCE_S = 0.0007


def loop_seconds():
    """Time one pass of the reference loop."""
    start = perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value
    return perf_counter() - start


def factor(loops):
    """Calibration factor for an interval during which ``loops`` were timed."""
    return REFERENCE_S / statistics.median(loops)


class Interval:
    """Time a block, with the reference loop run just before and just after.

        with calibrate.Interval() as interval:
            work()
        interval.raw, interval.seconds   # measured, calibrated
    """

    def __enter__(self):
        self.loops = [loop_seconds()]
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = perf_counter() - self.start
        self.loops.append(loop_seconds())
        self.seconds = self.raw * factor(self.loops)
        return False


class Clock:
    """Calibrated time summed over the segments of one job.

    The loop runs when the clock is made and after every segment; each
    segment is calibrated by the loops on either side of it.  ``span`` (a
    tracer's) wraps each loop, so a traced job's self time leaves it out.

        clock = calibrate.Clock()
        for step in steps:
            with clock.segment():
                step()
        clock.raw, clock.seconds   # measured, calibrated
    """

    def __init__(self, span=lambda name: nullcontext()):
        self.span = span
        self.raw = self.seconds = 0.0
        self.loop = self._loop()

    def _loop(self):
        with self.span("calibrate"):
            return loop_seconds()

    @contextmanager
    def segment(self):
        start = perf_counter()
        yield
        raw = perf_counter() - start
        after = self._loop()
        self.raw += raw
        self.seconds += raw * factor([self.loop, after])
        self.loop = after
