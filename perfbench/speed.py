"""A fixed pure-Python loop that measures how fast the machine runs now.

On a shared virtual machine the speed of one CPU changes by up to half
between stretches of a few seconds, as neighbours come and go; a fixed
Python loop has been seen at 6.5 ms in one second and 12.8 ms a few
seconds later.  A run of half a minute lands in whatever mix of stretches
it meets, so raw wall times of the same code spread by 20-30 % from run to
run.  Every timing the benchmark reports is therefore taken at a reference
speed: the wall time of a call, scaled by ``REFERENCE_S`` over the median
time of this loop, run just before and just after the call and, for a call
on one CPU, every ``PERIOD_S`` during it.  A change to the program moves
the call's time and not the loop's, so it still shows in full.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time

ITERATIONS = 4000
REPEATS = 5
# one loop's time at the reference speed: about its median on the machine
# the reference figures in README.md were taken on
REFERENCE_S = 0.0020
# in-call samples: a shorter loop, scaled to ITERATIONS
PERIOD_S = 0.05
SAMPLE_ITERATIONS = 1000


def _loop(iterations: int = ITERATIONS) -> float:
    start = time.perf_counter()
    counts: dict[str, int] = {}
    parts = []
    for i in range(iterations):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        parts.append(key.upper())
    "".join(parts).count("K1")
    return time.perf_counter() - start


def loop_seconds() -> float:
    """The median time of a few runs of the loop: string formatting, dict
    updates, list appends and a join, the operations the program spends its
    time on.  The median of short runs reads the speed of the moment and
    not the millisecond bursts of a neighbour."""
    return statistics.median(_loop() for _ in range(REPEATS))


def loop_seconds_on(cpus: set[int]) -> float:
    """The loop's mean time over each of ``cpus``, with the calling thread
    pinned to one at a time.  The caller restores the thread's affinity."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(loop_seconds())
    return statistics.mean(times)


@contextlib.contextmanager
def sampling():
    """While the block runs, time a short run of the loop every
    ``PERIOD_S`` from a SIGALRM handler in the main thread; yields the list
    of those times, scaled to ``ITERATIONS``.  A tick is skipped while the
    process has a child, such as a compiler, that would share the CPU."""
    samples: list[float] = []

    def tick(signum, frame) -> None:
        try:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:
            samples.append(_loop(SAMPLE_ITERATIONS) * ITERATIONS / SAMPLE_ITERATIONS)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def at_reference(elapsed: float, loop_times: list[float]) -> float:
    """``elapsed`` seconds, measured while the loop took ``loop_times``,
    converted to the reference speed."""
    return elapsed * REFERENCE_S / statistics.median(loop_times)
