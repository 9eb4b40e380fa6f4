"""Host speed probe used to normalise the benchmark's timings.

The host's speed drifts by about ±20%, and often more, on time scales
from a fraction of a second to minutes (see NOTES.md): far more than the
bounds the benchmark must resolve.  ``Clock`` times one interval and
samples the host's speed throughout it: a probe, a fixed pure-Python loop
that does not touch divbands, runs a few times before and after the
interval and, from a SIGALRM timer, every ``TICK_S`` during it.  The
interval, minus the time the probes took inside it, is rescaled to a
host whose probe takes ``NOMINAL_S``:

    normalised = (measured - probe time inside) * NOMINAL_S / median(probes)

A change to the program moves the measured time and not the probes, so
it shows in full; a slow phase of the host moves both and cancels.
Probes at the ends alone track the host too coarsely: on a 3 s power
solve they left 13% of jitter per execution, sampling throughout 5%.

This holds only while the program runs on the calling thread alone.
Worker threads or processes compete with the probes for the cores and
the GIL, which slows the probes inside the interval and would overstate
any parallel speed-up; the probe time subtracted would also have
overlapped real work.  So an interval is marked ``parallel`` when the
process gained a thread or a child process during it, reaped a child
that used CPU time, or used more than one core's worth of CPU time.  A
parallel interval is rescaled by the probes before and after it only,
and nothing is subtracted.
"""

from __future__ import annotations

import glob
import os
import resource
import signal
import statistics
import threading
import time

LOOP = 5_000        # iterations per probe, about 0.2 ms
NOMINAL_S = 2.2e-4  # median probe time on the reference host (2-core Xeon VM, Python 3.11.7)
TICK_S = 0.02       # probe interval during the timed call
END_PROBES = 5      # probes before and after the timed call
PARALLEL_CPU = 1.1  # CPU seconds per elapsed second above which an interval is parallel
CPU_SLACK_S = 0.01  # allowance for CPU-time accounting on short intervals


def probe() -> float:
    """Seconds for one run of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i
    return time.perf_counter() - start


def workers() -> int:
    """Threads and live child processes of this process, where the OS shows
    them (Linux /proc); elsewhere the Python threads alone."""
    try:
        tasks = glob.glob("/proc/self/task/*/children")
        return len(tasks) + sum(len(open(t).read().split()) for t in tasks)
    except OSError:
        return threading.active_count()


def cpu_seconds() -> tuple[float, float]:
    """CPU time of this process, and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


class Clock:
    """Context manager timing one interval against the host's speed.

    After the block, ``elapsed`` holds the interval as measured,
    ``parallel`` whether it ran on more than the calling thread,
    ``seconds`` the interval minus the probe ticks that ran inside it
    (all of it when parallel), and ``normalised`` that time at nominal
    speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.elapsed = self.seconds = self.normalised = 0.0
        self.parallel = False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._workers_seen = max(self._workers_seen, workers())
        self.samples.append(probe())
        self._inside += time.perf_counter() - start

    def __enter__(self):
        self.samples = [probe() for _ in range(END_PROBES)]
        self._workers = self._workers_seen = workers()
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._cpu = cpu_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        own, children = (b - a for a, b in zip(self._cpu, cpu_seconds()))
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._workers_seen = max(self._workers_seen, workers())
        self.parallel = (self._workers_seen > self._workers or children > 0
                         or own > PARALLEL_CPU * self.elapsed + CPU_SLACK_S)
        after = [probe() for _ in range(END_PROBES)]
        if self.parallel:
            self.seconds = self.elapsed
            speed = self.samples[:END_PROBES] + after
        else:
            self.seconds = self.elapsed - self._inside
            speed = self.samples + after
        self.samples += after
        self.normalised = self.seconds * NOMINAL_S / statistics.median(speed)
        return False
