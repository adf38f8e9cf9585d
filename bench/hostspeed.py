"""Host speed, sampled on the CPU that the benchmark's children run on.

On a shared host the same code runs tens of percent faster or slower from
one minute to the next, depending on what else shares the physical core
and its caches under the virtual CPU.  ``SpeedProbe`` pins the benchmark,
and so every child it starts, to one CPU.  A background thread on that CPU
runs two fixed pieces of work in turn, one every ``PERIOD_S``: interpreter
work on a dictionary, and a numpy pass over an array that fits only in the
last-level cache.  It records the thread CPU time each took, which leaves
out the time the thread waits for a child to yield the CPU.

``factor(start, end)`` turns a wall time spent in that interval into
reference seconds: the time it would take on a host where each piece of
work takes its ``NOMINAL_S``.  It is the geometric mean of the two kinds'
speed ratios, because flatrank's time splits between interpreter work and
numpy passes in proportions that differ by invocation.  The work is
independent of flatrank, so a change to flatrank moves reference seconds as
much as it moves wall time.  The one exception is the cache: between two
samples the child evicts the probe's array, so a child that moves far less
memory may see array work run a little faster and its factor fall with it.

The probe takes about 6% of the CPU, so a child's wall time includes that
much of the probe's work.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
# An interval holding fewer samples of a kind than this is rated by the
# samples of that kind nearest to its middle.
MIN_SAMPLES = 4
_ARRAY = np.ones(3_000_000, dtype=np.int64)


def interpreter_work() -> None:
    """Dictionary and integer updates keyed by exponent-like tuples."""
    table: dict = {}
    for i in range(5000):
        key = (i % 7, i // 7 % 5, i // 35 % 11)
        table[key] = (table.get(key, 0) * 31 + i) % 1_000_003


def array_work() -> None:
    """One read and write pass over a 24 MB int64 array."""
    np.add(_ARRAY, 1, out=_ARRAY)


# Each kind of work and its CPU time on the nominal host: the medians on a
# 2-vCPU Intel Xeon virtual machine, so reference seconds read close to
# wall seconds there.
WORK = (interpreter_work, array_work)
NOMINAL_S = (0.0028, 0.0031)


class SpeedProbe:
    """Context manager: pins the process to one CPU and samples its speed
    in a background thread until it exits."""

    def __init__(self):
        # One list per kind of work of (perf_counter at start, CPU s).
        self.samples: tuple[list[tuple[float, float]], ...] = tuple([] for _ in WORK)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            for work, samples in zip(WORK, self.samples):
                start, cpu = time.perf_counter(), time.thread_time()
                work()
                samples.append((start, time.thread_time() - cpu))
                if self._stop.wait(PERIOD_S):
                    return

    def factor(self, start: float, end: float) -> float:
        """Factor that turns wall time spent between ``start`` and ``end``
        (``time.perf_counter`` values) into reference seconds."""
        ratios = []
        for nominal, kind in zip(NOMINAL_S, self.samples):
            samples = list(kind)
            inside = [cpu for at, cpu in samples if start <= at <= end]
            if len(inside) < MIN_SAMPLES:
                middle = (start + end) / 2
                nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
                inside = [cpu for _, cpu in nearest[:MIN_SAMPLES]]
            ratios.append(nominal / statistics.fmean(inside))
        return math.prod(ratios) ** (1 / len(ratios))

    def medians_s(self) -> list[float]:
        return [statistics.median(cpu for _, cpu in kind) for kind in self.samples]
