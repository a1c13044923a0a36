"""The host's speed while the benchmark runs, to scale its times by.

The 2-vCPU VM the benchmark was calibrated on runs at a speed that
drifts by up to 2x within minutes: other guests share its cores, the
kernel reports no steal time, and CPU time inflates exactly as wall
time does.  Two sets of runs of the same code differed by 31%.

A ``Speedometer`` measures that speed while the workload runs.  A
background thread runs a fixed pure-Python loop every
``REF_INTERVAL_S``, pinned to each CPU in turn (the CPUs' speeds differ
from moment to moment, and a workload that keeps one CPU busy would
otherwise be sampled on the idle one), and records the CPU time the
loop took.  A thread's CPU time does not grow while the benchmark's own
processes hold the CPU, so the loop measures the host, not the load on
it; it does grow while the hypervisor runs other guests on our cores.
A timed window's seconds are multiplied by ``scale(window)``:
``REF_NOMINAL_S`` over the mean loop CPU time inside the window.  A
host twice as fast runs both the work and the loop twice as fast, so
the scaled time stays the same.

The loop is shaped like the program's hot paths (tuple keys hashed into
a dict, list pushes and pops, masked integer arithmetic) and lives here,
outside the program, so no change to the program can move it.  It takes
~7 ms every 0.25 s, under 2% of the machine.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time

REF_ITERATIONS = 20_000
REF_INTERVAL_S = 0.25
# Loop CPU time on the calibration host in its fast state, with the
# workloads running: the scale is about 1 there.
REF_NOMINAL_S = 0.0075


def _reference_work(n: int) -> int:
    table: dict = {}
    trail: list = []
    acc = 1
    for i in range(n):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        key = (acc & 0x3FF, i & 7)
        table[key] = table.get(key, 0) + 1
        trail.append(acc)
        if len(trail) > 64:
            trail.pop()
    return len(table)


def reference_cpu_s() -> float:
    """CPU seconds this thread spends on one run of the loop."""
    start = time.thread_time()
    _reference_work(REF_ITERATIONS)
    return time.thread_time() - start


class Speedometer:
    """Samples the loop in a background thread between ``start()`` and
    ``stop()``; ``samples`` holds ``(perf_counter at start, CPU s)``.
    ``time.perf_counter`` is CLOCK_MONOTONIC, shared by every process on
    the machine, so windows timed in child processes line up."""

    def __init__(self, reference=reference_cpu_s, interval_s: float = REF_INTERVAL_S) -> None:
        self._reference = reference
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)
        self.samples: list[tuple[float, float]] = []

    def _run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for turn in itertools.count():
            if self._stop.is_set():
                break
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
            at = time.perf_counter()
            self.samples.append((at, self._reference()))
            self._stop.wait(self._interval_s)

    def start(self) -> "Speedometer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, window) -> float:
        """Reference over measured seconds for work done in ``window``
        (below 1 when the host ran slow).  A window with no sample in it
        takes the last one before it."""
        lo, hi = window
        inside = [cpu for at, cpu in self.samples if lo <= at <= hi]
        if not inside:
            inside = [cpu for at, cpu in self.samples if at < lo][-1:]
        if not inside:
            raise ValueError(f"no speed samples in or before {window}")
        return REF_NOMINAL_S / statistics.fmean(inside)
