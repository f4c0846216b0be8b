"""Timings at a reference host speed, for steady figures on a shared host.

The benchmark host is a two-core VM on a shared machine. Three things in
it swing with its neighbours, in stretches of seconds to minutes, and none
is the program's doing:

* the speed of the vCPU itself, by up to 1.7x;
* how late a thread wakes from the injected 1 ms chat delay: 0.1 ms on a
  quiet host, 0.4-1.6 ms on average per call in busy stretches. A QA pass
  makes 2,000 such calls one after the other;
* how long the hypervisor keeps the vCPU from running at all.

So the benchmark reports its bounded timings at a reference speed: each
injected wait counts at its nominal length, serial work that waits on the
chat backend is timed in CPU time (see ``timed``), and the rest of the
time is divided by how much slower than the reference fixed probes ran
during the same run. The raw timings are printed beside them.

The probes use no memaug code: a Python loop over a small dict
(interpreter speed), row-wise dot products over a 512 KB array (numpy
speed), and allocating and filling a 40 MB array, the size of a
flat-search temporary over 20,000 rows (page faults and memory bandwidth).
Each is run once untimed before it is timed, so that the first two
measure the core with warm caches and not what the work left behind. A
workload samples them between its operations or phases, never while its
own work runs. On this host, over 10- to 20-second windows, the mean of
the three correlated with serve-20k's op time at 0.85-0.90, and scaling
by it cut that time's spread from 0.10 to 0.05 (the allocation probe
alone tracked it best, at 0.90-0.94; the first two tracked a qa-pipeline
pass at 0.65).
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter as clock, process_time

import numpy as np

# Probe times at the reference speed: typical medians on the benchmark host.
REFERENCE_S = {"python": 0.0025, "numpy": 0.0014, "alloc": 0.014}


class HostSpeed:
    def __init__(self):
        self.table = {i: i for i in range(512)}
        self.rows = np.random.default_rng(0).standard_normal((256, 256))
        self.query = np.ones(256)
        self.samples: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}

    def sample(self, repeats: int = 8) -> float:
        """Time each probe ``repeats`` times after one untimed run; returns the seconds taken."""
        began = clock()
        for kind, task in (("python", self._python), ("numpy", self._numpy), ("alloc", self._alloc)):
            task()
            for _ in range(repeats):
                start = clock()
                task()
                self.samples[kind].append(clock() - start)
        return clock() - began

    def _python(self) -> int:
        table, total = self.table, 0
        for i in range(20_000):
            total += table[i & 511]
        return total

    def _numpy(self) -> None:
        for _ in range(40):
            np.einsum("ij,j->i", self.rows, self.query)

    @staticmethod
    def _alloc() -> None:
        np.ones(5_120_000)

    def ratio(self) -> float:
        """Probe time over reference time, averaged over the probes."""
        return statistics.fmean(
            statistics.median(times) / REFERENCE_S[kind] for kind, times in self.samples.items()
        )

    def metrics(self, prefix: str = "") -> dict:
        out = {
            f"{prefix}probe_{kind}_ms": (statistics.median(times) * 1000, "ms")
            for kind, times in self.samples.items()
        }
        out[f"{prefix}probe_samples"] = (len(self.samples["python"]), "count")
        return out


@dataclass
class Timing:
    """Time some work took, and the injected chat waits on its critical path."""

    seconds: float = 0.0  # wall clock
    wait_s: float = 0.0  # the waits at their nominal delay
    overshoot_s: float = 0.0  # how much longer the waits actually took
    cpu_s: float | None = None  # process CPU time, for serial work that waits

    def at_reference(self, ratio: float) -> float:
        """Seconds with nominal waits and the rest at the reference speed."""
        busy = self.seconds - self.overshoot_s - self.wait_s
        if self.cpu_s is not None:
            busy = min(busy, self.cpu_s)
        return self.wait_s + max(busy, 0.0) / ratio


@contextmanager
def timed(backend=None, lanes: int = 1):
    """Time the body; ``backend``'s calls in it were spread over ``lanes`` threads.

    Each thread waits for its own calls one after another, so a lane's share
    of the waits, ``1 / lanes``, lies on the critical path. Serial work that
    waits on the backend is also timed in CPU time: a sleeping thread uses
    none, and neither does a vCPU the hypervisor hands to another tenant,
    so CPU time leaves out how late the thread woke and how long the host
    kept it from running. On this host the same serve requests took up to
    1.4x longer on the wall clock in such stretches while the probes'
    medians did not move. Such work counts the smaller of its CPU time and
    its wall time less the waits, so that a later change that overlaps its
    waits across threads still shows the overlap. A pool's CPU time would
    add up both threads, so pooled work keeps the wall clock less the
    waits' overshoot.
    """
    timing = Timing()
    calls, waited = backend.totals() if backend is not None else (0, 0.0)
    cpu = process_time()
    start = clock()
    yield timing
    timing.seconds = clock() - start
    if backend is not None:
        now_calls, now_waited = backend.totals()
        nominal = (now_calls - calls) * backend.delay_s
        timing.wait_s = nominal / lanes
        timing.overshoot_s = (now_waited - waited - nominal) / lanes
        if lanes == 1:
            timing.cpu_s = process_time() - cpu
