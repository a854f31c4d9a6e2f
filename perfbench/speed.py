"""Machine speed, sampled between items by a fixed calibration kernel.

The 2-core Xeon VM this benchmark was defined on changes speed by up to
1.8 times within a minute, for reasons outside the process: the CPU time
of a fixed loop rises and falls with its wall time.  A run therefore
samples the machine between items with a fixed pure-Python kernel and
reports each time scaled to a reference speed,

    scaled = measured * REF_KERNEL_S / (kernel time around the measurement)

so that a run on a slow stretch of the machine and a run on a fast one
report the same figures for the same code.  Over 5 s rounds of the
tables workload this cut the coefficient of variation of throughput
from 0.18 to 0.04.  The raw figures are printed next to the scaled ones.

The kernel calls no library code and runs with the garbage collector
off, so a change to the library cannot change its time other than
through the machine.
"""

from __future__ import annotations

import gc
import statistics
import time

clock = time.perf_counter

# kernel time at the reference speed: about the median on the machine
# the benchmark was defined on
REF_KERNEL_S = 0.0005
EVERY_S = 0.1       # item time between two samples
KERNEL_RUNS = 9     # kernel runs per sample; a sample is their median


def kernel():
    """Product of two sparse polynomials in dicts keyed by exponent
    tuples, then a sort: the kind of work the library's rings do."""
    a = {(i, j, (i * j) % 3): i - j + 1 for i in range(6) for j in range(6)}
    b = {(j, i, 1): 2 * i + j for i in range(5) for j in range(5)}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            v = out.get(k, 0) + va * vb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return len(sorted(out, key=lambda k: (sum(k), k)))


class Speed:
    """Kernel samples taken between measurements, in order."""

    def __init__(self):
        self.samples = []
        self._since = 0.0

    def sample(self):
        """Time the kernel now; returns the index of the sample."""
        was_on = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(KERNEL_RUNS):
                start = clock()
                kernel()
                times.append(clock() - start)
        finally:
            if was_on:
                gc.enable()
        self.samples.append(statistics.median(times))
        self._since = 0.0
        return len(self.samples) - 1

    def last(self):
        """Index of the latest sample; take one if there is none."""
        return len(self.samples) - 1 if self.samples else self.sample()

    def ran(self, seconds):
        """Count `seconds` of measured time, and sample once EVERY_S of it
        has passed since the last sample."""
        self._since += seconds
        if self._since >= EVERY_S:
            self.sample()

    def scale(self, before):
        """Factor to the reference speed for a measurement made after
        sample `before`: the mean of that sample and the next one."""
        after = min(before + 1, len(self.samples) - 1)
        local = (self.samples[before] + self.samples[after]) / 2
        return REF_KERNEL_S / local

    def speed(self):
        """Median machine speed of the run, relative to the reference."""
        return REF_KERNEL_S / statistics.median(self.samples)
