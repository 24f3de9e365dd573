"""The machine's speed, measured next to every timed call.

On a shared virtual machine the CPU time of the same Python code swings
by up to a factor of two, in spells that last from seconds to minutes,
as other tenants load the host.  A run is too short to wait such a spell
out, so every CPU time the benchmark reports is scaled to a reference
speed instead:

    reported = measured * REFERENCE_MS / reference

where ``reference`` is the CPU time a fixed kernel took at the same
moment in the same process.  The kernel is pure standard-library Python
of the library's own kind (Fraction arithmetic on dicts keyed by small
tuples, plus an integer loop), so a spell slows it about as much as it
slows the library, and no change to the library changes it.  On a
2-vCPU VM, 21 passes of basis_verify in one run had CPU times that spread
over a factor of 1.97 (quartile distance 49 % of the median), and 1.34
(6 %) scaled.  ``REFERENCE_MS`` is the kernel's time on that VM in its
fast spells, so there reported and measured times agree.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import median

REFERENCE_MS = 0.48   # kernel() on a 2-vCPU VM in its fast spells, Python 3.11
EVERY_S = 0.02        # at most this much timed CPU time between samples
WINDOW = 5            # a call's reference is the median of this many samples


def kernel():
    s = 0
    for i in range(1800):
        s += i * i % 7
    acc = {}
    for i in range(4):
        for j in range(16):
            key = ((j * 31 + i) % 97, j & 3)
            acc[key] = acc.get(key, 0) + Fraction(j + 1, i + 2) * 3 - 1
    return s, sorted(acc.items())


class Speedometer:
    """Samples of the kernel's CPU time, each at a moment of process time."""

    def __init__(self):
        self.samples: list = []   # (moment, seconds)

    def sample(self, count: int = 1):
        for _ in range(count):
            t0 = time.process_time()
            kernel()
            t1 = time.process_time()
            self.samples.append(((t0 + t1) / 2, t1 - t0))

    def reference(self, start: float, end: float) -> float:
        """The kernel's time around [start, end]: the median of the WINDOW
        samples nearest to the middle of it."""
        mid = (start + end) / 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:WINDOW]
        return median(t for _, t in near)


def scaled(value: float, reference_ms: float) -> float:
    """A time `value` (any unit) at the reference speed, given the kernel's
    time in milliseconds at the moment it was measured."""
    return value * REFERENCE_MS / reference_ms
