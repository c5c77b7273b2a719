"""Machine-speed reference for the benchmark's times.

The benchmark runs on shared machines whose speed for a single-threaded
Python process drifts by up to a factor of two within minutes, while the
timed programs do not change.  ``kernel``, a fixed pure-Python computation
of the same kind as chainlab's (exact Fraction arithmetic into a dict with
tuple keys), therefore runs in the benchmark's own process after every timed
job and cold start, and each of those times is reported scaled by
REFERENCE_S / (the mean of the kernel times just before and just after it).
The result is the time the job would take on a machine that runs the kernel
in REFERENCE_S seconds.  The kernel does not use chainlab, so no change to
the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.1


def kernel(n=16000):
    acc = {}
    x = Fraction(3, 7)
    for i in range(n):
        key = (i % 97, i % 89)
        v = acc.get(key, Fraction(0)) + x * (i % 11 + 1)
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
        x = x * Fraction(5, 4) if i % 3 else x / 3
        if x.denominator > 10 ** 12:
            x = Fraction(3, 7)
    return len(acc)


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
