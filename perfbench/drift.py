"""Drift correction: every timed interval is rescaled by a fixed reference kernel.

On a shared host the speed of one core can change by a factor of two within
a minute, so a raw interval says as much about the neighbours as about the
program.  The reference kernel below is timed in the same process right
before and right after each interval, and the interval is multiplied by
``REF_NOMINAL_S / ref_measured``.  The kernel uses only stdlib ints,
allocates no containers and calls no sloccrank code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

# The kernel's time on an unloaded core of the reference machine (see README).
REF_NOMINAL_S = 0.0025
REF_ROUNDS = 2000
REF_RUNS_PER_SIDE = 5

_MODULUS = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF61


def reference_kernel() -> int:
    """Multi-limb multiply, reduce and gcd: the int work a Fraction does."""
    a = 0x9E3779B97F4A7C15F39CC0605CEDC835
    b = 0xC2B2AE3D27D4EB4F165667B19E3779F9
    acc = 1
    for k in range(REF_ROUNDS):
        a = (a * b + k) % _MODULUS
        acc = math.gcd(a, acc * 3 + k) + (a >> 64)
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Interval:
    """One drift-corrected measurement; ``raw_s`` and ``ref_s`` are kept for the record."""

    __slots__ = ("raw_s", "ref_s")

    def __init__(self, raw_s: float, ref_s: float) -> None:
        self.raw_s = raw_s
        self.ref_s = ref_s

    @property
    def factor(self) -> float:
        return REF_NOMINAL_S / self.ref_s

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor


def reference_runs() -> list[float]:
    return [time_reference() for _ in range(REF_RUNS_PER_SIDE)]


def measure(fn, *args):
    """Run ``fn(*args)`` between two sets of reference kernels; return (result, Interval).

    ``ref_measured`` is the median of the kernel times from both sides, so a
    kernel run that the scheduler preempted does not skew the correction.
    """
    before = reference_runs()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, Interval(raw, statistics.median(before + reference_runs()))
