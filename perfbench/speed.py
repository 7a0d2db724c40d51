"""Machine-speed reference for the end-to-end times.

On a shared host the speed of a core drifts: a fixed pure-Python loop
takes anywhere from 1x to 2x its best time, in phases of seconds to
minutes, whatever runs in it.  Run-to-run spreads of raw wall time are
then far wider than any useful regression bound.  So the benchmark
times a fixed reference kernel (pure Python, no liesym code) in its own
process at evenly spaced pauses of the op run, and scales every op time
by REF_NOMINAL_S / (the kernel's time around that op).  The result is in
seconds at reference speed: the time the op takes when the kernel takes
REF_NOMINAL_S, which is about its time on a quiet 2-core Xeon with
Python 3.11.  A change to liesym does not touch the kernel, so it moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.004
REF_REPEATS = 5


def reference_kernel() -> float:
    """Allocation, dict, float, string-formatting and Fraction work, in
    roughly the mix of liesym's interpreter-bound code."""
    acc = 0.0
    table: dict[tuple[int, int], int] = {}
    parts = []
    for i in range(10000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
        x = (i + 1) * 0.001
        acc += math.pow(x, 0.75) / (1.0 + x * x)
        if i % 8 == 0:
            parts.append(f"{acc:.17g}")
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(i % 5 + 1, i)
    return acc + len(table) + len(parts) + float(q)


def reference_time() -> float:
    """Median time of the kernel over a few back-to-back calls."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def segment_factors(pause_at: list[int], refs: list[float], n_ops: int) -> list[float]:
    """Scale factor of every op: ops between two pauses use the geometric
    mean of the kernel times measured at those pauses."""
    factors = [1.0] * n_ops
    for j in range(len(pause_at) - 1):
        f = REF_NOMINAL_S / math.sqrt(refs[j] * refs[j + 1])
        for i in range(pause_at[j], pause_at[j + 1]):
            factors[i] = f
    return factors
