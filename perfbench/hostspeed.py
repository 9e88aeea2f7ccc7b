"""Host-speed calibration: a fixed kernel, timed between items.

On a shared virtual machine the same code runs up to about 1.7 times slower
at some times than at others, in phases that last from under a second to
minutes, because other tenants load the same cores.  A run measured at one
time is then not comparable with a run measured at another.  The benchmark
therefore reports its timings at a reference host speed: an item's latency
is multiplied by ``REFERENCE_S / c``, where ``c`` is the mean of the kernel
times measured just before and just after the item.

The kernel does what the program's optimizers do, numpy arithmetic on small
complex arrays inside a Python loop plus plain Python arithmetic, so it slows
down with the host as the program does.  It does not use grothq, so a change
to the program moves the normalized times exactly as much as the raw ones.
"""

import time

import numpy as np

# The kernel's time at the reference speed: about its fast-phase time on the
# 2-core virtual machine the benchmark was written on.
REFERENCE_S = 0.25e-3
REPEATS = 3                     # a measurement is the fastest of three kernels

_A = (np.random.default_rng(0).standard_normal((16, 8))
      + 1j * np.random.default_rng(1).standard_normal((16, 8)))
_PHASES = np.exp(1j * np.linspace(0.0, 1.0, 40))


def kernel():
    acc = 0.0
    for phase in _PHASES:
        acc += float(np.abs((_A * phase).sum(axis=1)).max())
    s = 0
    for i in range(1500):
        s += i * i
    return acc + s


def measure():
    """Seconds one kernel takes now: the fastest of ``REPEATS`` back-to-back runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before, after):
    """Scale from seconds measured between two kernel times to reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
