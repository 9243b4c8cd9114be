"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the speed of one core switches between full and
about half speed, within tens of milliseconds, and the share of slow time
drifts over minutes, for wall and CPU time alike; the same operation times
differently from one run to the next by up to a factor of two.  A fixed
kernel of the same kind of work as the engine (scalar complex arithmetic in
the interpreter, small numpy solves) is timed right before and right after
every operation, and the operation's time is scaled to a machine on which
the kernel takes ``REFERENCE_S``.  The kernel is the benchmark's own code, so
no change to rootlocus can move it.
"""

import cmath
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.005


def _kernel():
    acc = 0j
    for i in range(3000):
        w = complex(0.3 + 1e-4 * i, 0.1)
        acc += cmath.log(w) / (w - 2.0) + abs(w) * math.atan2(w.imag, w.real)
    jac = np.array([[2.0, 0.1, 0.0], [0.1, 2.0, 0.3], [0.0, 0.3, 2.0]])
    y = np.ones(3)
    for _ in range(250):
        y = y - 0.5 * np.linalg.solve(jac, y)
    return acc, y


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(kernel_times) -> float:
    """Factor that turns a time measured while the kernel took these times
    into one at the reference speed."""
    return REFERENCE_S / statistics.fmean(kernel_times)
