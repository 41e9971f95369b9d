"""A fixed reference kernel, timed beside the program's operations.

The host's speed moves under other tenants' load: seconds-long spells at
about half speed, and whole minutes in one state or the other.  A wall time
then says as much about the spell as about the program.  So every timed
operation is also expressed in units of this kernel, timed just before and
just after it: ``scaled = seconds / reference seconds``.  The kernel is the
benchmark's own code and never changes with the program; it mixes the kinds
of work the program does (interpreter loops, small numpy products, a sweep
over a few MB), so a slow spell stretches it and the operations alike.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = np.random.default_rng(0).standard_normal((12, 12)) / 4.0
_BUFFER = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB
REPEATS = 3


def kernel() -> float:
    """About 2 ms of fixed work, in three near-equal parts."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    m = _MATRIX
    for _ in range(150):
        m = np.tanh(m @ _MATRIX)
    return total + float(m[0, 0]) + float(_BUFFER.sum())


def sample() -> float:
    """Seconds of one kernel call: the median of ``REPEATS`` back-to-back
    calls, so a single interruption does not set it."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]
