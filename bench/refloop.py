"""The frozen reference loop that every invocation time is divided by.

FROZEN: every published ``sweep_ref`` is a multiple of this loop's time.
Any change to it, even one that looks neutral, rescales every
``sweep_ref`` and makes figures from before and after incomparable; a
changed loop needs a new metric name.

The loop runs no ``holant`` code.  It mixes the three kinds of work the
CLI does: pure-Python ``int`` arithmetic, ``Fraction`` arithmetic (the
rational oracle) and small numpy kernels (the float oracle and the
series evaluation), so that a machine that slows down for one of them
slows the loop down too.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_KERNEL = np.array([0.25, 0.5, 0.25])
_SHIFTS = np.arange(12, dtype=np.uint64)


def reference_loop() -> int:
    """Fixed work of about 20 ms; returns a checksum so nothing is skipped."""
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    x = 1
    for i in range(30000):
        x = (x * 1103515245 + 12345 + i) & 0x7FFFFFFF
    a = np.linspace(0.0, 1.0, 64)
    idx = np.arange(2048, dtype=np.uint64)
    bitsum = 0
    for _ in range(150):
        a = np.convolve(a, _KERNEL)[:64]
        bits = (idx[:, None] >> _SHIFTS) & np.uint64(1)
        bitsum += int(bits.sum()) + int(np.prod(a[:8] + 1.0) > 0)
    return acc.numerator % 1000 + x + bitsum


def time_reference_loop() -> float:
    """Seconds one reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
