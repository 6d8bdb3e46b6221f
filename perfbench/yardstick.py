"""A fixed reference kernel, timed between operations, that measures how
fast the machine runs at the moment.

On a shared virtual machine the CPU's speed drifts by up to 1.5x over tens
of seconds, in plain Python loops and NumPy array work alike, so wall times
taken minutes apart are not comparable.  The benchmark times this kernel
before operations (at most every ``EVERY_S`` seconds) and reports operation
times also in units of the kernel's median time over the same run.  A drift
of the machine slows both alike and cancels; a change to quatem moves only
the operations.  The kernel is part of the benchmark and imports nothing
from quatem.

The kernel does half its work as NumPy quaternion products on complex
arrays of about 10 MB (the shape of one chunk of the dense boundary sum)
and half as an interpreted integer loop, because quatem's operations mix
both and the two respond differently to a busy neighbour.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 2.0      # least time between two samples
CALLS = 3          # kernel calls per sample
LOOP = 600_000     # iterations of the interpreted half

_rng = np.random.default_rng(20010110)
_K = _rng.standard_normal((128, 1280, 4)) + 1j * _rng.standard_normal((128, 1280, 4))
_N = _rng.standard_normal((1280, 4)) + 1j * _rng.standard_normal((1280, 4))
_W = _rng.standard_normal(1280)


def _qmul(a, b):
    a0, a1, a2, a3 = (a[..., k] for k in range(4))
    b0, b1, b2, b3 = (b[..., k] for k in range(4))
    return np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                     a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0], axis=-1)


def kernel() -> float:
    """The reference work; returns a value so that none of it is skipped."""
    r = np.sqrt((_K.real ** 2).sum(-1)) + 0.5
    block = np.einsum("n,mnk->mk", _W, _qmul(_K * (np.exp(1j * r) / r)[..., None], _N))
    s = 0
    for i in range(LOOP):
        s += i * i
    return float(abs(block).sum()) + s


class Yardstick:
    """Samples of the kernel's wall time over one run."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        """Time the kernel CALLS times, if EVERY_S has passed (or ``force``)."""
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        for _ in range(CALLS):
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def median(self) -> float:
        return statistics.median(self.times)
