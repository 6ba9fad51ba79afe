"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same work can take 1.5 to 2 times longer for tens
of seconds at a time, and CPU time drifts with wall time, so wall-clock
figures of two runs are hard to compare.  The benchmark therefore runs this
kernel between tori and reports torus times in multiples of its duration
(the "ref" unit).  The kernel mixes what the workloads do: dictionary and
tuple work in the interpreter, many tiny numpy operations, mid-size FFTs
and a broadcast reduction like the plateau bump's distance.  It never calls
kamtori, so a change to the package moves the torus time and leaves the
reference alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "Reference"]

# Fixed scale for reporting set-up time in seconds: a set-up time t taken
# while one pass of the kernel needs r seconds is reported as
# t * NOMINAL_S / r.  On the 2-core x86-64 machine the benchmark was written
# on, a pass took 8 to 15 ms, depending on how busy the machine was.
NOMINAL_S = 0.010


class Reference:
    """Runs the kernel on inputs built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20120809)
        self.small = [rng.standard_normal(4) for _ in range(48)]
        self.grid = rng.standard_normal((65, 65, 4))
        self.cloud = rng.random((500, 129, 2))

    def _interpreter(self) -> int:
        table: dict[tuple[int, int], int] = {}
        for k in range(10000):
            key = (k % 97, k // 97)
            table[key] = table.get(key, 0) + k * k % 7
        return len(table)

    def _tiny_arrays(self) -> complex:
        acc = 0j
        for j in range(10):
            for i, a in enumerate(self.small):
                acc += complex(np.sum(np.conj(a) * np.exp(2j * np.pi * 0.01 * i * j)))
        return acc

    def _fft(self) -> float:
        axes = (0, 1)
        spec = np.fft.fftn(self.grid, axes=axes)
        return float(np.real(np.fft.ifftn(spec, axes=axes)).sum())

    def _broadcast(self) -> float:
        wrapped = self.cloud - np.round(self.cloud)
        return float(np.min(np.max(np.abs(wrapped), axis=-1), axis=-1).sum())

    def _pass(self) -> float:
        t0 = time.perf_counter()
        self._interpreter()
        self._tiny_arrays()
        self._fft()
        self._broadcast()
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median wall time of three passes over all four parts."""
        return statistics.median(self._pass() for _ in range(3))
