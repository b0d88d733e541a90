"""Reference kernels that put every reported time on one nominal host speed.

The shared host this benchmark was built on switches between fast and slow
states that last from seconds to minutes; an identical op's wall time moves
by up to 1.8x between them (see NOTES.md).  Each timed op is therefore
paired with a short fixed reference kernel that does not touch
``wignerflow``.  The op's wall time is rescaled by ``nominal / measured``
reference time, i.e. reported as the time it would take on a host where the
reference kernel takes exactly its nominal time.  A change to the library
moves the op and not the reference, so it moves the reported time in full.

Two kernels match the two kinds of work the workloads do: ``python``
(scalar interpreter work, for the tunneling series and CSV rendering) and
``numpy`` (FFTs and gathers over MB-sized arrays, for the transform and the
gridded flow).  Interpreter-bound code slows more than NumPy-bound code in
a slow state, so a workload is calibrated by the kernel of its own kind.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Nominal kernel times; reported times are wall times on a host where the
# kernel takes this long (about its median on the 2-vCPU host in NOTES.md).
NOMINAL_NS = {"python": 6_000_000, "numpy": 5_000_000}
# A reference is the median of this many kernel timings centred on an op.
WINDOW = 5
# Kernel timings added after set-up to those made during it.
SETUP_SAMPLES = 5


def _python_kernel() -> float:
    total = 0.0
    for i in range(20_000):
        x = i * 3e-4
        total += math.erfc(x) * math.exp(-x) + math.sqrt(x + 1.0)
    return total


class _NumpyKernel:
    # Every array is allocated once: a kernel that allocated MB-sized arrays
    # would pay page faults or not depending on what the process did before.
    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((256, 1024)) + 0j
        self.spectrum = np.empty_like(self.field)
        self.index = rng.integers(0, self.field.size, 200_000)
        self.gathered = np.empty(self.index.size, dtype=complex)
        self.values = np.empty(self.index.size)

    def __call__(self) -> float:
        np.fft.fft(self.field, axis=1, out=self.spectrum)
        np.take(self.spectrum.reshape(-1), self.index, out=self.gathered)
        np.abs(self.gathered, out=self.values)
        np.negative(self.values, out=self.values)
        np.exp(self.values, out=self.values)
        return float(self.values.sum())


class Reference:
    """Times one reference kernel and turns wall times into nominal times."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_ns = NOMINAL_NS[kind]
        self._kernel = _python_kernel if kind == "python" else _NumpyKernel()
        self._kernel()  # first call pays for imports and page faults

    def time_ns(self) -> int:
        if self.kind == "numpy":
            # An op evicts the kernel's arrays from the cache, by more or less
            # with its working set; timing a warm call keeps the op out of it.
            self._kernel()
        start = time.perf_counter_ns()
        self._kernel()
        return time.perf_counter_ns() - start


def local_scales(reference_ns: list[int], nominal_ns: int, window: int = WINDOW) -> list[float]:
    """Scale of each position: nominal over the median of the ``window`` timings centred on it."""
    half = window // 2
    n = len(reference_ns)
    return [nominal_ns / statistics.median(reference_ns[max(0, i - half):i + half + 1]) for i in range(n)]
