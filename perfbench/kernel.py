"""The reference kernel that turns raw seconds into reference seconds.

The machine this benchmark runs on is shared, and its speed drifts by
tens of percent between processes.  A fixed pure-Python kernel, timed
beside the measured work, drifts with it.  Every timing the benchmark
reports is ``raw * KERNEL_REF_S / kernel_s``: the time the operation
would have taken on a machine where the kernel takes ``KERNEL_REF_S``.

This module imports nothing from ``repro``, so a change to the program
cannot change the kernel.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

#: The kernel's median time on the machine the benchmark was calibrated
#: on (2 shared x86-64 cores, CPython 3.11).  A constant: changing it
#: rescales every reported timing.
KERNEL_REF_S = 0.0080

_SLOTS = 1 << 18
_table: list[int] = []
_index: dict[int, int] = {}


def kernel() -> float:
    """Run the fixed kernel once with GC off; return its raw seconds.

    Random reads, swaps and dict probes over a 256k-slot list and a
    32k-entry dict: like the solver's clause arena and watch lists, the
    working set spills out of the private caches, so the kernel slows
    down when a neighbour contends for cache and memory bandwidth, not
    only when the core is slower.  A kernel that fits in L1 tracked the
    solver's drift two to three times worse.
    """
    if not _table:
        _table.extend(range(_SLOTS))
        _index.update((i * 7, i) for i in range(1 << 15))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table, index, mask = _table, _index, _SLOTS - 1
        t0 = time.perf_counter()
        x = 987654321
        acc = 0
        for _ in range(12000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = x & mask
            k = (j * 31) & mask
            table[j], table[k] = table[k], table[j]
            acc += index.get((x & 32767) * 7, 0)
        elapsed = time.perf_counter() - t0
        if acc <= 0:  # keeps the loop's result live
            raise AssertionError("kernel result")
        return elapsed
    finally:
        if was_enabled:
            gc.enable()


class KernelSampler:
    """Kernel runs interleaved with timed work, such as set-up.

    The sampler tallies the time its own kernels take, so the caller can
    subtract it; kernels spread through the work track the machine's
    speed during it far better than a burst of them at one edge.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, repeats: int = 1) -> None:
        t0 = time.perf_counter()
        self.samples += [kernel() for _ in range(repeats)]
        self.spent += time.perf_counter() - t0

    def median(self) -> float:
        return statistics.median(self.samples)


def to_reference(raw_seconds: float, kernel_s: float) -> float:
    """Raw seconds measured beside a ``kernel_s`` kernel -> reference s."""
    return raw_seconds * KERNEL_REF_S / kernel_s


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def window_normalizers(kernels: list[float], half_width: int = 4) -> list[float]:
    """Per-operation normalizer: the median kernel in a window around it.

    ``kernels[i]`` was timed right after operation ``i``.  A single
    kernel sample can catch a context switch; the median of the nine
    samples around an operation cannot, yet still tracks drift on the
    scale of a few seconds.
    """
    out = []
    for i in range(len(kernels)):
        lo, hi = max(0, i - half_width), min(len(kernels), i + half_width + 1)
        out.append(statistics.median(kernels[lo:hi]))
    return out
