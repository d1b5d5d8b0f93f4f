"""Scale step times by the host's speed, measured with a fixed kernel.

On the shared 2-vCPU VM the benchmark was built on, identical work ran at
two or three speed levels up to 1.8x apart, each held for seconds at a
time, and whole runs a few minutes apart differed by 25%. CPU time grew
with wall time, so the slowdown was not time spent descheduled, and no
statistic over one run's samples removes it.

So every timed step is followed by a run of a fixed reference kernel that
is not auprobe code: a small GEMM, an im2col-style window copy, a sort in
Python and a pass over a 2 MB array, the kinds of work auprobe does. A
step's scaled time is its wall time times REFERENCE_S over the mean kernel
time just before and just after it: the time the step would take on a host
where the kernel takes REFERENCE_S. The kernel's data is touched before it
is timed, so what the step left in the caches does not set its time.

In two 150 s trials that alternated steps of a desk-scale workload with
the kernel, the coefficient of variation of 15 s means fell, raw to
scaled, from 0.14-0.21 to 0.06-0.07 for ActivationDB.load + profile_all,
0.12-0.14 to 0.03-0.05 for one montage, 0.13-0.16 to 0.04-0.08 for a
200-image harvest and 0.09-0.12 to 0.02-0.04 for a 100-image epoch. Kernels
weighted towards Python objects tracked worse. A step of several seconds
is tracked only at its ends, which is why the benchmark keeps steps short.

A change to auprobe cannot move the kernel, so scaled times compare
commits as wall times would, with less of the host's noise. Wall times
are kept beside them on the details line.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time that scaled times refer to: about the kernel's time on the
# 2-vCPU VM (numpy 2.4.6, OpenBLAS 0.3.31, one thread) at its faster level.
REFERENCE_S = 0.0085
_ROUNDS = 40
# The kernel's own time varies by about 15% from run to run, so a step
# longer than LONG_STEP_S (a few of those per benchmark run) is followed by
# KERNEL_REPEATS kernel runs and scaled by their mean.
LONG_STEP_S = 0.5
KERNEL_REPEATS = 4

clock = time.perf_counter


class HostSpeed:
    """Times steps and scales them by the reference kernel's time around them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((96, 96))
        self._image = rng.random((8, 24, 24))
        self._stream = rng.random(1 << 18)
        self._items = [float(v) for v in rng.random(_ROUNDS + 300)]
        self.kernel_s: list[float] = []
        self._last = self._measure(KERNEL_REPEATS)

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(_ROUNDS):
            acc += float((self._matrix @ self._matrix)[0, 0])
            cols = np.lib.stride_tricks.sliding_window_view(self._image, (3, 3), axis=(1, 2))
            acc += float(cols.reshape(-1, 9).sum())
            acc += sum(sorted(self._items[i:i + 300]))
        return acc + float(self._stream.copy().sum())

    def _measure(self, repeats: int) -> float:
        """Mean kernel time over `repeats` runs, with the kernel's data in cache."""
        self._matrix.sum()
        self._stream.sum()
        times = []
        for _ in range(repeats):
            start = clock()
            self._kernel()
            times.append(clock() - start)
        self.kernel_s.extend(times)
        return sum(times) / repeats

    def time(self, step):
        """Run step(); return (its result, wall seconds, scaled seconds)."""
        before = self._last
        start = clock()
        result = step()
        wall = clock() - start
        self._last = self._measure(KERNEL_REPEATS if wall > LONG_STEP_S else 1)
        return result, wall, wall * 2 * REFERENCE_S / (before + self._last)
