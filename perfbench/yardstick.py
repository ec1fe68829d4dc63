"""Machine-speed yardstick for the end-to-end timings.

On the shared 2-core VM this benchmark was built on, the same code runs up to
twice as fast in one minute as in the next.  CPU time drifts with wall time,
so the cause is contention outside the VM, not waiting.  Unscaled medians of
ten 25-second runs then spread by 5-25% between their quartiles.  A fixed
kernel timed in run.py right before and right after each child process
measures the machine's speed at that moment, and dividing by it removes most
of that drift.

Workloads slow down by different amounts: cache-resident FFTs and
interpreter-bound code more, memory-streaming array work less.  So the
kernel mixes the three kinds of work mpnls does, weighted about 2:1:1 in
time: FFT pairs on one 128² frame, a transform and elementwise pass over a
40-frame stack, and a Python loop over small 1-D transforms.  It lives in the
benchmark, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Reference seconds: a timing is reported as wall × NOMINAL_S / kernel time,
# the time it would take where the kernel takes NOMINAL_S (its median on the
# VM above in its usual state).
NOMINAL_S = 0.13


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._frame = rng.standard_normal((128, 128)) + 0j
        self._stack = rng.standard_normal((40, 128, 128)) + 0j
        self._phase = np.exp(1j * rng.standard_normal((128, 128)))
        self._line = np.zeros(256, dtype=np.complex128)

    def _kernel(self, scale: int) -> float:
        acc = 0.0
        for _ in range(200 // scale):
            acc += float(np.fft.ifftn(np.fft.fftn(self._frame)).real[0, 0])
        spec = np.fft.fftn(self._stack[: 40 // scale], axes=(1, 2)) * self._phase
        acc += float(np.sum(np.abs(np.fft.ifftn(spec, axes=(1, 2))) ** 2))
        for i in range(1500 // scale):
            acc += float(np.abs(np.fft.ifft(np.fft.fft(self._line))).max()) + i * 1e-9
        return acc

    def measure(self) -> float:
        """Seconds for one pass of the kernel, after a short untimed warm-up."""
        self._kernel(20)
        start = time.perf_counter()
        self._kernel(1)
        return time.perf_counter() - start
