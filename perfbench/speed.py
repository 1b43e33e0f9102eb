"""CPU-speed sampling, so that timings taken on a shared host compare.

On a shared 2-vCPU host the speed of the same single-threaded work swings
by 10-35% within seconds, with process CPU time as much as with wall time.
A plain loop does not track those swings; a loop of the small numpy calls
clskit makes does.  :class:`Speedometer` times such a kernel every
``PERIOD_S`` of wall time from a ``SIGALRM`` handler, in the benchmark's own
thread, while clskit runs.  The handler runs the kernel twice and keeps the
second (warm) time, so what clskit left in the caches does not count as
machine speed.  A time measured in a window is then reported at the
reference speed: minus the handler's own time, times
``REFERENCE_KERNEL_S`` over the window's mean warm kernel time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
# Median warm kernel time on the 2-vCPU host where the benchmark was defined
# (Python 3.11, numpy 2.4): it fixes the unit, so reported times there are
# close to measured ones.
REFERENCE_KERNEL_S = 0.0008


class Speedometer:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._backbone = rng.standard_normal((64, 16))
        self._head = rng.standard_normal((10, 64))
        self._rows = rng.standard_normal((50, 16))
        self.samples: list[tuple[float, float, float]] = []  # (start, in handler, warm kernel)

    def _kernel(self) -> None:
        # A forward pass and outer-product gradient per row, as clskit's
        # trainer does, at about 1 ms.
        acc = np.zeros((10, 64))
        for row in self._rows:
            hidden = np.maximum(self._backbone @ row, 0.0)
            logits = self._head @ hidden
            e = np.exp(logits - logits.max())
            acc += np.outer(e / e.sum(), hidden)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            warm = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.samples.append((start, end - start, end - warm))

    @contextmanager
    def running(self):
        """Sample every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, since: float) -> float:
        """Reference seconds per measured second, from the samples taken
        after ``since``."""
        warm = [kernel for start, _, kernel in self.samples if start >= since]
        return REFERENCE_KERNEL_S / statistics.mean(warm)

    def at_reference(self, windows: list[tuple[float, float]], scale: float) -> list[float]:
        """Each (start, seconds) window's time without the handler's, at the
        reference speed."""
        out = []
        for start, seconds in windows:
            own = sum(spent for at, spent, _ in self.samples if start <= at < start + seconds)
            out.append((seconds - own) * scale)
        return out
