"""Wall-clock timing scaled by the machine's speed at the time.

On a shared machine the same code runs up to twice as slow for seconds at
a time, so raw wall times of two runs of one program can differ by far more
than the change being measured.  :class:`Stopwatch` samples a fixed
reference kernel on a timer signal while the program runs and scales each
timed interval by the kernel's speed during it.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np


_B = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, -0.3], [0.0, -0.3, 0.0]])
_G = np.diag([1.0, 1.0, -1.0])


def _reference_kernel(steps: int = 40) -> float:
    """Fixed work like the program's hot loops: 3x3 RK4 steps, a Gram check
    and scalar Python arithmetic, about 1 ms on an idle core."""
    s, h, acc = np.eye(3), 1e-3, 0.0
    for _ in range(steps):
        k1 = _B @ s
        k2 = _B @ (s + 0.5 * h * k1)
        k3 = _B @ (s + 0.5 * h * k2)
        k4 = _B @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += float(np.max(np.abs(s @ _G @ s.T - _G)))
        for j in range(16):
            acc += j * 1e-9
    return acc


class Stopwatch:
    """Times items and scales each by the machine's speed while it ran.

    While the stopwatch runs, a timer signal every ``TICK_S`` times the
    reference kernel between the program's bytecodes.  An item's scaled latency is its wall time times ``REF_S``
    over the mean kernel time sampled during it: seconds at the speed at
    which the kernel takes ``REF_S`` (about that of a 2 GHz Xeon core with
    a busy neighbour).  The kernel costs about 3 % of each item.
    """

    REF_S = 0.001
    TICK_S = 0.05

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        self.ticks.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def item(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(t0, time.perf_counter())

    def record(self, t0: float, t1: float) -> None:
        """Add an item that ran from ``t0`` to ``t1`` (perf_counter seconds)."""
        self.raw.append(t1 - t0)
        self.spans.append((t0, t1))

    def factors(self) -> np.ndarray:
        """Per item, ``REF_S`` over the mean kernel time sampled during it.
        An item too short to hold a tick uses the nearest tick; with no
        tick at all, every factor is 1."""
        if not self.ticks:
            return np.ones(len(self.raw))
        starts = np.array([t for t, _ in self.ticks])
        kernel = np.array([k for _, k in self.ticks])
        out = []
        for t0, t1 in self.spans:
            inside = (starts >= t0) & (starts <= t1)
            k = kernel[inside].mean() if inside.any() else kernel[np.argmin(np.abs(starts - t0))]
            out.append(self.REF_S / k)
        return np.array(out)

    def scaled(self) -> list[float]:
        """Scaled latencies: each item's wall time times its factor."""
        return [raw * f for raw, f in zip(self.raw, self.factors())]

    def factors_at(self, times) -> np.ndarray:
        """The factor of the item that started last at or before each time
        (the first item's for earlier times), to scale work done inside items."""
        starts = np.array([t0 for t0, _ in self.spans])
        i = np.searchsorted(starts, np.asarray(times, dtype=float), side="right") - 1
        return self.factors()[np.clip(i, 0, len(starts) - 1)]
