"""Timings rescaled to a fixed reference speed of the host.

The benchmark's host shares its CPU cores with other tenants. Its speed on
the same pure-Python work varies by up to 2x, both within a second and over
minutes, and process CPU time varies with it. Raw wall time therefore
measures the neighbours as much as routekit.

``Sampler`` measures the host's speed during the very calls it times. While
a timed call runs, a SIGALRM handler runs a fixed pure-Python kernel every
``period`` seconds of wall time and records how long the kernel took. A
timing is then reported as

    (wall time - time spent in the handler) * mean kernel speed / REFERENCE_SPEED

which is the wall time the same work takes on a host that runs the kernel
``REFERENCE_SPEED`` times a second. The kernel is the benchmark's own code,
so a change to routekit moves the rescaled time exactly as it moves the
work done; only the host's speed cancels out. The handler runs in the main
thread between bytecodes, so it samples pure-Python code throughout and
long calls into C only at their ends.
"""

from __future__ import annotations

import heapq
import signal
import time

# Kernel runs per second on the host the reference figures in README.md come
# from (a median 0.5 ms per run), so rescaled times read close to wall time
# there.
REFERENCE_SPEED = 2000.0
PERIOD_S = 0.05


def kernel() -> float:
    """Fixed pure-Python work of about 0.5 ms: dict, heap and float operations."""
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0.0
    for i in range(400):
        key = (i * 2654435761) & 255
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[0] * 0.5
    return acc + len(counts)


class Sampler:
    """Accumulates timed wall time, handler time and kernel speed samples.

    ``resume``/``pause`` bracket each timed call; ``rescaled`` gives the
    total at the reference speed.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.wall_s = 0.0  # wall time between resume and pause, handler included
        self.handler_s = 0.0  # time spent in the handler
        self.speeds: list[float] = []  # kernel runs per second, one per sample
        self._started = 0.0
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.speeds.append(1.0 / (time.perf_counter() - start))

    def _handle(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.handler_s += time.perf_counter() - start

    def resume(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def pause(self) -> float:
        """Stop sampling; returns the wall time since ``resume``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s += elapsed
        if not self.speeds:
            self._sample()  # a call shorter than the period, sampled after it
        return elapsed

    def timed(self, fn, *args):
        """``fn(*args)`` sampled; returns its result."""
        self.resume()
        try:
            return fn(*args)
        finally:
            self.pause()

    def rescaled(self) -> float:
        """The timed work's wall time at ``REFERENCE_SPEED``, in seconds."""
        speed = sum(self.speeds) / len(self.speeds)
        return (self.wall_s - self.handler_s) * speed / REFERENCE_SPEED
