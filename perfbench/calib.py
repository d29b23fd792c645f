"""Wall times rescaled to a reference CPU speed.

The 2-core hosts this benchmark runs on change speed by up to 3x, within a
second as well as over minutes, and a pure-Python loop slows with them.  So
while a timed call runs, a real-time timer interrupts it every
SAMPLE_INTERVAL_S and runs a short fixed kernel, whose duration k measures
the host's speed at that moment.  The call's wall time, less the time spent
in the kernels, is rescaled by the mean of REFERENCE_KERNEL_S / k: the result
is still seconds, the call's duration at the speed at which the kernel takes
REFERENCE_KERNEL_S.  No thread is started: the kernel runs in the signal
handler, between the interrupted code's bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

T = TypeVar("T")

KERNEL_STEPS = 300
# median kernel time on a quiet 2-core x86-64 host with CPython 3.11
REFERENCE_KERNEL_S = 0.0001
SAMPLE_INTERVAL_S = 0.005
MIN_SAMPLES = 5


def kernel(n: int = KERNEL_STEPS) -> int:
    """Dict lookups, tuple keys and modular products, like the solvers' inner loops."""
    p = 65537
    memo: dict[tuple[int, int], int] = {}
    acc = 1
    for i in range(n):
        key = (i & 31, (i >> 5) & 31)
        acc = (acc * 40503 + memo.get(key, i)) % p
        memo[key] = acc
    return acc


def _sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


@dataclass
class Timing:
    raw: float  # wall seconds, kernels excluded for in-process calls
    seconds: float  # the same at the reference speed
    samples: int


class Clock:
    """Times calls while sampling the host's speed during them."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []  # every sample taken, for the run's record

    def _run(self, fn: Callable[[], T], own_process: bool) -> tuple[T, Timing]:
        samples: list[float] = []

        def on_alarm(signum, frame) -> None:
            samples.append(_sample())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = (t1 - t0) - (sum(samples) if own_process else 0.0)
        while len(samples) < MIN_SAMPLES:
            samples.append(_sample())
        self.kernel_s += samples
        speed = statistics.fmean(REFERENCE_KERNEL_S / k for k in samples)
        return result, Timing(raw, raw * speed, len(samples))

    def time(self, fn: Callable[[], T]) -> tuple[T, Timing]:
        """Time work done in this process; the kernels' own time is taken out."""
        return self._run(fn, own_process=True)

    def wait(self, fn: Callable[[], T]) -> tuple[T, Timing]:
        """Time a wait for another process, which the kernels do not delay."""
        return self._run(fn, own_process=False)
