"""Machine-speed probe: rates the machine while a pass runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, and more over seconds: the same CPU-bound
pass can take 1.4 times as long a minute later.  A wall time alone then
measures the neighbours as much as the program.

The probe times a fixed pure-Python kernel (Fraction arithmetic and a dict
with tuple keys, the instruction mix of the package) at short intervals
*during* a pass: a one-shot ``SIGALRM`` timer interrupts the pass between
bytecodes every ``INTERVAL_S`` of pass time, the handler runs the kernel
once and re-arms the timer.  Because the kernel runs interleaved with the
program, it is slowed by whatever slows the program at that moment.  The
handler's own time is kept apart, so the caller can take it out of the
pass time it interrupted.

``SpeedProbe.normalise(work_s)`` scales a pass time by ``REFERENCE_KERNEL_S``
over the mean kernel time, giving the pass time at a fixed machine speed:
the speed at which one kernel call takes ``REFERENCE_KERNEL_S``.  A set-up
cannot be interrupted from the start (the interpreter is not up yet), so it
is scaled by ``kernel_mean()``, ``SETUP_CALLS`` kernel calls run right after
it.  The kernel imports nothing from the package, so a change to the
program moves the pass and set-up times and not the kernel.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05            # pass time between two kernel calls
SETUP_CALLS = 100            # back-to-back kernel calls that rate the machine after a set-up
REFERENCE_KERNEL_S = 0.0021  # a typical kernel time on the 2-CPU Xeon the bounds were set on


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i * 7919 % 1000 + 1, i + 3)
        acc += f * f
        key = (i % 17, i % 13, i % 11)
        table[key] = table.get(key, 0) + i
    return acc


def normalise(seconds, kernel_s):
    """``seconds`` measured while one kernel call took ``kernel_s``, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def kernel_mean(calls=SETUP_CALLS):
    """Mean time of ``calls`` back-to-back kernel calls: the machine's speed right now."""
    clock = time.perf_counter
    total = 0.0
    for _ in range(calls):
        t0 = clock()
        kernel()
        total += clock() - t0
    return total / calls


class SpeedProbe:
    """Context manager: samples the kernel every ``interval`` s of pass time."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []     # seconds per kernel call
        self.spent = 0.0      # seconds spent in the handler, kernel included
        self._previous = None
        kernel()              # warm up before the first timed call

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        kernel()
        self.samples.append(clock() - t0)
        self.spent += clock() - t0
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalise(self, work_s):
        """``work_s`` at the reference speed; ``work_s`` itself without samples."""
        if not self.samples:
            return work_s
        return normalise(work_s, statistics.fmean(self.samples))
